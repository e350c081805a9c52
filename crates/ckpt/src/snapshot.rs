//! Full-state snapshots with atomic rename-into-place.
//!
//! Layout:
//!
//! ```text
//! [magic: 8 bytes "PSTKSNP\0"] [format version: u32 LE]
//! [len: u32 LE] [crc: u64 LE, FNV-1a of payload] [payload: JSON]
//! ```
//!
//! A snapshot is written to a sibling `*.tmp` file, fsynced, then
//! renamed over the live path; readers therefore always see either the
//! previous snapshot or the new one, never a torn hybrid. Unlike the
//! WAL, a snapshot that fails its checksum is an error, not a tail to
//! trim — partial snapshots cannot exist by construction, so corruption
//! here means the file was damaged after the fact.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use serde::{Serialize, Value};

use crate::error::CkptError;
use pstack_trace::hash64;

/// First 8 bytes of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"PSTKSNP\0";

/// Format version this build writes and understands.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Write `state` atomically to `path`.
pub fn write_snapshot<T: Serialize>(path: &Path, state: &T) -> Result<(), CkptError> {
    let json = serde_json::to_string(&state.to_value()).map_err(|e| CkptError::Encode {
        detail: e.to_string(),
    })?;
    let bytes = json.as_bytes();
    let mut out = Vec::with_capacity(24 + bytes.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&hash64(bytes).to_le_bytes());
    out.extend_from_slice(bytes);

    let tmp = path.with_extension("snap.tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| CkptError::io(&tmp, e))?;
    file.write_all(&out).map_err(|e| CkptError::io(&tmp, e))?;
    file.sync_data().map_err(|e| CkptError::io(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| CkptError::io(path, e))?;
    sync_parent_dir(path);
    Ok(())
}

/// Read and verify a snapshot. Missing file is the typed
/// [`CkptError::MissingSnapshot`]; any validation failure is
/// [`CkptError::Corrupt`] or [`CkptError::SchemaMismatch`].
pub fn read_snapshot(path: &Path) -> Result<Value, CkptError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CkptError::MissingSnapshot {
                path: path.display().to_string(),
            })
        }
        Err(e) => return Err(CkptError::io(path, e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| CkptError::io(path, e))?;

    if bytes.len() < 24 {
        return Err(CkptError::corrupt(path, "file shorter than the preamble"));
    }
    if bytes[..8] != SNAP_MAGIC {
        return Err(CkptError::corrupt(
            path,
            "bad magic; not a session snapshot",
        ));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(CkptError::SchemaMismatch {
            path: path.display().to_string(),
            expected: SNAPSHOT_FORMAT_VERSION,
            found: version,
        });
    }
    let len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let crc = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    if bytes.len() - 24 != len {
        return Err(CkptError::corrupt(
            path,
            format!(
                "payload length {} does not match header {len}",
                bytes.len() - 24
            ),
        ));
    }
    let payload = &bytes[24..];
    if hash64(payload) != crc {
        return Err(CkptError::corrupt(path, "payload checksum mismatch"));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| CkptError::corrupt(path, "payload is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| CkptError::corrupt(path, format!("payload is not valid JSON: {e}")))
}

/// Best-effort fsync of a path's parent directory, so renames into it
/// are durable. Failure is ignored: not all platforms/filesystems allow
/// opening directories for sync, and the rename itself already happened.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}
