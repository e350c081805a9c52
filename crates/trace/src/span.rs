//! The trace data model: spans, events, typed attributes.
//!
//! A [`Span`] is one timed region of framework execution (a tuning run, one
//! batch of suggestions, a single evaluation). Spans carry a stable id, an
//! optional parent link, both a monotonic timestamp (for durations) and a
//! wall-clock timestamp (for correlating traces across processes), and a
//! list of typed key/value [`AttrValue`] attributes. Instantaneous moments
//! inside a span (a cache hit, a fault verdict) are [`Event`]s.

use std::fmt;

/// Stable identifier of a span within one collector's trace.
pub type SpanId = u64;

/// A typed attribute value.
///
/// Kept deliberately small: integers, floats, booleans, strings. Integer
/// attributes stay integers through the JSON exporters (the codec
/// distinguishes `7` from `7.0`), so counters round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Boolean flag (e.g. `cached`).
    Bool(bool),
    /// Integer counter or id (e.g. `worker`, `attempt`).
    Int(i64),
    /// Floating-point measurement (e.g. `objective`).
    Float(f64),
    /// Free-form label (e.g. `verdict`).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        // Saturate rather than wrap: a usize that overflows i64 is already
        // nonsense as an attribute, and saturation keeps the sign honest.
        AttrValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// An instantaneous moment recorded inside a span.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What happened (e.g. `"cache_hit"`).
    pub name: String,
    /// Monotonic nanoseconds since the collector's epoch.
    pub at_ns: u64,
    /// Typed attributes of the moment.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One timed region of framework execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stable id, unique within one collector's trace.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// What this region is (e.g. `"tuner.run_parallel"`, `"eval"`).
    pub name: String,
    /// Small integer identifying the recording thread.
    pub tid: u64,
    /// Monotonic nanoseconds since the collector's epoch at span open.
    pub start_ns: u64,
    /// Monotonic duration of the region, nanoseconds.
    pub dur_ns: u64,
    /// Wall-clock microseconds since the Unix epoch at span open.
    pub wall_start_us: u64,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(String, AttrValue)>,
    /// Instantaneous moments recorded inside the region, in order.
    pub events: Vec<Event>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }

    /// First attribute with key `key`, if any.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// FNV-1a hash of a byte string: the workspace's one stable, cheap hash.
/// It fingerprints configurations in trace attributes (rendered as 16 hex
/// digits), checksums WAL frames and snapshots, and keys the history store.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_conversions_cover_the_types() {
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from(7i64), AttrValue::Int(7));
        assert_eq!(AttrValue::from(7usize), AttrValue::Int(7));
        assert_eq!(AttrValue::from(7u64), AttrValue::Int(7));
        assert_eq!(AttrValue::from(1.5), AttrValue::Float(1.5));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(AttrValue::from(u64::MAX), AttrValue::Int(i64::MAX));
    }

    #[test]
    fn hash64_is_stable_and_discriminating() {
        // Standard FNV-1a test vectors.
        assert_eq!(hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(hash64(b"abc"), hash64(b"abc"));
        assert_ne!(hash64(b"abc"), hash64(b"abd"));
    }

    #[test]
    fn span_attr_lookup_finds_first() {
        let span = Span {
            id: 1,
            parent: None,
            name: "x".into(),
            tid: 0,
            start_ns: 0,
            dur_ns: 2_000_000_000,
            wall_start_us: 0,
            attrs: vec![("k".into(), AttrValue::Int(1))],
            events: Vec::new(),
        };
        assert_eq!(span.attr("k"), Some(&AttrValue::Int(1)));
        assert_eq!(span.attr("missing"), None);
        assert!((span.dur_s() - 2.0).abs() < 1e-12);
    }
}
