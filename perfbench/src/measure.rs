//! Measurement helpers shared by every workload: seeded input generation,
//! order statistics, process memory, and the span-based layer tracer.

use pstack_trace::{to_chrome, Span, SpanGuard, SpanId, Trace, TraceCollector};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator for the benchmark's own inputs, so
/// the inputs depend on the workload seed and on nothing in the libraries
/// under test.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for the input stream `tag` of workload seed `seed`.
    pub fn new(seed: u64, tag: &str) -> Self {
        SplitMix(seed ^ pstack_trace::hash64(tag.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of one calibration kernel call (about 0.23 ms on the
/// reference host).
const KERNEL_STEPS: usize = 10_000;

/// Seconds one calibration kernel call takes on the reference host, the
/// host the benchmark's bounds were measured on (2 shared vCPUs), rounded
/// from the kernel calls of the runs the README records.
pub const KERNEL_REF_S: f64 = 2.3e-4;

/// The calibration kernel: a fixed pseudo-random stream through a 64-item
/// min-heap and a 256-item buffer, with floating-point work on what they
/// hold: the mix of branches, small-array traffic and arithmetic the
/// simulators and the tuner run. It lives on the stack, allocates nothing
/// and calls no library under test, so the work timed around it cannot
/// change its cost; only the host's speed moves its time.
fn kernel() -> f64 {
    const CAP: usize = 64;
    let mut heap = [0u64; CAP];
    let mut len = 0;
    let mut held = [0.0f64; 256];
    let mut n_held = 0;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..KERNEL_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v = x >> 11;
        if len < CAP {
            // Push and sift up.
            let mut i = len;
            heap[i] = v;
            len += 1;
            while i > 0 && heap[(i - 1) / 2] > heap[i] {
                heap.swap(i, (i - 1) / 2);
                i = (i - 1) / 2;
            }
            continue;
        }
        // Push, then pop the smallest of the 65: replace the root and sift
        // down when it is smaller than `v`.
        let popped = if v <= heap[0] {
            v
        } else {
            let root = heap[0];
            heap[0] = v;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut m = i;
                if l < CAP && heap[l] < heap[m] {
                    m = l;
                }
                if r < CAP && heap[r] < heap[m] {
                    m = r;
                }
                if m == i {
                    break;
                }
                heap.swap(i, m);
                i = m;
            }
            root
        };
        acc += (popped as f64).sqrt().ln_1p();
        held[n_held] = acc;
        n_held += 1;
        if n_held == held.len() {
            acc += held.iter().sum::<f64>() * 1e-9;
            n_held = 0;
        }
    }
    std::hint::black_box(acc)
}

/// Wall time of a repetition, as measured and at the reference host's
/// speed.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall seconds, calibration kernel calls left out.
    pub wall_s: f64,
    /// The same segments, each rescaled by `KERNEL_REF_S` over the kernel
    /// call that closed it.
    pub ref_s: f64,
    /// Mean kernel call.
    pub kernel_s: f64,
}

/// Host-speed calibration. The host the benchmark runs on is shared, and its
/// speed drifts by tens of percent within seconds and over minutes. A timed
/// repetition is cut into short segments; each segment is closed by one
/// call of a fixed kernel, and its wall time is rescaled by how much slower
/// or faster that call ran than on the reference host. Kernel calls are
/// left out of the wall time.
pub struct Calibration {
    segment: Instant,
    wall_s: f64,
    ref_s: f64,
    kernel_s: f64,
    calls: usize,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            segment: Instant::now(),
            wall_s: 0.0,
            ref_s: 0.0,
            kernel_s: 0.0,
            calls: 0,
        }
    }

    /// Start timing a repetition.
    pub fn begin(&mut self) {
        *self = Calibration::new();
    }

    /// Close the current segment with a kernel call and start the next.
    pub fn checkpoint(&mut self) {
        let seg_s = self.segment.elapsed().as_secs_f64();
        let (_, k) = timed(kernel);
        self.wall_s += seg_s;
        self.ref_s += seg_s * KERNEL_REF_S / k;
        self.kernel_s += k;
        self.calls += 1;
        self.segment = Instant::now();
    }

    /// Close the last segment and return the repetition's timing.
    pub fn end(&mut self) -> Timing {
        self.checkpoint();
        Timing {
            wall_s: self.wall_s,
            ref_s: self.ref_s,
            kernel_s: self.kernel_s / self.calls as f64,
        }
    }
}

/// Wall seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run `build` `n` times, timing each at the reference host's speed, and
/// return the median seconds: the benchmark's `setup_s`.
pub fn median_setup<R>(n: usize, cal: &mut Calibration, mut build: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            cal.begin();
            let built = build();
            let t = cal.end();
            drop(std::hint::black_box(built));
            t.ref_s
        })
        .collect();
    median(&samples)
}

/// Records one span around each call the benchmark makes into a layer.
/// Spans stay in memory; each repetition's spans are taken out with
/// [`Tracer::take`] and reduced to per-layer numbers.
pub struct Tracer {
    collector: TraceCollector,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            collector: TraceCollector::with_capacity(1 << 20),
        }
    }

    /// Open a parent span (a repetition, window or session).
    pub fn root(&self, name: &str, tag: (&str, usize)) -> SpanGuard<'_> {
        let mut g = self.collector.span(name);
        g.attr(tag.0, tag.1);
        g
    }

    /// Run `f` inside a child span of `parent` carrying the parent's id tag.
    pub fn call<R>(
        &self,
        name: &str,
        parent: SpanId,
        tags: &[(&str, usize)],
        f: impl FnOnce() -> R,
    ) -> R {
        let mut g = self.collector.child(name, parent);
        for &(k, v) in tags {
            g.attr(k, v);
        }
        let r = f();
        g.close();
        r
    }

    /// Open a child span of `parent` (for calls made from inside a layer,
    /// such as a search or evaluation the tuner drives).
    pub fn child(&self, name: &str, parent: SpanId, tags: &[(&str, usize)]) -> SpanGuard<'_> {
        let mut g = self.collector.child(name, parent);
        for &(k, v) in tags {
            g.attr(k, v);
        }
        g
    }

    /// Every span recorded since the last take. Fails if the ring evicted
    /// any, since per-layer sums would then be short.
    pub fn take(&self) -> Result<Trace, String> {
        let trace = self.collector.take();
        if trace.dropped > 0 {
            return Err(format!("trace ring dropped {} spans", trace.dropped));
        }
        Ok(trace)
    }
}

/// Integer attribute `key` of `span`.
fn tag(span: &Span, key: &str) -> Option<usize> {
    match span.attr(key) {
        Some(pstack_trace::AttrValue::Int(v)) => usize::try_from(*v).ok(),
        _ => None,
    }
}

/// Durations (seconds) of spans named `name`.
pub fn durations(trace: &Trace, name: &str) -> Vec<f64> {
    trace.by_name(name).map(Span::dur_s).collect()
}

/// Sum of durations (seconds) of spans named `name`, grouped by tag `key`.
pub fn sum_by_tag(trace: &Trace, name: &str, key: &str) -> BTreeMap<usize, f64> {
    let mut out = BTreeMap::new();
    for s in trace.by_name(name) {
        if let Some(k) = tag(s, key) {
            *out.entry(k).or_insert(0.0) += s.dur_s();
        }
    }
    out
}

/// Per span name: calls, total seconds, and self seconds (total minus the
/// part covered by direct children). Accumulates into `table`.
pub fn add_self_times(trace: &Trace, table: &mut BTreeMap<String, (usize, f64, f64)>) {
    let mut child_time: BTreeMap<SpanId, f64> = BTreeMap::new();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_insert(0.0) += s.dur_s();
        }
    }
    for s in &trace.spans {
        let e = table.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += s.dur_s();
        e.2 += (s.dur_s() - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
}

/// Render the self-time table, largest self time first.
pub fn render_self_times(table: &BTreeMap<String, (usize, f64, f64)>) -> String {
    let total_self: f64 = table.values().map(|e| e.2).sum();
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    let mut out = String::from("span                    calls     total_s      self_s  self%\n");
    for (name, (calls, total, selft)) in rows {
        out.push_str(&format!(
            "{name:<22} {calls:>7} {total:>11.4} {selft:>11.4} {:>5.1}\n",
            100.0 * selft / total_self.max(1e-12)
        ));
    }
    out
}

/// Write `trace` as Chrome `trace_event` JSON to `path`.
pub fn write_chrome(trace: &Trace, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, to_chrome(trace)).map_err(|e| format!("{}: {e}", path.display()))
}
