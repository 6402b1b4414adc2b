//! Pieces every workload shares: the seeded generator, latency
//! summaries, the metric list a run reports, process resource readings
//! and the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's input generator. Every workload input
/// (op mix targets, churn schedules, kill victims) is drawn from one of
/// these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// `lo..hi` in a seeded order.
    pub fn permutation(&mut self, lo: u64, hi: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (lo..hi).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
        v
    }

    /// Exponentially distributed with the given mean (at least 1).
    pub fn exp(&mut self, mean: u64) -> u64 {
        let u = ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        ((-u.ln() * mean as f64) as u64).max(1)
    }
}

/// About the yardstick's time per call on a shared 2-vCPU Xeon VM, in
/// seconds: the machine speed the simulated workloads' throughput is
/// scaled to.
pub const YARDSTICK_NOMINAL_S: f64 = 0.010;

/// Times one call of the yardstick: a fixed amount of allocation and
/// pointer-chasing work, like the simulator's (fill an ordered map of
/// 20 000 small heap vectors at seeded keys, probe it 20 000 times, drop
/// it). It uses std only, so no change to the program moves it: a change
/// in its time is a change in the machine's speed.
pub fn yardstick() -> Duration {
    let t0 = Instant::now();
    let mut rng = Rng::new(0x5EED, 3);
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        map.insert(rng.next_u64(), vec![i; 8]);
    }
    let mut acc = 0;
    for _ in 0..20_000 {
        if let Some((_, v)) = map.range(rng.next_u64()..).next() {
            acc += v[0];
        }
    }
    std::hint::black_box(acc);
    drop(map);
    t0.elapsed()
}

/// A latency sample set, summarized as a median and the highest
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile of a sorted slice.
    fn rank(sorted: &[f64], p: f64) -> (usize, f64) {
        let n = sorted.len();
        let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
        (idx, sorted[idx])
    }

    pub fn p50(&self) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        Self::rank(&self.sorted(), 50.0).1
    }

    /// `(percentile, value)` of the tail: the highest ladder percentile
    /// with at least ten samples above its rank (the maximum when even
    /// p75 has fewer).
    pub fn tail(&self) -> (f64, f64) {
        let s = self.sorted();
        if s.is_empty() {
            return (100.0, 0.0);
        }
        for p in TAIL_LADDER {
            let (idx, v) = Self::rank(&s, p);
            if s.len() - 1 - idx >= 10 {
                return (p, v);
            }
        }
        (100.0, s[s.len() - 1])
    }
}

/// Metric values of one run by name; the report lists in `main` give
/// the order and the units.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Divides, reading 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of a few set-up timings.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

// ---------------------------------------------------------------------------
// Process resources
// ---------------------------------------------------------------------------

/// `struct rusage` as laid out by 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    fields: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Whole-process resource usage, terminated threads included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, in milliseconds.
    pub cpu_ms: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a writable `struct rusage` of the size and layout
    // 64-bit Linux fills in; RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let tv = |t: [i64; 2]| t[0] as f64 * 1e3 + t[1] as f64 / 1e3;
    Usage {
        cpu_ms: tv(raw.utime) + tv(raw.stime),
        ctx_switches: (raw.fields[12] + raw.fields[13]) as u64,
    }
}

/// A number field of `/proc/self/status`.
fn status_field(name: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The process's current thread count.
pub fn threads_now() -> u64 {
    status_field("Threads:")
}

/// The process's peak resident set size, in KiB. This is `VmHWM`, which
/// starts afresh at `exec`; `getrusage`'s `ru_maxrss` would also count
/// the parent's resident set at the `fork` that started the benchmark.
pub fn peak_rss_kb() -> u64 {
    status_field("VmHWM:")
}

// ---------------------------------------------------------------------------
// Benchmark-side spans
// ---------------------------------------------------------------------------

/// The layer calls the benchmark wraps in spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Building the world or booting the cluster.
    WorldBuild,
    /// Installing the network model.
    NetInstall,
    /// Applying a fault plan.
    FaultApply,
    /// Bringing up the LPMs (first requests, adoptions).
    LpmBringup,
    /// One `World::step`.
    Step,
    /// Launching a tool op (and, on the real backend, waiting for it).
    ToolOp,
    /// Reading ground truth and checking a reply against it.
    Oracle,
    /// Re-encoding and decoding a received reply.
    Codec,
}

pub const LAYERS: [(Layer, &str); 8] = [
    (Layer::WorldBuild, "self.world_build_ms"),
    (Layer::NetInstall, "self.netmodel_install_ms"),
    (Layer::FaultApply, "self.fault_apply_ms"),
    (Layer::LpmBringup, "self.lpm_bringup_ms"),
    (Layer::Step, "self.world_step_ms"),
    (Layer::ToolOp, "self.tool_op_ms"),
    (Layer::Oracle, "self.oracle_ms"),
    (Layer::Codec, "self.codec_ms"),
];

/// Records nested wall-clock spans around calls into a layer, keeping
/// per-layer totals in memory. Self time is a span's duration minus the
/// spans opened inside it. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    stack: Vec<(Layer, Instant, u64)>,
    total_ns: [u64; 8],
    self_ns: [u64; 8],
    count: [u64; 8],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            stack: Vec::with_capacity(8),
            total_ns: [0; 8],
            self_ns: [0; 8],
            count: [0; 8],
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn begin(&mut self, layer: Layer) {
        if self.on {
            self.stack.push((layer, Instant::now(), 0));
        }
    }

    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let (layer, t0, child) = self.stack.pop().expect("span end without begin");
        let d = t0.elapsed().as_nanos() as u64;
        let i = layer as usize;
        self.total_ns[i] += d;
        self.self_ns[i] += d.saturating_sub(child);
        self.count[i] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += d;
        }
    }

    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer as usize]
    }

    /// Writes every layer's self time into `m`.
    pub fn report(&self, m: &mut Metrics) {
        for (layer, name) in LAYERS {
            m.set(name, self.self_ms(layer));
        }
    }
}

/// Folds text into an FNV-1a digest (the same fold `ppm-sim --digest`
/// uses).
pub fn fold(state: u64, text: &str) -> u64 {
    ppm::digest::fnv1a_fold(state, text.as_bytes())
}
