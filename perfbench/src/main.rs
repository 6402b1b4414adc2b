//! `ppm-perfbench` — the PPM's end-to-end benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload sim-chain --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload drives the shipping stack from outside, through public
//! functions only: scenario/harness → pmd/LPM → kernel → codec →
//! wire/netmodel → tool reply. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same inputs untraced and then traced and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`; when
//! `correct` is false the command then exits nonzero. `--workload all`
//! runs every workload in turn, each in a child process.

mod alloc;
mod chain;
mod churn;
mod common;
mod real;
mod sim;
mod spans;

use std::process::ExitCode;

use common::{median, ratio, Metrics};
use sim::Tally;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, in report order.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("procs_per_s", "1/s"),
    ("spawn_p50_ms", "ms"),
    ("spawn_tail_ms", "ms"),
    ("snapshot_p50_ms", "ms"),
    ("snapshot_tail_ms", "ms"),
    ("mttr_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics, in report order. A metric a workload's layers do
/// not produce reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("engine.events_per_op", "count"),
    ("engine.schedules_per_op", "count"),
    ("engine.cancels_per_op", "count"),
    ("engine.overflow_peak", "count"),
    ("engine.step_us", "us"),
    ("kernel.events_per_proc", "count"),
    ("kernel.batch_mean", "count"),
    ("wire.msgs_per_op", "count"),
    ("wire.bytes_per_op", "B"),
    ("wire.conns_opened", "count"),
    ("bcast.parts_spliced", "count"),
    ("bcast.partial_flushes", "count"),
    ("bcast.missing_hosts", "count"),
    ("bcast.relay_virt_ms", "ms"),
    ("rpc.requests_per_op", "count"),
    ("rpc.retries", "count"),
    ("rpc.dups_suppressed", "count"),
    ("rpc.deadline_refused", "count"),
    ("rpc.useful_ratio", "ratio"),
    ("genealogy.records_per_snapshot", "count"),
    ("snapshot.us_per_record", "us"),
    ("wire.bytes_per_record", "B"),
    ("codec.ns_per_byte", "ns"),
    ("net.routed_sends", "count"),
    ("net.congested_frac", "ratio"),
    ("net.link_queue_us_per_send", "us"),
    ("net.bisection_bytes", "B"),
    ("net.drops", "count"),
    ("lpm.restarts", "count"),
    ("lpm.readopted", "count"),
    ("recov.orphan_entries", "count"),
    ("recov.ccs_elections", "count"),
    ("recov.probes", "count"),
    ("cpu_ms_per_op", "ms"),
    ("ctx_switches_per_op", "count"),
    ("threads_peak", "count"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("alloc.count_per_event", "count"),
    ("setup.world_build_s", "s"),
    ("setup.lpm_bringup_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("ops_failed_frac", "ratio"),
    ("virt.req_ms", "ms"),
    ("virt.bcast_ms", "ms"),
    ("virt.probe_ms", "ms"),
    ("self.world_build_ms", "ms"),
    ("self.netmodel_install_ms", "ms"),
    ("self.fault_apply_ms", "ms"),
    ("self.lpm_bringup_ms", "ms"),
    ("self.world_step_ms", "ms"),
    ("self.tool_op_ms", "ms"),
    ("self.oracle_ms", "ms"),
    ("self.codec_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["sim-chain", "sim-churn", "real-loopback"];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    /// Seconds of work in each of `passes` passes that share the run.
    pub fn pass_seconds(&self, passes: u64) -> f64 {
        self.seconds as f64 / passes as f64
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub notes: Vec<String>,
}

/// The raw results of a simulated workload's untraced pass.
pub struct SimPass {
    pub tally: Tally,
    /// Wall seconds of the timed phase at the yardstick's nominal speed.
    pub wall_s: f64,
    /// Process creations plus exits the LPMs tracked in the timed phase.
    pub procs: u64,
    pub mttr_ms: f64,
    pub setup: Vec<f64>,
    pub build_s: f64,
    pub bringup_s: f64,
    pub correct: bool,
    pub notes: Vec<String>,
    pub layers: Metrics,
    /// CPU milliseconds and context switches of the timed phase.
    pub cpu_ms: f64,
    pub ctx: u64,
}

/// Tracing overhead: the traced pass's wall time over the mean of the
/// untraced passes run before and after it, minus one.
pub fn overhead(traced: f64, before: f64, after: f64) -> f64 {
    ratio(traced, (before + after) / 2.0) - 1.0
}

/// The LPM registry metrics (RPC, broadcast, recovery) every workload
/// reports, from each registry counter's change over the measured pass.
pub fn lpm_layers(delta: impl Fn(&str) -> f64, ops: f64, m: &mut Metrics) {
    for (name, key) in [
        ("bcast.parts_spliced", "bcast.parts_spliced"),
        ("bcast.partial_flushes", "bcast.partial_flushes"),
        ("bcast.missing_hosts", "bcast.missing_hosts"),
        ("rpc.retries", "rpc.retries"),
        ("rpc.dups_suppressed", "rpc.dups_suppressed"),
        ("rpc.deadline_refused", "rpc.deadline_refused"),
        ("lpm.restarts", "lpm.restarts"),
        ("lpm.readopted", "lpm.readopted"),
        ("recov.orphan_entries", "recov.orphan_entries"),
        ("recov.ccs_elections", "recov.ccs_elections"),
        ("recov.probes", "recov.probe_rtt_us"),
    ] {
        m.set(name, delta(key));
    }
    let requests = delta("rpc.requests");
    let wasted =
        delta("rpc.retries") + delta("rpc.dups_suppressed") + delta("rpc.deadline_refused");
    m.set("rpc.requests_per_op", ratio(requests, ops));
    m.set("rpc.useful_ratio", ratio(requests - wasted, requests));
}

/// The end-to-end metrics every workload reports, from its op tally and
/// the wall time of its timed phase.
#[allow(clippy::too_many_arguments)]
pub fn e2e_metrics(
    tally: &Tally,
    wall_s: f64,
    procs: u64,
    mttr_ms: f64,
    setup: Vec<f64>,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let (sp, st) = tally.spawn.tail();
    let (np, nt) = tally.snapshot.tail();
    m.set("setup_s", median(setup));
    m.set("ops_per_s", ratio(tally.attempted as f64, wall_s));
    m.set("procs_per_s", ratio(procs as f64, wall_s));
    m.set("spawn_p50_ms", tally.spawn.p50());
    m.set("spawn_tail_ms", st);
    m.set("snapshot_p50_ms", tally.snapshot.p50());
    m.set("snapshot_tail_ms", nt);
    m.set("mttr_ms", mttr_ms);
    m.set("peak_rss_mb", common::peak_rss_kb() as f64 / 1024.0);
    m.set(
        "ops_ok_frac",
        ratio(
            (tally.attempted - tally.failed) as f64,
            tally.attempted as f64,
        ),
    );
    notes.push(format!(
        "spawn_tail_ms is p{sp} of {} samples; snapshot_tail_ms is p{np} of {} samples",
        tally.spawn.len(),
        tally.snapshot.len()
    ));
    notes.push(format!(
        "{} ops and {procs} process creations and exits in {wall_s:.3} s, \
         {} failed {:?}; run digest {}",
        tally.attempted,
        tally.failed,
        tally.failures,
        ppm::digest::hex(tally.digest)
    ));
}

pub fn sim_outcome(p: SimPass) -> Outcome {
    let mut notes = p.notes;
    let mut e2e = Metrics::default();
    e2e_metrics(
        &p.tally, p.wall_s, p.procs, p.mttr_ms, p.setup, &mut e2e, &mut notes,
    );
    let mut layers = p.layers;
    let n = p.tally.attempted as f64;
    layers.set("cpu_ms_per_op", ratio(p.cpu_ms, n));
    layers.set("ctx_switches_per_op", ratio(p.ctx as f64, n));
    layers.set("threads_peak", common::threads_now() as f64);
    layers.set("setup.world_build_s", p.build_s);
    layers.set("setup.lpm_bringup_s", p.bringup_s);
    layers.set(
        "ops_failed_frac",
        ratio(p.tally.failed as f64, p.tally.attempted as f64),
    );
    Outcome {
        correct: p.correct,
        attempted: p.tally.attempted,
        failed: p.tally.failed,
        e2e,
        layers,
        notes,
    }
}

fn json_metrics(list: &[(&str, &str)], m: &Metrics, prefix: &str) -> Vec<String> {
    list.iter()
        .map(|(name, unit)| {
            let v = m.get(name).unwrap_or(0.0);
            format!("\"{prefix}{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect()
}

fn run_one(workload: &str, run: &Run) -> Outcome {
    match workload {
        "sim-chain" => chain::run(run),
        "sim-churn" => churn::run(run),
        "real-loopback" => real::run(run),
        other => unreachable!("unknown workload {other}"),
    }
}

fn usage_text() -> ExitCode {
    eprintln!(
        "usage: ppm-perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage_text();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|v| run.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v: u64| run.seconds = v.max(1)).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    run.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage_text();
        }
    }
    let Some(workload) = workload else {
        return usage_text();
    };
    let list: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        return usage_text();
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host_cpus = {cpus}");
    let result = if names.len() > 1 {
        run_all(&names, &run, list)
    } else {
        run_single(names[0], &run, list)
    };
    // A run whose oracles could not run, or whose passes disagreed,
    // prints its result and then fails.
    match result {
        Some((true, line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Some((false, line)) => {
            println!("{line}");
            ExitCode::FAILURE
        }
        None => ExitCode::FAILURE,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, fields: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// Runs one workload in this process and returns whether it was correct
/// and its result line.
fn run_single(name: &str, run: &Run, list: &[(&str, &str)]) -> Option<(bool, String)> {
    let out = run_one(name, run);
    for note in &out.notes {
        println!("{name}: {note}");
    }
    let m = if run.trace { &out.layers } else { &out.e2e };
    for (metric, unit) in list {
        println!("{name}: {metric} = {} {unit}", m.get(metric).unwrap_or(0.0));
    }
    let fields = json_metrics(list, m, "");
    Some((
        out.correct,
        result_line(out.correct, out.attempted, out.failed, &fields),
    ))
}

/// The number after `"key": ` in a result line.
fn field(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Runs every workload in a child process of its own, one after the
/// other, so that each one's peak RSS and thread count are its own, and
/// merges their result lines with each metric prefixed by its workload.
fn run_all(names: &[&str], run: &Run, list: &[(&str, &str)]) -> Option<(bool, String)> {
    let exe = std::env::current_exe().ok()?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut fields = Vec::new();
    for name in names {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .ok()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop()?;
        for line in lines.iter().filter(|l| !l.starts_with("host_cpus")) {
            println!("{line}");
        }
        let (Some(a), Some(f)) = (field(last, "attempted"), field(last, "failed")) else {
            eprintln!("{name}: no result line");
            return None;
        };
        correct &= out.status.success() && last.contains("\"correct\": true");
        attempted += a;
        failed += f;
        let m = &last[last.find("\"metrics\": {")? + 12..];
        let mut m = m.strip_suffix("}}")?.to_string();
        for (metric, _) in list {
            m = m.replace(
                &format!("\"{metric}\": "),
                &format!("\"{name}/{metric}\": "),
            );
        }
        fields.push(m);
    }
    Some((correct, result_line(correct, attempted, failed, &fields)))
}
