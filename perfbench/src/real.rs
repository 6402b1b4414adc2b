//! `real-loopback`: a 3-host `RealRuntime` cluster on loopback TCP. One
//! closed-loop client runs one tool invocation per op, as a user's
//! command does: remote exec on a seeded host, display, locate, and kill
//! of an earlier job. Before the ops, one LPM is SIGKILLed and the run
//! waits until re-adoption restores its forest. Latencies are wall clock.
//!
//! Ops that reach a respawned LPM take about 40 ms longer than before
//! its predecessor died, so the kill comes first: every op then runs in
//! the same regime, and the medians and tails do not flip between the
//! two from one run to the next.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm::core::auth::UserCred;
use ppm::core::client::{Tool, ToolOutcome, ToolStep};
use ppm::core::config::{PpmConfig, PMD_PORT, PMD_SERVICE};
use ppm::core::pmd::{Pmd, PmdOptions};
use ppm::core::users::{UserDirectory, UserEntry};
use ppm::proto::codec::Wire;
use ppm::proto::msg::{ControlAction, Op, Reply};
use ppm::proto::types::{Gpid, ProcRecord};
use ppm::runtime::ids::{CpuClass, HostId, Uid};
use ppm::runtime::obs::MetricValue;
use ppm::runtime::program::SpawnSpec;
use ppm::runtime::rt::Runtime;
use ppm::runtime::signal::Signal;
use ppm_realos::RealRuntime;

use crate::common::{fold, median, ratio, threads_now, usage, Layer, Metrics, Rng, Tracer};
use crate::sim::{forest_of, live, split_partial, Forest, Tally};
use crate::{Outcome, Run};

const HOSTS: usize = 3;
const USER: Uid = Uid(100);
const SECRET: u64 = 0x1986;
/// Closed-loop ops per second of `--seconds` (calibrated so one run
/// takes about that long on a 2-CPU machine).
const OPS_PER_SECOND: usize = 7;
/// Processes each host but `h0` gets at bring-up.
const RESIDENTS: usize = 3;
/// How long one tool invocation may take before it counts as timed out.
const OP_BUDGET: Duration = Duration::from_secs(20);
/// How long re-adoption may take before the run gives up on it.
const RECOVERY_BUDGET: Duration = Duration::from_secs(30);
/// Poll interval while waiting for a tool: fine enough not to delay the
/// closed loop noticeably. Latencies themselves come from the reply
/// timestamps, not from this wait.
const POLL: Duration = Duration::from_micros(250);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RKind {
    Exec,
    Display,
    Locate,
    Kill,
}

impl RKind {
    fn tag(self) -> &'static str {
        match self {
            RKind::Exec => "exec",
            RKind::Display => "display",
            RKind::Locate => "locate",
            RKind::Kill => "kill",
        }
    }
}

const CYCLE: [RKind; 5] = [
    RKind::Exec,
    RKind::Display,
    RKind::Exec,
    RKind::Locate,
    RKind::Kill,
];

struct Cluster {
    rt: RealRuntime,
    users: Arc<UserDirectory>,
    hosts: Vec<(String, HostId)>,
    /// The computation every exec joins, rooted on `h0`.
    root: Gpid,
    /// Unrelated processes on every other host, started at bring-up so
    /// every LPM is up, and has a forest to restore, before the timed
    /// phase.
    others: Vec<Gpid>,
}

struct Booted {
    cluster: Cluster,
    build_s: f64,
    bringup_s: f64,
}

fn boot(tr: &mut Tracer) -> Result<Booted, String> {
    let t0 = Instant::now();
    tr.begin(Layer::WorldBuild);
    let names: Vec<String> = (0..HOSTS).map(|i| format!("h{i}")).collect();
    let mut users = UserDirectory::new();
    users.insert(UserEntry {
        cred: UserCred::new(USER, SECRET),
        recovery: names.iter().take(2).cloned().collect(),
        config: PpmConfig::fast_recovery(),
    });
    let users = users.into_shared();
    let pmd_users = Arc::clone(&users);
    let mut rt = RealRuntime::with_trace(false);
    rt.register_service(
        PMD_SERVICE,
        PMD_PORT,
        Box::new(move |_host| {
            Box::new(Pmd::new(
                Arc::clone(&pmd_users),
                PMD_PORT,
                PmdOptions {
                    stable_storage: true,
                    respawn_lpms: true,
                },
            ))
        }),
    );
    let hosts: Vec<(String, HostId)> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let cpu = if i % 2 == 0 {
                CpuClass::Vax780
            } else {
                CpuClass::Sun2
            };
            (name.clone(), rt.add_host(name, cpu))
        })
        .collect();
    tr.end();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    tr.begin(Layer::LpmBringup);
    let mut c = Cluster {
        rt,
        users,
        hosts,
        root: Gpid::new("h0", 0),
        others: Vec::new(),
    };
    c.root = spawned(&tool(&mut c, tr, "h0", spawn_op(None))?.0)?;
    for name in &names[1..] {
        for _ in 0..RESIDENTS {
            let g = spawned(&tool(&mut c, tr, name, spawn_op(None))?.0)?;
            c.others.push(g);
        }
    }
    tr.end();
    Ok(Booted {
        cluster: c,
        build_s,
        bringup_s: t1.elapsed().as_secs_f64(),
    })
}

fn spawn_op(logical_parent: Option<Gpid>) -> Op {
    Op::Spawn {
        command: "bench-job".to_string(),
        logical_parent,
        lifetime_us: None,
        work_us: 0,
        cpu_bound: false,
    }
}

fn spawned(r: &Reply) -> Result<Gpid, String> {
    match r {
        Reply::Spawned { gpid } => Ok(gpid.clone()),
        other => Err(format!("expected Spawned, got {other:?}")),
    }
}

/// Runs one tool invocation from `h0` to completion: the reply and its
/// wall latency in milliseconds, measured on the cluster clock from the
/// launch to the reply's arrival.
fn tool(c: &mut Cluster, tr: &mut Tracer, dest: &str, op: Op) -> Result<(Reply, f64), String> {
    tr.begin(Layer::ToolOp);
    let out = run_tool(c, vec![ToolStep::new(dest, op)]);
    tr.end();
    let (outcome, launched) = out?;
    if let Some(e) = outcome.error {
        return Err(format!("tool failed: {e}"));
    }
    let (reply, at) = outcome
        .replies
        .into_iter()
        .next()
        .ok_or_else(|| "no reply".to_string())?;
    let ms = at.as_micros().saturating_sub(launched) as f64 / 1e3;
    Ok((reply, ms))
}

fn run_tool(c: &mut Cluster, script: Vec<ToolStep>) -> Result<(ToolOutcome, u64), String> {
    let entry = c.users.get(USER).expect("registered user");
    let (tool, handle) = Tool::new(entry.cred, entry.config.clone(), script);
    let from = c.hosts[0].1;
    let launched = c.rt.now().as_micros();
    c.rt.spawn_user(from, USER, SpawnSpec::new("ppm-tool", Box::new(tool)))
        .map_err(|e| format!("spawn tool: {e:?}"))?;
    let deadline = Instant::now() + OP_BUDGET;
    loop {
        if handle.lock().expect("tool outcome lock").done {
            break;
        }
        if Instant::now() >= deadline {
            return Err("tool timed out".to_string());
        }
        std::thread::sleep(POLL);
    }
    let outcome = std::mem::take(&mut *handle.lock().expect("tool outcome lock"));
    Ok((outcome, launched))
}

fn snapshot_procs(reply: Reply) -> Option<Vec<ProcRecord>> {
    match split_partial(reply) {
        (Reply::Snapshot { procs, .. }, missing) if missing.is_empty() => Some(procs),
        _ => None,
    }
}

/// The LPM registries' counters summed over the cluster.
fn rpc_counters(c: &Cluster) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (_, reg) in c.rt.shared().obs.lock().expect("obs lock").iter() {
        for s in reg.snapshot() {
            let v = match &s.value {
                MetricValue::Counter(v) => *v,
                MetricValue::Gauge(_) => 0,
                MetricValue::Hist(h) => h.count,
            };
            *out.entry(s.name).or_insert(0) += v;
        }
    }
    out
}

struct Pass {
    tally: Tally,
    wall_s: f64,
    mttr_ms: Option<f64>,
    cpu_ms: f64,
    ctx: u64,
    threads_peak: u64,
    allocs: (u64, u64),
    rpc: (BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>),
}

/// Kills one LPM and polls its forest from `h0` until the respawned LPM
/// reports it again. Returns the wall milliseconds from kill to the
/// restoring reply.
fn recovery(c: &mut Cluster, tr: &mut Tracer, victim: usize) -> Option<f64> {
    let (name, id) = c.hosts[victim].clone();
    let before: Forest = forest_of(
        &snapshot_procs(tool(c, tr, &name, Op::Snapshot).ok()?.0)?,
        &name,
    );
    let lpm = c.rt.find_proc(id, USER, "lpm-")?;
    tr.begin(Layer::FaultApply);
    let killed = c.rt.now().as_micros();
    let sent = c.rt.kill(id, Uid::ROOT, lpm, Signal::Kill);
    tr.end();
    sent.ok()?;
    let t0 = Instant::now();
    while t0.elapsed() < RECOVERY_BUDGET {
        let launched = c.rt.now().as_micros();
        if let Ok((reply, ms)) = tool(c, tr, &name, Op::Snapshot) {
            if let Some(procs) = snapshot_procs(reply) {
                if forest_of(&procs, &name) == before {
                    let at = launched as f64 / 1e3 + ms;
                    return Some(at - killed as f64 / 1e3);
                }
            }
        }
    }
    None
}

fn pass(c: &mut Cluster, tr: &mut Tracer, seed: u64, ops: usize) -> Pass {
    let mut rng = Rng::new(seed, 3);
    let mut t = Tally::new();
    let mut jobs: Vec<Gpid> = Vec::new();
    let victim = 1 + rng.range(0, (HOSTS - 1) as u64) as usize;
    let rpc0 = rpc_counters(c);
    let u0 = usage();
    let a0 = crate::alloc::snapshot();
    let mut threads_peak = threads_now();
    let mttr_ms = recovery(c, tr, victim);
    let t0 = Instant::now();
    let mut targets: Vec<u64> = Vec::new();
    for i in 0..ops {
        let kind = match CYCLE[i % CYCLE.len()] {
            RKind::Kill if jobs.is_empty() => RKind::Exec,
            k => k,
        };
        let (dest, op) = match kind {
            RKind::Exec => {
                if targets.is_empty() {
                    targets = rng.permutation(0, HOSTS as u64);
                }
                let h = targets.pop().expect("refilled") as usize;
                (c.hosts[h].0.clone(), spawn_op(Some(c.root.clone())))
            }
            RKind::Display | RKind::Locate => ("*".to_string(), Op::Snapshot),
            RKind::Kill => {
                let g = jobs.swap_remove(rng.range(0, jobs.len() as u64) as usize);
                let op = Op::Control {
                    pid: g.pid,
                    action: ControlAction::Kill,
                };
                (g.host.clone(), op)
            }
        };
        t.attempted += 1;
        let ok = match tool(c, tr, &dest, op) {
            Ok((reply, ms)) => check(c, tr, &mut t, &mut jobs, kind, &dest, reply, ms),
            Err(_) => false,
        };
        t.digest = fold(t.digest, &format!("{}|{dest}|{ok};", kind.tag()));
        if !ok {
            t.failed += 1;
            *t.failures.entry(kind.tag()).or_default() += 1;
        }
        threads_peak = threads_peak.max(threads_now());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let u1 = usage();
    let a1 = crate::alloc::snapshot();
    Pass {
        tally: t,
        wall_s,
        mttr_ms,
        cpu_ms: u1.cpu_ms - u0.cpu_ms,
        ctx: u1.ctx_switches - u0.ctx_switches,
        threads_peak,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
        rpc: (rpc0, rpc_counters(c)),
    }
}

/// Re-encodes (when traced) and checks one op's reply, recording its
/// latency. Returns whether the reply is correct.
#[allow(clippy::too_many_arguments)]
fn check(
    c: &Cluster,
    tr: &mut Tracer,
    t: &mut Tally,
    jobs: &mut Vec<Gpid>,
    kind: RKind,
    dest: &str,
    reply: Reply,
    ms: f64,
) -> bool {
    if tr.on() {
        tr.begin(Layer::Codec);
        let bytes = reply.to_bytes();
        let back = Reply::from_bytes(&bytes).expect("reply decodes");
        tr.end();
        assert_eq!(back, reply, "codec round trip changed a reply");
        t.reply_bytes += bytes.len() as u64;
    }
    tr.begin(Layer::Oracle);
    let ok = match kind {
        RKind::Exec => {
            t.spawn.push(ms);
            match spawned(&reply) {
                Ok(g) if g.host == dest => {
                    t.ok_spawns += 1;
                    jobs.push(g);
                    true
                }
                _ => false,
            }
        }
        RKind::Kill => {
            let ok = reply == Reply::Ok;
            t.ok_kills += u64::from(ok);
            ok
        }
        RKind::Display | RKind::Locate => {
            t.snapshot.push(ms);
            match snapshot_procs(reply) {
                Some(procs) => {
                    t.snapshots += 1;
                    t.records += procs.len() as u64;
                    if kind == RKind::Display {
                        display_ok(c, jobs, &procs)
                    } else {
                        locate_ok(c, jobs, &procs)
                    }
                }
                None => false,
            }
        }
    };
    tr.end();
    ok
}

/// Display: the live managed processes are exactly the root, the
/// bring-up processes and the jobs not yet killed.
fn display_ok(c: &Cluster, jobs: &[Gpid], procs: &[ProcRecord]) -> bool {
    let got: BTreeSet<&Gpid> = live(procs).map(|r| &r.gpid).collect();
    let want: BTreeSet<&Gpid> = std::iter::once(&c.root)
        .chain(&c.others)
        .chain(jobs)
        .collect();
    got == want
}

/// Locate: the hosts running the root's computation are exactly the
/// root's host and the hosts of its live jobs.
fn locate_ok(c: &Cluster, jobs: &[Gpid], procs: &[ProcRecord]) -> bool {
    let got: BTreeSet<&str> = live(procs)
        .filter(|r| r.gpid == c.root || r.logical_parent.as_ref() == Some(&c.root))
        .map(|r| r.gpid.host.as_str())
        .collect();
    let want: BTreeSet<&str> = std::iter::once(c.root.host.as_str())
        .chain(jobs.iter().map(|g| g.host.as_str()))
        .collect();
    got == want
}

pub fn run(run: &Run) -> Outcome {
    // One pass untraced; a traced run makes three passes over the same
    // inputs, a third as long each: untraced, traced, untraced.
    let passes = if run.trace { 3 } else { 1 };
    let ops = (OPS_PER_SECOND as f64 * run.pass_seconds(passes)).round() as usize;
    let mut traced = Tracer::new(run.trace);
    let mut off = Tracer::new(false);
    let (mut setup, mut build_s, mut bringup_s) = (Vec::new(), Vec::new(), Vec::new());
    // Boots a cluster and times its set-up. Set-up is timed three times
    // a run; only one cluster is up at any time, so the cluster under
    // measurement shares the machine with no other.
    let mut boot_timed = |tr: &mut Tracer| match boot(tr) {
        Ok(b) => {
            setup.push(b.build_s + b.bringup_s);
            build_s.push(b.build_s);
            bringup_s.push(b.bringup_s);
            b.cluster
        }
        Err(e) => {
            eprintln!("real-loopback: cluster bring-up failed: {e}");
            std::process::exit(1);
        }
    };
    if !run.trace {
        // The first two clusters only time set-up: each shuts down
        // before the next boots.
        for _ in 0..2 {
            drop(boot_timed(&mut off));
        }
    }
    // Each pass gets a fresh cluster, shut down when the pass ends.
    let mut next = |tr: &mut Tracer| pass(&mut boot_timed(tr), tr, run.seed, ops);
    let a = next(&mut off);
    let mut notes = Vec::new();
    let mut correct = true;
    if a.mttr_ms.is_none() {
        correct = false;
        notes.push("the killed LPM's forest was not restored".to_string());
    }
    let mut layers = Metrics::default();
    if run.trace {
        let b = next(&mut traced);
        let c = next(&mut off);
        let n = a.tally.attempted as f64;
        layers.set("cpu_ms_per_op", ratio(a.cpu_ms, n));
        layers.set("ctx_switches_per_op", ratio(a.ctx as f64, n));
        layers.set("threads_peak", a.threads_peak as f64);
        layers.set("alloc.count_per_op", ratio(a.allocs.0 as f64, n));
        layers.set("alloc.bytes_per_op", ratio(a.allocs.1 as f64, n));
        let (r0, r1) = &a.rpc;
        let delta = |k: &str| {
            let at = |r: &BTreeMap<&str, u64>| r.get(k).copied().unwrap_or(0);
            at(r1).saturating_sub(at(r0)) as f64
        };
        crate::lpm_layers(delta, n, &mut layers);
        layers.set(
            "genealogy.records_per_snapshot",
            ratio(a.tally.records as f64, a.tally.snapshots as f64),
        );
        layers.set(
            "wire.bytes_per_record",
            ratio(b.tally.reply_bytes as f64, b.tally.records as f64),
        );
        layers.set(
            "codec.ns_per_byte",
            ratio(
                traced.total_ns(Layer::Codec) as f64,
                b.tally.reply_bytes as f64,
            ),
        );
        layers.set(
            "trace.overhead_frac",
            crate::overhead(b.wall_s, a.wall_s, c.wall_s),
        );
        traced.report(&mut layers);
    }
    layers.set("setup.world_build_s", median(build_s));
    layers.set("setup.lpm_bringup_s", median(bringup_s));
    layers.set(
        "ops_failed_frac",
        ratio(a.tally.failed as f64, a.tally.attempted as f64),
    );
    let mut e2e = Metrics::default();
    let procs = a.tally.ok_spawns + a.tally.ok_kills;
    crate::e2e_metrics(
        &a.tally,
        a.wall_s,
        procs,
        a.mttr_ms.unwrap_or(0.0),
        setup,
        &mut e2e,
        &mut notes,
    );
    Outcome {
        correct,
        attempted: a.tally.attempted,
        failed: a.tally.failed,
        e2e,
        layers,
        notes,
    }
}
