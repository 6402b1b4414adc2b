//! `sim-churn`: two tenants on the `fat-tree` network model across four
//! pods. Every host runs one adopted churn program per tenant that forks
//! and reaps children on a seeded open-loop schedule, so each fork and
//! exit crosses simulated kernel → LPM kernel socket → genealogy. On a
//! fixed virtual period each tenant takes a whole-computation snapshot
//! and spawns a job in another pod; one scripted LPM kill mid-run forces
//! a pmd respawn and the re-adoption of its host's forest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ppm::core::config::PpmConfig;
use ppm::core::pmd::PmdOptions;
use ppm::harness::PpmHarness;
use ppm::runtime::sys::Sys;
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::time::{SimDuration, SimTime};
use ppm::simnet::topology::{CpuClass, NetSpec};
use ppm::simos::events::TraceFlags;
use ppm::simos::ids::{Pid, Uid};
use ppm::simos::program::{Program, SpawnSpec};
use ppm::simos::signal::ExitStatus;

use crate::common::{self, fold, median, usage, Layer, Metrics, Rng, Tracer};
use crate::sim::{self, Counters, Forest, Kind, Pending, Tally};
use crate::{Outcome, Run};

const PODS: usize = 4;
const PER_POD: usize = 4;
/// Tenants: uid, home host, `.recovery` list.
const TENANTS: [(Uid, &str, [&str; 2]); 2] = [
    (Uid(100), "p0h0", ["p0h0", "p1h0"]),
    (Uid(200), "p2h0", ["p2h0", "p3h0"]),
];
/// Long-lived children each churn program keeps: the forest re-adoption
/// must restore.
const RESIDENTS: usize = 6;
/// Mean gap between a churn program's forks. The tenants run the
/// shipped configuration, whose `dead_retention` keeps every exited
/// process for ten minutes, so a whole-computation snapshot lists all
/// the churn and all the jobs of the last ten minutes. This rate and
/// `PERIOD` are chosen, not taken from a measured trace, to keep the
/// gathers clear of the fabric's saturation and of the 3 s broadcast
/// timeout once the forest has stopped growing (see `METHOD.md`).
const FORK_GAP_US: u64 = 12_000_000;
/// Child lifetimes are uniform in this range.
const LIFE_US: (u64, u64) = (100_000, 700_000);
/// Churn starts this long after the program does, once it is adopted.
const CHURN_START: SimDuration = SimDuration::from_secs(2);
/// Virtual seconds of timed phase per second of `--seconds`. At
/// `--seconds 30` the measured pass runs 3300 virtual seconds: the
/// forest grows for the first ten minutes (the default
/// `dead_retention`) and holds its size after that, the LPM kill
/// included.
const VIRT_PER_SECOND: u64 = 110;
/// Each tenant's op period: one snapshot and one cross-pod spawn.
const PERIOD: SimDuration = SimDuration::from_secs(1);
/// How often the driver looks at pending ops.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Lifetime of the jobs the tenants spawn.
const JOB_LIFE: SimDuration = SimDuration::from_secs(2);
/// The host whose LPMs the fault plan kills, and the pod neighbour that
/// polls its forest.
const VICTIM: &str = "p1h2";
const POLLER: &str = "p1h1";
/// Chunks the timed phase is split into: the digest check compares
/// passes at their boundaries, where the yardstick is also timed.
const CHUNKS: u64 = 64;
/// Chunks of the short pass an untraced run makes first, to check that
/// a second world given the same inputs produces the same digests.
const CHECK_CHUNKS: u64 = 4;
/// Set-ups timed per run, the passes' own worlds included; `setup_s` is
/// their median.
const SETUPS: usize = 9;

fn host_name(i: usize) -> String {
    format!("p{}h{}", i / PER_POD, i % PER_POD)
}

/// Fork and exit counts of every churn program in one world.
#[derive(Debug, Default)]
struct ChurnCounts {
    forks: AtomicU64,
    exits: AtomicU64,
}

impl ChurnCounts {
    fn total(&self) -> u64 {
        self.forks.load(Ordering::Relaxed) + self.exits.load(Ordering::Relaxed)
    }
}

const START: u64 = 1;
const FORK: u64 = 2;

/// The churn program: after `CHURN_START` it forks `RESIDENTS` inert
/// children, then forks short-lived children at exponential gaps, each
/// of which exits after a uniform lifetime. The schedule depends only on
/// its seed: an open loop.
struct Churn {
    rng: Rng,
    counts: Arc<ChurnCounts>,
}

impl Program for Churn {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(CHURN_START, START);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        if token == START {
            for _ in 0..RESIDENTS {
                let _ = sys.spawn(SpawnSpec::inert("resident"));
            }
        } else {
            let life = self.rng.range(LIFE_US.0, LIFE_US.1);
            let child = SpawnSpec::new("churn-child", Box::new(Ephemeral(life)));
            if sys.spawn(child).is_ok() {
                self.counts.forks.fetch_add(1, Ordering::Relaxed);
            }
        }
        let gap = self.rng.exp(FORK_GAP_US);
        sys.set_timer(SimDuration::from_micros(gap), FORK);
    }

    fn on_child_exit(&mut self, _sys: &mut dyn Sys, _child: Pid, _status: ExitStatus) {
        self.counts.exits.fetch_add(1, Ordering::Relaxed);
    }

    fn name(&self) -> &str {
        "bench-churn"
    }
}

/// A churn child: lives for its lifetime (µs), then exits.
struct Ephemeral(u64);

impl Program for Ephemeral {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_micros(self.0), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(0);
    }

    fn name(&self) -> &str {
        "bench-churn-child"
    }
}

struct Built {
    ppm: PpmHarness,
    counts: Arc<ChurnCounts>,
    /// Start of the timed phase and the instant of the LPM kill.
    t0: SimTime,
    kill_at: SimTime,
    build_s: f64,
    bringup_s: f64,
    digest: u64,
}

fn build(seed: u64, virt: SimDuration, tr: &mut Tracer) -> Built {
    let names: Vec<String> = (0..PODS * PER_POD).map(host_name).collect();
    let t0 = Instant::now();
    tr.begin(Layer::WorldBuild);
    let mut b = PpmHarness::builder().seed(seed).pmd_options(PmdOptions {
        stable_storage: true,
        respawn_lpms: true,
    });
    for (i, name) in names.iter().enumerate() {
        let cpu = if i % PER_POD == 0 {
            CpuClass::Vax780
        } else {
            CpuClass::Sun2
        };
        b = b.host(name.clone(), cpu);
    }
    // The overlay is a tree: each pod's first host links its members,
    // and the pod heads hang off pod 0's head.
    for (i, name) in names.iter().enumerate() {
        if i % PER_POD != 0 {
            b = b.link(host_name(i - i % PER_POD), name.clone());
        } else if i != 0 {
            b = b.link(host_name(0), name.clone());
        }
    }
    for (k, (uid, _, recovery)) in TENANTS.iter().enumerate() {
        b = b.user(
            *uid,
            0xC0DE + k as u64,
            recovery,
            PpmConfig::fast_recovery(),
        );
    }
    let mut ppm = b.build();
    sim::set_tracing(&mut ppm, false);
    tr.end();
    tr.begin(Layer::NetInstall);
    let spec = NetSpec::preset("fat-tree", &names).expect("fat-tree preset");
    ppm.world_mut()
        .install_netmodel(&spec)
        .expect("fat-tree installs");
    tr.end();
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    tr.begin(Layer::LpmBringup);
    let counts = Arc::new(ChurnCounts::default());
    for (k, (uid, home, _)) in TENANTS.iter().enumerate() {
        for (i, name) in names.iter().enumerate() {
            let churn = Churn {
                rng: Rng::new(seed, 1000 + (k * names.len() + i) as u64),
                counts: Arc::clone(&counts),
            };
            let pid = ppm
                .spawn_login_process(name, *uid, SpawnSpec::new("churn", Box::new(churn)))
                .expect("churn program spawns");
            ppm.adopt(home, *uid, name, pid.0, TraceFlags::ALL.bits())
                .expect("churn program adopted");
        }
    }
    ppm.run_for(CHURN_START + SimDuration::from_secs(1));
    tr.end();
    let bringup_s = t1.elapsed().as_secs_f64();

    let start = ppm.now();
    let kill_at = start + SimDuration::from_micros(virt.as_micros() / 2);
    tr.begin(Layer::FaultApply);
    let plan = FaultPlan::parse(&format!(
        "seed 1\nat {}us kill {VICTIM} lpm",
        kill_at.as_micros()
    ))
    .expect("kill plan parses");
    ppm.world_mut()
        .apply_fault_plan(&plan)
        .expect("kill plan applies");
    tr.end();

    let mut digest = fold(ppm::digest::fnv1a(&[]), &start.as_micros().to_string());
    for (uid, _, _) in TENANTS {
        for (h, pid) in sim::managed(ppm.world(), uid, None).keys() {
            digest = fold(digest, &format!("{}:{h}:{pid};", uid.0));
        }
    }
    Built {
        ppm,
        counts,
        t0: start,
        kill_at,
        build_s,
        bringup_s,
        digest,
    }
}

/// One tenant's part in the recovery measurement.
#[derive(Default)]
struct Watch {
    baseline: Option<Pending>,
    before: Option<Forest>,
    poll: Option<Pending>,
    restored_ms: Option<f64>,
}

struct Phase {
    tally: Tally,
    usage: (f64, u64),
    mttr_ms: Option<f64>,
    procs: u64,
    before: Counters,
    end: Counters,
}

/// Launches a snapshot of the victim host from its pod neighbour.
fn poll_victim(ppm: &mut PpmHarness, tr: &mut Tracer, uid: Uid) -> Pending {
    sim::launch(ppm, tr, POLLER, uid, Kind::Snapshot, VICTIM, None, None)
}

/// The timed phase: open-loop tool ops on a fixed virtual period while
/// the churn runs, plus the recovery watch around the scripted kill.
/// It ends after `chunks` of its `CHUNKS` chunks; ops still pending then
/// are waited for. With `yardstick`, every chunk boundary times the
/// yardstick.
fn timed(
    b: &mut Built,
    tr: &mut Tracer,
    seed: u64,
    virt: SimDuration,
    chunks: u64,
    yardstick: bool,
) -> Phase {
    let ppm = &mut b.ppm;
    let names: Vec<String> = (0..PODS * PER_POD).map(host_name).collect();
    let mut rng = Rng::new(seed, 2);
    let mut tally = Tally::new();
    let before = sim::counters(ppm.world());
    let procs0 = b.counts.total();
    let chunk_us = (virt.as_micros() / CHUNKS).max(1);
    let end_at = b.t0 + SimDuration::from_micros(chunk_us * chunks.min(CHUNKS));
    let baseline_at = SimTime::from_micros(b.kill_at.as_micros() - 300_000);
    let victim = ppm.host(VICTIM).expect("victim host");
    let mut pending: Vec<Pending> = Vec::new();
    let mut watches: Vec<Watch> = TENANTS.iter().map(|_| Watch::default()).collect();
    // Due times of each tenant's next op pair; tenant k is offset by k/2
    // of a period.
    let mut due: Vec<SimTime> = (0..TENANTS.len())
        .map(|k| {
            b.t0 + SimDuration::from_micros(PERIOD.as_micros() * k as u64 / TENANTS.len() as u64)
        })
        .collect();
    let mut next = b.t0;
    let mut chunk = 1;
    let u0 = usage();
    tally.start_clock(yardstick);
    while next < end_at {
        next = (next + TICK).min(end_at);
        let gathering = pending.iter().any(|p| p.kind == Kind::Snapshot);
        let s0 = Instant::now();
        sim::advance_to(ppm, tr, next);
        if gathering {
            tally.snapshot_step_ns += s0.elapsed().as_nanos() as u64;
        }
        let now = ppm.now();
        let mut i = 0;
        while i < pending.len() {
            if sim::is_done(&pending[i]) {
                let p = pending.swap_remove(i);
                sim::settle(ppm, tr, p, &mut tally);
            } else {
                i += 1;
            }
        }
        for (k, (uid, home, _)) in TENANTS.iter().enumerate() {
            while due[k] <= now {
                let mut snap = sim::launch(ppm, tr, home, *uid, Kind::Snapshot, "*", None, None);
                snap.due = due[k];
                pending.push(snap);
                let home_pod = &home[..2];
                let dest = loop {
                    let d = &names[rng.range(0, names.len() as u64) as usize];
                    if &d[..2] != home_pod {
                        break d.clone();
                    }
                };
                let mut spawn = sim::launch(
                    ppm,
                    tr,
                    home,
                    *uid,
                    Kind::Spawn,
                    &dest,
                    None,
                    Some(JOB_LIFE),
                );
                spawn.due = due[k];
                pending.push(spawn);
                due[k] += PERIOD;
            }
            let w = &mut watches[k];
            if w.before.is_none() && w.baseline.is_none() && (baseline_at..b.kill_at).contains(&now)
            {
                w.baseline = Some(poll_victim(ppm, tr, *uid));
            }
            if let Some(p) = w.baseline.take_if(|p| sim::is_done(p)) {
                w.before = sim::take_snapshot(&p).map(|(procs, _)| sim::forest_of(&procs, VICTIM));
            }
            let Some(before) = w.before.as_ref() else {
                continue;
            };
            if now < b.kill_at || w.restored_ms.is_some() {
                continue;
            }
            if let Some((procs, at)) = w
                .poll
                .take_if(|p| sim::is_done(p))
                .and_then(|p| sim::take_snapshot(&p))
            {
                let after = sim::forest_of(&procs, VICTIM);
                if sim::forest_restored(ppm.world(), victim, before, &after) {
                    w.restored_ms = Some(at.saturating_since(b.kill_at).as_micros() as f64 / 1e3);
                    continue;
                }
            }
            if w.poll.is_none() {
                w.poll = Some(poll_victim(ppm, tr, *uid));
            }
        }
        if next.saturating_since(b.t0).as_micros() >= chunk * chunk_us {
            chunk += 1;
            tally.mark();
        }
    }
    for p in pending {
        sim::wait(ppm, tr, &p);
        sim::settle(ppm, tr, p, &mut tally);
    }
    tally.stop_clock();
    let u1 = usage();
    let mttr_ms = watches
        .iter()
        .map(|w| w.restored_ms)
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.into_iter().fold(0.0, f64::max));
    let procs = b.counts.total() - procs0 + tally.ok_spawns;
    Phase {
        tally,
        usage: (u1.cpu_ms - u0.cpu_ms, u1.ctx_switches - u0.ctx_switches),
        mttr_ms,
        procs,
        before,
        end: sim::counters(ppm.world()),
    }
}

pub fn run(run: &Run) -> Outcome {
    let virt = |secs: f64| SimDuration::from_millis((VIRT_PER_SECOND as f64 * 1e3 * secs) as u64);
    // An untraced run makes a short check pass and then the measured
    // pass over all of `--seconds`; both worlds get the same inputs. A
    // traced run makes three passes of a third each: untraced, traced,
    // untraced.
    let (length, plan): (SimDuration, Vec<(bool, u64)>) = if run.trace {
        let third = virt(run.seconds as f64 / 3.0);
        (
            third,
            vec![(false, CHUNKS), (true, CHUNKS), (false, CHUNKS)],
        )
    } else {
        let all = virt(run.seconds as f64);
        (all, vec![(false, CHECK_CHUNKS), (false, CHUNKS)])
    };
    let measured = if run.trace { 0 } else { plan.len() - 1 };
    let mut traced = Tracer::new(run.trace);
    let mut off = Tracer::new(false);
    let mut m = Metrics::default();
    let mut setups = sim::Setups::default();
    // Set-up is timed `SETUPS` times. The worlds beyond the passes' own
    // are built, timed and dropped in the gaps before, between and
    // after the passes, so that the samples span the run. The worlds
    // exist one at a time: each is dropped before the next is built.
    let gaps = sim::spread(SETUPS.saturating_sub(plan.len()), plan.len() + 1);
    let setup_only = |setups: &mut sim::Setups, count: usize| {
        for _ in 0..count {
            let yard = common::yardstick();
            let b = build(run.seed, length, &mut Tracer::new(false));
            setups.add(b.build_s, b.bringup_s, b.digest, yard);
        }
    };
    let mut phases = Vec::new();
    for (i, &(traced_pass, chunks)) in plan.iter().enumerate() {
        setup_only(&mut setups, gaps[i]);
        let tr = if traced_pass { &mut traced } else { &mut off };
        let yard = common::yardstick();
        let mut b = build(run.seed, length, tr);
        setups.add(b.build_s, b.bringup_s, b.digest, yard);
        sim::set_tracing(&mut b.ppm, traced_pass);
        let p = timed(&mut b, tr, run.seed, length, chunks, !run.trace);
        if traced_pass {
            sim::layer_traced(&b.ppm, &traced, &p.tally, &mut m);
        }
        phases.push(p);
    }
    setup_only(&mut setups, gaps[plan.len()]);
    let (build_s, bringup_s) = (median(setups.build.clone()), median(setups.bringup.clone()));
    let mut notes = vec![format!(
        "set-up median {:.6} s of wall time, {:.6} s at the yardstick's nominal speed",
        median(setups.raw.clone()),
        median(setups.total.clone())
    )];
    let mut correct = setups.agree();
    if !correct {
        notes.push("set-up digests differ between identical builds".to_string());
    }
    if !sim::digests_agree(&phases.iter().map(|p| &p.tally).collect::<Vec<_>>()) {
        correct = false;
        notes.push("passes over the same inputs diverged".to_string());
    }
    let wall_s = sim::scaled_wall_s(&phases[measured].tally, &mut notes);
    if run.trace {
        let (a, b, c) = (&phases[0], &phases[1], &phases[2]);
        sim::layer_counters(&a.before, &a.end, &a.tally, a.procs, &mut m);
        m.set(
            "trace.overhead_frac",
            crate::overhead(b.tally.busy_s(), a.tally.busy_s(), c.tally.busy_s()),
        );
    }
    let a = phases.swap_remove(measured);
    if a.mttr_ms.is_none() {
        correct = false;
        notes.push(format!(
            "{VICTIM}'s forest was not restored after its LPMs were killed"
        ));
    }
    crate::sim_outcome(crate::SimPass {
        procs: a.procs,
        tally: a.tally,
        wall_s,
        mttr_ms: a.mttr_ms.unwrap_or(0.0),
        setup: setups.total,
        build_s,
        bringup_s,
        correct,
        notes,
        layers: m,
        cpu_ms: a.usage.0,
        ctx: a.usage.1,
    })
}
