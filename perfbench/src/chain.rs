//! `sim-chain`: the generated 256-host chain, one process per host
//! spawned from its predecessor (set-up), then a seeded closed loop from
//! `h0` of whole-network snapshots and remote spawn/kill on far hosts,
//! on the flat wire model with no faults. After the loop, one LPM kill on
//! a far host measures recovery at depth.

use std::time::Instant;

use ppm::core::pmd::PmdOptions;
use ppm::harness::PpmHarness;
use ppm::proto::types::Gpid;
use ppm::scenario::Action;
use ppm::simnet::fault::FaultPlan;
use ppm::simnet::time::SimDuration;
use ppm::simos::ids::Uid;

use crate::common::{self, fold, median, usage, Layer, Metrics, Rng, Tracer};
use crate::sim::{self, Counters, Kind, Tally};
use crate::{Outcome, Run};

const HOSTS: usize = 256;
const UID: Uid = Uid(100);
/// Closed-loop ops per second of `--seconds` (calibrated so one run
/// takes about that long on a 2-CPU machine).
const OPS_PER_SECOND: usize = 30;
/// Spawn targets cover this hop range in seeded order, round after
/// round: the far three quarters of the chain.
const FAR: (u64, u64) = (64, HOSTS as u64);
/// The op cycle; a kill with no earlier job left becomes a spawn.
const CYCLE: [Kind; 7] = [
    Kind::Spawn,
    Kind::Spawn,
    Kind::Kill,
    Kind::Snapshot,
    Kind::Spawn,
    Kind::Spawn,
    Kind::Kill,
];
/// Ops per chunk of the timed phase (one cycle): the digest check
/// compares passes at chunk boundaries, where the yardstick is also
/// timed.
const CHUNK_OPS: usize = CYCLE.len();
/// The host whose LPM the recovery probe kills, and its neighbour, from
/// which the forest is polled so each poll costs one hop.
const VICTIM: &str = "h100";
const POLLER: &str = "h99";
/// Chunks of the short pass an untraced run makes first, to check that
/// a second world given the same inputs produces the same digests.
const CHECK_CHUNKS: usize = 8;
/// Set-ups timed per run, the passes' own worlds included; `setup_s` is
/// their median.
const SETUPS: usize = 5;

struct Built {
    ppm: PpmHarness,
    build_s: f64,
    bringup_s: f64,
    digest: u64,
}

/// Builds the chain exactly as `ppm::scenario::chain_scenario` lays it
/// out, split into world build and LPM bring-up.
fn build(seed: u64, tr: &mut Tracer) -> Built {
    let sc = ppm::scenario::parse(&ppm::scenario::chain_scenario(HOSTS)).expect("chain parses");
    let t0 = Instant::now();
    tr.begin(Layer::WorldBuild);
    let mut b = PpmHarness::builder().seed(seed).pmd_options(PmdOptions {
        stable_storage: true,
        respawn_lpms: true,
    });
    for (name, cpu) in &sc.hosts {
        b = b.host(name.clone(), *cpu);
    }
    for (x, y) in &sc.links {
        b = b.link(x.clone(), y.clone());
    }
    for (uid, secret, recovery, cfg) in &sc.users {
        let rec: Vec<&str> = recovery.iter().map(String::as_str).collect();
        b = b.user(Uid(*uid), *secret, &rec, cfg.clone());
    }
    let mut ppm = b.build();
    sim::set_tracing(&mut ppm, false);
    tr.end();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    tr.begin(Layer::LpmBringup);
    let mut actions = sc.actions.clone();
    actions.sort_by_key(|(_, at, _)| *at);
    for (_, at, action) in actions {
        if let Action::Spawn {
            from,
            uid,
            dest,
            command,
            ..
        } = action
        {
            if at > ppm.now() {
                ppm.run_for(at.saturating_since(ppm.now()));
            }
            ppm.spawn_remote(&from, Uid(uid), &dest, &command, None, None)
                .expect("chain spawn");
        }
    }
    tr.end();
    let bringup_s = t1.elapsed().as_secs_f64();
    let mut digest = fold(ppm::digest::fnv1a(&[]), &ppm.now().as_micros().to_string());
    for (h, pid) in sim::managed(ppm.world(), UID, None).keys() {
        digest = fold(digest, &format!("{h}:{pid};"));
    }
    Built {
        ppm,
        build_s,
        bringup_s,
        digest,
    }
}

/// The closed loop: `ops` ops from `h0`, each launched when the last
/// finished.
fn timed(ppm: &mut PpmHarness, tr: &mut Tracer, seed: u64, ops: usize, t: &mut Tally) {
    let mut rng = Rng::new(seed, 1);
    let mut jobs: Vec<Gpid> = Vec::new();
    let mut targets: Vec<u64> = Vec::new();
    for i in 0..ops {
        let kind = match CYCLE[i % CYCLE.len()] {
            Kind::Kill if jobs.is_empty() => Kind::Spawn,
            k => k,
        };
        let (dest, target) = match kind {
            Kind::Spawn => {
                if targets.is_empty() {
                    targets = rng.permutation(FAR.0, FAR.1);
                }
                (format!("h{}", targets.pop().expect("refilled")), None)
            }
            Kind::Snapshot => ("*".to_string(), None),
            Kind::Kill => {
                let g = jobs.swap_remove(rng.range(0, jobs.len() as u64) as usize);
                (g.host.clone(), Some(g))
            }
        };
        let p = sim::launch(ppm, tr, "h0", UID, kind, &dest, target, None);
        let waited = Instant::now();
        sim::wait(ppm, tr, &p);
        if kind == Kind::Snapshot {
            t.snapshot_step_ns += waited.elapsed().as_nanos() as u64;
        }
        if let Some(g) = sim::settle(ppm, tr, p, t) {
            jobs.push(g);
        }
        if (i + 1) % CHUNK_OPS == 0 {
            t.mark();
        }
    }
}

/// Kills the victim's LPM and polls its forest from its neighbour until the
/// respawned LPM reports every surviving process with its parents.
/// Returns the virtual milliseconds from kill to restored forest.
fn recovery(ppm: &mut PpmHarness, tr: &mut Tracer) -> Option<f64> {
    let (procs, _) = sim::snapshot_host(ppm, tr, POLLER, UID, VICTIM)?;
    let before = sim::forest_of(&procs, VICTIM);
    let victim = ppm.host(VICTIM).expect("victim host");
    let at = ppm.now() + SimDuration::from_millis(1);
    tr.begin(Layer::FaultApply);
    let plan = FaultPlan::parse(&format!(
        "seed 1\nat {}us kill {VICTIM} lpm",
        at.as_micros()
    ))
    .expect("kill plan parses");
    ppm.world_mut()
        .apply_fault_plan(&plan)
        .expect("kill plan applies");
    tr.end();
    sim::advance_to(ppm, tr, at);
    let give_up = at + SimDuration::from_secs(60);
    while ppm.now() < give_up {
        if let Some((procs, when)) = sim::snapshot_host(ppm, tr, POLLER, UID, VICTIM) {
            let after = sim::forest_of(&procs, VICTIM);
            if sim::forest_restored(ppm.world(), victim, &before, &after) {
                return Some(when.saturating_since(at).as_micros() as f64 / 1e3);
            }
        }
    }
    None
}

struct Pass {
    tally: Tally,
    usage: (f64, u64),
    mttr_ms: Option<f64>,
    before: Counters,
    end: Counters,
}

/// One pass: `ops` ops of the closed loop, then (when `recover`) the
/// recovery measurement. With `yardstick`, every chunk boundary times
/// the yardstick.
fn pass(
    ppm: &mut PpmHarness,
    tr: &mut Tracer,
    seed: u64,
    ops: usize,
    recover: bool,
    yardstick: bool,
) -> Pass {
    let mut tally = Tally::new();
    let before = sim::counters(ppm.world());
    let u0 = usage();
    tally.start_clock(yardstick);
    timed(ppm, tr, seed, ops, &mut tally);
    tally.stop_clock();
    let u1 = usage();
    let mttr_ms = if recover { recovery(ppm, tr) } else { None };
    let end = sim::counters(ppm.world());
    Pass {
        tally,
        usage: (u1.cpu_ms - u0.cpu_ms, u1.ctx_switches - u0.ctx_switches),
        mttr_ms,
        before,
        end,
    }
}

pub fn run(run: &Run) -> Outcome {
    // Whole chunks of ops for `secs` seconds of run.
    let ops = |secs: f64| {
        let chunks = (OPS_PER_SECOND as f64 * secs / CHUNK_OPS as f64).round() as usize;
        chunks.max(1) * CHUNK_OPS
    };
    // An untraced run makes a short check pass and then the measured
    // pass over all of `--seconds`. A traced run makes three passes of a
    // third each: untraced, traced, untraced.
    let plan: Vec<(bool, usize)> = if run.trace {
        let third = ops(run.seconds as f64 / 3.0);
        vec![(false, third), (true, third), (false, third)]
    } else {
        vec![
            (false, CHECK_CHUNKS * CHUNK_OPS),
            (false, ops(run.seconds as f64)),
        ]
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
            let b = build(run.seed, &mut Tracer::new(false));
            setups.add(b.build_s, b.bringup_s, b.digest, yard);
        }
    };
    let mut passes = Vec::new();
    for (i, &(traced_pass, n)) in plan.iter().enumerate() {
        setup_only(&mut setups, gaps[i]);
        let tr = if traced_pass { &mut traced } else { &mut off };
        let yard = common::yardstick();
        let mut b = build(run.seed, tr);
        setups.add(b.build_s, b.bringup_s, b.digest, yard);
        sim::set_tracing(&mut b.ppm, traced_pass);
        let recover = run.trace || i == measured;
        let p = pass(&mut b.ppm, tr, run.seed, n, recover, !run.trace);
        if traced_pass {
            sim::layer_traced(&b.ppm, &traced, &p.tally, &mut m);
        }
        passes.push(p);
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
    if !sim::digests_agree(&passes.iter().map(|p| &p.tally).collect::<Vec<_>>()) {
        correct = false;
        notes.push("passes over the same inputs diverged".to_string());
    }
    let wall_s = sim::scaled_wall_s(&passes[measured].tally, &mut notes);
    if run.trace {
        let (a, b, c) = (&passes[0], &passes[1], &passes[2]);
        sim::layer_counters(
            &a.before,
            &a.end,
            &a.tally,
            a.tally.ok_spawns + a.tally.ok_kills,
            &mut m,
        );
        m.set(
            "trace.overhead_frac",
            crate::overhead(b.tally.busy_s(), a.tally.busy_s(), c.tally.busy_s()),
        );
    }
    let a = passes.swap_remove(measured);
    if a.mttr_ms.is_none() {
        correct = false;
        notes.push(format!(
            "{VICTIM}'s forest was not restored after its LPM was killed"
        ));
    }
    crate::sim_outcome(crate::SimPass {
        procs: a.tally.ok_spawns + a.tally.ok_kills,
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
