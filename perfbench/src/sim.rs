//! Machinery the two simulated workloads share: stepping the world under
//! spans, launching tool ops, the snapshot/spawn/kill oracles read from
//! the simulated kernels, and the exact counters sampled from the world
//! and the LPM registries.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use ppm::core::client::{ToolHandle, ToolStep};
use ppm::harness::PpmHarness;
use ppm::proto::codec::Wire;
use ppm::proto::msg::{ControlAction, Op, Reply};
use ppm::proto::types::{Gpid, ProcRecord, WireProcState};
use ppm::runtime::obs::{MetricSample, MetricValue};
use ppm::simnet::time::{SimDuration, SimTime};
use ppm::simnet::topology::HostId;
use ppm::simos::ids::{Pid, Uid};
use ppm::simos::World;

use crate::alloc;
use crate::common::{self, fold, ratio, Latencies, Layer, Metrics, Tracer};

/// How stale an LPM's view may be: a process that started or exited
/// within this window before a snapshot was launched may or may not be
/// in it. Every other managed process must be reported exactly.
pub const GRACE: SimDuration = SimDuration::from_millis(500);

/// How long a tool op may take before it counts as timed out.
pub const OP_BUDGET: SimDuration = SimDuration::from_secs(60);

/// Managed (adopted at some point) live processes of one user:
/// `(host, pid)` → start time.
pub type Truth = BTreeMap<(u32, u32), SimTime>;

/// Ground truth read from the simulated kernels.
pub fn managed(world: &World, uid: Uid, only: Option<HostId>) -> Truth {
    let core = world.core();
    let mut out = Truth::new();
    for h in core.topology().host_ids() {
        if only.is_some_and(|o| o != h) {
            continue;
        }
        for p in core.kernel(h).user_processes(uid) {
            if p.tracer.is_some() {
                out.insert((h.0, p.pid.0), p.started_at);
            }
        }
    }
    out
}

/// What an op asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Spawn,
    Snapshot,
    Kill,
}

impl Kind {
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Spawn => "spawn",
            Kind::Snapshot => "snapshot",
            Kind::Kill => "kill",
        }
    }
}

/// A launched tool op awaiting its reply.
pub struct Pending {
    pub kind: Kind,
    pub uid: Uid,
    pub dest: String,
    /// When the op was due; its latency counts from here.
    pub due: SimTime,
    pub handle: ToolHandle,
    /// Ground truth at launch (snapshots only).
    pub truth: Option<Truth>,
    /// The process a kill targets.
    pub target: Option<Gpid>,
}

/// Builds the one-step tool script of an op.
fn op_step(
    kind: Kind,
    dest: &str,
    target: Option<&Gpid>,
    lifetime: Option<SimDuration>,
) -> ToolStep {
    let op = match kind {
        Kind::Spawn => Op::Spawn {
            command: "bench-job".to_string(),
            logical_parent: None,
            lifetime_us: lifetime.map(|d| d.as_micros()),
            work_us: 0,
            cpu_bound: false,
        },
        Kind::Snapshot => Op::Snapshot,
        Kind::Kill => Op::Control {
            pid: target.map_or(0, |g| g.pid),
            action: ControlAction::Kill,
        },
    };
    ToolStep::new(dest, op)
}

/// Launches an op from `from` as user `uid`.
#[allow(clippy::too_many_arguments)]
pub fn launch(
    ppm: &mut PpmHarness,
    tr: &mut Tracer,
    from: &str,
    uid: Uid,
    kind: Kind,
    dest: &str,
    target: Option<Gpid>,
    lifetime: Option<SimDuration>,
) -> Pending {
    let due = ppm.now();
    let truth = (kind == Kind::Snapshot).then(|| {
        tr.begin(Layer::Oracle);
        let scope = (dest != "*").then(|| ppm.host(dest).expect("known host"));
        let t = managed(ppm.world(), uid, scope);
        tr.end();
        t
    });
    tr.begin(Layer::ToolOp);
    let handle = ppm
        .launch_tool(
            from,
            uid,
            vec![op_step(kind, dest, target.as_ref(), lifetime)],
        )
        .expect("launch tool");
    tr.end();
    Pending {
        kind,
        uid,
        dest: dest.to_string(),
        due,
        handle,
        truth,
        target,
    }
}

/// Switches the program's own tracing: the world's text trace log (on
/// by default, kept for `ppm-sim --trace`) and the virtual-time spans
/// (off by default). End-to-end passes run with both off.
pub fn set_tracing(ppm: &mut PpmHarness, on: bool) {
    ppm.world_mut().core_mut().trace_mut().set_enabled(on);
    if on {
        ppm.enable_spans();
    }
}

/// One `World::step` under a span. Returns `false` on an empty queue.
#[inline]
pub fn step(ppm: &mut PpmHarness, tr: &mut Tracer) -> bool {
    tr.begin(Layer::Step);
    let more = ppm.world_mut().step();
    tr.end();
    more
}

/// Steps until the clock reaches `t` (or the queue drains).
pub fn advance_to(ppm: &mut PpmHarness, tr: &mut Tracer, t: SimTime) {
    while ppm.now() < t {
        if !step(ppm, tr) {
            ppm.run_for(t.saturating_since(ppm.now()));
            break;
        }
    }
}

pub fn is_done(p: &Pending) -> bool {
    p.handle.lock().expect("tool outcome lock").done
}

/// Steps until `p` finishes or its budget runs out.
pub fn wait(ppm: &mut PpmHarness, tr: &mut Tracer, p: &Pending) {
    let deadline = p.due + OP_BUDGET;
    while !is_done(p) && ppm.now() < deadline {
        if !step(ppm, tr) {
            break;
        }
    }
}

/// Unwraps a partial-result marker into the inner reply plus the hosts
/// that never answered.
pub fn split_partial(reply: Reply) -> (Reply, Vec<String>) {
    match reply {
        Reply::Partial { missing, inner } => (*inner, missing),
        other => (other, Vec::new()),
    }
}

/// Live records of a snapshot reply.
pub fn live(procs: &[ProcRecord]) -> impl Iterator<Item = &ProcRecord> {
    procs.iter().filter(|p| p.state != WireProcState::Dead)
}

/// Outcomes of the ops of one timed phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub spawn: Latencies,
    pub snapshot: Latencies,
    pub snapshots: u64,
    pub records: u64,
    pub reply_bytes: u64,
    pub ok_spawns: u64,
    pub ok_kills: u64,
    pub digest: u64,
    /// Wall time of world steps taken while a snapshot was in flight.
    pub snapshot_step_ns: u64,
    pub failures: BTreeMap<&'static str, u64>,
    /// The digest at each chunk boundary of the timed phase: passes over
    /// the same inputs must agree at every boundary they share.
    pub marks: Vec<u64>,
    /// Wall nanoseconds of the timed phase, yardstick calls excluded.
    pub busy_ns: u64,
    /// Wall nanoseconds and number of the yardstick calls made at the
    /// chunk boundaries.
    pub yard_ns: u64,
    pub yard_calls: u64,
    /// When the current chunk started, and whether chunk boundaries call
    /// the yardstick.
    clock: Option<(Instant, bool)>,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            digest: ppm::digest::fnv1a(&[]),
            ..Tally::default()
        }
    }

    /// Starts the wall clock of the timed phase. With `yardstick`, every
    /// chunk boundary also times a call of the yardstick, off the clock,
    /// to follow the machine's speed through the phase.
    pub fn start_clock(&mut self, yardstick: bool) {
        self.clock = Some((Instant::now(), yardstick));
    }

    /// Records a chunk boundary.
    pub fn mark(&mut self) {
        self.marks.push(self.digest);
        if let Some((from, yardstick)) = self.clock {
            self.busy_ns += from.elapsed().as_nanos() as u64;
            if yardstick {
                self.yard_ns += common::yardstick().as_nanos() as u64;
                self.yard_calls += 1;
            }
            self.clock = Some((Instant::now(), yardstick));
        }
    }

    /// Stops the wall clock at the end of the timed phase.
    pub fn stop_clock(&mut self) {
        if let Some((from, _)) = self.clock.take() {
            self.busy_ns += from.elapsed().as_nanos() as u64;
        }
    }

    /// Wall seconds of the timed phase, yardstick calls excluded.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Mean wall seconds of a yardstick call in this phase.
    pub fn yard_s(&self) -> f64 {
        ratio(self.yard_ns as f64 / 1e9, self.yard_calls as f64)
    }

    /// The phase's wall seconds at the yardstick's nominal speed: its
    /// busy time, scaled by how much slower (or faster) than nominal the
    /// machine ran the yardstick during the phase.
    pub fn scaled_s(&self) -> f64 {
        if self.yard_calls == 0 {
            return self.busy_s();
        }
        self.busy_s() * common::YARDSTICK_NOMINAL_S / self.yard_s()
    }

    pub(crate) fn fail(&mut self, why: &'static str) {
        self.failed += 1;
        *self.failures.entry(why).or_default() += 1;
    }
}

/// Set-up times and digests of the worlds one run builds. The times are
/// at the yardstick's nominal speed, as the timed phase's are; `raw`
/// keeps the wall times.
#[derive(Debug, Default)]
pub struct Setups {
    pub total: Vec<f64>,
    pub build: Vec<f64>,
    pub bringup: Vec<f64>,
    pub raw: Vec<f64>,
    pub digests: Vec<u64>,
}

impl Setups {
    /// Records one set-up, scaled by the mean of `before`, a yardstick
    /// call timed just before the build, and one timed now.
    pub fn add(&mut self, build_s: f64, bringup_s: f64, digest: u64, before: Duration) {
        let yard_s = (before + common::yardstick()).as_secs_f64() / 2.0;
        let scale = common::YARDSTICK_NOMINAL_S / yard_s;
        self.total.push((build_s + bringup_s) * scale);
        self.build.push(build_s * scale);
        self.bringup.push(bringup_s * scale);
        self.raw.push(build_s + bringup_s);
        self.digests.push(digest);
    }

    /// True when every build of the same inputs gave the same digest.
    pub fn agree(&self) -> bool {
        self.digests.iter().all(|d| *d == self.digests[0])
    }
}

/// How many set-up-only worlds to build in each of `gaps` gaps around
/// the passes, so that `extra` set-up samples spread over the whole run.
pub fn spread(extra: usize, gaps: usize) -> Vec<usize> {
    (0..gaps)
        .map(|g| extra / gaps + usize::from(g < extra % gaps))
        .collect()
}

/// True when passes over the same inputs agree on the digest at the
/// last chunk boundary the shortest of them reached.
pub fn digests_agree(passes: &[&Tally]) -> bool {
    let k = passes.iter().map(|t| t.marks.len()).min().unwrap_or(0);
    k > 0
        && passes
            .iter()
            .all(|t| t.marks[k - 1] == passes[0].marks[k - 1])
}

/// The wall seconds of a pass at the yardstick's nominal speed. A
/// CPU-bound pass's wall time follows the machine's speed, which on a
/// shared host drifts by half over tens of seconds; the yardstick, timed
/// all through the pass, drifts with it. Notes the raw and the scaled
/// time.
pub fn scaled_wall_s(t: &Tally, notes: &mut Vec<String>) -> f64 {
    notes.push(format!(
        "timed phase {:.3} s of wall time; yardstick {:.3} ms per call over {} calls \
         (nominal {} ms); {:.3} s at nominal speed",
        t.busy_s(),
        t.yard_s() * 1e3,
        t.yard_calls,
        common::YARDSTICK_NOMINAL_S * 1e3,
        t.scaled_s(),
    ));
    t.scaled_s()
}

/// Checks a snapshot against the kernels: every managed process alive
/// from `GRACE` before the launch until now must be listed, and every
/// listed live process must be one of the user's managed processes that
/// was alive at some point in that window.
pub fn snapshot_ok(
    world: &World,
    uid: Uid,
    truth: &Truth,
    due: SimTime,
    procs: &[ProcRecord],
) -> bool {
    let core = world.core();
    let since = SimTime::from_micros(due.as_micros().saturating_sub(GRACE.as_micros()));
    let mut seen = BTreeSet::new();
    for r in live(procs) {
        let Some(h) = core.host_by_name(&r.gpid.host) else {
            return false;
        };
        let Some(p) = core.kernel(h).get(Pid(r.gpid.pid)) else {
            return false;
        };
        let in_window = p.is_alive() || p.exited_at.is_some_and(|t| t >= since);
        if p.uid != uid || p.tracer.is_none() || !in_window {
            return false;
        }
        seen.insert((h.0, r.gpid.pid));
    }
    truth.iter().all(|(&(h, pid), &started)| {
        let still = core
            .kernel(HostId(h))
            .get(Pid(pid))
            .is_some_and(|p| p.is_alive() && p.started_at == started);
        started > since || !still || seen.contains(&(h, pid))
    })
}

/// Settles a finished (or abandoned) op: latency, oracle, digest.
/// Returns the spawned process of a successful spawn.
pub fn settle(ppm: &PpmHarness, tr: &mut Tracer, p: Pending, t: &mut Tally) -> Option<Gpid> {
    t.attempted += 1;
    let outcome = std::mem::take(&mut *p.handle.lock().expect("tool outcome lock"));
    if !outcome.done {
        t.fail("timeout");
        return None;
    }
    if outcome.error.is_some() {
        t.fail("tool-error");
        return None;
    }
    let Some((reply, at)) = outcome.replies.into_iter().next() else {
        t.fail("no-reply");
        return None;
    };
    let ms = at.saturating_since(p.due).as_micros() as f64 / 1e3;
    if tr.on() {
        tr.begin(Layer::Codec);
        let bytes = reply.to_bytes();
        let back = Reply::from_bytes(&bytes).expect("reply decodes");
        tr.end();
        assert_eq!(back, reply, "codec round trip changed a reply");
        t.reply_bytes += bytes.len() as u64;
    }
    tr.begin(Layer::Oracle);
    let (inner, missing) = split_partial(reply);
    let mut summary = format!("{}|{}|{}|", p.kind.tag(), p.dest, at.as_micros());
    let mut spawned = None;
    let ok = match (p.kind, &inner) {
        (Kind::Snapshot, Reply::Snapshot { procs, .. }) => {
            t.snapshot.push(ms);
            t.snapshots += 1;
            t.records += procs.len() as u64;
            summary.push_str(&format!("{}/{}", procs.len(), missing.len()));
            let truth = p.truth.as_ref().expect("snapshot truth");
            missing.is_empty() && snapshot_ok(ppm.world(), p.uid, truth, p.due, procs)
        }
        (Kind::Spawn, Reply::Spawned { gpid }) => {
            t.spawn.push(ms);
            summary.push_str(&gpid.to_string());
            let alive = ppm
                .host(&gpid.host)
                .ok()
                .and_then(|h| ppm.world().core().kernel(h).get(Pid(gpid.pid)))
                .is_some_and(|q| q.is_alive() && q.uid == p.uid);
            if alive && gpid.host == p.dest {
                t.ok_spawns += 1;
                spawned = Some(gpid.clone());
                true
            } else {
                false
            }
        }
        (Kind::Kill, Reply::Ok) => {
            let g = p.target.as_ref().expect("kill target");
            let dead = ppm
                .host(&g.host)
                .ok()
                .and_then(|h| ppm.world().core().kernel(h).get(Pid(g.pid)))
                .is_none_or(|q| !q.is_alive());
            t.ok_kills += u64::from(dead);
            dead
        }
        _ => {
            summary.push_str(&format!("{inner:?}"));
            false
        }
    };
    t.digest = fold(t.digest, &summary);
    tr.end();
    if !ok {
        t.fail(match p.kind {
            Kind::Snapshot if !missing.is_empty() => "snapshot-partial",
            Kind::Snapshot => "snapshot-mismatch",
            Kind::Spawn => "spawn",
            Kind::Kill => "kill",
        });
    }
    spawned
}

/// The forest one host's LPM reports: `pid` → (local parent, logical
/// parent) of its live records.
pub type Forest = BTreeMap<u32, (u32, Option<Gpid>)>;

pub fn forest_of(procs: &[ProcRecord], host: &str) -> Forest {
    live(procs)
        .filter(|r| r.gpid.host == host)
        .map(|r| {
            // A re-adopted root carries the "parent lost" marker (ppid 0)
            // where the original said init (ppid 1): both mean no local
            // parent.
            let ppid = r.ppid.max(1);
            (r.gpid.pid, (ppid, r.logical_parent.clone()))
        })
        .collect()
}

/// True when `after` lists every member of `before` that is still alive,
/// with the same parents.
pub fn forest_restored(world: &World, host: HostId, before: &Forest, after: &Forest) -> bool {
    let kernel = world.core().kernel(host);
    before.iter().all(|(pid, parents)| {
        let alive = kernel.get(Pid(*pid)).is_some_and(|p| p.is_alive());
        !alive || after.get(pid) == Some(parents)
    })
}

/// The records and arrival time of a finished snapshot op, when it
/// completed without missing hosts.
pub fn take_snapshot(p: &Pending) -> Option<(Vec<ProcRecord>, SimTime)> {
    let outcome = std::mem::take(&mut *p.handle.lock().expect("tool outcome lock"));
    let (reply, at) = outcome.replies.into_iter().next()?;
    match split_partial(reply) {
        (Reply::Snapshot { procs, .. }, missing) if missing.is_empty() => Some((procs, at)),
        _ => None,
    }
}

/// Runs a one-host snapshot from `from` to completion and returns its
/// records when complete.
pub fn snapshot_host(
    ppm: &mut PpmHarness,
    tr: &mut Tracer,
    from: &str,
    uid: Uid,
    dest: &str,
) -> Option<(Vec<ProcRecord>, SimTime)> {
    let p = launch(ppm, tr, from, uid, Kind::Snapshot, dest, None, None);
    wait(ppm, tr, &p);
    take_snapshot(&p)
}

// ---------------------------------------------------------------------------
// Exact counters
// ---------------------------------------------------------------------------

/// Counters sampled from the world at one instant.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub fired: u64,
    pub schedules: u64,
    pub cancels: u64,
    pub overflow_peak: u64,
    pub world: BTreeMap<String, (u64, u64)>,
    pub lpm: BTreeMap<String, BTreeMap<String, u64>>,
    pub wire_msgs: u64,
    pub wire_bytes: u64,
    pub conns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// `(value, sum)` of a sample: a counter's value, or a histogram's
/// count and sum.
fn sample_value(s: &MetricSample) -> (u64, u64) {
    match &s.value {
        MetricValue::Counter(v) => (*v, 0),
        MetricValue::Gauge(v) => (*v as u64, 0),
        MetricValue::Hist(h) => (h.count, h.sum),
    }
}

pub fn counters(world: &World) -> Counters {
    let (allocs, alloc_bytes) = alloc::snapshot();
    let core = world.core();
    let q = core.engine_stats();
    let world_rows = core
        .obs()
        .registry
        .snapshot()
        .iter()
        .map(|s| (s.name.to_string(), sample_value(s)))
        .collect();
    let lpm = core
        .obs()
        .program_snapshots()
        .into_iter()
        .map(|(label, samples)| {
            let rows = samples
                .iter()
                .map(|s| (s.name.to_string(), sample_value(s).0))
                .collect();
            (label, rows)
        })
        .collect();
    let (mut wire_msgs, mut wire_bytes, mut conns) = (0, 0, 0);
    for c in core.connections() {
        wire_msgs += c.total_msgs();
        wire_bytes += c.total_bytes();
        conns += 1;
    }
    Counters {
        fired: q.fired,
        schedules: q.schedules,
        cancels: q.cancels,
        overflow_peak: q.overflow_peak as u64,
        world: world_rows,
        lpm,
        wire_msgs,
        wire_bytes,
        conns,
        allocs,
        alloc_bytes,
    }
}

impl Counters {
    fn world_value(&self, name: &str) -> (u64, u64) {
        self.world.get(name).copied().unwrap_or((0, 0))
    }

    /// Change of a world counter (or histogram count/sum) since `before`.
    pub fn world_delta(&self, before: &Counters, name: &str) -> (u64, u64) {
        let (a, s) = self.world_value(name);
        let (b, t) = before.world_value(name);
        (a.saturating_sub(b), s.saturating_sub(t))
    }

    /// Change of an LPM counter summed over every registry. A label whose
    /// value went down was re-registered by a respawned LPM; its new
    /// count is the change.
    pub fn lpm_delta(&self, before: &Counters, name: &str) -> u64 {
        self.lpm
            .iter()
            .map(|(label, rows)| {
                let a = rows.get(name).copied().unwrap_or(0);
                let b = before
                    .lpm
                    .get(label)
                    .and_then(|r| r.get(name))
                    .copied()
                    .unwrap_or(0);
                if a >= b {
                    a - b
                } else {
                    a
                }
            })
            .sum()
    }
}

/// Per-layer metrics of a simulated timed phase: exact counters between
/// `before` and `after`, normalized by the phase's ops.
pub fn layer_counters(
    before: &Counters,
    after: &Counters,
    tally: &Tally,
    procs: u64,
    m: &mut Metrics,
) {
    let ops = tally.attempted as f64;
    let fired = (after.fired - before.fired) as f64;
    m.set("engine.events_per_op", ratio(fired, ops));
    m.set(
        "engine.schedules_per_op",
        ratio((after.schedules - before.schedules) as f64, ops),
    );
    m.set(
        "engine.cancels_per_op",
        ratio((after.cancels - before.cancels) as f64, ops),
    );
    m.set("engine.overflow_peak", after.overflow_peak as f64);
    let (kev, _) = after.world_delta(before, "kernel.events");
    let (batches, batch_msgs) = after.world_delta(before, "kernel.batch_msgs");
    m.set("kernel.events_per_proc", ratio(kev as f64, procs as f64));
    m.set(
        "kernel.batch_mean",
        ratio(batch_msgs as f64, batches as f64),
    );
    m.set(
        "wire.msgs_per_op",
        ratio((after.wire_msgs - before.wire_msgs) as f64, ops),
    );
    m.set(
        "wire.bytes_per_op",
        ratio((after.wire_bytes - before.wire_bytes) as f64, ops),
    );
    m.set("wire.conns_opened", (after.conns - before.conns) as f64);
    crate::lpm_layers(|k| after.lpm_delta(before, k) as f64, ops, m);
    m.set(
        "genealogy.records_per_snapshot",
        ratio(tally.records as f64, tally.snapshots as f64),
    );
    let (routed, _) = after.world_delta(before, "net.routed_sends");
    let (congested, _) = after.world_delta(before, "net.congested_sends");
    let (_, queue_us) = after.world_delta(before, "net.link_queue_us");
    m.set("net.routed_sends", routed as f64);
    m.set("net.congested_frac", ratio(congested as f64, routed as f64));
    m.set(
        "net.link_queue_us_per_send",
        ratio(queue_us as f64, routed as f64),
    );
    m.set(
        "net.bisection_bytes",
        after.world_delta(before, "net.bisection_bytes").0 as f64,
    );
    m.set("net.drops", after.world_delta(before, "net.drops").0 as f64);
    let allocs = (after.allocs - before.allocs) as f64;
    m.set("alloc.count_per_op", ratio(allocs, ops));
    m.set(
        "alloc.bytes_per_op",
        ratio((after.alloc_bytes - before.alloc_bytes) as f64, ops),
    );
    m.set("alloc.count_per_event", ratio(allocs, fired));
}

/// Traced-pass metrics: step cost, snapshot cost per record, codec cost,
/// the program's own virtual-time spans, and every layer's self time.
pub fn layer_traced(ppm: &PpmHarness, tr: &Tracer, tally: &Tally, m: &mut Metrics) {
    m.set(
        "engine.step_us",
        ratio(
            tr.total_ns(Layer::Step) as f64 / 1e3,
            tr.count(Layer::Step) as f64,
        ),
    );
    m.set(
        "snapshot.us_per_record",
        ratio(tally.snapshot_step_ns as f64 / 1e3, tally.records as f64),
    );
    m.set(
        "wire.bytes_per_record",
        ratio(tally.reply_bytes as f64, tally.records as f64),
    );
    m.set(
        "codec.ns_per_byte",
        ratio(tr.total_ns(Layer::Codec) as f64, tally.reply_bytes as f64),
    );
    let spans = crate::spans::self_times(ppm.span_events());
    m.set(
        "bcast.relay_virt_ms",
        ratio(spans.relay_self_ms, spans.bcasts as f64),
    );
    m.set("virt.req_ms", spans.req_mean_ms);
    m.set("virt.bcast_ms", spans.bcast_mean_ms);
    m.set("virt.probe_ms", spans.probe_mean_ms);
    tr.report(m);
}
