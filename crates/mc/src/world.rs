//! The model-checked world: a third backend behind the `Sys` seam.
//!
//! Process semantics — spawn and start, exit, signals, kernel-event
//! routing, holding callbacks for stopped processes, the dispatch seam —
//! are the shared host core (`ppm_runtime::host`), the same code the
//! simulation and the real nodes run. What this backend owns is the
//! ordering policy. The simulation orders events by virtual time; the
//! real backend by wall-clock arrival. This backend orders them by
//! *choice*: every pending start, delivery, kernel batch, signal,
//! notification, due timer and budgeted adversary action is an **enabled
//! move**, and the explorer (see [`crate::explore`]) picks which one
//! fires next. Exhausting those picks exhausts the interleavings of the
//! PPM protocols on a small world — exactly the schedules a
//! discrete-event simulation samples only one of per seed.
//!
//! The socket rules are the host core's too; this backend's wire keeps
//! per-direction FIFO queues per connection, and only the head of each queue is enabled, so
//! streams stay ordered (TCP semantics) while independent streams commute.
//! A close or process death appends `Closed` behind any in-flight data,
//! preserving the FIN-after-data interleavings that triggered the
//! dedup-purge bug.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hasher;
use std::sync::Arc;

use bytes::Bytes;

use ppm_core::{Lpm, Pmd, PmdOptions, UserDirectory, PMD_SERVICE};
use ppm_proto::codec::{encode_batch, Wire};
use ppm_proto::Msg;
use ppm_runtime::events::TraceFlags;
use ppm_runtime::fd::OpenMode;
use ppm_runtime::hashx::HashX;
use ppm_runtime::host::{self, Callback, Dial, HostCore, Policy, Teardown};
use ppm_runtime::inetd::Inetd;
use ppm_runtime::obs::{SharedRegistry, SpanPhase};
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::{Clock, CoreView, Spawner, Sys, TimerDriver, TimerHandle, Transport};
use ppm_runtime::time::{Micros, SimDuration, SimTime};
use ppm_runtime::trace::TraceCategory;
use ppm_runtime::{
    ConnId, CpuClass, Fd, HostId, KernelMsg, Pid, Port, ProcKey, Program, SpawnSpec, SysError, Uid,
};

/// Process key used internally: (host index, pid number). Plain integers
/// so every container is `BTreeMap`-ordered and the move enumeration is
/// deterministic.
pub type K = (u32, u32);

fn proc_key(k: K) -> ProcKey {
    (HostId(k.0), Pid(k.1))
}

fn mc_key(key: ProcKey) -> K {
    (key.0 .0, key.1 .0)
}

/// Virtual time consumed by each delivered event. Absolute time is
/// excluded from state digests; the tick only drives timers and the
/// timestamps protocol code derives epochs from.
const TICK: SimDuration = SimDuration::from_micros(200);

/// One item in a connection's per-direction FIFO.
#[derive(Debug, Clone, PartialEq)]
enum NetItem {
    /// Client side: connect succeeded.
    Established,
    /// Server side: a client connected.
    Accepted { peer: (HostId, Pid), port: Port },
    /// Client side: connect failed.
    Failed(SysError),
    /// A data frame.
    Msg(Bytes),
    /// Peer closed, died, or the link broke under a send.
    Closed,
}

/// The wire of a stream connection between two processes. Whether each
/// end is open is the host core's; items already queued still deliver
/// after a close (data in flight stays in flight).
#[derive(Debug)]
struct Conn {
    /// Initiating endpoint.
    a: K,
    /// Accepting endpoint (the listener's process).
    b: K,
    /// Items travelling toward `a`.
    to_a: VecDeque<NetItem>,
    /// Items travelling toward `b`.
    to_b: VecDeque<NetItem>,
}

#[derive(Debug, Clone)]
struct McTimer {
    owner: K,
    token: u64,
    due: SimTime,
}

/// A fault-injection move available to the explorer, with a budget so
/// the schedule space stays bounded.
#[derive(Debug, Clone, PartialEq)]
pub enum Adversary {
    /// Deliver `Signal::Kill` to the first live process on `host` whose
    /// command equals `command`.
    KillProc { host: u32, command: String },
    /// Cut the link between two hosts (silent: discovered on send).
    CutLink { a: u32, b: u32 },
    /// Restore a previously cut link.
    HealLink { a: u32, b: u32 },
}

/// One enabled transition of the world.
#[derive(Debug, Clone, PartialEq)]
pub enum Move {
    /// Deliver the head signal in flight toward a process.
    Signal(K),
    /// Run `on_start` for a spawned-but-not-yet-started process.
    Start(K),
    /// Deliver the head item of one connection direction.
    Net { conn: u64, to_b: bool },
    /// Flush the kernel events queued toward a tracer as one batch.
    Kernel(K),
    /// Deliver the head notification queued for a process: a child exit,
    /// or a callback SIGCONT released.
    Notify(K),
    /// Fire the earliest due timer (id breaks ties).
    Timer(u64),
    /// Apply the indexed adversary action (budget permitting).
    Fault(usize),
}

/// The bounded-model-checking world: per-host cores (process tables,
/// sockets, stable storage) and the frontier of pending deliveries.
pub struct McWorld {
    clock: SimTime,
    /// Timers due after this instant never fire: the end of the modelled
    /// schedule. Keeps housekeeping from generating unbounded suffixes.
    horizon: SimTime,
    host_names: Vec<String>,
    hosts: Vec<HostCore>,
    /// Currently cut host pairs (normalized low-high). Everything else
    /// in the static topology is routable; worlds are fully meshed.
    cut_links: BTreeSet<(u32, u32)>,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    timers: BTreeMap<u64, McTimer>,
    next_timer: u64,
    /// Signals in flight, per target, in send order.
    signals: BTreeMap<K, VecDeque<Signal>>,
    /// Notifications queued per process: child exits and callbacks
    /// released by SIGCONT.
    inbox: BTreeMap<K, VecDeque<Callback>>,
    starts: BTreeSet<K>,
    users: Arc<UserDirectory>,
    pmd_options: PmdOptions,
    /// Kill syscalls observed: (host, target pid, signal number) → count.
    /// The exactly-once predicate reads this.
    pub kill_log: BTreeMap<(u32, u32, u8), u32>,
    /// Sends swallowed by a cut link (the stale-route observable).
    pub blackhole_sends: u64,
    adversaries: Vec<(Adversary, u32)>,
    /// When the explorer last disrupted the world: a fault injection, or
    /// the delivery of a `Failed`/`Closed` event it had been sitting on
    /// (stale failure notices trigger repair chains just like faults
    /// do). Staged faults do not count — staging drains their recovery
    /// deterministically.
    last_disruption_at: Option<SimTime>,
    /// Schedule headroom a convergence predicate needs after the last
    /// disruption (see [`McWorld::converge_expected`]).
    convergence_margin: SimDuration,
    /// Per-LPM executed-operation counts at baseline (see
    /// [`McWorld::snapshot_exec_baseline`]).
    exec_baseline: BTreeMap<K, u64>,
}

impl McWorld {
    /// Creates a fully meshed world of `hosts`, boots inetd everywhere,
    /// and drains nothing: call [`McWorld::run_to_quiescence`] or start
    /// staging.
    pub fn new(
        hosts: &[&str],
        users: UserDirectory,
        pmd_options: PmdOptions,
        horizon: SimDuration,
    ) -> Self {
        let clock = SimTime::from_micros(1_000);
        let mut w = McWorld {
            clock,
            horizon: clock + horizon,
            host_names: Vec::new(),
            hosts: Vec::new(),
            cut_links: BTreeSet::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
            timers: BTreeMap::new(),
            next_timer: 1,
            signals: BTreeMap::new(),
            inbox: BTreeMap::new(),
            starts: BTreeSet::new(),
            users: users.into_shared(),
            pmd_options,
            kill_log: BTreeMap::new(),
            blackhole_sends: 0,
            adversaries: Vec::new(),
            last_disruption_at: None,
            convergence_margin: SimDuration::from_micros(0),
            exec_baseline: BTreeMap::new(),
        };
        for h in hosts {
            w.add_host(h, CpuClass::Vax780);
        }
        w
    }

    /// Spawns a child of init on `host`; it starts via its `Start` move.
    fn spawn_under_init(&mut self, host: u32, uid: Uid, spec: SpawnSpec) -> Pid {
        let pid = host::spawn(self, HostId(host), Pid::INIT, uid, spec).expect("mc hosts stay up");
        self.starts.insert((host, pid.0));
        pid
    }

    // ---- staging helpers (deterministic world construction) ------------

    /// Spawns a process with behaviour as a child of init; it starts via
    /// its `Start` move.
    pub fn spawn_program(
        &mut self,
        host: u32,
        uid: Uid,
        command: &str,
        program: Box<dyn Program>,
    ) -> Pid {
        self.spawn_under_init(host, uid, SpawnSpec::new(command, program))
    }

    /// Places an inert running process in the table (a plain UNIX
    /// process from the PPM's perspective).
    pub fn spawn_inert(&mut self, host: u32, uid: Uid, command: &str) -> Pid {
        let pid = host::spawn(
            self,
            HostId(host),
            Pid::INIT,
            uid,
            SpawnSpec::inert(command),
        )
        .expect("mc hosts stay up");
        host::start(self, (HostId(host), pid));
        pid
    }

    /// Registers an adversary action with a budget of uses.
    pub fn add_adversary(&mut self, adv: Adversary, budget: u32) {
        self.adversaries.push((adv, budget));
    }

    /// Re-anchors the timer horizon to `window` after now. Scenarios
    /// call this once staging is done: the interesting frontier is
    /// already set up, so a short remaining window keeps the periodic
    /// housekeeping suffix small enough for schedules to reach
    /// quiescence within the depth budget.
    pub fn set_horizon(&mut self, window: SimDuration) {
        self.horizon = self.clock + window;
    }

    /// Declares how much schedule must remain after a disruption for the
    /// convergence predicate to apply (the periodic machinery — probes,
    /// reconnects — needs a few cycles to repair what the fault broke).
    pub fn set_convergence_margin(&mut self, margin: SimDuration) {
        self.convergence_margin = margin;
    }

    /// `false` when the last disruption (injected fault, or a withheld
    /// failure notice finally delivered) landed closer to the horizon
    /// than the declared margin: the schedule ends before the protocols
    /// could have repaired it, so non-convergence there is a budget
    /// artifact, not a bug. Quiescence predicates gate on this.
    pub fn converge_expected(&self) -> bool {
        self.last_disruption_at
            .is_none_or(|t| t + self.convergence_margin <= self.horizon)
    }

    /// Duplicates the head frame of the first queue (in id order) whose
    /// head decodes to a message for which `pred` holds — the retransmit
    /// the protocols must deduplicate. `toward` restricts the match to
    /// queues delivering to that host. Returns `true` if a frame matched.
    pub fn stage_dup_head(&mut self, toward: Option<u32>, pred: impl Fn(&Msg) -> bool) -> bool {
        for conn in self.conns.values_mut() {
            let dirs = [(conn.b.0, &mut conn.to_b), (conn.a.0, &mut conn.to_a)];
            for (dst_host, q) in dirs {
                if toward.is_some_and(|h| h != dst_host) {
                    continue;
                }
                if let Some(NetItem::Msg(bytes)) = q.front() {
                    if let Ok(m) = Msg::from_bytes(bytes) {
                        if pred(&m) {
                            let dup = bytes.clone();
                            q.insert(1, NetItem::Msg(dup));
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Kills the first live process on `host` named `command` (staging
    /// variant of [`Adversary::KillProc`]). Returns `true` on a kill.
    pub fn stage_kill(&mut self, host: u32, command: &str) -> bool {
        match self.find_proc(host, command) {
            Some(pid) => {
                host::deliver_signal(self, proc_key((host, pid)), Signal::Kill);
                true
            }
            None => false,
        }
    }

    /// Cuts the link between two hosts (staging variant).
    pub fn stage_cut(&mut self, a: u32, b: u32) {
        self.cut_links.insert(norm(a, b));
    }

    /// Records the current per-LPM executed-operation counts; the
    /// broadcast-dedup predicate compares against this baseline.
    pub fn snapshot_exec_baseline(&mut self) {
        self.exec_baseline = self
            .lpms()
            .into_iter()
            .map(|(k, l)| (k, l.stats().executed))
            .collect();
    }

    // ---- inspection (predicates) ----------------------------------------

    /// All live LPM programs, keyed by (host, pid).
    pub fn lpms(&self) -> Vec<(K, &Lpm)> {
        (0u32..)
            .zip(&self.hosts)
            .flat_map(|(h, hc)| {
                hc.programs().filter_map(move |(pid, p)| {
                    p.as_any()
                        .and_then(|a| a.downcast_ref::<Lpm>())
                        .map(|l| ((h, pid.0), l))
                })
            })
            .collect()
    }

    /// Host name for a host index.
    pub fn host_name(&self, host: u32) -> &str {
        &self.host_names[host as usize]
    }

    /// How many times `signal` was delivered via the kill syscall to
    /// `pid` on `host`.
    pub fn signal_count(&self, host: u32, pid: Pid, signal: Signal) -> u32 {
        self.kill_log
            .get(&(host, pid.0, signal.number()))
            .copied()
            .unwrap_or(0)
    }

    /// Largest per-LPM growth of the executed-operation counter since
    /// the recorded baseline.
    pub fn max_exec_delta(&self) -> u64 {
        self.lpms()
            .into_iter()
            .map(|(k, l)| {
                let base = self.exec_baseline.get(&k).copied().unwrap_or(0);
                l.stats().executed.saturating_sub(base)
            })
            .max()
            .unwrap_or(0)
    }

    /// First live pid on `host` with the given command name.
    pub fn find_proc(&self, host: u32, command: &str) -> Option<u32> {
        self.hosts[host as usize]
            .kernel
            .processes()
            .find(|p| p.is_alive() && p.command == command)
            .map(|p| p.pid.0)
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    // ---- the frontier ---------------------------------------------------

    /// All enabled moves, in a deterministic order.
    pub fn enabled_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for (&k, q) in &self.signals {
            if !q.is_empty() {
                moves.push(Move::Signal(k));
            }
        }
        for &k in &self.starts {
            moves.push(Move::Start(k));
        }
        for (&id, conn) in &self.conns {
            if !conn.to_a.is_empty() {
                moves.push(Move::Net {
                    conn: id,
                    to_b: false,
                });
            }
            if !conn.to_b.is_empty() {
                moves.push(Move::Net {
                    conn: id,
                    to_b: true,
                });
            }
        }
        for (h, hc) in (0u32..).zip(&self.hosts) {
            for (tracer, q) in hc.kernel_queue() {
                if !q.is_empty() {
                    moves.push(Move::Kernel((h, tracer.0)));
                }
            }
        }
        for (&k, q) in &self.inbox {
            if !q.is_empty() {
                moves.push(Move::Notify(k));
            }
        }
        if let Some(id) = self.next_timer_id() {
            moves.push(Move::Timer(id));
        }
        for (i, (adv, budget)) in self.adversaries.iter().enumerate() {
            if *budget > 0 && self.fault_enabled(adv) {
                moves.push(Move::Fault(i));
            }
        }
        moves
    }

    /// Earliest due timer under the horizon (ties broken by id).
    fn next_timer_id(&self) -> Option<u64> {
        self.timers
            .iter()
            .filter(|(_, t)| t.due <= self.horizon)
            .min_by_key(|(id, t)| (t.due, **id))
            .map(|(id, _)| *id)
    }

    fn fault_enabled(&self, adv: &Adversary) -> bool {
        match adv {
            Adversary::KillProc { host, command } => self.find_proc(*host, command).is_some(),
            Adversary::CutLink { a, b } => !self.cut_links.contains(&norm(*a, *b)),
            Adversary::HealLink { a, b } => self.cut_links.contains(&norm(*a, *b)),
        }
    }

    /// Human-readable description of a move, used in counterexample
    /// traces and for directed replays in regression tests.
    pub fn describe(&self, mv: &Move) -> String {
        match mv {
            Move::Signal(k) => match self.signals.get(k).and_then(VecDeque::front) {
                Some(sig) => format!("signal {sig} -> {}", self.proc_label(*k)),
                None => format!("signal -> {}", self.proc_label(*k)),
            },
            Move::Start(k) => format!("start {}", self.proc_label(*k)),
            Move::Net { conn, to_b } => {
                let c = &self.conns[conn];
                let (q, dst) = if *to_b {
                    (&c.to_b, c.b)
                } else {
                    (&c.to_a, c.a)
                };
                let what = match q.front() {
                    Some(NetItem::Established) => "established".to_string(),
                    Some(NetItem::Accepted { .. }) => "accepted".to_string(),
                    Some(NetItem::Failed(e)) => format!("failed({e})"),
                    Some(NetItem::Msg(b)) => format!("msg {}", frame_kind(b)),
                    Some(NetItem::Closed) => "closed".to_string(),
                    None => "empty".to_string(),
                };
                format!("deliver {what} -> {}", self.proc_label(dst))
            }
            Move::Kernel(k) => format!("kernel-event -> {}", self.proc_label(*k)),
            Move::Notify(k) => match self.inbox.get(k).and_then(VecDeque::front) {
                Some(Callback::ChildExit(..)) => format!("child-exit -> {}", self.proc_label(*k)),
                _ => format!("resume -> {}", self.proc_label(*k)),
            },
            Move::Timer(id) => match self.timers.get(id) {
                Some(t) => format!("timer {} @{}", self.proc_label(t.owner), t.token),
                None => format!("timer #{id}"),
            },
            Move::Fault(i) => match &self.adversaries[*i].0 {
                Adversary::KillProc { host, command } => {
                    format!("fault kill {command}@{}", self.host_names[*host as usize])
                }
                Adversary::CutLink { a, b } => format!(
                    "fault cut {}-{}",
                    self.host_names[*a as usize], self.host_names[*b as usize]
                ),
                Adversary::HealLink { a, b } => format!(
                    "fault heal {}-{}",
                    self.host_names[*a as usize], self.host_names[*b as usize]
                ),
            },
        }
    }

    fn proc_label(&self, k: K) -> String {
        let cmd = self.hosts[k.0 as usize]
            .kernel
            .get(Pid(k.1))
            .map(|p| p.command.clone())
            .unwrap_or_else(|| "?".to_string());
        format!("{cmd}@{}:{}", self.host_names[k.0 as usize], k.1)
    }

    /// Applies one move. The move must come from the current
    /// [`McWorld::enabled_moves`].
    pub fn apply(&mut self, mv: &Move) {
        match mv {
            Move::Signal(k) => {
                self.clock += TICK;
                let sig = self.signals.get_mut(k).and_then(VecDeque::pop_front);
                if let Some(sig) = sig {
                    host::deliver_signal(self, proc_key(*k), sig);
                }
            }
            Move::Start(k) => {
                self.starts.remove(k);
                self.clock += TICK;
                host::start(self, proc_key(*k));
            }
            Move::Net { conn, to_b } => self.do_deliver(*conn, *to_b),
            Move::Kernel(k) => {
                self.clock += TICK;
                host::flush_kernel(self, proc_key(*k));
            }
            Move::Notify(k) => {
                self.clock += TICK;
                let item = self.inbox.get_mut(k).and_then(VecDeque::pop_front);
                if let Some(callback) = item {
                    host::dispatch(self, proc_key(*k), callback);
                }
            }
            Move::Timer(id) => {
                if let Some(t) = self.timers.remove(id) {
                    self.clock = self.clock.max(t.due);
                    host::dispatch(self, proc_key(t.owner), Callback::Timer(t.token));
                }
            }
            Move::Fault(i) => self.do_fault(*i),
        }
    }

    fn do_deliver(&mut self, conn_id: u64, to_b: bool) {
        self.clock += TICK;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let (item, dst) = if to_b {
            (conn.to_b.pop_front(), conn.b)
        } else {
            (conn.to_a.pop_front(), conn.a)
        };
        let Some(item) = item else { return };
        let (cid, key) = (ConnId(conn_id), proc_key(dst));
        match item {
            NetItem::Established => host::established(self, key, cid),
            NetItem::Accepted { peer, port } => host::accepted(self, key, cid, peer, port),
            NetItem::Failed(e) => {
                self.last_disruption_at = Some(self.clock);
                host::conn_failed(self, key, cid, e);
            }
            NetItem::Msg(bytes) => host::dispatch(self, key, Callback::Message(cid, bytes)),
            NetItem::Closed => {
                self.last_disruption_at = Some(self.clock);
                host::peer_closed(self, key, cid);
            }
        }
        // Drop fully drained dead connections so they stop contributing
        // moves and digest weight.
        if let Some(c) = self.conns.get(&conn_id) {
            let open = |(h, pid): K| self.hosts[h as usize].socket(cid, Pid(pid)).is_some();
            if c.to_a.is_empty() && c.to_b.is_empty() && !open(c.a) && !open(c.b) {
                self.conns.remove(&conn_id);
            }
        }
    }

    fn do_fault(&mut self, i: usize) {
        let (adv, budget) = &mut self.adversaries[i];
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        self.last_disruption_at = Some(self.clock);
        match adv.clone() {
            Adversary::KillProc { host, command } => {
                if let Some(pid) = self.find_proc(host, &command) {
                    host::deliver_signal(self, proc_key((host, pid)), Signal::Kill);
                }
            }
            Adversary::CutLink { a, b } => {
                self.cut_links.insert(norm(a, b));
            }
            Adversary::HealLink { a, b } => {
                self.cut_links.remove(&norm(a, b));
            }
        }
    }

    // ---- deterministic drains (staging) ---------------------------------

    /// Applies natural moves (no faults) in priority order — signals,
    /// starts, deliveries, kernel batches, notifications, then the
    /// earliest timer — until `until` holds or nothing is enabled.
    /// Returns `true` if the condition was reached. `skip` filters moves
    /// out of the drain (they stay enabled for later exploration).
    pub fn run_until(
        &mut self,
        max_steps: usize,
        skip: impl Fn(&McWorld, &Move) -> bool,
        until: impl Fn(&McWorld) -> bool,
    ) -> bool {
        for _ in 0..max_steps {
            if until(self) {
                return true;
            }
            let mv = self
                .enabled_moves()
                .into_iter()
                .filter(|m| !matches!(m, Move::Fault(_)))
                .find(|m| !skip(self, m));
            match mv {
                Some(m) => self.apply(&m),
                None => return until(self),
            }
        }
        until(self)
    }

    /// Drains all natural moves. Returns `true` on quiescence within the
    /// step bound.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> bool {
        self.run_until(
            max_steps,
            |_, _| false,
            |w| {
                w.enabled_moves()
                    .iter()
                    .all(|m| matches!(m, Move::Fault(_)))
            },
        )
    }

    // ---- state digest ---------------------------------------------------

    /// Deterministic fingerprint of the protocol-visible world state.
    /// Absolute time is excluded so schedules that differ only in when
    /// housekeeping fired merge; everything that steers future behaviour
    /// — process tables, queue contents, timers' owners, program state,
    /// the observables predicates read — is folded in.
    pub fn digest(&self) -> u64 {
        let mut h = HashX::default();
        for hc in &self.hosts {
            h.write_u32(hc.kernel.boot_count());
            for p in hc.kernel.processes() {
                h.write_u32(p.pid.0);
                h.write_u32(p.ppid.0);
                h.write_u32(p.uid.0);
                h.write(p.command.as_bytes());
                h.write(format!("{:?}", p.state).as_bytes());
                h.write_u32(p.tracer.map_or(0, |t| t.0));
                h.write_u8(p.trace_flags.bits());
            }
            for (k, v) in hc.stable() {
                h.write(k.as_bytes());
                h.write(v);
            }
            for (port, pid) in hc.listeners() {
                h.write_u16(port.0);
                h.write_u32(pid.0);
            }
            for (conn, pid, sock) in hc.sockets() {
                h.write_u64(conn.0);
                h.write_u32(pid.0);
                h.write_u8(u8::from(sock.state == host::SockState::Established));
            }
            for (tracer, q) in hc.kernel_queue() {
                h.write_u32(tracer.0);
                h.write_u64(q.len() as u64);
                for m in q {
                    h.write(format!("{:?}", m.event).as_bytes());
                }
            }
            for (pid, held) in hc.held() {
                h.write_u32(pid.0);
                h.write(format!("{held:?}").as_bytes());
            }
            for (pid, p) in hc.programs() {
                h.write_u32(pid.0);
                h.write_u64(p.state_digest());
            }
        }
        for (a, b) in &self.cut_links {
            h.write_u32(*a);
            h.write_u32(*b);
        }
        for (id, c) in &self.conns {
            h.write_u64(*id);
            h.write_u32(c.a.0);
            h.write_u32(c.a.1);
            h.write_u32(c.b.0);
            h.write_u32(c.b.1);
            for q in [&c.to_a, &c.to_b] {
                h.write_u64(q.len() as u64);
                for item in q {
                    match item {
                        NetItem::Established => h.write_u8(1),
                        NetItem::Accepted { peer, port } => {
                            h.write_u8(2);
                            h.write_u32(peer.0 .0);
                            h.write_u32(peer.1 .0);
                            h.write_u16(port.0);
                        }
                        NetItem::Failed(e) => {
                            h.write_u8(3);
                            h.write(format!("{e:?}").as_bytes());
                        }
                        NetItem::Msg(b) => {
                            h.write_u8(4);
                            h.write(b);
                        }
                        NetItem::Closed => h.write_u8(5),
                    }
                }
            }
        }
        // Timers: owner and token identify the pending work; the due
        // instant is deliberately left out (see the module docs).
        for t in self.timers.values() {
            h.write_u32(t.owner.0);
            h.write_u32(t.owner.1);
            h.write_u64(t.token);
        }
        for (k, q) in &self.signals {
            h.write_u32(k.0);
            h.write_u32(k.1);
            for sig in q {
                h.write_u8(sig.number());
            }
        }
        for (k, q) in &self.inbox {
            h.write_u32(k.0);
            h.write_u32(k.1);
            h.write(format!("{q:?}").as_bytes());
        }
        for k in &self.starts {
            h.write_u32(k.0);
            h.write_u32(k.1);
        }
        // Observables the predicates read must split states, or pruning
        // could hide a violation behind an already-visited digest.
        for ((host, pid, sig), n) in &self.kill_log {
            h.write_u32(*host);
            h.write_u32(*pid);
            h.write_u8(*sig);
            h.write_u32(*n);
        }
        for (k, l) in self.lpms() {
            h.write_u32(k.0);
            h.write_u32(k.1);
            h.write_u64(l.stats().executed);
        }
        h.write_u64(self.blackhole_sends);
        for (_, budget) in &self.adversaries {
            h.write_u32(*budget);
        }
        // The one time-derived bit: whether a convergence predicate
        // still applies. Two states differing only here must not merge,
        // or pruning could skip the schedule that demands convergence.
        h.write_u8(u8::from(self.converge_expected()));
        h.finish()
    }

    // ---- internals ------------------------------------------------------

    fn link_up(&self, a: u32, b: u32) -> bool {
        a == b || !self.cut_links.contains(&norm(a, b))
    }
}

/// The explorer's ordering policy: every follow-on action becomes an
/// enabled move instead of happening at a time.
impl Policy for McWorld {
    type Sys<'a> = McSys<'a>;

    fn now(&self) -> Micros {
        self.clock
    }

    fn host(&self, host: HostId) -> &HostCore {
        &self.hosts[host.0 as usize]
    }

    fn host_mut(&mut self, host: HostId) -> &mut HostCore {
        &mut self.hosts[host.0 as usize]
    }

    fn sys(&mut self, key: ProcKey) -> McSys<'_> {
        let uid = self.hosts[key.0 .0 as usize]
            .kernel
            .get(key.1)
            .map_or(Uid::ROOT, |p| p.uid);
        McSys {
            w: self,
            key: mc_key(key),
            uid,
        }
    }

    fn trace(&mut self, _host: HostId, _category: TraceCategory, _text: String) {}

    /// A queued batch is enabled as a `Kernel` move as soon as it exists.
    fn kernel_queued(&mut self, _tracer: ProcKey, _msg: &KernelMsg, _starts_batch: bool) {}

    fn kernel_frame(&mut self, _tracer: ProcKey, msgs: &[KernelMsg]) -> Bytes {
        encode_batch(msgs)
    }

    /// A parent without a program ignores the notice, so the move that
    /// would deliver it is pruned.
    /// The signal goes in flight as a `Signal` move.
    fn signal_sent(&mut self, target: ProcKey, signal: Signal) {
        let queue = self.signals.entry(mc_key(target)).or_default();
        queue.push_back(signal);
    }

    fn child_exited(&mut self, parent: ProcKey, child: Pid, status: ExitStatus) {
        if self.hosts[parent.0 .0 as usize].has_program(parent.1) {
            self.resume(parent, Callback::ChildExit(child, status));
        }
    }

    fn resume(&mut self, key: ProcKey, callback: Callback) {
        self.inbox
            .entry(mc_key(key))
            .or_default()
            .push_back(callback);
    }

    /// Drops the dead process's pending moves and timers.
    fn released(&mut self, key: ProcKey) {
        let k = mc_key(key);
        self.starts.remove(&k);
        self.signals.remove(&k);
        self.inbox.remove(&k);
        self.hosts[k.0 as usize].discard_kernel_batch(key.1);
        self.timers.retain(|_, t| t.owner != k);
    }

    /// Queues the handshake's outcome on the new connection: `Established`
    /// toward the client and `Accepted` toward a live listener, or the
    /// failure (a cut link, no listener) toward the client alone.
    fn dial(
        &mut self,
        from: ProcKey,
        host: HostId,
        port: Port,
    ) -> Result<(ConnId, Dial), SysError> {
        if host.0 as usize >= self.host_names.len() {
            return Err(SysError::NoSuchHost);
        }
        let id = self.next_conn;
        self.next_conn += 1;
        let dst = host.0;
        let listener = self.hosts[dst as usize].listener(port);
        let mut conn = Conn {
            a: mc_key(from),
            b: (dst, listener.map_or(0, |pid| pid.0)),
            to_a: VecDeque::new(),
            to_b: VecDeque::new(),
        };
        let dial = match listener {
            _ if !self.link_up(from.0 .0, dst) => {
                conn.to_a.push_back(NetItem::Failed(SysError::Unreachable));
                Dial::Doomed
            }
            Some(pid) => {
                conn.to_a.push_back(NetItem::Established);
                conn.to_b.push_back(NetItem::Accepted { peer: from, port });
                Dial::Pending {
                    server: Some((host, pid)),
                }
            }
            None => {
                conn.to_a
                    .push_back(NetItem::Failed(SysError::ConnectionRefused));
                Dial::Doomed
            }
        };
        self.conns.insert(id, conn);
        Ok((ConnId(id), dial))
    }

    /// Queues the frame toward the peer. A cut link under the connection
    /// swallows it (TCP would buffer it): both ends close and both later
    /// learn `Closed` — the window the stale-route-cache bug lived in.
    fn transmit(&mut self, from: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let (a, b) = (self.conns[&conn.0].a, self.conns[&conn.0].b);
        let up = self.link_up(a.0, b.0);
        let c = self
            .conns
            .get_mut(&conn.0)
            .expect("the core checked the endpoint");
        if up {
            let q = if a == mc_key(from) {
                &mut c.to_b
            } else {
                &mut c.to_a
            };
            q.push_back(NetItem::Msg(data));
            return Ok(());
        }
        c.to_a.push_back(NetItem::Closed);
        c.to_b.push_back(NetItem::Closed);
        for (h, pid) in [a, b] {
            self.hosts[h as usize].close_socket(conn, Pid(pid));
        }
        self.blackhole_sends += 1;
        Ok(())
    }

    /// Items toward the closed end are dropped; `Closed` queues behind
    /// the data in flight to the peer, whose end closes with it.
    fn hang_up(&mut self, end: ProcKey, conn: ConnId, _how: Teardown) {
        let me = mc_key(end);
        let Some(c) = self.conns.get_mut(&conn.0) else {
            return;
        };
        let peer = if c.a == me {
            c.to_a.clear();
            c.to_b.push_back(NetItem::Closed);
            c.b
        } else {
            c.to_b.clear();
            c.to_a.push_back(NetItem::Closed);
            c.a
        };
        self.hosts[peer.0 as usize].close_socket(conn, Pid(peer.1));
    }

    /// A peer's death already closed the caller's end, so only the link
    /// is left to check.
    fn route_alive(&self, _end: ProcKey, conn: ConnId) -> bool {
        let c = &self.conns[&conn.0];
        self.link_up(c.a.0, c.b.0)
    }
}

/// The backend facade: hosts join the full mesh, and `run` drains
/// natural moves (timers only once due) until the clock passes the span.
impl Runtime for McWorld {
    fn add_host(&mut self, name: &str, _cpu: CpuClass) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.host_names.push(name.to_string());
        self.hosts.push(HostCore::new(self.clock));
        let inetd = SpawnSpec::new("inetd", Box::new(Inetd::new()));
        self.spawn_under_init(id.0, Uid::ROOT, inetd);
        id
    }

    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if host.0 as usize >= self.hosts.len() {
            return Err(SysError::NoSuchHost);
        }
        Ok(self.spawn_under_init(host.0, uid, spec))
    }

    fn run(&mut self, span: SimDuration) {
        let until = self.clock + span;
        while self.clock < until {
            let next = self.enabled_moves().into_iter().find(|m| match m {
                Move::Fault(_) => false,
                Move::Timer(id) => self.timers[id].due <= until,
                _ => true,
            });
            match next {
                Some(m) => self.apply(&m),
                None => break,
            }
        }
        self.clock = self.clock.max(until);
    }

    fn is_alive(&self, host: HostId, pid: Pid) -> bool {
        host::is_alive(self, (host, pid))
    }

    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.hosts.get(host.0 as usize)?.stable_get(key)
    }

    fn now(&self) -> Micros {
        self.clock
    }
}

fn norm(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Short wire-frame classification for trace lines.
fn frame_kind(bytes: &Bytes) -> String {
    match Msg::from_bytes(bytes) {
        Ok(m) => {
            let d = format!("{m:?}");
            d.split([' ', '{', '('])
                .next()
                .unwrap_or("msg")
                .to_lowercase()
        }
        Err(_) => "raw".to_string(),
    }
}

// ---- the syscall view ---------------------------------------------------

/// `Sys` implementation scoped to one calling process of the mc world.
pub struct McSys<'w> {
    w: &'w mut McWorld,
    key: K,
    uid: Uid,
}

impl McSys<'_> {
    fn host(&self) -> usize {
        self.key.0 as usize
    }

    fn do_spawn(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        let (host, parent) = proc_key(self.key);
        let pid = host::spawn(self.w, host, parent, uid, spec)?;
        self.w.starts.insert((host.0, pid.0));
        Ok(pid)
    }
}

impl Clock for McSys<'_> {
    fn now(&self) -> Micros {
        self.w.clock
    }
}

impl TimerDriver for McSys<'_> {
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let id = self.w.next_timer;
        self.w.next_timer += 1;
        self.w.timers.insert(
            id,
            McTimer {
                owner: self.key,
                token,
                due: self.w.clock + delay,
            },
        );
        TimerHandle(id)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.w.timers.remove(&handle.0).is_some()
    }
}

impl Transport for McSys<'_> {
    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        host::listen(self.w, proc_key(self.key), port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        host::connect(self.w, proc_key(self.key), host, port)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        host::send(self.w, proc_key(self.key), conn, data)
    }

    fn conn_alive(&self, conn: ConnId) -> bool {
        host::conn_alive(&*self.w, proc_key(self.key), conn)
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        host::close(self.w, proc_key(self.key), conn)
    }
}

impl Spawner for McSys<'_> {
    fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.do_spawn(self.uid, spec)
    }

    fn spawn_as(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if !self.uid.is_root() {
            return Err(SysError::PermissionDenied);
        }
        self.do_spawn(uid, spec)
    }

    fn exit(&mut self, code: i32) {
        host::exit(self.w, proc_key(self.key), ExitStatus::Code(code));
    }

    fn kill(&mut self, target: Pid, signal: Signal) -> Result<(), SysError> {
        let host = self.key.0;
        host::post_signal(self.w, self.uid, (HostId(host), target), signal)?;
        *self
            .w
            .kill_log
            .entry((host, target.0, signal.number()))
            .or_insert(0) += 1;
        Ok(())
    }

    fn spawn_service(&mut self, name: &str) -> Result<(Pid, Port), SysError> {
        if !self.uid.is_root() {
            return Err(SysError::PermissionDenied);
        }
        if name != PMD_SERVICE {
            return Err(SysError::UnknownService);
        }
        if let Some(pid) = self.w.hosts[self.host()].service(name) {
            return Ok((pid, ppm_core::PMD_PORT));
        }
        let pmd = Pmd::new(
            Arc::clone(&self.w.users),
            ppm_core::PMD_PORT,
            self.w.pmd_options,
        );
        let spec = SpawnSpec::new(PMD_SERVICE, Box::new(pmd));
        let pid = host::spawn(self.w, HostId(self.key.0), Pid::INIT, Uid::ROOT, spec)?;
        self.w.starts.insert((self.key.0, pid.0));
        let h = self.host();
        self.w.hosts[h].register_service(name, pid);
        Ok((pid, ppm_core::PMD_PORT))
    }
}

impl Sys for McSys<'_> {
    fn host(&self) -> HostId {
        HostId(self.key.0)
    }

    fn host_name(&self) -> &str {
        &self.w.host_names[self.key.0 as usize]
    }

    fn cpu_class(&self) -> CpuClass {
        CpuClass::Vax780
    }

    fn pid(&self) -> Pid {
        Pid(self.key.1)
    }

    fn uid(&self) -> Uid {
        self.uid
    }

    fn host_core(&self) -> CoreView<&HostCore> {
        CoreView::new(&self.w.hosts[self.host()])
    }

    fn host_core_mut(&mut self) -> CoreView<&mut HostCore> {
        let h = self.host();
        CoreView::new(&mut self.w.hosts[h])
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.w
            .host_names
            .iter()
            .position(|h| h == name)
            .map(|i| HostId(i as u32))
            .ok_or(SysError::NoSuchHost)
    }

    fn known_hosts(&self) -> Vec<String> {
        self.w.host_names.clone()
    }

    fn trace_str(&mut self, _category: TraceCategory, _text: String) {}

    fn spans_enabled(&self) -> bool {
        false
    }

    fn span_str(&mut self, _name: &'static str, _corr: String, _phase: SpanPhase) {}

    fn register_metrics_str(&mut self, _label: String, _registry: SharedRegistry) {}

    fn random_unit(&mut self) -> f64 {
        // Deterministic midpoint: jittered backoffs collapse to their
        // nominal value, which keeps the schedule space canonical.
        0.5
    }

    fn adopt(&mut self, target: Pid, flags: TraceFlags) -> Result<(), SysError> {
        host::adopt(self.w, proc_key(self.key), self.uid, target, flags)
    }

    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        nominal
    }

    fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration {
        let h = self.host();
        if let Some(p) = self.w.hosts[h].kernel.get_mut(Pid(self.key.1)) {
            p.rusage.cpu += nominal;
        }
        nominal
    }

    fn open_path(&mut self, path: String, mode: OpenMode) -> Fd {
        host::open_file(self.w, proc_key(self.key), path, mode)
    }

    fn close_fd(&mut self, fd: Fd) -> Result<(), SysError> {
        host::close_fd(self.w, proc_key(self.key), fd)
    }
}
