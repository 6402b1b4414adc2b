//! The simulation world: hosts, kernels, wires, and the event loop.
//!
//! [`World`] owns everything: the discrete-event engine, the topology, one
//! [`HostCore`] per host (kernel table and programs), and all live
//! connections. Its event loop pops one event at a time and hands it to
//! the shared host core (`ppm_runtime::host`), which mutates process
//! state and invokes at most one program handler — so a run with a given
//! seed is exactly reproducible.
//!
//! The simulation's part is the ordering policy ([`Policy`]) and the wire:
//! every follow-on action the core asks for (a start, a kernel-event
//! flush, a child-exit notice, a handshake, a delivery, a close notice)
//! becomes an engine event at a virtual-time delay, with RNG draws in a
//! fixed order. Programs never call each other directly, mirroring the
//! paper's message-based LPM design.

use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use ppm_proto::codec::encode_batch;
use ppm_runtime::host::{self, Callback, Dial, HostCore, Policy, Teardown};
use ppm_runtime::obs::{CounterId, HistId};
use ppm_simnet::bandwidth::{NetModel, Transfer};
use ppm_simnet::engine::TimerWheel;
use ppm_simnet::fault::{FaultKind, FaultPlan, WireDecision, WireFaults};
use ppm_simnet::latency::LatencyModel;
use ppm_simnet::rng::SimRng;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{HostId, HostSpec, NetSpec, Topology};
use ppm_simnet::trace::{TraceCategory, TraceLog};

use crate::config::OsConfig;
use crate::ids::{ConnId, Pid, Port, Uid};
use crate::kernel::Kernel;
use crate::net::{ConnState, Connection};
use crate::obs::ObsHub;
use crate::program::{KernelMsg, ProcKey, Program, SpawnSpec, SysError};
use crate::signal::{ExitStatus, Signal};
use crate::sys::Sys;

/// Factory producing a fresh service program instance for a host, used by
/// inetd to start daemons (pmd) on demand.
pub type ServiceFactory = Box<dyn Fn(HostId) -> Box<dyn Program>>;

pub(crate) struct ServiceEntry {
    pub port: Port,
    pub factory: ServiceFactory,
}

/// Events flowing through the engine. Internal to the crate; programs see
/// the typed callbacks of [`Program`] instead.
#[derive(Debug, Clone)]
pub(crate) enum SimEvent {
    Start(ProcKey),
    /// A program callback: a timer, a child-exit notice, or a callback
    /// released by SIGCONT or deferred behind busy work.
    Run(ProcKey, Callback),
    Deliver {
        conn: ConnId,
        to: ProcKey,
        data: Bytes,
    },
    ConnEstablish {
        conn: ConnId,
    },
    ConnFailed {
        conn: ConnId,
        to: ProcKey,
        reason: SysError,
    },
    ConnClosedNotify {
        conn: ConnId,
        to: ProcKey,
    },
    /// Deliver the pending kernel-event batch for `to` (armed by the
    /// first event of the batch; later events ride the same wakeup).
    KernelFlush {
        to: ProcKey,
    },
    SignalDeliver {
        to: ProcKey,
        signal: Signal,
    },
    LoadTick(HostId),
    HostCrash(HostId),
    HostRestart(HostId),
    LinkSet(HostId, HostId, bool),
    /// Fault-plan cut/heal of a *named* physical link in the installed
    /// netmodel (the link index is resolved at plan-install time).
    NetLinkSet(u32, bool),
    /// Fault-plan kill: SIGKILL every live process on the host whose
    /// command starts with the prefix.
    KillCmd(HostId, String),
}

/// Registry ids for the `net.*` metrics. Registered only when a netmodel
/// is installed, so flat-mode metric output is byte-identical to worlds
/// that predate the network model.
pub(crate) struct NetObs {
    bytes_on_link: CounterId,
    link_queue_us: HistId,
    congested_sends: CounterId,
    routed_sends: CounterId,
    drops: CounterId,
    bisection_bytes: CounterId,
    /// Last observed [`NetModel::bisection_bytes`], to turn the model's
    /// cumulative count into registry increments.
    prev_bisection: u64,
}

/// Everything in the world. Syscalls (via [`Sys`]) operate on this; the
/// [`World`] wrapper runs the loop.
pub struct WorldCore {
    // A hierarchical timer wheel: the short-deadline RPC timer population
    // (retransmits, handler slots, housekeeping) lands in the wheel arrays;
    // far-future deadlines sit in its internal overflow heap.
    pub(crate) engine: TimerWheel<SimEvent>,
    pub(crate) topo: Topology,
    pub(crate) latency: LatencyModel,
    pub(crate) rng: SimRng,
    pub(crate) trace: TraceLog,
    pub(crate) config: OsConfig,
    /// Per host: process table, programs, services, sockets and stable
    /// storage (the shared host core).
    pub(crate) hosts: Vec<HostCore>,
    pub(crate) conns: HashMap<ConnId, Connection>,
    pub(crate) next_conn: u64,
    pub(crate) services: HashMap<String, ServiceEntry>,
    /// Metrics, spans and the per-program registry hub.
    pub(crate) obs: ObsHub,
    /// Probabilistic wire faults from an installed fault plan. `None`
    /// (the default) leaves the send path untouched.
    pub(crate) faults: Option<WireFaults>,
    /// The bandwidth- and topology-aware network model. `None` (the
    /// default) keeps the flat `hop_base + per_byte` wire law and its
    /// exact RNG draw order — worlds without a topology are byte-for-byte
    /// identical to pre-netmodel runs.
    pub(crate) net: Option<NetModel>,
    /// `net.*` metric ids, present iff `net` is.
    pub(crate) net_obs: Option<NetObs>,
    /// Bumped whenever reachability may have changed (link cut/heal,
    /// named net-link cut/heal, host crash/restart). Programs compare it
    /// against a remembered value to revalidate cached routes.
    pub(crate) net_epoch: u64,
    /// The world seed, kept so a late-installed netmodel can derive its
    /// own loss stream from it.
    pub(crate) seed: u64,
}

impl WorldCore {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The latency model in force.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The OS constants in force.
    pub fn os_config(&self) -> &OsConfig {
        &self.config
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable trace log (to toggle recording or clear).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// The observability hub: world metrics, spans, program registries.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable hub (to enable span recording or register a registry).
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// Timer-queue statistics of the engine (occupancy, overflow depth).
    pub fn engine_stats(&self) -> ppm_simnet::engine::QueueStats {
        self.engine.stats()
    }

    /// The installed network model, if any.
    pub fn net(&self) -> Option<&NetModel> {
        self.net.as_ref()
    }

    /// The reachability epoch: bumped on every link cut/heal, named
    /// net-link cut/heal, and host crash/restart.
    pub fn net_epoch(&self) -> u64 {
        self.net_epoch
    }

    /// Whether hosts `a` and `b` can currently exchange traffic — the
    /// send-path reachability programs use to validate cached routes.
    pub fn edge_up(&self, a: HostId, b: HostId) -> bool {
        if !self.host_up(a) {
            return false;
        }
        if a == b {
            return true;
        }
        matches!(self.route_state(a, b), RouteState::Hops(_))
    }

    /// The kernel of a host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown host id.
    pub fn kernel(&self, host: HostId) -> &Kernel {
        &self.hosts[host.0 as usize].kernel
    }

    /// Mutable kernel of a host (benchmark hooks such as
    /// [`Kernel::set_load_avg`]).
    pub fn kernel_mut(&mut self, host: HostId) -> &mut Kernel {
        &mut self.hosts[host.0 as usize].kernel
    }

    /// Looks a host up by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.topo.host_by_name(name)
    }

    /// The name of a host.
    pub fn host_name(&self, host: HostId) -> &str {
        &self.topo.spec(host).name
    }

    /// All connections (for the IPC-statistics tool and tests).
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        let mut ids: Vec<ConnId> = self.conns.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(move |id| &self.conns[&id])
    }

    /// One connection by id.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.conns.get(&id)
    }

    /// Ids of the non-`Closed` connections with an endpoint on `host`,
    /// ascending (read from the host core's open-socket index).
    pub fn open_connections(&self, host: HostId) -> impl Iterator<Item = ConnId> + '_ {
        let mut last = None;
        self.host(host)
            .sockets()
            .map(|(conn, _, _)| conn)
            .filter(move |&conn| last.replace(conn) != Some(conn))
    }

    pub(crate) fn tracef(&mut self, host: Option<HostId>, cat: TraceCategory, text: String) {
        let now = self.engine.now();
        self.trace.record(now, host, cat, text);
    }

    pub(crate) fn host_up(&self, id: HostId) -> bool {
        self.topo.is_up(id)
    }

    /// True when the process exists and is alive.
    pub fn is_alive(&self, key: ProcKey) -> bool {
        host::is_alive(self, key)
    }

    /// Scales a nominal (idle reference machine) CPU cost to this host's
    /// class and current load, with jitter.
    pub(crate) fn scaled_cpu_cost(&mut self, host: HostId, nominal: SimDuration) -> SimDuration {
        let cpu = self.topo.spec(host).cpu;
        let la = self.kernel(host).load_avg();
        let scaled = nominal.mul_f64(self.latency.cpu_scale(cpu, la));
        let jitter = self.config.cost_jitter;
        self.rng.jitter(scaled, jitter)
    }

    // ---- process management -------------------------------------------

    /// Creates a process on `host` under `parent` and schedules its start
    /// after the fork+exec delay. Returns its pid.
    pub(crate) fn spawn(
        &mut self,
        host: HostId,
        parent: Pid,
        uid: Uid,
        spec: SpawnSpec,
        cost_override: Option<SimDuration>,
    ) -> Result<Pid, SysError> {
        let pid = host::spawn(self, host, parent, uid, spec)?;
        let cost = match cost_override {
            Some(c) => c,
            None => {
                let nominal = self.config.spawn_cost;
                self.scaled_cpu_cost(host, nominal)
            }
        };
        self.engine.schedule(cost, SimEvent::Start((host, pid)));
        let text = format!(
            "fork+exec pid {pid} ({}) by {parent}, ready in {cost}",
            self.kernel(host).get(pid).expect("just spawned").command
        );
        self.tracef(Some(host), TraceCategory::Kernel, text);
        Ok(pid)
    }

    /// Starts a registered service on `host` if not already running.
    /// Returns its pid and well-known port.
    pub(crate) fn spawn_service(
        &mut self,
        host: HostId,
        name: &str,
    ) -> Result<(Pid, Port), SysError> {
        if !self.host_up(host) {
            return Err(SysError::HostDown);
        }
        let port = match self.services.get(name) {
            Some(e) => e.port,
            None => return Err(SysError::UnknownService),
        };
        if let Some(pid) = self.host(host).service(name) {
            return Ok((pid, port));
        }
        let program = (self.services[name].factory)(host);
        let spec = SpawnSpec::new(name.to_string(), program);
        let pid = self.spawn(host, Pid::INIT, Uid::ROOT, spec, None)?;
        self.host_mut(host).register_service(name, pid);
        self.tracef(
            Some(host),
            TraceCategory::Daemon,
            format!("service {name} started as pid {pid} (port {port})"),
        );
        Ok((pid, port))
    }

    // ---- the wire --------------------------------------------------------

    fn rtt(&mut self, hops: u32, a: HostId, b: HostId, bytes: usize) -> SimDuration {
        let one_way = self.one_way(hops, a, b, bytes);
        let jf = self.latency.jitter_fraction;
        let d = SimDuration::from_micros(one_way.as_micros() * 2);
        self.rng.jitter(d, jf)
    }

    /// Uncontended one-way wire time between two hosts. Flat worlds use
    /// the latency model's `hop_base + per_byte` law; routed worlds price
    /// the canonical route (per-link latency + serialization) without
    /// touching the contention ledgers — control traffic (handshakes,
    /// closes) never perturbs congestion state. Local IPC (`hops == 0`)
    /// always uses the flat law.
    fn one_way(&self, hops: u32, a: HostId, b: HostId, bytes: usize) -> SimDuration {
        if hops > 0 {
            if let Some(net) = &self.net {
                if let Some(us) = net.wire_uncontended(a.0, b.0, bytes as u64) {
                    return SimDuration::from_micros(us);
                }
            }
        }
        self.latency.wire(hops, bytes)
    }

    /// Records one routed delivery into the `net.*` metrics.
    fn note_net_send(&mut self, bytes: u64, queue_us: u64, links: u32) {
        let Some(ids) = &mut self.net_obs else {
            return;
        };
        self.obs
            .registry
            .add(ids.bytes_on_link, bytes * u64::from(links));
        self.obs.registry.record(ids.link_queue_us, queue_us);
        if queue_us > 0 {
            self.obs.registry.inc(ids.congested_sends);
        }
        self.obs.registry.inc(ids.routed_sends);
        let bis = self.net.as_ref().map_or(0, |n| n.bisection_bytes);
        self.obs
            .registry
            .add(ids.bisection_bytes, bis - ids.prev_bisection);
        ids.prev_bisection = bis;
    }

    /// Records one lossy-link drop into the `net.*` metrics. The bytes
    /// still occupied the links up to the drop, so the bisection count is
    /// synced here too.
    fn note_net_drop(&mut self) {
        let Some(ids) = &mut self.net_obs else {
            return;
        };
        self.obs.registry.inc(ids.drops);
        self.obs.registry.inc(ids.routed_sends);
        let bis = self.net.as_ref().map_or(0, |n| n.bisection_bytes);
        self.obs
            .registry
            .add(ids.bisection_bytes, bis - ids.prev_bisection);
        ids.prev_bisection = bis;
    }

    /// Closes a connection on the wire: stamps its close time and closes
    /// both endpoints in their hosts' cores. A simulated connection is one
    /// record seen from both ends, so a close, death or break at either
    /// end ends it for both at once.
    fn mark_closed(&mut self, conn: ConnId) {
        let now = self.now();
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.stats.closed_at.is_some() {
            return;
        }
        c.stats.closed_at = Some(now);
        let (client, server) = (c.client, c.server);
        self.host_mut(client.0).close_socket(conn, client.1);
        self.host_mut(server.0).close_socket(conn, server.1);
    }

    fn route_state(&self, a: HostId, b: HostId) -> RouteState {
        if !self.host_up(b) {
            return RouteState::HostDown;
        }
        // A netmodel can sever the *physical* path (e.g. a pod cut off
        // the fat-tree core) even while the logical topology still lists
        // the hosts as linked.
        if let Some(net) = &self.net {
            if a != b && !net.reachable(a.0, b.0) {
                return RouteState::Unreachable;
            }
        }
        match self.topo.hops(a, b) {
            Some(h) => RouteState::Hops(h),
            None => RouteState::Unreachable,
        }
    }

    /// Reads a host's stable-storage record (the facade's inspection
    /// channel; see [`ppm_runtime::rt::Runtime::stable_get`]).
    pub fn stable_get_pub(&self, host: HostId, key: &str) -> Option<Bytes> {
        self.host(host).stable_get(key)
    }
}

/// The simulation's ordering policy: follow-on work becomes engine events
/// at virtual-time delays, with RNG draws in a fixed order.
impl Policy for WorldCore {
    type Sys<'a> = Sys<'a>;

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn host(&self, host: HostId) -> &HostCore {
        &self.hosts[host.0 as usize]
    }

    fn host_mut(&mut self, host: HostId) -> &mut HostCore {
        &mut self.hosts[host.0 as usize]
    }

    fn host_up(&self, host: HostId) -> bool {
        self.topo.is_up(host)
    }

    fn sys(&mut self, key: ProcKey) -> Sys<'_> {
        Sys::new(self, key)
    }

    fn trace(&mut self, host: HostId, category: TraceCategory, text: String) {
        self.tracef(Some(host), category, text);
    }

    /// The first event of a wakeup pays the Table 1 latency and arms the
    /// flush; later events coalesce into the same batch frame.
    fn kernel_queued(&mut self, tracer: ProcKey, msg: &KernelMsg, starts_batch: bool) {
        self.obs.note_kernel_event();
        let (host, lpm) = tracer;
        let (kind, bytes, pid) = (msg.event.kind(), msg.event.wire_size(), msg.event.pid());
        if starts_batch {
            self.obs.note_kernel_wakeup();
            let cpu = self.topo.spec(host).cpu;
            let la = self.kernel(host).load_avg();
            let base = self.latency.kernel_msg(cpu, la, bytes);
            let jf = self.latency.jitter_fraction;
            let delay = self.rng.jitter(base, jf);
            self.tracef(
                Some(host),
                TraceCategory::Kernel,
                format!("event {kind} pid {pid} -> lpm {lpm} ({bytes} bytes, {delay})"),
            );
            self.engine
                .schedule(delay, SimEvent::KernelFlush { to: tracer });
        } else {
            self.tracef(
                Some(host),
                TraceCategory::Kernel,
                format!("event {kind} pid {pid} -> lpm {lpm} ({bytes} bytes, batched)"),
            );
        }
    }

    fn kernel_frame(&mut self, tracer: ProcKey, msgs: &[KernelMsg]) -> Bytes {
        self.obs.note_kernel_batch(msgs.len());
        if msgs.len() > 1 {
            self.tracef(
                Some(tracer.0),
                TraceCategory::Kernel,
                format!(
                    "flush {} coalesced event(s) -> lpm {}",
                    msgs.len(),
                    tracer.1
                ),
            );
        }
        encode_batch(msgs)
    }

    fn signal_sent(&mut self, target: ProcKey, signal: Signal) {
        let delay = self.config.signal_latency;
        let jf = self.config.cost_jitter;
        let delay = self.rng.jitter(delay, jf);
        self.engine
            .schedule(delay, SimEvent::SignalDeliver { to: target, signal });
    }

    fn child_exited(&mut self, parent: ProcKey, child: Pid, status: ExitStatus) {
        let delay = self.config.child_exit_latency;
        self.engine.schedule(
            delay,
            SimEvent::Run(parent, Callback::ChildExit(child, status)),
        );
    }

    fn resume(&mut self, key: ProcKey, callback: Callback) {
        self.engine
            .schedule(SimDuration::ZERO, SimEvent::Run(key, callback));
    }

    fn retry_at(&mut self, key: ProcKey, at: SimTime, callback: Callback) {
        self.engine.schedule_at(at, SimEvent::Run(key, callback));
    }

    /// Opens the connection record and schedules the handshake: a live
    /// listener answers after one round trip, a port nobody listens on
    /// refuses after one (RST), and a SYN toward a dead host or route
    /// times out.
    fn dial(
        &mut self,
        from: ProcKey,
        target: HostId,
        port: Port,
    ) -> Result<(ConnId, Dial), SysError> {
        if (target.0 as usize) >= self.hosts.len() {
            return Err(SysError::NoSuchHost);
        }
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        let now = self.now();
        let timeout = self.config.connect_timeout;
        let listener = self.host(target).listener(port);
        let (delay, reason) = match (self.route_state(from.0, target), listener) {
            (RouteState::HostDown, _) => (timeout, SysError::HostDown),
            (RouteState::Unreachable, _) => (timeout, SysError::Unreachable),
            (RouteState::Hops(hops), None) => {
                let rtt = self.rtt(hops, from.0, target, self.config.handshake_bytes);
                (rtt, SysError::ConnectionRefused)
            }
            (RouteState::Hops(hops), Some(pid)) => {
                let server = (target, pid);
                let c = Connection::new(id, from, server, port, now);
                self.conns.insert(id, c);
                let rtt = self.rtt(hops, from.0, target, self.config.handshake_bytes);
                self.engine
                    .schedule(rtt, SimEvent::ConnEstablish { conn: id });
                let text = format!(
                    "pid {} connecting to {}{port} ({hops} hops, {id})",
                    from.1,
                    self.host_name(target)
                );
                self.tracef(Some(from.0), TraceCategory::Net, text);
                let server = Some(server);
                return Ok((id, Dial::Pending { server }));
            }
        };
        // The record stays, closed, so a late `close` is harmless and the
        // IPC tool still lists the attempt.
        let mut c = Connection::new(id, from, (target, Pid::INIT), port, now);
        c.stats.closed_at = Some(now);
        self.conns.insert(id, c);
        let to = from;
        self.engine.schedule(
            delay,
            SimEvent::ConnFailed {
                conn: id,
                to,
                reason,
            },
        );
        Ok((id, Dial::Doomed))
    }

    /// Prices the send over the route (flat wire law or the netmodel),
    /// applies fault-plan wire rules, and schedules the delivery no
    /// earlier than the direction's FIFO floor. A dead route still
    /// succeeds locally (TCP semantics); the sender hears `Closed` after
    /// the detection interval.
    fn transmit(&mut self, from: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let peer = self.conns[&conn]
            .peer_of(from)
            .expect("the core checked the endpoint");
        let len = data.len();
        let reach = self.route_state(from.0, peer.0);
        let hops = match reach {
            RouteState::Hops(h) => h,
            RouteState::HostDown | RouteState::Unreachable => {
                // Write succeeds locally; breakage surfaces after the
                // detection interval.
                let jf = self.config.cost_jitter;
                let base = self.config.break_detection;
                let delay = self.rng.jitter(base, jf);
                self.mark_closed(conn);
                self.engine
                    .schedule(delay, SimEvent::ConnClosedNotify { conn, to: from });
                self.tracef(
                    Some(from.0),
                    TraceCategory::Net,
                    format!("send on {conn} lost (peer unreachable); breakage pending"),
                );
                return Ok(());
            }
        };
        let jf = self.latency.jitter_fraction;
        // Routed worlds price the transfer over the canonical route —
        // per-link latency plus contention-scaled serialization — instead
        // of the flat wire law. Local IPC always stays flat.
        let now_us = self.engine.now().as_micros();
        let routed = match &mut self.net {
            Some(net) if hops > 0 => Some(net.transfer(from.0 .0, peer.0 .0, len as u64, now_us)),
            _ => None,
        };
        let base = match routed {
            None => self.latency.wire(hops, len),
            Some(Transfer::Deliver {
                total_us,
                queue_us,
                links,
            }) => {
                self.note_net_send(len as u64, queue_us, links);
                SimDuration::from_micros(total_us)
            }
            Some(Transfer::Dropped) => {
                // A lossy link ate it: the write succeeded locally,
                // nothing arrives, recovery is up to the RPC retries.
                self.note_net_drop();
                self.tracef(
                    Some(from.0),
                    TraceCategory::Net,
                    format!("net: message on {conn} dropped (lossy link)"),
                );
                return Ok(());
            }
            Some(Transfer::Unreachable) => {
                // `route_state` consulted the same table just above, so
                // this cannot fire today; handle it like any dead route.
                let base = self.config.break_detection;
                let delay = self.rng.jitter(base, self.config.cost_jitter);
                self.mark_closed(conn);
                self.engine
                    .schedule(delay, SimEvent::ConnClosedNotify { conn, to: from });
                return Ok(());
            }
        };
        let delay = self.rng.jitter(base, jf);
        // Fault-plan wire rules ride a dedicated RNG stream, so the
        // latency jitter sequence above is identical with or without an
        // installed plan.
        let fate = match self.faults.as_mut() {
            Some(f) => {
                let now = self.engine.now();
                let from_name = &self.topo.spec(from.0).name;
                let to_name = &self.topo.spec(peer.0).name;
                f.decide(from_name, to_name, now)
            }
            None => WireDecision::default(),
        };
        if fate.fired > 0 {
            self.obs.note_faults(u64::from(fate.fired));
        }
        if fate.drop {
            // Silent loss: the sender's write succeeded, nothing arrives,
            // and recovery is up to the RPC retry machinery.
            self.tracef(
                Some(from.0),
                TraceCategory::Net,
                format!("fault: message on {conn} dropped"),
            );
            return Ok(());
        }
        let delay = SimDuration::from_micros(delay.as_micros() + fate.extra.as_micros());
        let c = self.conns.get_mut(&conn).expect("checked above");
        let dir = c.record_send(from, len);
        let mut arrival = self.engine.now() + delay;
        if arrival < c.next_arrival[dir] {
            arrival = c.next_arrival[dir];
        }
        c.next_arrival[dir] = arrival + SimDuration::from_micros(1);
        if let Some(skew) = fate.reorder {
            // Land past the slot without raising the FIFO floor, so later
            // traffic in the same direction overtakes this message.
            arrival += skew;
        }
        if fate.dup {
            self.engine.schedule_at(
                arrival + delay.max(SimDuration::from_micros(1)),
                SimEvent::Deliver {
                    conn,
                    to: peer,
                    data: data.clone(),
                },
            );
        }
        self.engine.schedule_at(
            arrival,
            SimEvent::Deliver {
                conn,
                to: peer,
                data,
            },
        );
        Ok(())
    }

    /// Like a TCP FIN, the peer's notice is ordered after data already in
    /// flight toward it: one short control message after a close or exit;
    /// the detection interval after a crash, and only to a survivor on
    /// another host that is up.
    fn hang_up(&mut self, end: ProcKey, conn: ConnId, how: Teardown) {
        let c = &self.conns[&conn];
        let Some(peer) = c.peer_of(end) else {
            return;
        };
        let floor = c.next_arrival[usize::from(peer == c.server)];
        self.mark_closed(conn);
        let delay = match how {
            Teardown::Close => {
                let RouteState::Hops(hops) = self.route_state(end.0, peer.0) else {
                    return;
                };
                let base = self.one_way(hops, end.0, peer.0, 32);
                self.rng.jitter(base, self.latency.jitter_fraction)
            }
            Teardown::Crash => {
                if peer.0 == end.0 || !self.host_up(peer.0) {
                    return;
                }
                let base = self.config.break_detection;
                self.rng.jitter(base, self.config.cost_jitter)
            }
        };
        let at = (self.engine.now() + delay).max(floor);
        self.engine
            .schedule_at(at, SimEvent::ConnClosedNotify { conn, to: peer });
    }

    /// Unlike a send, a dead route is reported at once instead of
    /// succeeding locally and breaking after the detection interval: this
    /// is the check programs use to validate cached next-hops.
    fn route_alive(&self, end: ProcKey, conn: ConnId) -> bool {
        let peer = self.conns.get(&conn).and_then(|c| c.peer_of(end));
        peer.is_some_and(|peer| matches!(self.route_state(end.0, peer.0), RouteState::Hops(_)))
    }
}

#[derive(Debug, Clone, Copy)]
enum RouteState {
    Hops(u32),
    HostDown,
    Unreachable,
}

/// The complete simulation: [`WorldCore`] and its event loop.
pub struct World {
    core: WorldCore,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.core.now())
            .field("hosts", &self.core.hosts.len())
            .field(
                "programs",
                &self
                    .core
                    .hosts
                    .iter()
                    .map(|h| h.program_pids().count())
                    .sum::<usize>(),
            )
            .field("connections", &self.core.conns.len())
            .field("pending_events", &self.core.engine.pending())
            .finish()
    }
}

impl World {
    /// Creates an empty world with default config and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_config(OsConfig::default(), LatencyModel::default(), seed)
    }

    /// Creates a world with explicit OS constants and latency model.
    pub fn with_config(config: OsConfig, latency: LatencyModel, seed: u64) -> Self {
        World {
            core: WorldCore {
                engine: TimerWheel::new(),
                topo: Topology::new(),
                latency,
                rng: SimRng::seed_from(seed),
                trace: TraceLog::new(),
                config,
                hosts: Vec::new(),
                conns: HashMap::new(),
                next_conn: 1,
                services: HashMap::new(),
                obs: ObsHub::new(),
                faults: None,
                net: None,
                net_obs: None,
                net_epoch: 0,
                seed,
            },
        }
    }

    /// Shared state accessor.
    pub fn core(&self) -> &WorldCore {
        &self.core
    }

    /// Mutable shared state accessor (benchmark hooks, trace control).
    pub fn core_mut(&mut self) -> &mut WorldCore {
        &mut self.core
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Registers a service so inetd can start it on any host.
    ///
    /// # Panics
    ///
    /// Panics if the service name or port is already registered.
    pub fn register_service(
        &mut self,
        name: impl Into<String>,
        port: Port,
        factory: ServiceFactory,
    ) {
        let name = name.into();
        assert!(
            !self.core.services.contains_key(&name),
            "service {name:?} already registered"
        );
        assert!(
            !self.core.services.values().any(|e| e.port == port),
            "service port {port} already registered"
        );
        self.core
            .services
            .insert(name, ServiceEntry { port, factory });
    }

    /// Adds a host running the standard daemons (inetd) and returns its id.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = self.core.topo.add_host(spec);
        let core = HostCore::new(self.core.now());
        self.core.hosts.push(core);
        self.boot_daemons(id);
        let tick = self.core.config.load_tick;
        self.core.engine.schedule(tick, SimEvent::LoadTick(id));
        id
    }

    fn boot_daemons(&mut self, host: HostId) {
        let boot = self.core.config.daemon_boot_cost;
        let spec = SpawnSpec::new("inetd", Box::new(crate::inetd::Inetd::new()));
        self.core
            .spawn(host, Pid::INIT, Uid::ROOT, spec, Some(boot))
            .expect("host is up during boot");
    }

    /// Adds an undirected link.
    pub fn add_link(&mut self, a: HostId, b: HostId) {
        self.core.topo.add_link(a, b);
    }

    /// Installs the bandwidth- and topology-aware network model. Call
    /// after every host has been added: the spec's links are resolved
    /// against the world's host names (in host-id order). From here on,
    /// remote deliveries are priced over the canonical route — per-link
    /// latency plus fair-share serialization — instead of the flat wire
    /// law, and the `net.*` metrics are registered.
    ///
    /// # Errors
    ///
    /// Returns the spec/graph error message (unknown endpoint, name
    /// collision); the world is unchanged in that case.
    pub fn install_netmodel(&mut self, spec: &NetSpec) -> Result<(), String> {
        let host_names: Vec<String> = self
            .core
            .topo
            .host_ids()
            .map(|h| self.core.topo.spec(h).name.clone())
            .collect();
        let net = NetModel::build(spec, &host_names, self.core.seed)?;
        let reg = &mut self.core.obs.registry;
        self.core.net_obs = Some(NetObs {
            bytes_on_link: reg.counter("net.bytes_on_link"),
            link_queue_us: reg.hist("net.link_queue_us"),
            congested_sends: reg.counter("net.congested_sends"),
            routed_sends: reg.counter("net.routed_sends"),
            drops: reg.counter("net.drops"),
            bisection_bytes: reg.counter("net.bisection_bytes"),
            prev_bisection: 0,
        });
        self.core.tracef(
            None,
            TraceCategory::Net,
            format!(
                "netmodel {} installed ({} hosts, {} switches, {} links)",
                net.name,
                host_names.len(),
                net.graph.node_names.len() - host_names.len(),
                net.graph.links.len(),
            ),
        );
        self.core.net = Some(net);
        Ok(())
    }

    /// Spawns a user process (as if from a login shell) with `Pid::INIT`
    /// as parent. Returns the pid.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::HostDown`] if the host is down.
    pub fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.core.spawn(host, Pid::INIT, uid, spec, None)
    }

    /// Schedules a host crash at `delay` from now.
    pub fn schedule_crash(&mut self, host: HostId, delay: SimDuration) {
        self.core.engine.schedule(delay, SimEvent::HostCrash(host));
    }

    /// Schedules a host restart at `delay` from now.
    pub fn schedule_restart(&mut self, host: HostId, delay: SimDuration) {
        self.core
            .engine
            .schedule(delay, SimEvent::HostRestart(host));
    }

    /// Schedules a link state change (partition / heal) at `delay` from now.
    pub fn schedule_link(&mut self, a: HostId, b: HostId, up: bool, delay: SimDuration) {
        self.core
            .engine
            .schedule(delay, SimEvent::LinkSet(a, b, up));
    }

    /// Installs a fault plan: schedules its timed faults on the event
    /// engine (plan times are absolute; past times fire immediately) and
    /// arms its probabilistic wire rules on a dedicated RNG stream. Every
    /// scheduled fault counts into the world's `faults.injected` counter
    /// up front; wire faults count as they fire.
    ///
    /// # Errors
    ///
    /// Returns a message naming any host the plan references but the
    /// world does not have; nothing is scheduled in that case.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        let resolve = |core: &WorldCore, name: &str| {
            core.host_by_name(name)
                .ok_or_else(|| format!("fault plan references unknown host {name:?}"))
        };
        // Validate every host first so a bad plan is all-or-nothing.
        for ev in &plan.events {
            match &ev.kind {
                FaultKind::Crash { host }
                | FaultKind::Restart { host }
                | FaultKind::Kill { host, .. } => {
                    resolve(&self.core, host)?;
                }
                FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                    resolve(&self.core, a)?;
                    resolve(&self.core, b)?;
                }
                FaultKind::NetLinkDown { link } | FaultKind::NetLinkUp { link } => {
                    match &self.core.net {
                        Some(net) if net.graph.link_by_name(link).is_some() => {}
                        Some(_) => {
                            return Err(format!("fault plan references unknown net link {link:?}"));
                        }
                        None => {
                            return Err(format!(
                                "fault plan cuts net link {link:?} but no topology model is installed"
                            ));
                        }
                    }
                }
            }
        }
        let now = self.core.now();
        for ev in &plan.events {
            let delay = ev.at.saturating_since(now);
            match &ev.kind {
                FaultKind::Crash { host } => {
                    let h = resolve(&self.core, host).expect("validated");
                    self.schedule_crash(h, delay);
                }
                FaultKind::Restart { host } => {
                    let h = resolve(&self.core, host).expect("validated");
                    self.schedule_restart(h, delay);
                }
                FaultKind::LinkDown { a, b } => {
                    let ha = resolve(&self.core, a).expect("validated");
                    let hb = resolve(&self.core, b).expect("validated");
                    self.schedule_link(ha, hb, false, delay);
                }
                FaultKind::LinkUp { a, b } => {
                    let ha = resolve(&self.core, a).expect("validated");
                    let hb = resolve(&self.core, b).expect("validated");
                    self.schedule_link(ha, hb, true, delay);
                }
                FaultKind::NetLinkDown { link } | FaultKind::NetLinkUp { link } => {
                    let idx = self
                        .core
                        .net
                        .as_ref()
                        .and_then(|n| n.graph.link_by_name(link))
                        .expect("validated");
                    let up = matches!(&ev.kind, FaultKind::NetLinkUp { .. });
                    self.core
                        .engine
                        .schedule(delay, SimEvent::NetLinkSet(idx, up));
                }
                FaultKind::Kill { host, command } => {
                    let h = resolve(&self.core, host).expect("validated");
                    self.core
                        .engine
                        .schedule(delay, SimEvent::KillCmd(h, command.clone()));
                }
            }
        }
        if !plan.events.is_empty() {
            self.core.obs.note_faults(plan.events.len() as u64);
        }
        let wire = WireFaults::new(plan);
        if !wire.is_empty() {
            self.core.faults = Some(wire);
        }
        Ok(())
    }

    /// Sends a signal "from outside" (e.g. a test acting as the user at a
    /// terminal) with the given credentials.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's permission and liveness checks.
    pub fn post_signal(
        &mut self,
        from_uid: Uid,
        target: ProcKey,
        signal: Signal,
    ) -> Result<(), SysError> {
        host::post_signal(&mut self.core, from_uid, target, signal)
    }

    /// Runs until the event queue is quiet at or before `horizon`, then
    /// advances the clock to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((_, ev)) = self.core.engine.pop_until(horizon) {
            self.dispatch(ev);
        }
        self.core.engine.advance_to(horizon);
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let horizon = self.core.now() + d;
        self.run_until(horizon);
    }

    /// Processes a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.core.engine.pop() {
            Some((_, ev)) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    fn dispatch(&mut self, ev: SimEvent) {
        let core = &mut self.core;
        match ev {
            SimEvent::Start(key) => host::start(core, key),
            SimEvent::Run(key, callback) => host::dispatch(core, key, callback),
            SimEvent::Deliver { conn, to, data } => {
                // Data already on the wire is delivered even if the
                // connection closed meanwhile (TCP delivers data queued
                // before a FIN); only never-established connections drop.
                let alive_conn = core
                    .conns
                    .get(&conn)
                    .is_some_and(|c| c.state() != ConnState::Connecting);
                if alive_conn {
                    host::dispatch(core, to, Callback::Message(conn, data));
                }
            }
            SimEvent::ConnEstablish { conn } => self.handle_establish(conn),
            SimEvent::ConnFailed { conn, to, reason } => host::conn_failed(core, to, conn, reason),
            SimEvent::ConnClosedNotify { conn, to } => host::peer_closed(core, to, conn),
            SimEvent::KernelFlush { to } => host::flush_kernel(core, to),
            SimEvent::SignalDeliver { to, signal } => host::deliver_signal(core, to, signal),
            SimEvent::LoadTick(host) => {
                if !self.core.host_up(host) {
                    return;
                }
                let now = self.core.now();
                let alpha = self.core.config.load_alpha();
                let k = self.core.kernel_mut(host);
                let runnable = k.runnable_count(now);
                k.update_load(runnable, alpha);
                let tick = self.core.config.load_tick;
                self.core.engine.schedule(tick, SimEvent::LoadTick(host));
            }
            SimEvent::HostCrash(host) => self.handle_crash(host),
            SimEvent::HostRestart(host) => self.handle_restart(host),
            SimEvent::KillCmd(host, prefix) => {
                if !self.core.host_up(host) {
                    return;
                }
                let mut pids: Vec<Pid> = self
                    .core
                    .kernel(host)
                    .processes()
                    .filter(|p| p.is_alive() && p.command.starts_with(&prefix))
                    .map(|p| p.pid)
                    .collect();
                pids.sort_unstable();
                self.core.tracef(
                    Some(host),
                    TraceCategory::Kernel,
                    format!("fault: kill {prefix}* ({} process(es))", pids.len()),
                );
                for pid in pids {
                    let _ = host::post_signal(&mut self.core, Uid::ROOT, (host, pid), Signal::Kill);
                }
            }
            SimEvent::LinkSet(a, b, up) => {
                self.core.topo.set_link_up(a, b, up);
                self.core.net_epoch += 1;
                self.core.tracef(
                    None,
                    TraceCategory::Net,
                    format!(
                        "link {} <-> {} {}",
                        self.core.host_name(a),
                        self.core.host_name(b),
                        if up { "up" } else { "down" }
                    ),
                );
            }
            SimEvent::NetLinkSet(idx, up) => {
                let Some(net) = self.core.net.as_mut() else {
                    return;
                };
                net.set_link_up(idx, up);
                let name = net.graph.links[idx as usize].name.clone();
                self.core.net_epoch += 1;
                self.core.tracef(
                    None,
                    TraceCategory::Net,
                    format!("net link {name} {}", if up { "up" } else { "down" }),
                );
            }
        }
    }

    fn handle_establish(&mut self, conn: ConnId) {
        let (client, server, port, state) = match self.core.conns.get(&conn) {
            Some(c) => (c.client, c.server, c.port, c.state()),
            None => return,
        };
        if state != ConnState::Connecting {
            return;
        }
        // Re-validate: server process must still be alive and listening,
        // and the route must still exist.
        let listener = self.core.host(server.0).listener(port);
        let still_listening = listener == Some(server.1) && self.core.is_alive(server);
        let routed = self.core.topo.hops(client.0, server.0).is_some()
            && self
                .core
                .net
                .as_ref()
                .is_none_or(|n| n.reachable(client.0 .0, server.0 .0));
        if !still_listening || !routed {
            self.core.mark_closed(conn);
            let reason = if routed {
                SysError::ConnectionRefused
            } else {
                SysError::Unreachable
            };
            host::conn_failed(&mut self.core, client, conn, reason);
            return;
        }
        let now = self.core.now();
        if let Some(c) = self.core.conns.get_mut(&conn) {
            c.stats.established_at = Some(now);
        }
        self.core.tracef(
            Some(server.0),
            TraceCategory::Net,
            format!(
                "{conn} established {}:{} -> {}{port}",
                self.core.host_name(client.0),
                client.1,
                self.core.host_name(server.0),
            ),
        );
        host::accepted(&mut self.core, server, conn, client, port);
        host::established(&mut self.core, client, conn);
    }

    fn handle_crash(&mut self, host: HostId) {
        if !self.core.host_up(host) {
            return;
        }
        self.core.topo.set_host_up(host, false);
        if let Some(net) = self.core.net.as_mut() {
            net.set_host_up(host.0, false);
        }
        self.core.net_epoch += 1;
        self.core
            .tracef(Some(host), TraceCategory::Net, "host crashed".to_string());
        // The core breaks every connection touching the host (survivors
        // learn after the detection interval) and stamps the crash instant
        // into stable storage, which survives the power failure: a
        // restart re-runs the services that were up, and a respawned
        // daemon can read how long the host was dark.
        host::crash(&mut self.core, host);
    }

    fn handle_restart(&mut self, host: HostId) {
        if self.core.host_up(host) {
            return;
        }
        self.core.topo.set_host_up(host, true);
        if let Some(net) = self.core.net.as_mut() {
            net.set_host_up(host.0, true);
        }
        self.core.net_epoch += 1;
        let now = self.core.now();
        self.core.kernel_mut(host).reboot(now);
        self.core
            .tracef(Some(host), TraceCategory::Net, "host restarted".to_string());
        self.boot_daemons(host);
        // Re-run the services that were up at crash time (pmd comes back
        // without waiting for traffic), the way init replays /etc/rc.
        let names = self.core.host_mut(host).take_crashed_services();
        for name in names {
            let _ = self.core.spawn_service(host, &name);
        }
        let tick = self.core.config.load_tick;
        self.core.engine.schedule(tick, SimEvent::LoadTick(host));
    }
}

/// Stable-storage key under which a crash stamps the simulation time the
/// host went dark (big-endian microseconds). Programs respawned after the
/// restart read it to measure recovery time. (Canonically defined in the
/// runtime layer; both backends write it on their crash paths.)
pub use ppm_runtime::sys::CRASHED_AT_KEY;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcState;
    use ppm_simnet::topology::CpuClass;

    fn two_hosts() -> (World, HostId, HostId) {
        let mut w = World::new(11);
        let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
        let b = w.add_host(HostSpec::new("b", CpuClass::Vax750));
        w.add_link(a, b);
        (w, a, b)
    }

    #[test]
    fn add_host_boots_inetd() {
        let (mut w, a, _) = two_hosts();
        w.run_for(SimDuration::from_millis(100));
        let inetd = w
            .core()
            .kernel(a)
            .processes()
            .find(|p| p.command == "inetd")
            .map(|p| p.pid);
        assert!(inetd.is_some());
        // inetd listens on its well-known port
        assert!(w.core().host(a).listener(Port::INETD).is_some());
    }

    #[test]
    fn spawn_user_creates_running_process_after_delay() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Embryo
        );
        w.run_for(SimDuration::from_millis(200));
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Running
        );
    }

    #[test]
    fn kill_terminates_and_stop_cont_toggle() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        w.post_signal(Uid(100), (a, pid), Signal::Stop).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Stopped
        );
        w.post_signal(Uid(100), (a, pid), Signal::Cont).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(
            w.core().kernel(a).get(pid).unwrap().state,
            ProcState::Running
        );
        w.post_signal(Uid(100), (a, pid), Signal::Kill).unwrap();
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.core().is_alive((a, pid)));
    }

    #[test]
    fn signal_permission_checked() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        assert_eq!(
            w.post_signal(Uid(200), (a, pid), Signal::Kill),
            Err(SysError::PermissionDenied)
        );
        assert!(w.post_signal(Uid::ROOT, (a, pid), Signal::Kill).is_ok());
    }

    #[test]
    fn crash_kills_processes_and_restart_reboots() {
        let (mut w, a, _) = two_hosts();
        let pid = w.spawn_user(a, Uid(100), SpawnSpec::inert("job")).unwrap();
        w.run_for(SimDuration::from_millis(200));
        w.schedule_crash(a, SimDuration::from_millis(10));
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.core().host_up(a));
        assert!(!w.core().is_alive((a, pid)));
        w.schedule_restart(a, SimDuration::from_millis(10));
        w.run_for(SimDuration::from_millis(200));
        assert!(w.core().host_up(a));
        assert_eq!(w.core().kernel(a).boot_count(), 2);
        // inetd is back
        assert!(w.core().host(a).listener(Port::INETD).is_some());
    }

    #[test]
    fn load_average_rises_with_cpu_bound_work() {
        let (mut w, a, _) = two_hosts();
        for _ in 0..2 {
            w.spawn_user(a, Uid(1), SpawnSpec::inert("spin").cpu_bound(true))
                .unwrap();
        }
        w.run_for(SimDuration::from_secs(300));
        let la = w.core().kernel(a).load_avg();
        assert!((1.8..2.2).contains(&la), "la={la}");
    }

    #[test]
    fn world_debug_is_nonempty() {
        let (w, _, _) = two_hosts();
        let s = format!("{w:?}");
        assert!(s.contains("World"));
        assert!(s.contains("hosts"));
    }
}
