//! One real node: an event-loop thread driving the same [`Program`]
//! actors as the simulated kernel, over real sockets and a real clock.
//!
//! A node is the real-backend analogue of one simulated host. Its process
//! semantics — the kernel table and programs, spawn and start, exit,
//! signals, kernel-event routing, holding callbacks for stopped
//! processes, and the dispatch seam that contains panics — are the
//! shared host core ([`HostCore`], `ppm_runtime::host`), the same code
//! the simulation and the model checker run, and so are its socket rules
//! (listeners, endpoint states, descriptors, send accounting, teardown)
//! and its stable storage. The node adds the wire — loopback TCP streams
//! and acceptor threads — a timer heap, and its ordering policy
//! ([`Policy`]). The loop blocks on its event queue with
//! `recv_timeout` against the next timer deadline, so timers fire
//! without a dedicated timer thread.
//!
//! Programs run to completion on the node thread, one callback at a
//! time — the same run-to-completion discipline the simulation enforces
//! globally, here enforced per node (nodes run concurrently, which is
//! exactly the concurrency the real system of the paper had between
//! hosts). Follow-on work the core asks for (a start, a signal, a
//! kernel-event flush, a child-exit notice, a callback released by
//! SIGCONT) goes on a deferred-action queue drained after the callback
//! returns, on the wall clock.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use ppm_runtime::events::TraceFlags;
use ppm_runtime::fd::OpenMode;
use ppm_runtime::host::{self, Callback, Dial, HostCore, Policy, Teardown};
use ppm_runtime::ids::{ConnId, CpuClass, Fd, HostId, Pid, Port, Uid};
use ppm_runtime::obs::{SharedRegistry, SpanPhase};
use ppm_runtime::program::{ConnEvent, KernelMsg, ProcKey, SpawnSpec, SysError};
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::{Clock, CoreView, Spawner, TimerDriver, TimerHandle, Transport};
use ppm_runtime::time::{Micros, SimDuration};
use ppm_runtime::trace::TraceCategory;

use crate::clock::ClusterClock;
use crate::net;
use crate::rt::ClusterShared;

/// Events arriving on a node's queue — from its own I/O threads, from
/// peers' streams, and from the [`crate::rt::RealRuntime`] driver.
pub enum NodeEvent {
    /// A framed message arrived on an established connection.
    Incoming {
        /// Local connection id.
        conn: ConnId,
        /// The frame payload.
        data: Bytes,
    },
    /// An outbound connect completed; the stream is live.
    ConnUp {
        /// Local connection id.
        conn: ConnId,
        /// The connected stream.
        stream: TcpStream,
    },
    /// An outbound connect failed.
    ConnFail {
        /// Local connection id.
        conn: ConnId,
        /// Why.
        error: SysError,
    },
    /// The remote end closed (EOF or error on the stream).
    PeerClosed {
        /// Local connection id.
        conn: ConnId,
    },
    /// The acceptor took a new inbound connection on `port`.
    AcceptedConn {
        /// The logical port accepted on.
        port: Port,
        /// The connecting `<host, pid>`.
        peer: (HostId, Pid),
        /// The accepted stream (preamble already consumed).
        stream: TcpStream,
    },
    /// Driver: spawn a user process (the facade's `spawn_user`).
    SpawnUser {
        /// Owner.
        uid: Uid,
        /// What to run.
        spec: SpawnSpec,
        /// Reply channel.
        reply: Sender<Result<Pid, SysError>>,
    },
    /// Driver: post a signal with `from`'s credentials.
    PostSignal {
        /// Sender's uid (permission check).
        from: Uid,
        /// Target pid on this node.
        target: Pid,
        /// The signal.
        signal: Signal,
        /// Optional reply channel.
        reply: Option<Sender<Result<(), SysError>>>,
    },
    /// Driver: is this pid alive?
    IsAlive {
        /// The pid.
        pid: Pid,
        /// Reply channel.
        reply: Sender<bool>,
    },
    /// Driver: find `uid`'s live process whose command starts with a
    /// prefix (how tests locate a user's LPM without sim introspection).
    FindProc {
        /// Owner to search under.
        uid: Uid,
        /// Command-name prefix.
        prefix: String,
        /// Reply channel.
        reply: Sender<Option<Pid>>,
    },
    /// Driver: read a stable-storage record.
    StableGet {
        /// The key.
        key: String,
        /// Reply channel.
        reply: Sender<Option<Bytes>>,
    },
    /// Driver: stop the node loop and tear down sockets.
    Shutdown,
}

/// Work queued during a program callback, run after it returns.
enum Deferred {
    Start(Pid),
    Run(Pid, Callback),
    KernelFlush(Pid),
    Signal(Pid, Signal),
}

/// The state owned by one node's event-loop thread.
pub struct NodeCore {
    host: HostId,
    name: String,
    cpu: CpuClass,
    clock: ClusterClock,
    cluster: Arc<ClusterShared>,
    tx: Sender<NodeEvent>,
    core: HostCore,
    /// The write half of each established endpoint's TCP stream.
    streams: HashMap<ConnId, TcpStream>,
    next_conn: u64,
    /// Each bound port's acceptor-thread flag; cleared when the core
    /// releases the listener.
    acceptors: HashMap<Port, Arc<AtomicBool>>,
    actions: VecDeque<Deferred>,
    timer_heap: BinaryHeap<Reverse<(u64, u64)>>,
    timer_entries: HashMap<u64, (Pid, u64)>,
    next_timer: u64,
    rng: u64,
}

impl NodeCore {
    /// Creates a node and queues its boot daemon (inetd) for start.
    pub fn new(
        host: HostId,
        name: String,
        cpu: CpuClass,
        cluster: Arc<ClusterShared>,
        tx: Sender<NodeEvent>,
    ) -> Self {
        let clock = ClusterClock::new(cluster.epoch);
        let mut node = NodeCore {
            host,
            name,
            cpu,
            clock,
            cluster,
            tx,
            core: HostCore::new(Micros::ZERO),
            streams: HashMap::new(),
            next_conn: 1,
            acceptors: HashMap::new(),
            actions: VecDeque::new(),
            timer_heap: BinaryHeap::new(),
            timer_entries: HashMap::new(),
            next_timer: 1,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((host.0 as u64) << 17 | 1),
        };
        let inetd = SpawnSpec::new("inetd", Box::new(ppm_runtime::inetd::Inetd::new()));
        node.spawn_proc(Pid::INIT, Uid::ROOT, inetd)
            .expect("boot inetd");
        node
    }

    /// Runs the node loop until shutdown or the driver hangs up.
    pub fn run(mut self, rx: Receiver<NodeEvent>) {
        loop {
            self.drain();
            let ev = match self.next_timer_wait() {
                Some(wait) => match rx.recv_timeout(wait) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                },
            };
            match ev {
                Some(NodeEvent::Shutdown) => break,
                Some(ev) => self.handle(ev),
                None => self.fire_due_timers(),
            }
        }
        self.teardown();
    }

    fn handle(&mut self, ev: NodeEvent) {
        match ev {
            NodeEvent::Incoming { conn, data } => {
                let Some(owner) = self.core.socket_owner(conn) else {
                    return;
                };
                self.actions
                    .push_back(Deferred::Run(owner, Callback::Message(conn, data)));
            }
            NodeEvent::ConnUp { conn, stream } => {
                // An endpoint closed while connecting drops the stream.
                let Some(owner) = self.core.socket_owner(conn) else {
                    return;
                };
                stream.set_nodelay(true).ok();
                let writer = stream.try_clone().expect("clone stream");
                net::spawn_reader(conn, stream, self.tx.clone());
                self.streams.insert(conn, writer);
                host::established(self, (self.host, owner), conn);
            }
            NodeEvent::ConnFail { conn, error } => {
                if let Some(owner) = self.core.socket_owner(conn) {
                    host::conn_failed(self, (self.host, owner), conn, error);
                }
            }
            NodeEvent::PeerClosed { conn } => {
                if let Some(owner) = self.core.socket_owner(conn) {
                    self.streams.remove(&conn);
                    host::peer_closed(self, (self.host, owner), conn);
                }
            }
            NodeEvent::AcceptedConn { port, peer, stream } => {
                let Some(owner) = self.core.listener(port).filter(|&o| self.is_alive(o)) else {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                };
                let conn = self.alloc_conn();
                let writer = stream.try_clone().expect("clone stream");
                net::spawn_reader(conn, stream, self.tx.clone());
                self.streams.insert(conn, writer);
                host::accepted(self, (self.host, owner), conn, peer, port);
            }
            NodeEvent::SpawnUser { uid, spec, reply } => {
                let _ = reply.send(self.spawn_proc(Pid::INIT, uid, spec));
            }
            NodeEvent::PostSignal {
                from,
                target,
                signal,
                reply,
            } => {
                let res = host::post_signal(self, from, (self.host, target), signal);
                if let Some(reply) = reply {
                    let _ = reply.send(res);
                }
            }
            NodeEvent::IsAlive { pid, reply } => {
                let _ = reply.send(self.is_alive(pid));
            }
            NodeEvent::FindProc { uid, prefix, reply } => {
                let found = self
                    .core
                    .kernel
                    .user_processes(uid)
                    .into_iter()
                    .find(|p| p.command.starts_with(&prefix))
                    .map(|p| p.pid);
                let _ = reply.send(found);
            }
            NodeEvent::StableGet { key, reply } => {
                let _ = reply.send(self.core.stable_get(&key));
            }
            NodeEvent::Shutdown => unreachable!("handled by the loop"),
        }
    }

    // ---- time and timers -------------------------------------------------

    fn now(&self) -> Micros {
        self.clock.now()
    }

    fn next_timer_wait(&mut self) -> Option<Duration> {
        loop {
            let &Reverse((deadline, seq)) = self.timer_heap.peek()?;
            if !self.timer_entries.contains_key(&seq) {
                self.timer_heap.pop(); // cancelled; discard lazily
                continue;
            }
            let now = self.now().as_micros();
            return Some(Duration::from_micros(deadline.saturating_sub(now)));
        }
    }

    fn fire_due_timers(&mut self) {
        let now = self.now().as_micros();
        while let Some(&Reverse((deadline, seq))) = self.timer_heap.peek() {
            if deadline > now {
                break;
            }
            self.timer_heap.pop();
            let Some((pid, token)) = self.timer_entries.remove(&seq) else {
                continue; // cancelled
            };
            host::dispatch(self, (self.host, pid), Callback::Timer(token));
            self.drain();
        }
    }

    // ---- deferred-action pump --------------------------------------------

    fn drain(&mut self) {
        while let Some(action) = self.actions.pop_front() {
            let host = self.host;
            match action {
                Deferred::Start(pid) => host::start(self, (host, pid)),
                Deferred::Run(pid, callback) => host::dispatch(self, (host, pid), callback),
                Deferred::KernelFlush(tracer) => host::flush_kernel(self, (host, tracer)),
                Deferred::Signal(pid, signal) => host::deliver_signal(self, (host, pid), signal),
            }
        }
    }

    // ---- process lifecycle -----------------------------------------------

    fn is_alive(&self, pid: Pid) -> bool {
        host::is_alive(self, (self.host, pid))
    }

    fn spawn_proc(&mut self, parent: Pid, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        let pid = host::spawn(self, self.host, parent, uid, spec)?;
        let command = &self.core.kernel.get(pid).expect("just spawned").command;
        self.log(
            TraceCategory::Kernel,
            format!("fork+exec pid {pid} ({command}) by {parent}"),
        );
        self.actions.push_back(Deferred::Start(pid));
        Ok(pid)
    }

    // ---- helpers ---------------------------------------------------------

    fn alloc_conn(&mut self) -> ConnId {
        // Upper bits carry the host so conn ids never collide across the
        // cluster in traces.
        let id = ConnId(((self.host.0 as u64) << 40) | self.next_conn);
        self.next_conn += 1;
        id
    }

    fn log(&self, category: TraceCategory, text: String) {
        if self.cluster.trace_enabled {
            let at = self.now();
            eprintln!("[{at} {}] {category}: {text}", self.name);
        }
    }

    fn teardown(&mut self) {
        for alive in self.acceptors.values() {
            alive.store(false, Ordering::SeqCst);
        }
        for (_, stream) in self.streams.drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let mut ports = self.cluster.ports.lock().unwrap();
        ports.retain(|&(host, _), _| host != self.host);
    }
}

/// The node's ordering policy: follow-on work goes on the deferred-action
/// queue and runs after the current callback, on the wall clock.
impl Policy for NodeCore {
    type Sys<'a> = RealSys<'a>;

    fn now(&self) -> Micros {
        self.clock.now()
    }

    fn host(&self, _host: HostId) -> &HostCore {
        &self.core
    }

    fn host_mut(&mut self, _host: HostId) -> &mut HostCore {
        &mut self.core
    }

    fn sys(&mut self, key: ProcKey) -> RealSys<'_> {
        let pid = key.1;
        let uid = self.core.kernel.get(pid).map_or(Uid::ROOT, |p| p.uid);
        RealSys {
            node: self,
            pid,
            uid,
        }
    }

    fn trace(&mut self, _host: HostId, category: TraceCategory, text: String) {
        self.log(category, text);
    }

    fn kernel_queued(&mut self, tracer: ProcKey, _msg: &KernelMsg, starts_batch: bool) {
        if starts_batch {
            self.actions.push_back(Deferred::KernelFlush(tracer.1));
        }
    }

    fn kernel_frame(&mut self, _tracer: ProcKey, msgs: &[KernelMsg]) -> Bytes {
        ppm_proto::codec::encode_batch(msgs)
    }

    fn signal_sent(&mut self, target: ProcKey, signal: Signal) {
        self.actions.push_back(Deferred::Signal(target.1, signal));
    }

    fn child_exited(&mut self, parent: ProcKey, child: Pid, status: ExitStatus) {
        self.resume(parent, Callback::ChildExit(child, status));
    }

    fn resume(&mut self, key: ProcKey, callback: Callback) {
        self.actions.push_back(Deferred::Run(key.1, callback));
    }

    /// Unpublishes the ports whose listeners the core released
    /// (connects are refused until a respawn re-binds the logical port)
    /// and drops the process's timers and undelivered kernel batch. Its
    /// streams were already shut down by the core's teardown.
    fn released(&mut self, key: ProcKey) {
        let pid = key.1;
        let core = &self.core;
        let dead: Vec<Port> = self
            .acceptors
            .keys()
            .copied()
            .filter(|&port| core.listener(port).is_none())
            .collect();
        for port in dead {
            if let Some(alive) = self.acceptors.remove(&port) {
                alive.store(false, Ordering::SeqCst);
            }
            self.cluster
                .ports
                .lock()
                .unwrap()
                .remove(&(self.host, port));
        }
        self.timer_entries.retain(|_, (owner, _)| *owner != pid);
        self.core.discard_kernel_batch(pid);
    }

    /// Binds `127.0.0.1:0`, publishes the real port under the logical one
    /// and starts its acceptor thread.
    fn listen_wire(&mut self, key: ProcKey, port: Port) -> Result<(), SysError> {
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|_| SysError::InvalidArgument)?;
        let real = listener
            .local_addr()
            .map_err(|_| SysError::InvalidArgument)?
            .port();
        let alive = Arc::new(AtomicBool::new(true));
        self.cluster
            .ports
            .lock()
            .unwrap()
            .insert((self.host, port), real);
        self.acceptors.insert(port, Arc::clone(&alive));
        net::spawn_acceptor(
            listener,
            port,
            alive,
            Arc::clone(&self.cluster.shutdown),
            self.tx.clone(),
        );
        self.log(
            TraceCategory::Net,
            format!("pid {} binds {port} to tcp {real}", key.1),
        );
        Ok(())
    }

    /// Starts a connector thread; its `ConnUp` or `ConnFail` reports the
    /// outcome.
    fn dial(
        &mut self,
        from: ProcKey,
        host: HostId,
        port: Port,
    ) -> Result<(ConnId, Dial), SysError> {
        let known = self.cluster.hosts.read().unwrap().len() as u32;
        if host.0 >= known {
            return Err(SysError::NoSuchHost);
        }
        let conn = self.alloc_conn();
        net::spawn_connector(
            conn,
            from,
            (host, port),
            Arc::clone(&self.cluster.ports),
            self.tx.clone(),
        );
        Ok((conn, Dial::Pending { server: None }))
    }

    /// Writes one frame. A failed write closes the endpoint at once and
    /// the owner hears `Closed` after the current callback.
    fn transmit(&mut self, from: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        let written = self
            .streams
            .get_mut(&conn)
            .is_some_and(|stream| net::write_frame(stream, &data).is_ok());
        if written {
            return Ok(());
        }
        self.streams.remove(&conn);
        self.core.close_socket(conn, from.1);
        let callback = Callback::Conn(conn, ConnEvent::Closed);
        self.actions.push_back(Deferred::Run(from.1, callback));
        Err(SysError::ConnectionClosed)
    }

    /// Shuts the stream down; the peer's reader sees EOF, in order after
    /// every frame already written, and reports `Closed` there.
    fn hang_up(&mut self, _end: ProcKey, conn: ConnId, _how: Teardown) {
        if let Some(stream) = self.streams.remove(&conn) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The real syscall interface bound to one calling process.
///
/// Where [`ppm_simos::sys::Sys`] maps the trait contracts onto the
/// discrete-event world, this maps them onto the node: timers go to the
/// node heap, connections to loopback TCP, spawn/kill to the shared
/// kernel process table.
pub struct RealSys<'a> {
    node: &'a mut NodeCore,
    pid: Pid,
    uid: Uid,
}

impl Clock for RealSys<'_> {
    fn now(&self) -> Micros {
        self.node.now()
    }
}

impl TimerDriver for RealSys<'_> {
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let seq = self.node.next_timer;
        self.node.next_timer += 1;
        let deadline = self.node.now().as_micros() + delay.as_micros();
        self.node.timer_heap.push(Reverse((deadline, seq)));
        self.node.timer_entries.insert(seq, (self.pid, token));
        TimerHandle(seq)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.node.timer_entries.remove(&handle.0).is_some()
    }
}

impl Transport for RealSys<'_> {
    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        host::listen(self.node, (self.node.host, self.pid), port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        host::connect(self.node, (self.node.host, self.pid), host, port)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        host::send(self.node, (self.node.host, self.pid), conn, data)
    }

    fn conn_alive(&self, conn: ConnId) -> bool {
        host::conn_alive(&*self.node, (self.node.host, self.pid), conn)
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        host::close(self.node, (self.node.host, self.pid), conn)
    }
}

impl Spawner for RealSys<'_> {
    fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, SysError> {
        self.node.spawn_proc(self.pid, self.uid, spec)
    }

    fn spawn_as(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if !self.uid.is_root() {
            return Err(SysError::PermissionDenied);
        }
        self.node.spawn_proc(self.pid, uid, spec)
    }

    fn exit(&mut self, code: i32) {
        host::exit(
            self.node,
            (self.node.host, self.pid),
            ExitStatus::Code(code),
        );
    }

    fn kill(&mut self, target: Pid, signal: Signal) -> Result<(), SysError> {
        host::post_signal(self.node, self.uid, (self.node.host, target), signal)
    }

    fn spawn_service(&mut self, name: &str) -> Result<(Pid, Port), SysError> {
        if !self.uid.is_root() {
            return Err(SysError::PermissionDenied);
        }
        if let Some(pid) = self.node.core.service(name) {
            let port = self
                .node
                .cluster
                .service_port(name)
                .ok_or(SysError::UnknownService)?;
            return Ok((pid, port));
        }
        let (port, program) = self
            .node
            .cluster
            .make_service(name, self.node.host)
            .ok_or(SysError::UnknownService)?;
        let spec = SpawnSpec::new(name.to_string(), program);
        let pid = self.node.spawn_proc(Pid::INIT, Uid::ROOT, spec)?;
        self.node.core.register_service(name, pid);
        self.node.log(
            TraceCategory::Daemon,
            format!("service {name} started as pid {pid} (port {port})"),
        );
        Ok((pid, port))
    }
}

impl ppm_runtime::sys::Sys for RealSys<'_> {
    fn host(&self) -> HostId {
        self.node.host
    }

    fn host_name(&self) -> &str {
        &self.node.name
    }

    fn cpu_class(&self) -> CpuClass {
        self.node.cpu
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn uid(&self) -> Uid {
        self.uid
    }

    fn host_core(&self) -> CoreView<&HostCore> {
        CoreView::new(&self.node.core)
    }

    fn host_core_mut(&mut self) -> CoreView<&mut HostCore> {
        CoreView::new(&mut self.node.core)
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        let hosts = self.node.cluster.hosts.read().unwrap();
        hosts
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| HostId(i as u32))
            .ok_or(SysError::NoSuchHost)
    }

    fn known_hosts(&self) -> Vec<String> {
        let hosts = self.node.cluster.hosts.read().unwrap();
        hosts.iter().map(|(n, _)| n.clone()).collect()
    }

    fn trace_str(&mut self, category: TraceCategory, text: String) {
        self.node.log(category, text);
    }

    fn spans_enabled(&self) -> bool {
        false
    }

    fn span_str(&mut self, _name: &'static str, _corr: String, _phase: SpanPhase) {}

    fn register_metrics_str(&mut self, label: String, registry: SharedRegistry) {
        let mut obs = self.node.cluster.obs.lock().unwrap();
        obs.retain(|(l, _)| *l != label);
        obs.push((label, registry));
    }

    fn random_unit(&mut self) -> f64 {
        // xorshift64*: deterministic per node, no RNG dependency.
        let mut x = self.node.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.node.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    fn adopt(&mut self, target: Pid, flags: TraceFlags) -> Result<(), SysError> {
        host::adopt(
            self.node,
            (self.node.host, self.pid),
            self.uid,
            target,
            flags,
        )
    }

    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        // Real work already takes real time; the nominal cost passes
        // through for protocol-level bookkeeping only.
        nominal
    }

    fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration {
        if let Ok(p) = self.node.core.kernel.live_mut(self.pid) {
            p.rusage.cpu += nominal;
        }
        nominal
    }

    fn open_path(&mut self, path: String, mode: OpenMode) -> Fd {
        host::open_file(self.node, (self.node.host, self.pid), path, mode)
    }

    fn close_fd(&mut self, fd: Fd) -> Result<(), SysError> {
        host::close_fd(self.node, (self.node.host, self.pid), fd)
    }
}
