//! One host's process semantics, written once for every backend.
//!
//! The simulated world (`ppm-simos`), the model checker (`ppm-mc`) and the
//! real node runtime (`ppm-realos`) all drive this core. It owns what the
//! paper's kernel rules say about processes (§§2–4):
//!
//! * the [`Kernel`] process table and the program attached to each
//!   process;
//! * [`spawn`] — pid allocation, tracer inheritance, `Fork` when the
//!   parent is adopted — and the deferred [`start`] (`Embryo` →
//!   `Running`, `Exec`, `on_start`);
//! * [`exit`] — exit bookkeeping, the `Exit` event, dropping the
//!   process's services and program, and parent notification;
//! * [`deliver_signal`] — `signals_received` and `SignalDelivered` first,
//!   then STOP, CONT, KILL, or the catchable handler and its default
//!   action;
//! * holding callbacks for a stopped process until SIGCONT;
//! * kernel-event routing ([`emit`]): tracer, flags, self and liveness
//!   filter, batch start;
//! * [`dispatch`], the one take-run-reinsert seam every [`Program`]
//!   callback passes through. A panic inside a callback is contained
//!   there and becomes the death of that process by SIGKILL;
//! * the socket layer ([`socket`]): listeners, endpoint states, socket
//!   descriptors, send accounting and teardown on close, exit and crash;
//! * the host's stable storage, which survives exits and crashes.
//!
//! What differs between backends is only *when* things happen — the
//! virtual-time engine, the explorer's choice, or a deferred-action queue
//! on the wall clock — and how bytes cross the wire. Each backend says so
//! by implementing [`Policy`];
//! the functions here are generic over it, so every call is statically
//! dispatched.

pub mod socket;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};

use bytes::Bytes;

use crate::events::{KernelEvent, TraceFlags};
use crate::fd::{FdKind, OpenMode};
use crate::ids::{ConnId, Fd, HostId, Pid, Port, Uid};
use crate::kernel::Kernel;
use crate::process::{ProcInfo, ProcState, Process};
use crate::program::{ConnEvent, KernelMsg, ProcKey, Program, SigAction, SpawnSpec, SysError};
use crate::signal::{ExitStatus, Signal};
use crate::sys::Sys;
use crate::time::Micros;
use crate::trace::TraceCategory;

pub use socket::{
    accepted, close, conn_alive, conn_failed, connect, crash, established, listen, peer_closed,
    send, Dial, SockState, Socket, Teardown,
};

/// One [`Program`] callback, as a value a backend can queue and the core
/// can hold.
#[derive(Debug, Clone)]
pub enum Callback {
    /// [`Program::on_start`].
    Start,
    /// [`Program::on_timer`].
    Timer(u64),
    /// [`Program::on_message`]; receive accounting happens when it runs.
    Message(ConnId, Bytes),
    /// [`Program::on_conn_event`].
    Conn(ConnId, ConnEvent),
    /// [`Program::on_kernel_batch`].
    KernelBatch(Bytes),
    /// [`Program::on_child_exit`].
    ChildExit(Pid, ExitStatus),
}

impl Callback {
    /// Whether the callback waits while its process is busy with earlier
    /// work (the simulation's `consume_cpu`): timers, messages and kernel
    /// batches queue behind the work; notifications do not.
    fn waits_for_idle(&self) -> bool {
        matches!(
            self,
            Callback::Timer(_) | Callback::Message(..) | Callback::KernelBatch(_)
        )
    }

    fn invoke(self, prog: &mut dyn Program, sys: &mut dyn Sys) {
        match self {
            Callback::Start => prog.on_start(sys),
            Callback::Timer(token) => prog.on_timer(sys, token),
            Callback::Message(conn, data) => prog.on_message(sys, conn, data),
            Callback::Conn(conn, event) => prog.on_conn_event(sys, conn, event),
            Callback::KernelBatch(data) => prog.on_kernel_batch(sys, data),
            Callback::ChildExit(child, status) => prog.on_child_exit(sys, child, status),
        }
    }
}

/// One host's process state: the kernel table plus everything the core
/// keeps per process.
pub struct HostCore {
    /// The process table.
    pub kernel: Kernel,
    /// Programs by pid. A slot is `None` while its program runs a
    /// callback; exit removes the slot, so the program map always holds
    /// exactly the live processes that have programs.
    programs: BTreeMap<Pid, Option<Box<dyn Program>>>,
    /// Callbacks that arrived while their process was stopped, in
    /// arrival order; released on SIGCONT.
    held: BTreeMap<Pid, Vec<Callback>>,
    /// Kernel events coalescing toward each tracer's next wakeup.
    kernel_queue: BTreeMap<Pid, Vec<KernelMsg>>,
    /// Running services by name.
    services: BTreeMap<String, Pid>,
    /// The listener table: which process accepts on each port.
    listeners: BTreeMap<Port, Pid>,
    /// The open endpoints, by (connection, owner): the host's index of
    /// open sockets.
    sockets: BTreeMap<(ConnId, Pid), Socket>,
    /// Endpoints of live processes that have closed, by (owner,
    /// connection); an owner's entries go when it exits.
    closed_sockets: BTreeSet<(Pid, ConnId)>,
    /// The simulated disk: survives process exits and host crashes.
    stable: BTreeMap<String, Bytes>,
    /// The services that were running at the last crash, name-sorted.
    crashed_services: Vec<String>,
}

impl HostCore {
    /// A freshly booted host: init only.
    pub fn new(now: Micros) -> Self {
        HostCore {
            kernel: Kernel::new(now),
            programs: BTreeMap::new(),
            held: BTreeMap::new(),
            kernel_queue: BTreeMap::new(),
            services: BTreeMap::new(),
            listeners: BTreeMap::new(),
            sockets: BTreeMap::new(),
            closed_sockets: BTreeSet::new(),
            stable: BTreeMap::new(),
            crashed_services: Vec::new(),
        }
    }

    /// Pids that carry a program, in pid order.
    pub fn program_pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.programs.keys().copied()
    }

    /// Programs not currently inside a callback, in pid order.
    pub fn programs(&self) -> impl Iterator<Item = (Pid, &dyn Program)> {
        self.programs
            .iter()
            .filter_map(|(&pid, slot)| slot.as_deref().map(|p| (pid, p)))
    }

    /// Whether `pid` carries a program (running a callback or not).
    pub fn has_program(&self, pid: Pid) -> bool {
        self.programs.contains_key(&pid)
    }

    /// Callbacks held for stopped processes, in pid order.
    pub fn held(&self) -> impl Iterator<Item = (Pid, &[Callback])> {
        self.held.iter().map(|(&pid, cbs)| (pid, cbs.as_slice()))
    }

    /// Kernel events queued toward each tracer, in tracer pid order.
    pub fn kernel_queue(&self) -> impl Iterator<Item = (Pid, &[KernelMsg])> {
        self.kernel_queue
            .iter()
            .map(|(&pid, msgs)| (pid, msgs.as_slice()))
    }

    /// Whether kernel events wait for `tracer`'s next wakeup.
    pub fn has_kernel_batch(&self, tracer: Pid) -> bool {
        self.kernel_queue
            .get(&tracer)
            .is_some_and(|q| !q.is_empty())
    }

    /// Discards the events queued toward `tracer` (a backend that drops a
    /// dead tracer's undelivered batch instead of flushing it to nobody).
    pub fn discard_kernel_batch(&mut self, tracer: Pid) {
        self.kernel_queue.remove(&tracer);
    }

    /// The pid of the live service `name`, if it runs.
    pub fn service(&self, name: &str) -> Option<Pid> {
        self.services
            .get(name)
            .copied()
            .filter(|&pid| self.kernel.get(pid).is_some_and(Process::is_alive))
    }

    /// Records that service `name` runs as `pid`; its exit unregisters it.
    pub fn register_service(&mut self, name: &str, pid: Pid) {
        self.services.insert(name.to_string(), pid);
    }

    /// Names of the registered services, sorted.
    pub fn service_names(&self) -> Vec<String> {
        self.services.keys().cloned().collect()
    }

    /// Takes the services that were running at the last crash (a restart
    /// re-runs them, the way init re-runs /etc/rc after a power failure).
    pub fn take_crashed_services(&mut self) -> Vec<String> {
        std::mem::take(&mut self.crashed_services)
    }

    /// `ps`-style info about one process (any state).
    pub fn proc_info(&self, pid: Pid) -> Option<ProcInfo> {
        self.kernel.get(pid).map(ProcInfo::from)
    }

    /// Live processes of `uid`, in pid order.
    pub fn user_processes(&self, uid: Uid) -> Vec<ProcInfo> {
        let procs = self.kernel.user_processes(uid);
        procs.into_iter().map(ProcInfo::from).collect()
    }

    /// The descriptor table of `pid`, if `caller` owns it (or is root).
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchProcess`] or [`SysError::PermissionDenied`].
    pub fn open_fds(&self, caller: Uid, pid: Pid) -> Result<Vec<(Fd, FdKind)>, SysError> {
        let p = self.kernel.live(pid)?;
        if p.uid != caller && !caller.is_root() {
            return Err(SysError::PermissionDenied);
        }
        Ok(p.fds.iter().map(|(fd, k)| (fd, k.clone())).collect())
    }

    /// Allocates `pid`'s kernel socket descriptor.
    pub fn register_kernel_socket(&mut self, pid: Pid) -> Fd {
        let p = self.kernel.get_mut(pid).expect("caller is alive");
        p.fds.alloc(FdKind::KernelSocket)
    }

    /// Stable storage: writes a record. Survives process exits and host
    /// crashes.
    pub fn stable_put(&mut self, key: String, value: Bytes) {
        self.stable.insert(key, value);
    }

    /// Stable storage: reads a record.
    pub fn stable_get(&self, key: &str) -> Option<Bytes> {
        self.stable.get(key).cloned()
    }

    /// Stable storage: deletes a record.
    pub fn stable_del(&mut self, key: &str) {
        self.stable.remove(key);
    }

    /// Stable storage, in key order.
    pub fn stable(&self) -> impl Iterator<Item = (&str, &Bytes)> {
        self.stable.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Marks a live process CPU-bound, or not.
    pub fn set_cpu_bound(&mut self, pid: Pid, yes: bool) {
        if let Ok(p) = self.kernel.live_mut(pid) {
            p.cpu_bound = yes;
        }
    }
}

/// A backend's ordering policy: how the core's follow-on work is queued
/// and when it runs. The core decides *what* happens; the policy decides
/// *when*.
pub trait Policy {
    /// The syscall view a callback receives.
    type Sys<'a>: Sys
    where
        Self: 'a;

    /// The backend clock.
    fn now(&self) -> Micros;

    /// A host's core.
    fn host(&self, host: HostId) -> &HostCore;

    /// A host's core, mutably.
    fn host_mut(&mut self, host: HostId) -> &mut HostCore;

    /// Whether the host is up (only the simulation crashes hosts).
    fn host_up(&self, host: HostId) -> bool {
        let _ = host;
        true
    }

    /// The syscall view bound to `key`, for one callback.
    fn sys(&mut self, key: ProcKey) -> Self::Sys<'_>;

    /// Records a trace entry attributed to `host`.
    fn trace(&mut self, host: HostId, category: TraceCategory, text: String);

    /// A kernel event was queued toward `tracer`. `starts_batch` is true
    /// for the first event of a wakeup: the policy arranges a later
    /// [`flush_kernel`].
    fn kernel_queued(&mut self, tracer: ProcKey, msg: &KernelMsg, starts_batch: bool);

    /// Encodes a flushed batch into the frame `on_kernel_batch` receives
    /// (the codec lives in the protocol layer, above this crate).
    fn kernel_frame(&mut self, tracer: ProcKey, msgs: &[KernelMsg]) -> Bytes;

    /// A signal was sent to `target`: arrange a later [`deliver_signal`].
    fn signal_sent(&mut self, target: ProcKey, signal: Signal);

    /// A child of the live process `parent` exited: arrange a later
    /// [`dispatch`] of [`Callback::ChildExit`].
    fn child_exited(&mut self, parent: ProcKey, child: Pid, status: ExitStatus);

    /// SIGCONT released a held callback: arrange a later [`dispatch`].
    fn resume(&mut self, key: ProcKey, callback: Callback);

    /// The process is busy until `at`: arrange a [`dispatch`] then.
    /// Backends that never mark processes busy keep the default.
    fn retry_at(&mut self, key: ProcKey, at: Micros, callback: Callback) {
        let _ = at;
        self.resume(key, callback);
    }

    /// The process exited and its sockets are torn down: drop the
    /// backend state it still owned (timers, pending moves).
    fn released(&mut self, key: ProcKey) {
        let _ = key;
    }

    // ---- the wire (see [`socket`]) --------------------------------------

    /// Binds the backend side of a listener the core admitted.
    ///
    /// # Errors
    ///
    /// A bind failure; the core then records no listener.
    fn listen_wire(&mut self, key: ProcKey, port: Port) -> Result<(), SysError> {
        let _ = (key, port);
        Ok(())
    }

    /// Starts a connection attempt: its id and whether it is in flight.
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchHost`] for an invalid host id.
    fn dial(&mut self, from: ProcKey, host: HostId, port: Port)
        -> Result<(ConnId, Dial), SysError>;

    /// Puts `data` on the wire from an established endpoint.
    ///
    /// # Errors
    ///
    /// A local write failure ([`SysError::ConnectionClosed`]).
    fn transmit(&mut self, from: ProcKey, conn: ConnId, data: Bytes) -> Result<(), SysError>;

    /// `end`'s endpoint has just closed: tell the peer, behind the data
    /// already in flight toward it.
    fn hang_up(&mut self, end: ProcKey, conn: ConnId, how: Teardown);

    /// Whether the route from `end` to its peer is up right now; backends
    /// without that view answer `true` and rely on send errors.
    fn route_alive(&self, end: ProcKey, conn: ConnId) -> bool {
        let _ = (end, conn);
        true
    }
}

/// Whether the process exists, is alive, and its host is up.
pub fn is_alive<P: Policy>(w: &P, key: ProcKey) -> bool {
    w.host_up(key.0)
        && w.host(key.0)
            .kernel
            .get(key.1)
            .is_some_and(Process::is_alive)
}

/// Creates a process on `host` under `parent` in the `Embryo` state.
/// Children of a live parent inherit its tracer and flags ("Adoption
/// allows the LPM to keep track of a process and its descendants"), and
/// the tracer hears `Fork`. The caller's policy schedules the [`start`].
///
/// # Errors
///
/// [`SysError::HostDown`].
pub fn spawn<P: Policy>(
    w: &mut P,
    host: HostId,
    parent: Pid,
    uid: Uid,
    spec: SpawnSpec,
) -> Result<Pid, SysError> {
    if !w.host_up(host) {
        return Err(SysError::HostDown);
    }
    let now = w.now();
    let hc = w.host_mut(host);
    let pid = hc.kernel.alloc_pid();
    let mut proc = Process::new(pid, parent, uid, spec.command, now);
    proc.cpu_bound = spec.cpu_bound;
    if let Some(pp) = hc.kernel.get(parent).filter(|p| p.is_alive()) {
        proc.tracer = pp.tracer;
        proc.trace_flags = pp.trace_flags;
    }
    let traced = proc.is_adopted();
    hc.kernel.insert(proc);
    if let Some(program) = spec.program {
        hc.programs.insert(pid, Some(program));
    }
    if traced {
        emit(w, host, KernelEvent::Fork { parent, child: pid });
    }
    Ok(pid)
}

/// The kill syscall: `from` may signal the live `target` if it owns it
/// (or is root); the policy schedules the delivery.
///
/// # Errors
///
/// [`SysError::HostDown`], [`SysError::NoSuchProcess`] or
/// [`SysError::PermissionDenied`].
pub fn post_signal<P: Policy>(
    w: &mut P,
    from: Uid,
    target: ProcKey,
    signal: Signal,
) -> Result<(), SysError> {
    if !w.host_up(target.0) {
        return Err(SysError::HostDown);
    }
    let p = w.host(target.0).kernel.live(target.1)?;
    if p.uid != from && !from.is_root() {
        return Err(SysError::PermissionDenied);
    }
    w.signal_sent(target, signal);
    Ok(())
}

/// The adopt syscall (the paper's extended `ptrace`): `tracer`, acting
/// as `uid`, adopts `target` on its own host with `flags`.
///
/// # Errors
///
/// See [`Kernel::adopt`].
pub fn adopt<P: Policy>(
    w: &mut P,
    tracer: ProcKey,
    uid: Uid,
    target: Pid,
    flags: TraceFlags,
) -> Result<(), SysError> {
    let (host, pid) = tracer;
    w.host_mut(host).kernel.adopt(target, pid, uid, flags)?;
    let text = format!("adopted pid {target} with flags {flags}");
    w.trace(host, TraceCategory::Lpm, text);
    Ok(())
}

/// The deferred half of spawn: the process begins execution.
pub fn start<P: Policy>(w: &mut P, key: ProcKey) {
    if !is_alive(w, key) {
        return;
    }
    let (host, pid) = key;
    let command = {
        let p = w.host_mut(host).kernel.get_mut(pid).expect("alive");
        p.state = ProcState::Running;
        p.command.clone()
    };
    emit(w, host, KernelEvent::Exec { pid, command });
    dispatch(w, key, Callback::Start);
}

/// Terminates a process: exit bookkeeping, the `Exit` event, its
/// services, program and held callbacks, its listeners and sockets, the
/// backend state it owned, and the parent's notification.
pub fn exit<P: Policy>(w: &mut P, key: ProcKey, status: ExitStatus) {
    if !is_alive(w, key) {
        return;
    }
    let (host, pid) = key;
    let now = w.now();
    let hc = w.host_mut(host);
    hc.kernel.finish_exit(pid, status, now);
    let (rusage, ppid) = {
        let p = hc.kernel.get(pid).expect("just exited");
        (p.rusage, p.ppid)
    };
    hc.services.retain(|_, &mut owner| owner != pid);
    hc.programs.remove(&pid);
    hc.held.remove(&pid);
    w.trace(host, TraceCategory::Kernel, format!("pid {pid} {status}"));
    emit(
        w,
        host,
        KernelEvent::Exit {
            pid,
            status,
            rusage,
        },
    );
    socket::release(w, key);
    w.released(key);
    if ppid != pid && is_alive(w, (host, ppid)) {
        w.child_exited((host, ppid), pid, status);
    }
}

/// Routes a kernel event about a process on `host` toward its tracer,
/// subject to the tracing flags. An LPM does not report itself to
/// itself, and a dead tracer hears nothing.
pub fn emit<P: Policy>(w: &mut P, host: HostId, event: KernelEvent) {
    let pid = event.pid();
    let Some(p) = w.host(host).kernel.get(pid) else {
        return;
    };
    let Some(tracer) = p.tracer else { return };
    if !p.trace_flags.contains(event.required_flag())
        || tracer == pid
        || !is_alive(w, (host, tracer))
    {
        return;
    }
    let msg = KernelMsg {
        event,
        queued_at: w.now(),
    };
    let starts_batch = !w.host(host).has_kernel_batch(tracer);
    w.kernel_queued((host, tracer), &msg, starts_batch);
    w.host_mut(host)
        .kernel_queue
        .entry(tracer)
        .or_default()
        .push(msg);
}

/// The `open` syscall: allocates a descriptor and reports `FileOpened`.
pub fn open_file<P: Policy>(w: &mut P, key: ProcKey, path: String, mode: OpenMode) -> Fd {
    let (host, pid) = key;
    let p = w
        .host_mut(host)
        .kernel
        .live_mut(pid)
        .expect("caller is alive");
    p.rusage.files_opened += 1;
    let fd = p.fds.alloc(FdKind::File {
        path: path.clone(),
        mode,
    });
    emit(w, host, KernelEvent::FileOpened { pid, path });
    fd
}

/// The `close` syscall on a descriptor: a file reports `FileClosed`; a
/// socket closes its endpoint as [`socket::close`] does.
///
/// # Errors
///
/// [`SysError::BadFileDescriptor`].
pub fn close_fd<P: Policy>(w: &mut P, key: ProcKey, fd: Fd) -> Result<(), SysError> {
    let (host, pid) = key;
    let p = w.host_mut(host).kernel.live_mut(pid);
    match p.map_err(|_| SysError::BadFileDescriptor)?.fds.release(fd) {
        Some(FdKind::File { path, .. }) => emit(w, host, KernelEvent::FileClosed { pid, path }),
        Some(FdKind::Socket { conn }) => {
            let _ = socket::close(w, key, conn);
        }
        Some(_) => {}
        None => return Err(SysError::BadFileDescriptor),
    }
    Ok(())
}

/// Delivers the events queued toward `tracer` as one batch frame.
pub fn flush_kernel<P: Policy>(w: &mut P, tracer: ProcKey) {
    let Some(msgs) = w.host_mut(tracer.0).kernel_queue.remove(&tracer.1) else {
        return;
    };
    if msgs.is_empty() {
        return;
    }
    let frame = w.kernel_frame(tracer, &msgs);
    dispatch(w, tracer, Callback::KernelBatch(frame));
}

/// Delivers a signal to a live process. The delivery itself is counted
/// and reported first; then STOP stops, CONT continues and releases held
/// callbacks, KILL kills, and any other signal runs the program's handler
/// and, unless handled, its default action.
pub fn deliver_signal<P: Policy>(w: &mut P, key: ProcKey, signal: Signal) {
    if !is_alive(w, key) {
        return;
    }
    let (host, pid) = key;
    let p = w.host_mut(host).kernel.get_mut(pid).expect("alive");
    p.rusage.signals_received += 1;
    emit(w, host, KernelEvent::SignalDelivered { pid, signal });
    w.trace(
        host,
        TraceCategory::Kernel,
        format!("{signal} delivered to pid {pid}"),
    );
    match signal {
        Signal::Stop => {
            let p = w.host_mut(host).kernel.get_mut(pid).expect("alive");
            if p.state == ProcState::Running {
                p.state = ProcState::Stopped;
                emit(w, host, KernelEvent::Stopped { pid });
            }
        }
        Signal::Cont => {
            let p = w.host_mut(host).kernel.get_mut(pid).expect("alive");
            if p.state == ProcState::Stopped {
                p.state = ProcState::Running;
                emit(w, host, KernelEvent::Continued { pid });
                let held = w.host_mut(host).held.remove(&pid).unwrap_or_default();
                for callback in held {
                    w.resume(key, callback);
                }
            }
        }
        Signal::Kill => exit(w, key, ExitStatus::Signaled(Signal::Kill)),
        other => {
            let action = run(w, key, |prog, sys| prog.on_signal(sys, other));
            if action.is_none_or(|a| a == SigAction::Default)
                && other.is_fatal_by_default()
                && is_alive(w, key)
            {
                exit(w, key, ExitStatus::Signaled(other));
            }
        }
    }
}

/// Runs one callback for a process. A stopped process holds it until
/// SIGCONT; a busy one gets timers, messages and kernel batches back once
/// idle; a process without a program ignores it.
pub fn dispatch<P: Policy>(w: &mut P, key: ProcKey, callback: Callback) {
    if !is_alive(w, key) {
        return;
    }
    let (host, pid) = key;
    let now = w.now();
    let hc = w.host_mut(host);
    let p = hc.kernel.get(pid).expect("alive");
    if p.state == ProcState::Stopped {
        hc.held.entry(pid).or_default().push(callback);
        return;
    }
    let busy_until = p.busy_until;
    if callback.waits_for_idle() && busy_until > now {
        w.retry_at(key, busy_until, callback);
        return;
    }
    if let Callback::Message(_, data) = &callback {
        if !hc.has_program(pid) {
            return;
        }
        let bytes = data.len();
        let p = hc.kernel.get_mut(pid).expect("alive");
        p.rusage.msgs_received += 1;
        p.rusage.bytes_received += bytes as u64;
        emit(w, host, KernelEvent::MsgReceived { pid, bytes });
    }
    run(w, key, |prog, sys| callback.invoke(prog, sys));
}

/// The take-run-reinsert seam: the program leaves its slot for the
/// duration of the callback, so the callback may re-enter the core for
/// other processes. The slot is refilled only if the process survived.
/// A panic kills the process by SIGKILL and yields `None`.
fn run<P: Policy, R>(
    w: &mut P,
    key: ProcKey,
    f: impl FnOnce(&mut dyn Program, &mut dyn Sys) -> R,
) -> Option<R> {
    let (host, pid) = key;
    let mut prog = w.host_mut(host).programs.get_mut(&pid)?.take()?;
    let outcome = {
        let mut sys = w.sys(key);
        panic::catch_unwind(AssertUnwindSafe(|| f(prog.as_mut(), &mut sys)))
    };
    match outcome {
        Ok(r) => {
            if let Some(slot) = w.host_mut(host).programs.get_mut(&pid) {
                *slot = Some(prog);
            }
            Some(r)
        }
        Err(_) => {
            drop(prog);
            w.trace(
                host,
                TraceCategory::Kernel,
                format!("pid {pid} panicked in a callback"),
            );
            exit(w, key, ExitStatus::Signaled(Signal::Kill));
            None
        }
    }
}
