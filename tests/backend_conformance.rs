//! Backend conformance: one suite of observation programs, run over the
//! simulated runtime, the real loopback runtime and the model checker's
//! world through the [`Runtime`] facade.
//!
//! The programs report what they observed through stable storage (the
//! facade's only introspection channel), so the assertions are identical
//! for every backend: message ordering over a connection, timer firing
//! and cancellation, deadline expiry against the backend clock, refused
//! connects, close notification, child-exit plus kernel-event delivery
//! for adopted processes, stop/continue holding a pending timer, the
//! `SignalDelivered` report for every signal, and a panicking callback
//! turning into the death of its process by SIGKILL.
//!
//! The socket layer is checked the same way: a send before the handshake
//! completes is refused with `NotConnected`; a send is charged to the
//! sender (`msgs_sent`) and reported to an IPC tracer (`MsgSent`); a
//! listener holds a `Listener` descriptor; an endpoint holds a `Socket`
//! descriptor after `connect` and after `Accepted`, and loses it after
//! its own close, after a `Closed` event and after a refused connect; a
//! second `listen` on a held port reads `PortInUse` until the holder
//! exits; and a reply sent just before its sender exits arrives before
//! the `Closed` notice (close-after-data on exit).

use bytes::Bytes;

use ppm_core::pmd::PmdOptions;
use ppm_core::users::UserDirectory;
use ppm_mc::McWorld;
use ppm_proto::kernel_wire::for_each_kernel_msg;
use ppm_runtime::events::{KernelEvent, TraceFlags};
use ppm_runtime::fd::FdKind;
use ppm_runtime::ids::{ConnId, CpuClass, HostId, Pid, Port, Uid};
use ppm_runtime::program::{ConnEvent, KernelMsg, Program, SigAction, SpawnSpec, SysError};
use ppm_runtime::rt::Runtime;
use ppm_runtime::signal::{ExitStatus, Signal};
use ppm_runtime::sys::Sys;
use ppm_runtime::time::{Micros, SimDuration};

const USER: Uid = Uid(100);
const ECHO_PORT: Port = Port(40);
const CLOSER_PORT: Port = Port(41);
const DEAD_PORT: Port = Port(99);
const SOCK_PORT: Port = Port(42);
const REPLY_PORT: Port = Port(43);
const HOLD_PORT: Port = Port(44);

/// Whether the caller holds a descriptor of `kind`.
fn holds(sys: &dyn Sys, kind: &FdKind) -> bool {
    sys.open_fds(sys.pid())
        .is_ok_and(|fds| fds.iter().any(|(_, k)| k == kind))
}

/// `"socket"` while the caller holds `conn`'s descriptor, else `"none"`.
fn socket_fd(sys: &dyn Sys, conn: ConnId) -> &'static str {
    if holds(sys, &FdKind::Socket { conn }) {
        "socket"
    } else {
        "none"
    }
}

/// Polls a stable-storage key while letting the backend run.
fn wait_for<R: Runtime>(rt: &mut R, host: HostId, key: &str, budget_ms: u64) -> Option<Bytes> {
    let step = 20;
    let mut waited = 0;
    loop {
        if let Some(v) = rt.stable_get(host, key) {
            return Some(v);
        }
        if waited >= budget_ms {
            return None;
        }
        rt.run(SimDuration::from_millis(step));
        waited += step;
    }
}

/// Listens and echoes every message back on the same connection.
struct EchoServer {
    port: Port,
}

impl Program for EchoServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(self.port).expect("echo port free");
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let _ = sys.send(conn, data);
    }

    fn name(&self) -> &str {
        "echo-server"
    }
}

/// Connects to the echo server, sends three messages after establishment,
/// and records the concatenated echoes — proving per-connection FIFO
/// ordering end to end.
struct OrderClient {
    server: HostId,
    got: Vec<u8>,
}

impl Program for OrderClient {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, ECHO_PORT).expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if event == ConnEvent::Established {
            for part in [&b"a"[..], b"b", b"c"] {
                let _ = sys.send(conn, Bytes::copy_from_slice(part));
            }
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, _conn: ConnId, data: Bytes) {
        self.got.extend_from_slice(&data);
        if self.got.len() >= 3 {
            sys.stable_put("conf.order", Bytes::copy_from_slice(&self.got));
        }
    }

    fn name(&self) -> &str {
        "order-client"
    }
}

/// Arms three timers, cancels the middle one, and records the firing
/// order of the survivors.
struct TimerProg {
    fired: Vec<u64>,
}

impl Program for TimerProg {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(60), 1);
        let doomed = sys.set_timer(SimDuration::from_millis(40), 3);
        sys.set_timer(SimDuration::from_millis(20), 2);
        assert!(sys.cancel_timer(doomed), "pending timer cancels");
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        self.fired.push(token);
        if self.fired.len() == 2 {
            let order = self
                .fired
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            sys.stable_put("conf.timers", order);
        }
    }

    fn name(&self) -> &str {
        "timer-prog"
    }
}

/// Arms a deadline and checks the backend clock actually reached it when
/// the timer fires.
struct DeadlineProg {
    armed_at: Micros,
}

impl Program for DeadlineProg {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.armed_at = sys.now();
        sys.set_timer(SimDuration::from_millis(25), 9);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        let elapsed = sys.now().saturating_since(self.armed_at);
        let verdict: &[u8] = if elapsed.as_micros() >= 25_000 {
            b"expired"
        } else {
            b"early"
        };
        sys.stable_put("conf.deadline", Bytes::from_static(verdict));
    }

    fn name(&self) -> &str {
        "deadline-prog"
    }
}

/// Connects to a port nobody listens on and records the failure and
/// whether a descriptor outlived it.
struct RefusedClient {
    server: HostId,
}

impl Program for RefusedClient {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, DEAD_PORT).expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if event == ConnEvent::Failed(SysError::ConnectionRefused) {
            sys.stable_put("conf.refused", Bytes::from_static(b"refused"));
            let fd = socket_fd(sys, conn);
            sys.stable_put("conf.fd.refused", fd);
        }
    }

    fn name(&self) -> &str {
        "refused-client"
    }
}

/// Accepts one connection and exits on the first message, so the peer
/// observes a close.
struct CloserServer;

impl Program for CloserServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(CLOSER_PORT).expect("closer port free");
    }

    fn on_message(&mut self, sys: &mut dyn Sys, _conn: ConnId, _data: Bytes) {
        sys.exit(0);
    }

    fn name(&self) -> &str {
        "closer-server"
    }
}

/// Sends one message and records the close notification that follows the
/// server's exit.
struct CloseWatcher {
    server: HostId,
}

impl Program for CloseWatcher {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, CLOSER_PORT)
            .expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        match event {
            ConnEvent::Established => {
                let _ = sys.send(conn, Bytes::from_static(b"x"));
            }
            ConnEvent::Closed => {
                sys.stable_put("conf.closed", Bytes::from_static(b"closed"));
                let fd = socket_fd(sys, conn);
                sys.stable_put("conf.fd.closed", fd);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "close-watcher"
    }
}

/// Listens, checks its `Listener` descriptor and that listening again on
/// the same port is refused, and echoes like [`EchoServer`]; records
/// whether an accepted endpoint holds a `Socket` descriptor.
struct SockServer;

impl Program for SockServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(SOCK_PORT).expect("sock port free");
        let listener = if holds(sys, &FdKind::Listener { port: SOCK_PORT }) {
            "listener"
        } else {
            "none"
        };
        sys.stable_put("conf.fd.listen", listener);
        let again = sys.listen(SOCK_PORT);
        sys.stable_put("conf.relisten", format!("{again:?}"));
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if let ConnEvent::Accepted { .. } = event {
            let fd = socket_fd(sys, conn);
            sys.stable_put("conf.fd.accept", fd);
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, data: Bytes) {
        let _ = sys.send(conn, data);
    }

    fn name(&self) -> &str {
        "sock-server"
    }
}

/// Sends before its handshake completes, then once established; records
/// the early send's result, its descriptor after `connect` and after its
/// own close, and its `msgs_sent` after the one send that went out.
struct EarlySender {
    server: HostId,
    closed: bool,
}

impl Program for EarlySender {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let conn = sys.connect(self.server, SOCK_PORT).expect("connect starts");
        let early = sys.send(conn, Bytes::from_static(b"early"));
        sys.stable_put("conf.early", format!("{early:?}"));
        let fd = socket_fd(sys, conn);
        sys.stable_put("conf.fd.connect", fd);
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        if event == ConnEvent::Established {
            let _ = sys.send(conn, Bytes::from_static(b"hello"));
            let sent = sys.rusage_of(sys.pid()).map_or(0, |r| r.msgs_sent);
            sys.stable_put("conf.sent", format!("msgs_sent:{sent}"));
        }
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, _data: Bytes) {
        if !self.closed {
            self.closed = true;
            let _ = sys.close(conn);
            let fd = socket_fd(sys, conn);
            sys.stable_put("conf.fd.close", fd);
        }
    }

    fn name(&self) -> &str {
        "early-sender"
    }
}

/// Spawns an [`EarlySender`], adopts it with IPC tracing, and records the
/// first `MsgSent` its kernel socket reports about the child.
struct IpcTracer {
    server: HostId,
    child: Option<Pid>,
}

impl Program for IpcTracer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        let child = EarlySender {
            server: self.server,
            closed: false,
        };
        let pid = sys
            .spawn(SpawnSpec::new("early-sender", Box::new(child)))
            .expect("spawn child");
        sys.adopt(pid, TraceFlags::PROC | TraceFlags::IPC)
            .expect("adopt own child");
        self.child = Some(pid);
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        let mut msgs = Vec::new();
        for_each_kernel_msg(&data, |m| msgs.push(m));
        for msg in msgs {
            if let KernelEvent::MsgSent { pid, bytes } = msg.event {
                if Some(pid) == self.child && sys.stable_get("conf.msgsent").is_none() {
                    sys.stable_put("conf.msgsent", format!("bytes:{bytes}"));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "ipc-tracer"
    }
}

/// Answers the first message with a 2000-byte reply and exits in the
/// same callback.
struct ReplyExitServer;

impl Program for ReplyExitServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(REPLY_PORT).expect("reply port free");
    }

    fn on_message(&mut self, sys: &mut dyn Sys, conn: ConnId, _data: Bytes) {
        let _ = sys.send(conn, vec![7u8; 2000]);
        sys.exit(0);
    }

    fn name(&self) -> &str {
        "reply-exit-server"
    }
}

/// Asks the [`ReplyExitServer`] once and records what arrives, in order.
struct ReplyWatcher {
    server: HostId,
    seen: Vec<String>,
}

impl Program for ReplyWatcher {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.connect(self.server, REPLY_PORT)
            .expect("connect starts");
    }

    fn on_conn_event(&mut self, sys: &mut dyn Sys, conn: ConnId, event: ConnEvent) {
        match event {
            ConnEvent::Established => {
                let _ = sys.send(conn, Bytes::from_static(b"q"));
            }
            ConnEvent::Closed => {
                self.seen.push("closed".to_string());
                sys.stable_put("conf.exit_order", self.seen.join(","));
            }
            _ => {}
        }
    }

    fn on_message(&mut self, _sys: &mut dyn Sys, _conn: ConnId, data: Bytes) {
        self.seen.push(format!("msg{}", data.len()));
    }

    fn name(&self) -> &str {
        "reply-watcher"
    }
}

/// Holds a listener on [`HOLD_PORT`] for 600 ms, then exits.
struct PortHolder;

impl Program for PortHolder {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(HOLD_PORT).expect("hold port free");
        sys.set_timer(SimDuration::from_millis(600), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(0);
    }

    fn name(&self) -> &str {
        "port-holder"
    }
}

/// Tries to bind [`HOLD_PORT`] while the [`PortHolder`] has it, and again
/// after it exited; records both results.
struct PortTaker {
    first: String,
}

impl Program for PortTaker {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        self.first = format!("{:?}", sys.listen(HOLD_PORT));
        sys.set_timer(SimDuration::from_millis(1200), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        let second = sys.listen(HOLD_PORT);
        sys.stable_put("conf.rebind", format!("{},{second:?}", self.first));
    }

    fn name(&self) -> &str {
        "port-taker"
    }
}

/// Exits with code 7 shortly after starting.
struct ShortChild;

impl Program for ShortChild {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(15), 1);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(7);
    }

    fn name(&self) -> &str {
        "short-child"
    }
}

/// Spawns and adopts a child, then records both notification paths: the
/// parent's `on_child_exit` and the tracer's kernel Exit event.
struct ParentProg {
    child: Option<Pid>,
}

impl ParentProg {
    fn note_kernel(&mut self, sys: &mut dyn Sys, msg: KernelMsg) {
        if let KernelEvent::Exit {
            pid,
            status: ExitStatus::Code(code),
            ..
        } = msg.event
        {
            if Some(pid) == self.child {
                sys.stable_put("conf.kexit", format!("code:{code}"));
            }
        }
    }
}

impl Program for ParentProg {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        let pid = sys
            .spawn(SpawnSpec::new("short-child", Box::new(ShortChild)))
            .expect("spawn child");
        sys.adopt(pid, TraceFlags::PROC).expect("adopt own child");
        self.child = Some(pid);
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, child: Pid, status: ExitStatus) {
        if Some(child) == self.child && status == ExitStatus::Code(7) {
            sys.stable_put("conf.child", Bytes::from_static(b"code:7"));
        }
    }

    fn on_kernel_event(&mut self, sys: &mut dyn Sys, msg: KernelMsg) {
        self.note_kernel(sys, msg);
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        let mut msgs = Vec::new();
        for_each_kernel_msg(&data, |m| msgs.push(m));
        for msg in msgs {
            self.note_kernel(sys, msg);
        }
    }

    fn name(&self) -> &str {
        "parent-prog"
    }
}

/// Arms a timer on start and records the backend clock when it fires.
struct SleepyChild;

impl Program for SleepyChild {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(300), 1);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        let at = sys.now().as_micros().to_string();
        sys.stable_put("conf.stop.fired", at);
    }

    fn name(&self) -> &str {
        "sleepy-child"
    }
}

/// Spawns a [`SleepyChild`], stops it before its timer is due and
/// continues it well after, recording when SIGCONT was sent.
struct StopContParent {
    child: Option<Pid>,
}

impl Program for StopContParent {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let spec = SpawnSpec::new("sleepy-child", Box::new(SleepyChild));
        self.child = Some(sys.spawn(spec).expect("spawn child"));
        sys.set_timer(SimDuration::from_millis(200), 0);
        sys.set_timer(SimDuration::from_millis(800), 1);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        let child = self.child.expect("spawned");
        if token == 0 {
            sys.kill(child, Signal::Stop).expect("stop child");
        } else {
            let at = sys.now().as_micros().to_string();
            sys.stable_put("conf.stop.cont_at", at);
            sys.kill(child, Signal::Cont).expect("continue child");
        }
    }

    fn name(&self) -> &str {
        "stop-cont-parent"
    }
}

/// Catches SIGTERM and exits with code 3 from inside the handler.
struct TermCatcher;

impl Program for TermCatcher {
    fn on_signal(&mut self, sys: &mut dyn Sys, signal: Signal) -> SigAction {
        if signal == Signal::Term {
            sys.exit(3);
        }
        SigAction::Handled
    }

    fn name(&self) -> &str {
        "term-catcher"
    }
}

/// Spawns and adopts a child, sends it `plan` one signal per 100 ms once
/// it runs, and records the signal and exit events its kernel socket
/// reports about the child, in order, under `key` once the child exits.
struct SignalTracer {
    key: &'static str,
    make_child: fn() -> SpawnSpec,
    plan: Vec<Signal>,
    child: Option<Pid>,
    seen: Vec<String>,
}

impl SignalTracer {
    fn note(&mut self, sys: &mut dyn Sys, msg: KernelMsg) {
        let line = match msg.event {
            KernelEvent::SignalDelivered { pid, signal } if Some(pid) == self.child => {
                format!("sig {signal}")
            }
            KernelEvent::Stopped { pid } if Some(pid) == self.child => "stop".to_string(),
            KernelEvent::Continued { pid } if Some(pid) == self.child => "cont".to_string(),
            KernelEvent::Exit { pid, status, .. } if Some(pid) == self.child => {
                self.seen.push(status.to_string());
                sys.stable_put(self.key, self.seen.join(","));
                return;
            }
            _ => return,
        };
        self.seen.push(line);
    }
}

impl Program for SignalTracer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        let pid = sys.spawn((self.make_child)()).expect("spawn child");
        sys.adopt(pid, TraceFlags::PROC | TraceFlags::SIGNALS)
            .expect("adopt own child");
        self.child = Some(pid);
        for i in 0..self.plan.len() {
            sys.set_timer(SimDuration::from_millis(200 + 100 * i as u64), i as u64);
        }
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, token: u64) {
        let signal = self.plan[token as usize];
        sys.kill(self.child.expect("spawned"), signal)
            .expect("signal own child");
    }

    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: Bytes) {
        let mut msgs = Vec::new();
        for_each_kernel_msg(&data, |m| msgs.push(m));
        for msg in msgs {
            self.note(sys, msg);
        }
    }

    fn name(&self) -> &str {
        "signal-tracer"
    }
}

/// Panics in its first timer callback.
struct PanicChild;

impl Program for PanicChild {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_millis(20), 1);
    }

    fn on_timer(&mut self, _sys: &mut dyn Sys, _token: u64) {
        panic!("deliberate panic in on_timer");
    }

    fn name(&self) -> &str {
        "panic-child"
    }
}

/// Spawns a [`PanicChild`] and records how its child exit reads.
struct PanicParent;

impl Program for PanicParent {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.spawn(SpawnSpec::new("panic-child", Box::new(PanicChild)))
            .expect("spawn child");
    }

    fn on_child_exit(&mut self, sys: &mut dyn Sys, _child: Pid, status: ExitStatus) {
        sys.stable_put("conf.panic", status.to_string());
    }

    fn name(&self) -> &str {
        "panic-parent"
    }
}

/// Parses a recorded microsecond instant.
fn micros(v: Option<Bytes>) -> Option<u64> {
    v.map(|v| {
        std::str::from_utf8(&v)
            .expect("utf-8")
            .parse()
            .expect("a number")
    })
}

/// Runs the whole suite against one backend.
fn conformance_suite<R: Runtime>(rt: &mut R) {
    let alpha = rt.add_host("alpha", CpuClass::Vax780);
    let beta = rt.add_host("beta", CpuClass::Vax780);

    // Servers first; give them time to bind.
    rt.spawn_user(
        beta,
        USER,
        SpawnSpec::new("echo-server", Box::new(EchoServer { port: ECHO_PORT })),
    )
    .expect("spawn echo server");
    rt.spawn_user(
        beta,
        USER,
        SpawnSpec::new("closer-server", Box::new(CloserServer)),
    )
    .expect("spawn closer server");
    for (command, program) in [
        ("sock-server", Box::new(SockServer) as Box<dyn Program>),
        ("reply-exit-server", Box::new(ReplyExitServer)),
        ("port-holder", Box::new(PortHolder)),
    ] {
        rt.spawn_user(beta, USER, SpawnSpec::new(command, program))
            .expect("spawn server");
    }
    rt.run(SimDuration::from_millis(120));

    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new(
            "order-client",
            Box::new(OrderClient {
                server: beta,
                got: Vec::new(),
            }),
        ),
    )
    .expect("spawn order client");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new("timer-prog", Box::new(TimerProg { fired: Vec::new() })),
    )
    .expect("spawn timer prog");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new(
            "deadline-prog",
            Box::new(DeadlineProg {
                armed_at: Micros::ZERO,
            }),
        ),
    )
    .expect("spawn deadline prog");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new("refused-client", Box::new(RefusedClient { server: beta })),
    )
    .expect("spawn refused client");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new("close-watcher", Box::new(CloseWatcher { server: beta })),
    )
    .expect("spawn close watcher");
    let parent = rt
        .spawn_user(
            beta,
            USER,
            SpawnSpec::new("parent-prog", Box::new(ParentProg { child: None })),
        )
        .expect("spawn parent");

    let stop_cont = rt
        .spawn_user(
            alpha,
            USER,
            SpawnSpec::new("stop-cont-parent", Box::new(StopContParent { child: None })),
        )
        .expect("spawn stop/cont parent");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new(
            "signal-tracer",
            Box::new(SignalTracer {
                key: "conf.sig.catch",
                make_child: || SpawnSpec::new("term-catcher", Box::new(TermCatcher)),
                plan: vec![Signal::Term],
                child: None,
                seen: Vec::new(),
            }),
        ),
    )
    .expect("spawn catch tracer");
    rt.spawn_user(
        alpha,
        USER,
        SpawnSpec::new(
            "signal-tracer",
            Box::new(SignalTracer {
                key: "conf.sig.uncatchable",
                make_child: || SpawnSpec::inert("sleeper"),
                plan: vec![Signal::Stop, Signal::Cont, Signal::Kill],
                child: None,
                seen: Vec::new(),
            }),
        ),
    )
    .expect("spawn stop/cont/kill tracer");
    let panic_parent = rt
        .spawn_user(
            beta,
            USER,
            SpawnSpec::new("panic-parent", Box::new(PanicParent)),
        )
        .expect("spawn panic parent");
    let ipc_tracer = IpcTracer {
        server: beta,
        child: None,
    };
    let reply_watcher = ReplyWatcher {
        server: beta,
        seen: Vec::new(),
    };
    for (host, command, program) in [
        (
            alpha,
            "ipc-tracer",
            Box::new(ipc_tracer) as Box<dyn Program>,
        ),
        (alpha, "reply-watcher", Box::new(reply_watcher)),
        (
            beta,
            "port-taker",
            Box::new(PortTaker {
                first: String::new(),
            }),
        ),
    ] {
        rt.spawn_user(host, USER, SpawnSpec::new(command, program))
            .expect("spawn socket probe");
    }

    let budget = 5_000;
    assert_eq!(
        wait_for(rt, alpha, "conf.order", budget).as_deref(),
        Some(&b"abc"[..]),
        "echoed messages arrive in send order"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.timers", budget).as_deref(),
        Some(&b"2,1"[..]),
        "timers fire shortest-delay first and cancelled timers never fire"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.deadline", budget).as_deref(),
        Some(&b"expired"[..]),
        "a timer never fires before its deadline on the backend clock"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.refused", budget).as_deref(),
        Some(&b"refused"[..]),
        "connecting to an unbound port reports ConnectionRefused"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.closed", budget).as_deref(),
        Some(&b"closed"[..]),
        "a peer exit surfaces as a Closed event"
    );
    assert_eq!(
        wait_for(rt, beta, "conf.child", budget).as_deref(),
        Some(&b"code:7"[..]),
        "the parent hears its child's exit status"
    );
    assert_eq!(
        wait_for(rt, beta, "conf.kexit", budget).as_deref(),
        Some(&b"code:7"[..]),
        "the tracer receives the kernel Exit event for an adopted child"
    );
    assert!(rt.is_alive(beta, parent), "the parent program is still up");
    let fired = micros(wait_for(rt, alpha, "conf.stop.fired", budget)).expect("timer fired");
    let cont_at = micros(rt.stable_get(alpha, "conf.stop.cont_at"));
    assert!(
        cont_at.is_some_and(|c| fired >= c),
        "a stopped process's timer waits for SIGCONT (fired at {fired} us, continued at {cont_at:?} us)"
    );
    assert!(
        rt.is_alive(alpha, stop_cont),
        "the stop/cont parent is still up"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.sig.catch", budget).as_deref(),
        Some(&b"sig SIGTERM,exit(3)"[..]),
        "a caught signal is reported before its handler runs"
    );
    assert_eq!(
        wait_for(rt, alpha, "conf.sig.uncatchable", budget).as_deref(),
        Some(&b"sig SIGSTOP,stop,sig SIGCONT,cont,sig SIGKILL,killed by SIGKILL"[..]),
        "STOP, CONT and KILL are each reported as delivered"
    );
    assert_eq!(
        wait_for(rt, beta, "conf.panic", budget).as_deref(),
        Some(&b"killed by SIGKILL"[..]),
        "a panicking callback kills its process by SIGKILL"
    );
    assert!(
        rt.is_alive(beta, panic_parent),
        "the panicking child's parent keeps running"
    );
    socket_layer_checks(rt, alpha, beta, budget);
    assert!(rt.now() > Micros::ZERO, "the backend clock advanced");
}

/// The socket layer's rules, read back from what the probes recorded.
fn socket_layer_checks<R: Runtime>(rt: &mut R, alpha: HostId, beta: HostId, budget: u64) {
    let expect = [
        (
            alpha,
            "conf.early",
            "Err(NotConnected)",
            "a send before Established is refused",
        ),
        (
            alpha,
            "conf.sent",
            "msgs_sent:1",
            "a send is charged to the sender",
        ),
        (
            alpha,
            "conf.msgsent",
            "bytes:5",
            "an IPC tracer hears MsgSent",
        ),
        (
            beta,
            "conf.fd.listen",
            "listener",
            "listen allocates a Listener descriptor",
        ),
        (
            beta,
            "conf.relisten",
            "Err(PortInUse)",
            "listening again on a held port is refused",
        ),
        (
            alpha,
            "conf.fd.connect",
            "socket",
            "connect allocates a Socket descriptor",
        ),
        (
            beta,
            "conf.fd.accept",
            "socket",
            "an accepted endpoint holds a Socket descriptor",
        ),
        (
            alpha,
            "conf.fd.close",
            "none",
            "our own close releases the descriptor",
        ),
        (
            alpha,
            "conf.fd.closed",
            "none",
            "a Closed event releases the descriptor",
        ),
        (
            alpha,
            "conf.fd.refused",
            "none",
            "a refused connect leaves no descriptor",
        ),
        (
            beta,
            "conf.rebind",
            "Err(PortInUse),Ok(())",
            "a held port binds again once its holder exits",
        ),
        (
            alpha,
            "conf.exit_order",
            "msg2000,closed",
            "a reply sent before exit arrives before the Closed notice",
        ),
    ];
    for (host, key, want, what) in expect {
        let got = wait_for(rt, host, key, budget);
        assert_eq!(
            got.as_deref().map(String::from_utf8_lossy).as_deref(),
            Some(want),
            "{what} ({key})"
        );
    }
}

#[test]
fn sim_backend_conforms() {
    let mut rt = ppm_simos::rt::SimRuntime::new(0xC0FFEE);
    conformance_suite(&mut rt);
}

#[test]
fn real_backend_conforms() {
    let mut rt = ppm_realos::RealRuntime::new();
    conformance_suite(&mut rt);
}

#[test]
fn mc_backend_conforms() {
    let mut rt = McWorld::new(
        &[],
        UserDirectory::new(),
        PmdOptions::default(),
        SimDuration::from_secs(3600),
    );
    conformance_suite(&mut rt);
}
