//! Integration tests of the simulated OS substrate: stream semantics,
//! failure propagation, signal dispositions, adoption inheritance,
//! deterministic replay, and the bookkeeping indices kept in step with
//! process and connection churn.

use bytes::Bytes;
use ppm_runtime::host::Policy;
use ppm_runtime::sys::Sys;
use ppm_simnet::latency::LatencyModel;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostSpec};
use ppm_simos::config::OsConfig;
use ppm_simos::events::{KernelEvent, TraceFlags};
use ppm_simos::fd::FdKind;
use ppm_simos::ids::{ConnId, Pid, Port, Uid};
use ppm_simos::net::ConnState;
use ppm_simos::process::ProcState;
use ppm_simos::program::{ConnEvent, KernelMsg, Program, SpawnSpec, SysError};
use ppm_simos::signal::{ExitStatus, Signal};
use ppm_simos::workload::{Chatter, EchoServer};
use ppm_simos::world::World;

use std::sync::{Arc, Mutex};

fn two_hosts(
    seed: u64,
) -> (
    World,
    ppm_simnet::topology::HostId,
    ppm_simnet::topology::HostId,
) {
    let mut w = World::new(seed);
    let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
    let b = w.add_host(HostSpec::new("b", CpuClass::Vax750));
    w.add_link(a, b);
    (w, a, b)
}

/// Client that records everything that happens to its connection.
struct Recorder {
    target: ppm_simnet::topology::HostId,
    port: Port,
    log: Arc<Mutex<Vec<String>>>,
    send_burst: usize,
}

impl Program for Recorder {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        let conn = sys.connect(self.target, self.port).expect("connect starts");
        self.log.lock().unwrap().push(format!("connecting {conn}"));
    }
    fn on_conn_event(&mut self, sys: &mut dyn Sys, _conn: ConnId, ev: ConnEvent) {
        self.log.lock().unwrap().push(format!("event {ev:?}"));
        if matches!(ev, ConnEvent::Established) {
            for i in 0..self.send_burst {
                let _ = sys.send(_conn, Bytes::from(vec![i as u8; 16]));
            }
        }
    }
    fn on_message(&mut self, _sys: &mut dyn Sys, _conn: ConnId, data: Bytes) {
        self.log.lock().unwrap().push(format!("msg {}", data[0]));
    }
    fn name(&self) -> &str {
        "recorder"
    }
}

#[test]
fn stream_messages_arrive_in_order() {
    let (mut w, a, b) = two_hosts(1);
    w.spawn_user(
        b,
        Uid(1),
        SpawnSpec::new("echod", Box::new(EchoServer { port: Port(9) })),
    )
    .unwrap();
    w.run_for(SimDuration::from_millis(200));
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(9),
                log: Arc::clone(&log),
                send_burst: 10,
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(3));
    let msgs: Vec<String> = log
        .lock()
        .unwrap()
        .iter()
        .filter(|l| l.starts_with("msg"))
        .cloned()
        .collect();
    assert_eq!(msgs.len(), 10, "{log:?}");
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(m, &format!("msg {i}"), "FIFO preserved");
    }
}

#[test]
fn connect_to_missing_listener_is_refused() {
    let (mut w, a, b) = two_hosts(2);
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(77),
                log: Arc::clone(&log),
                send_burst: 0,
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    assert!(
        log.lock()
            .unwrap()
            .iter()
            .any(|l| l.contains("Failed(ConnectionRefused)")),
        "{log:?}"
    );
}

#[test]
fn connect_to_crashed_host_fails_with_host_down() {
    let (mut w, a, b) = two_hosts(3);
    w.schedule_crash(b, SimDuration::from_millis(1));
    w.run_for(SimDuration::from_millis(50));
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(9),
                log: Arc::clone(&log),
                send_burst: 0,
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(3));
    assert!(
        log.lock()
            .unwrap()
            .iter()
            .any(|l| l.contains("Failed(HostDown)")),
        "{log:?}"
    );
}

#[test]
fn peer_exit_closes_the_connection() {
    let (mut w, a, b) = two_hosts(4);
    let server = w
        .spawn_user(
            b,
            Uid(1),
            SpawnSpec::new("echod", Box::new(EchoServer { port: Port(9) })),
        )
        .unwrap();
    w.run_for(SimDuration::from_millis(200));
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(9),
                log: Arc::clone(&log),
                send_burst: 0,
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_millis(500));
    w.post_signal(Uid(1), (b, server), Signal::Kill).unwrap();
    w.run_for(SimDuration::from_secs(1));
    assert!(
        log.lock()
            .unwrap()
            .iter()
            .any(|l| l.contains("event Closed")),
        "{log:?}"
    );
}

#[test]
fn partition_breaks_connections_on_send() {
    let (mut w, a, b) = two_hosts(5);
    w.spawn_user(
        b,
        Uid(1),
        SpawnSpec::new("echod", Box::new(EchoServer { port: Port(9) })),
    )
    .unwrap();
    w.run_for(SimDuration::from_millis(300));
    // Chatter with many rounds: the partition cuts it mid-conversation.
    let c = w
        .spawn_user(
            a,
            Uid(1),
            SpawnSpec::new("chat", Box::new(Chatter::new(b, Port(9), 64, 1000))),
        )
        .unwrap();
    w.schedule_link(a, b, false, SimDuration::from_millis(500));
    w.run_for(SimDuration::from_secs(5));
    let p = w.core().kernel(a).get(c).unwrap();
    assert_eq!(
        p.state,
        ProcState::Exited(ExitStatus::Code(1)),
        "chatter saw the break and exited with an error"
    );
    assert!(p.rusage.msgs_sent < 1000, "conversation was cut short");
}

#[test]
fn catchable_signal_default_kills_inert_processes() {
    let (mut w, a, _) = two_hosts(6);
    let pid = w.spawn_user(a, Uid(1), SpawnSpec::inert("victim")).unwrap();
    w.run_for(SimDuration::from_millis(200));
    w.post_signal(Uid(1), (a, pid), Signal::Term).unwrap();
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(
        w.core().kernel(a).get(pid).unwrap().state,
        ProcState::Exited(ExitStatus::Signaled(Signal::Term))
    );
}

#[test]
fn usr_signals_do_not_kill() {
    let (mut w, a, _) = two_hosts(7);
    let pid = w.spawn_user(a, Uid(1), SpawnSpec::inert("victim")).unwrap();
    w.run_for(SimDuration::from_millis(200));
    w.post_signal(Uid(1), (a, pid), Signal::Usr1).unwrap();
    w.post_signal(Uid(1), (a, pid), Signal::Usr2).unwrap();
    w.run_for(SimDuration::from_millis(100));
    let p = w.core().kernel(a).get(pid).unwrap();
    assert!(p.is_alive());
    assert_eq!(p.rusage.signals_received, 2);
}

/// Program that spawns a child after a delay; used to test trace-flag
/// inheritance (adoption happens before the fork).
struct Forker;
impl Program for Forker {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.set_timer(SimDuration::from_secs(1), 0);
    }
    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.spawn(SpawnSpec::inert("child")).unwrap();
    }
    fn name(&self) -> &str {
        "forker"
    }
}

/// Tracer that records kernel events and their delivery latencies.
struct Tracer {
    target: Pid,
    events: Arc<Mutex<Vec<String>>>,
}
impl Program for Tracer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        sys.adopt(self.target, TraceFlags::PROC).unwrap();
    }
    fn on_kernel_event(&mut self, _sys: &mut dyn Sys, msg: KernelMsg) {
        self.events
            .lock()
            .unwrap()
            .push(msg.event.kind().to_string());
    }
    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: bytes::Bytes) {
        ppm_proto::kernel_wire::for_each_kernel_msg(&data, |m| self.on_kernel_event(sys, m));
    }
    fn name(&self) -> &str {
        "tracer"
    }
}

/// Tracer variant that records delivery latency in microseconds.
struct LatencyTracer {
    target: Pid,
    latencies: Arc<Mutex<Vec<u64>>>,
}
impl Program for LatencyTracer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.register_kernel_socket();
        sys.adopt(self.target, TraceFlags::PROC).unwrap();
    }
    fn on_kernel_event(&mut self, sys: &mut dyn Sys, msg: KernelMsg) {
        let lat = sys.now().saturating_since(msg.queued_at).as_micros();
        self.latencies.lock().unwrap().push(lat);
    }
    fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: bytes::Bytes) {
        ppm_proto::kernel_wire::for_each_kernel_msg(&data, |m| self.on_kernel_event(sys, m));
    }
    fn name(&self) -> &str {
        "lat-tracer"
    }
}

#[test]
fn trace_flags_are_inherited_by_descendants() {
    let (mut w, a, _) = two_hosts(8);
    // The forker delays its fork by 1 s, so the tracer's adoption is in
    // place before the child exists.
    let forker = w
        .spawn_user(a, Uid(1), SpawnSpec::new("forker", Box::new(Forker)))
        .unwrap();
    let events = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "tracer",
            Box::new(Tracer {
                target: forker,
                events: Arc::clone(&events),
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(3));
    let evs = events.lock().unwrap().clone();
    assert!(evs.contains(&"fork".to_string()), "fork reported: {evs:?}");
    assert!(
        evs.contains(&"exec".to_string()),
        "the child inherited tracing, so its exec is reported too: {evs:?}"
    );
    // Kill the child: its exit is reported as well.
    let child = w
        .core()
        .kernel(a)
        .processes()
        .find(|p| p.command == "child")
        .map(|p| p.pid)
        .expect("child exists");
    w.post_signal(Uid(1), (a, child), Signal::Kill).unwrap();
    w.run_for(SimDuration::from_secs(1));
    assert!(
        events.lock().unwrap().contains(&"exit".to_string()),
        "{events:?}"
    );
}

#[test]
fn kernel_event_latency_grows_with_load() {
    // The Table 1 mechanism at the substrate level.
    let measure = |spinners: usize| -> f64 {
        let mut w = World::new(9);
        let h = w.add_host(HostSpec::new("x", CpuClass::Sun2));
        for _ in 0..spinners {
            w.spawn_user(h, Uid(2), SpawnSpec::inert("spin").cpu_bound(true))
                .unwrap();
        }
        w.run_for(SimDuration::from_secs(300));
        let victim = w.spawn_user(h, Uid(1), SpawnSpec::inert("victim")).unwrap();
        let latencies = Arc::new(Mutex::new(Vec::new()));
        let t = LatencyTracer {
            target: victim,
            latencies: Arc::clone(&latencies),
        };
        w.spawn_user(h, Uid(1), SpawnSpec::new("tracer", Box::new(t)))
            .unwrap();
        w.run_for(SimDuration::from_secs(1));
        w.post_signal(Uid(1), (h, victim), Signal::Kill).unwrap();
        w.run_for(SimDuration::from_secs(1));
        let l = latencies.lock().unwrap();
        assert!(!l.is_empty(), "exit event delivered");
        l.iter().sum::<u64>() as f64 / l.len() as f64 / 1000.0
    };
    let idle = measure(0);
    let loaded = measure(3);
    assert!(loaded > idle * 1.5, "idle {idle:.1}ms loaded {loaded:.1}ms");
}

#[test]
fn identical_seeds_replay_identically() {
    let run = |seed: u64| -> (u64, SimTime) {
        let (mut w, a, b) = two_hosts(seed);
        w.spawn_user(
            b,
            Uid(1),
            SpawnSpec::new("echod", Box::new(EchoServer { port: Port(9) })),
        )
        .unwrap();
        w.run_for(SimDuration::from_millis(300));
        w.spawn_user(
            a,
            Uid(1),
            SpawnSpec::new("chat", Box::new(Chatter::new(b, Port(9), 64, 25))),
        )
        .unwrap();
        w.run_for(SimDuration::from_secs(10));
        let events = w.core().trace().entries().len() as u64;
        (events, w.now())
    };
    let (e1, _) = run(12345);
    let (e2, _) = run(12345);
    assert_eq!(e1, e2, "same seed, same event history");
}

#[test]
fn cross_user_kill_is_refused_at_the_kernel() {
    let (mut w, a, _) = two_hosts(10);
    let pid = w.spawn_user(a, Uid(1), SpawnSpec::inert("mine")).unwrap();
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(
        w.post_signal(Uid(2), (a, pid), Signal::Kill),
        Err(SysError::PermissionDenied)
    );
}

#[test]
fn exit_event_carries_final_rusage() {
    let (mut w, a, _) = two_hosts(11);
    let victim = w.spawn_user(a, Uid(1), SpawnSpec::inert("v")).unwrap();
    struct ExitWatch {
        target: Pid,
        cpu: Arc<Mutex<Vec<u64>>>,
    }
    impl Program for ExitWatch {
        fn on_start(&mut self, sys: &mut dyn Sys) {
            sys.register_kernel_socket();
            sys.adopt(self.target, TraceFlags::PROC).unwrap();
        }
        fn on_kernel_event(&mut self, _sys: &mut dyn Sys, msg: KernelMsg) {
            if let KernelEvent::Exit { rusage, .. } = msg.event {
                self.cpu.lock().unwrap().push(rusage.cpu.as_micros());
            }
        }
        fn on_kernel_batch(&mut self, sys: &mut dyn Sys, data: bytes::Bytes) {
            ppm_proto::kernel_wire::for_each_kernel_msg(&data, |m| self.on_kernel_event(sys, m));
        }
        fn name(&self) -> &str {
            "exitwatch"
        }
    }
    let cpu = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "watch",
            Box::new(ExitWatch {
                target: victim,
                cpu: Arc::clone(&cpu),
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    w.post_signal(Uid(1), (a, victim), Signal::Kill).unwrap();
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(cpu.lock().unwrap().len(), 1, "exactly one exit report");
}

/// Counts messages as they are handled, optionally burning CPU per
/// message (to test busy-queueing).
struct CountingServer {
    port: Port,
    handled: Arc<Mutex<Vec<u8>>>,
    work_per_msg: SimDuration,
}

impl Program for CountingServer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(self.port).unwrap();
    }
    fn on_message(&mut self, sys: &mut dyn Sys, _conn: ConnId, data: Bytes) {
        self.handled.lock().unwrap().push(data[0]);
        if !self.work_per_msg.is_zero() {
            sys.consume_cpu(self.work_per_msg);
        }
    }
    fn name(&self) -> &str {
        "countd"
    }
}

#[test]
fn events_to_stopped_processes_are_deferred_until_continue() {
    let (mut w, a, b) = two_hosts(20);
    let handled = Arc::new(Mutex::new(Vec::new()));
    let server = w
        .spawn_user(
            b,
            Uid(1),
            SpawnSpec::new(
                "countd",
                Box::new(CountingServer {
                    port: Port(9),
                    handled: Arc::clone(&handled),
                    work_per_msg: SimDuration::ZERO,
                }),
            ),
        )
        .unwrap();
    w.run_for(SimDuration::from_millis(300));

    // Stop the server, then stream messages at it.
    w.post_signal(Uid(1), (b, server), Signal::Stop).unwrap();
    w.run_for(SimDuration::from_millis(100));
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(9),
                log,
                send_burst: 5,
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    assert!(
        handled.lock().unwrap().is_empty(),
        "stopped process handles nothing"
    );

    // Continue: the queued messages are handled, in order.
    w.post_signal(Uid(1), (b, server), Signal::Cont).unwrap();
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(*handled.lock().unwrap(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn busy_processes_queue_events_behind_their_work() {
    let (mut w, a, b) = two_hosts(21);
    let handled = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        b,
        Uid(1),
        SpawnSpec::new(
            "countd",
            Box::new(CountingServer {
                port: Port(9),
                handled: Arc::clone(&handled),
                // Each message costs 100 ms of CPU: a burst serializes.
                work_per_msg: SimDuration::from_millis(100),
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_millis(300));
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(9),
                log,
                send_burst: 4,
            }),
        ),
    )
    .unwrap();
    // The burst arrives ~355 ms in (spawn + connect + wire); each message
    // costs 100 ms of CPU, so by 600 ms at most three are handled.
    w.run_for(SimDuration::from_millis(300));
    let n_early = handled.lock().unwrap().len();
    assert!(
        (1..4).contains(&n_early),
        "burst serialized: {n_early} handled early"
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *handled.lock().unwrap(),
        vec![0, 1, 2, 3],
        "all handled, in order"
    );
}

#[test]
fn deferred_deliveries_are_accounted_exactly_once() {
    // Regression: a message redelivered after busy-deferral must not
    // inflate msgs_received or duplicate the IPC kernel event.
    let (mut w, a, b) = two_hosts(22);
    let handled = Arc::new(Mutex::new(Vec::new()));
    let server = w
        .spawn_user(
            b,
            Uid(1),
            SpawnSpec::new(
                "countd",
                Box::new(CountingServer {
                    port: Port(9),
                    handled: Arc::clone(&handled),
                    work_per_msg: SimDuration::from_millis(100),
                }),
            ),
        )
        .unwrap();
    w.run_for(SimDuration::from_millis(300));
    let log = Arc::new(Mutex::new(Vec::new()));
    w.spawn_user(
        a,
        Uid(1),
        SpawnSpec::new(
            "rec",
            Box::new(Recorder {
                target: b,
                port: Port(9),
                log,
                send_burst: 4,
            }),
        ),
    )
    .unwrap();
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(handled.lock().unwrap().len(), 4);
    let p = w.core().kernel(b).get(server).unwrap();
    assert_eq!(
        p.rusage.msgs_received, 4,
        "each message accounted exactly once"
    );
    assert_eq!(p.rusage.bytes_received, 4 * 16);
}

/// Spawns `children` short-lived copies of itself, then exits after
/// `life_ms`.
struct Churn {
    children: u32,
    life_ms: u64,
}

impl Program for Churn {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        for _ in 0..self.children {
            let leaf = Churn {
                children: 0,
                life_ms: 30,
            };
            let _ = sys.spawn(SpawnSpec::new("churn", Box::new(leaf)));
        }
        sys.set_timer(SimDuration::from_millis(self.life_ms), 0);
    }

    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        sys.exit(0);
    }
}

/// The host core's program map holds exactly the live processes that
/// carry a program (every process here except init and the inert `idle`
/// ones).
fn assert_programs_match_live(w: &World) {
    for host in w.core().topology().host_ids() {
        let mapped: Vec<Pid> = w.core().host(host).program_pids().collect();
        let live: Vec<Pid> = w
            .core()
            .kernel(host)
            .processes()
            .filter(|p| w.core().is_alive((host, p.pid)))
            .filter(|p| p.command != "idle" && p.pid != Pid::INIT)
            .map(|p| p.pid)
            .collect();
        assert_eq!(
            mapped, live,
            "{host}: program map drifted from the live set"
        );
    }
}

#[test]
fn program_map_tracks_spawn_exit_kill_and_crash_churn() {
    let (mut w, a, b) = two_hosts(11);
    let mut roots = Vec::new();
    for (i, host) in [a, b, a, b].into_iter().enumerate() {
        let root = Churn {
            children: 3,
            life_ms: 150 + 100 * i as u64,
        };
        let spec = SpawnSpec::new("churn", Box::new(root));
        roots.push((host, w.spawn_user(host, Uid(7), spec).unwrap()));
        w.spawn_user(host, Uid(7), SpawnSpec::inert("idle"))
            .unwrap();
    }
    for _ in 0..2 {
        w.run_for(SimDuration::from_millis(60));
        assert_programs_match_live(&w);
    }
    w.post_signal(Uid(7), roots[2], Signal::Kill).unwrap();
    w.post_signal(Uid(7), roots[3], Signal::Term).unwrap();
    w.run_for(SimDuration::from_millis(20));
    assert!(!w.core().is_alive(roots[2]) && !w.core().is_alive(roots[3]));
    assert_programs_match_live(&w);
    w.schedule_crash(b, SimDuration::from_millis(5));
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(w.core().host(b).program_pids().count(), 0);
    assert_programs_match_live(&w);
    w.schedule_restart(b, SimDuration::from_millis(5));
    w.run_for(SimDuration::from_millis(600));
    assert_programs_match_live(&w);
    assert_eq!(
        w.core().host(b).program_pids().count(),
        1,
        "only the rebooted inetd carries a program"
    );
}

/// Listens on a port and logs the connection ids it accepts and sees
/// close, in arrival order.
struct Sink {
    port: Port,
    accepted: Arc<Mutex<Vec<ConnId>>>,
    closed: Arc<Mutex<Vec<ConnId>>>,
}

impl Program for Sink {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        sys.listen(self.port).expect("port free");
    }
    fn on_conn_event(&mut self, _sys: &mut dyn Sys, conn: ConnId, ev: ConnEvent) {
        match ev {
            ConnEvent::Accepted { .. } => self.accepted.lock().unwrap().push(conn),
            ConnEvent::Closed => self.closed.lock().unwrap().push(conn),
            _ => {}
        }
    }
}

/// Connects to every target at start; its first timer closes the first
/// connection it opened.
struct Dialer {
    targets: Vec<(ppm_simnet::topology::HostId, Port)>,
    opened: Arc<Mutex<Vec<ConnId>>>,
}

impl Program for Dialer {
    fn on_start(&mut self, sys: &mut dyn Sys) {
        for &(host, port) in &self.targets {
            let conn = sys.connect(host, port).expect("connect starts");
            self.opened.lock().unwrap().push(conn);
        }
        sys.set_timer(SimDuration::from_millis(300), 0);
    }
    fn on_timer(&mut self, sys: &mut dyn Sys, _token: u64) {
        let first = self.opened.lock().unwrap()[0];
        sys.close(first).expect("own connection");
    }
}

/// Each host's open-connection index equals the non-`Closed`
/// connections with an endpoint on that host, and every live process
/// holds a `Socket` descriptor for exactly its open endpoints that have
/// one (a connection still in the listen queue has none). Returns the
/// index sizes.
fn assert_open_index_matches_table(w: &World) -> Vec<usize> {
    let core = w.core();
    let mut sizes = Vec::new();
    for host in core.topology().host_ids() {
        let indexed: Vec<ConnId> = core.open_connections(host).collect();
        let open: Vec<ConnId> = core
            .connections()
            .filter(|c| c.state() != ConnState::Closed && c.touches_host(host))
            .map(|c| c.id)
            .collect();
        assert_eq!(indexed, open, "{host}: open-connection index drifted");
        sizes.push(indexed.len());
        for p in core.kernel(host).processes().filter(|p| p.is_alive()) {
            let mut fds: Vec<ConnId> = p
                .fds
                .iter()
                .filter_map(|(_, k)| match k {
                    FdKind::Socket { conn } => Some(*conn),
                    _ => None,
                })
                .collect();
            fds.sort_unstable();
            let held: Vec<ConnId> = core
                .host(host)
                .sockets()
                .filter(|&(_, pid, sock)| pid == p.pid && sock.fd.is_some())
                .map(|(conn, _, _)| conn)
                .collect();
            assert_eq!(fds, held, "{host} pid {}: stale socket descriptors", p.pid);
        }
    }
    sizes
}

fn dial(
    w: &mut World,
    host: ppm_simnet::topology::HostId,
    targets: Vec<(ppm_simnet::topology::HostId, Port)>,
) -> (Pid, Arc<Mutex<Vec<ConnId>>>) {
    let opened = Arc::new(Mutex::new(Vec::new()));
    let dialer = Dialer {
        targets,
        opened: Arc::clone(&opened),
    };
    let pid = w
        .spawn_user(host, Uid(1), SpawnSpec::new("dialer", Box::new(dialer)))
        .unwrap();
    (pid, opened)
}

#[test]
fn open_connection_index_tracks_connect_close_exit_and_crash_churn() {
    // No wire jitter: close notices of one exit land at the same instant,
    // so the sink sees them in the order the exit broke them.
    let latency = LatencyModel {
        jitter_fraction: 0.0,
        ..LatencyModel::default()
    };
    let mut w = World::with_config(OsConfig::default(), latency, 12);
    let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
    let b = w.add_host(HostSpec::new("b", CpuClass::Vax750));
    let island = w.add_host(HostSpec::new("island", CpuClass::Sun2));
    w.add_link(a, b);
    let sink = |w: &mut World| {
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(Mutex::new(Vec::new()));
        let prog = Sink {
            port: Port(9),
            accepted: Arc::clone(&accepted),
            closed: Arc::clone(&closed),
        };
        let pid = w
            .spawn_user(b, Uid(1), SpawnSpec::new("sink", Box::new(prog)))
            .unwrap();
        (pid, accepted, closed)
    };
    let (server, accepted, closed) = sink(&mut w);
    w.run_for(SimDuration::from_millis(100));

    // Live, refused and unreachable connects.
    let mut targets = vec![(b, Port(9)); 5];
    targets.push((b, Port(77)));
    targets.push((island, Port(9)));
    let (client, opened) = dial(&mut w, a, targets);
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(accepted.lock().unwrap().len(), 5);
    assert_eq!(assert_open_index_matches_table(&w), [5, 5, 0]);
    for &failed in &opened.lock().unwrap()[5..] {
        let c = w.core().connection(failed).expect("record kept");
        assert_eq!(
            c.state(),
            ConnState::Closed,
            "{failed} refused or unreachable"
        );
    }

    // Explicit close of the first connection.
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(assert_open_index_matches_table(&w), [4, 4, 0]);

    // The client exits: its four open connections break in ascending id
    // order, and the sink hears them in that order.
    w.post_signal(Uid(1), (a, client), Signal::Kill).unwrap();
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(assert_open_index_matches_table(&w), [0, 0, 0]);
    let live: Vec<ConnId> = opened.lock().unwrap()[1..5].to_vec();
    assert!(live.windows(2).all(|p| p[0] < p[1]));
    let closed_log = closed.lock().unwrap().clone();
    assert_eq!(closed_log[closed_log.len() - 4..], live[..]);

    // Peer exit: the server dies under two fresh connections.
    dial(&mut w, a, vec![(b, Port(9)); 2]);
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(assert_open_index_matches_table(&w), [2, 2, 0]);
    w.post_signal(Uid(1), (b, server), Signal::Kill).unwrap();
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(assert_open_index_matches_table(&w), [0, 0, 0]);

    // Host crash breaks remote and local connections; connects to the
    // dark host fail without being indexed; restart starts clean.
    sink(&mut w);
    w.run_for(SimDuration::from_millis(100));
    dial(&mut w, a, vec![(b, Port(9)); 3]);
    dial(&mut w, b, vec![(b, Port(9))]);
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(assert_open_index_matches_table(&w), [3, 4, 0]);
    w.schedule_crash(b, SimDuration::from_millis(5));
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(assert_open_index_matches_table(&w), [0, 0, 0]);
    let (_, dark) = dial(&mut w, a, vec![(b, Port(9))]);
    w.run_for(SimDuration::from_millis(100));
    let dark = dark.lock().unwrap()[0];
    assert_eq!(
        w.core().connection(dark).unwrap().state(),
        ConnState::Closed
    );
    assert_eq!(assert_open_index_matches_table(&w), [0, 0, 0]);
    w.schedule_restart(b, SimDuration::from_millis(5));
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(assert_open_index_matches_table(&w), [0, 0, 0]);
    sink(&mut w);
    w.run_for(SimDuration::from_millis(100));
    dial(&mut w, a, vec![(b, Port(9)); 2]);
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(assert_open_index_matches_table(&w), [2, 2, 0]);
}
