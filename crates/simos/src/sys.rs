//! The simulated backend of the [`ppm_runtime::sys::Sys`] syscall surface.
//!
//! A [`Sys`] borrows the world core and identifies the calling process;
//! the world constructs one around every [`ppm_runtime::Program`]
//! callback. All behaviour — spawn/exit/kill/adopt, stream sockets,
//! timers, files, CPU accounting, `ps`-style queries — is defined by the
//! trait contracts in `ppm_runtime::sys`; this module maps them onto the
//! discrete-event world.

use bytes::Bytes;
use ppm_runtime::obs::{SharedRegistry, SpanPhase};
use ppm_runtime::sys::{Clock, CoreView, Spawner, TimerDriver, TimerHandle, Transport};
use ppm_simnet::engine::EventId;
use ppm_simnet::time::{SimDuration, SimTime};
use ppm_simnet::topology::{CpuClass, HostId};
use ppm_simnet::trace::TraceCategory;

use ppm_runtime::events::TraceFlags;
use ppm_runtime::fd::OpenMode;
use ppm_runtime::host::{self, Callback, HostCore, Policy};
use ppm_runtime::ids::{ConnId, Fd, Pid, Port, Uid};
use ppm_runtime::program::{ProcKey, SpawnSpec, SysError};
use ppm_runtime::signal::{ExitStatus, Signal};

use crate::world::{SimEvent, WorldCore};

/// The simulated syscall interface bound to one calling process.
pub struct Sys<'a> {
    core: &'a mut WorldCore,
    key: ProcKey,
}

impl<'a> Sys<'a> {
    pub(crate) fn new(core: &'a mut WorldCore, key: ProcKey) -> Self {
        Sys { core, key }
    }
}

impl Clock for Sys<'_> {
    fn now(&self) -> SimTime {
        self.core.now()
    }
}

impl TimerDriver for Sys<'_> {
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let id = self
            .core
            .engine
            .schedule(delay, SimEvent::Run(self.key, Callback::Timer(token)));
        TimerHandle(id.raw())
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.core.engine.cancel(EventId::from_raw(handle.0))
    }
}

impl Transport for Sys<'_> {
    fn listen(&mut self, port: Port) -> Result<(), SysError> {
        host::listen(self.core, self.key, port)
    }

    fn connect(&mut self, host: HostId, port: Port) -> Result<ConnId, SysError> {
        host::connect(self.core, self.key, host, port)
    }

    fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<(), SysError> {
        host::send(self.core, self.key, conn, data)
    }

    fn conn_alive(&self, conn: ConnId) -> bool {
        host::conn_alive(&*self.core, self.key, conn)
    }

    fn net_epoch(&self) -> u64 {
        self.core.net_epoch()
    }

    fn edge_up(&self, a: &str, b: &str) -> bool {
        match (self.core.host_by_name(a), self.core.host_by_name(b)) {
            (Some(ha), Some(hb)) => self.core.edge_up(ha, hb),
            _ => false,
        }
    }

    fn close(&mut self, conn: ConnId) -> Result<(), SysError> {
        host::close(self.core, self.key, conn)
    }
}

impl Spawner for Sys<'_> {
    fn spawn(&mut self, spec: SpawnSpec) -> Result<Pid, SysError> {
        let uid = ppm_runtime::sys::Sys::uid(self);
        self.core.spawn(self.key.0, self.key.1, uid, spec, None)
    }

    fn spawn_as(&mut self, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError> {
        if !ppm_runtime::sys::Sys::uid(self).is_root() {
            return Err(SysError::PermissionDenied);
        }
        self.core.spawn(self.key.0, self.key.1, uid, spec, None)
    }

    fn exit(&mut self, code: i32) {
        host::exit(self.core, self.key, ExitStatus::Code(code));
    }

    fn kill(&mut self, target: Pid, signal: Signal) -> Result<(), SysError> {
        let uid = ppm_runtime::sys::Sys::uid(self);
        host::post_signal(self.core, uid, (self.key.0, target), signal)
    }

    fn spawn_service(&mut self, name: &str) -> Result<(Pid, Port), SysError> {
        if !ppm_runtime::sys::Sys::uid(self).is_root() {
            return Err(SysError::PermissionDenied);
        }
        self.core.spawn_service(self.key.0, name)
    }
}

impl ppm_runtime::sys::Sys for Sys<'_> {
    // ---- identity and environment --------------------------------------

    fn host(&self) -> HostId {
        self.key.0
    }

    fn host_name(&self) -> &str {
        self.core.host_name(self.key.0)
    }

    fn cpu_class(&self) -> CpuClass {
        self.core.topology().spec(self.key.0).cpu
    }

    fn pid(&self) -> Pid {
        self.key.1
    }

    fn uid(&self) -> Uid {
        self.core
            .kernel(self.key.0)
            .get(self.key.1)
            .map(|p| p.uid)
            .unwrap_or(Uid::ROOT)
    }

    fn host_core(&self) -> CoreView<&HostCore> {
        CoreView::new(self.core.host(self.key.0))
    }

    fn host_core_mut(&mut self) -> CoreView<&mut HostCore> {
        CoreView::new(self.core.host_mut(self.key.0))
    }

    fn resolve_host(&self, name: &str) -> Result<HostId, SysError> {
        self.core.host_by_name(name).ok_or(SysError::NoSuchHost)
    }

    fn known_hosts(&self) -> Vec<String> {
        self.core
            .topology()
            .host_ids()
            .map(|h| self.core.host_name(h).to_string())
            .collect()
    }

    fn trace_str(&mut self, category: TraceCategory, text: String) {
        let host = self.key.0;
        self.core.tracef(Some(host), category, text);
    }

    fn spans_enabled(&self) -> bool {
        self.core.obs.spans.is_enabled()
    }

    fn span_str(&mut self, name: &'static str, corr: String, phase: SpanPhase) {
        if !self.core.obs.spans.is_enabled() {
            return;
        }
        let host = self.key.0;
        let now = self.core.now();
        self.core
            .obs
            .spans
            .record(now, Some(host), name, corr, phase);
    }

    fn register_metrics_str(&mut self, label: String, registry: SharedRegistry) {
        self.core.obs.register(label, registry);
    }

    fn random_unit(&mut self) -> f64 {
        self.core.rng.unit_f64()
    }

    // ---- process management --------------------------------------------

    fn adopt(&mut self, target: Pid, flags: TraceFlags) -> Result<(), SysError> {
        let uid = ppm_runtime::sys::Sys::uid(self);
        host::adopt(self.core, self.key, uid, target, flags)
    }

    fn scale_cost(&mut self, nominal: SimDuration) -> SimDuration {
        self.core.scaled_cpu_cost(self.key.0, nominal)
    }

    fn consume_cpu(&mut self, nominal: SimDuration) -> SimDuration {
        let key = self.key;
        let scaled = self.core.scaled_cpu_cost(key.0, nominal);
        let now = self.core.now();
        if let Ok(p) = self.core.kernel_mut(key.0).live_mut(key.1) {
            let from = if p.busy_until > now {
                p.busy_until
            } else {
                now
            };
            p.busy_until = from + scaled;
            p.rusage.cpu += scaled;
        }
        scaled
    }

    // ---- stable storage ------------------------------------------------

    // ---- files -----------------------------------------------------------

    fn open_path(&mut self, path: String, mode: OpenMode) -> Fd {
        host::open_file(self.core, self.key, path, mode)
    }

    fn close_fd(&mut self, fd: Fd) -> Result<(), SysError> {
        host::close_fd(self.core, self.key, fd)
    }
}

#[cfg(test)]
mod tests {
    //! `Sys` is exercised end-to-end in the world tests and the
    //! integration suites; here we only check the pieces with no event
    //! dependencies.
    use super::*;
    use crate::world::World;
    use ppm_runtime::program::Program;
    use ppm_simnet::topology::HostSpec;

    struct Probe;
    impl Program for Probe {
        fn on_start(&mut self, sys: &mut dyn ppm_runtime::sys::Sys) {
            assert_eq!(sys.host_name(), "a");
            assert!(sys.pid().0 > 1);
            assert_eq!(sys.uid(), Uid(7));
            let fd = sys.open("/tmp/file", OpenMode::ReadWrite);
            assert!(sys.close_fd(fd).is_ok());
            assert!(sys.close_fd(fd).is_err());
            let hosts = sys.known_hosts();
            assert_eq!(hosts, vec!["a".to_string()]);
            assert!(sys.resolve_host("a").is_ok());
            assert!(sys.resolve_host("zzz").is_err());
            let t = sys.set_timer(SimDuration::from_millis(5), 1);
            assert!(sys.cancel_timer(t));
            sys.exit(0);
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn basic_syscalls_work_from_a_program() {
        let mut w = World::new(5);
        let a = w.add_host(HostSpec::new("a", CpuClass::Vax780));
        let pid = w
            .spawn_user(a, Uid(7), SpawnSpec::new("probe", Box::new(Probe)))
            .unwrap();
        w.run_for(SimDuration::from_millis(500));
        let p = w.core().kernel(a).get(pid).unwrap();
        assert!(!p.is_alive(), "probe exited cleanly");
        assert_eq!(p.rusage.files_opened, 1);
    }
}
