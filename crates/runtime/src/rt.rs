//! The backend facade: boot hosts, spawn programs, drive the world.
//!
//! Where [`crate::sys::Sys`] is the view a *program* has of its backend,
//! [`Runtime`] is the view a *harness* has: add hosts, seed user
//! processes, let time pass, inspect the outcome. The backend-conformance
//! suite is written against this trait alone and runs unchanged over the
//! simulated world, the real loopback cluster and the model checker's
//! world.
//!
//! The surface is deliberately small — conformance programs communicate
//! their observations back through stable storage ([`Runtime::stable_get`])
//! rather than through backend-specific introspection.

use bytes::Bytes;

use crate::ids::{CpuClass, HostId, Pid, Uid};
use crate::program::{SpawnSpec, SysError};
use crate::time::{Micros, SimDuration};

/// A bootable PPM world: simulated (`ppm-simos`'s `SimRuntime`), real
/// (`ppm-realos`'s `RealRuntime`) or model-checked (`ppm-mc`'s
/// `McWorld`).
pub trait Runtime {
    /// Adds a host and connects it to every existing host (the facade
    /// models one LAN segment; richer topologies are backend-specific).
    /// Boot daemons (inetd) come up with the host.
    fn add_host(&mut self, name: &str, cpu: CpuClass) -> HostId;

    /// Spawns a user-owned process running `spec` on `host`.
    ///
    /// # Errors
    ///
    /// [`SysError::HostDown`] or [`SysError::NoSuchHost`].
    fn spawn_user(&mut self, host: HostId, uid: Uid, spec: SpawnSpec) -> Result<Pid, SysError>;

    /// Lets the world run for (at least) `span` of the backend clock.
    /// The simulation advances its virtual clock; the real backend
    /// sleeps wall-clock time while node threads work.
    fn run(&mut self, span: SimDuration);

    /// Whether a process is currently alive.
    fn is_alive(&self, host: HostId, pid: Pid) -> bool;

    /// Reads a record from a host's stable storage — the conformance
    /// suite's channel for programs to report what they observed.
    fn stable_get(&self, host: HostId, key: &str) -> Option<Bytes>;

    /// The backend clock's current instant.
    fn now(&self) -> Micros;
}
