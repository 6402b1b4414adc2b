//! `ppm-realos` — the real backend of the PPM's runtime split.
//!
//! The same protocol stack (`ppm-core`'s LPM, pmd, RPC and tools) runs
//! against two implementations of [`ppm_runtime::sys::Sys`]: the
//! deterministic discrete-event simulation (`ppm-simos`) and this crate,
//! where
//!
//! * **time** is the machine's monotonic clock, counted in microseconds
//!   from a shared cluster epoch ([`clock::ClusterClock`]);
//! * **the network** is loopback TCP, one framed stream per logical
//!   connection, with logical well-known ports mapped to real ephemeral
//!   ports ([`net`]);
//! * **hosts** are node threads inside one OS process, each with its own
//!   kernel process table, program set and timer heap ([`node`]); and
//! * **workers** are in-process program actors, same as the simulation —
//!   the paper's tools, daemons and computations, driven by real sockets
//!   instead of simulated events.
//!
//! [`rt::RealRuntime`] assembles a cluster behind the backend facade
//! ([`ppm_runtime::rt::Runtime`]), so harnesses and the conformance
//! suite drive every backend through one interface.

pub mod clock;
pub mod net;
pub mod node;
pub mod rt;

pub use rt::{ClusterShared, RealRuntime, ServiceFactory};
