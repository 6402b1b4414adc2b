//! Bounded model checking for the PPM protocols.
//!
//! The paper's protocols — request dedup under retry, broadcast waves
//! over the sibling graph, CCS election, forest rebuilding after an LPM
//! crash — are exactly the kind of code whose bugs live in message
//! interleavings no single simulation seed samples. This crate drives
//! the production protocol stack (`ppm-core`, unmodified, through the
//! same `Sys` seam the simulation and real backends implement) through
//! **every** schedule of a small staged world, within explicit depth
//! and state budgets.
//!
//! * [`world`] — the mc backend: the shared per-host core
//!   (`ppm_runtime::host`) under an explorer's ordering policy —
//!   per-direction connection FIFOs, signal, start, kernel-batch and
//!   notification moves, an explorable timer set, budgeted fault moves.
//! * [`explore`] — replay-based DFS with digest pruning and greedy
//!   counterexample minimization.
//! * [`scenarios`] — the four checked properties, staged
//!   deterministically to their interesting frontiers.

pub mod explore;
pub mod scenarios;
pub mod world;

pub use explore::{
    apply_matching, assert_no_violation, explore, replay, replay_trace, Budget, Scenario, Stats,
    Violation,
};
pub use world::{Adversary, McWorld, Move};
