//! # pvr-rts — the adaptive runtime system
//!
//! The Charm++-style substrate AMPI runs on: virtual ranks are stackful
//! user-level threads, cooperatively scheduled per PE in a message-driven
//! fashion. A rank that blocks on communication yields to its PE's
//! scheduler, which switches (~tens of ns) to another ready rank instead
//! of busy-waiting — the latency-hiding payoff of overdecomposition.
//!
//! ## Execution modes
//!
//! * **Real time** ([`ClockMode::RealTime`]): ranks run their actual code
//!   and wall-clock time is the measurement. Used by the startup, context
//!   switch, variable access and migration experiments (Figs. 5–8).
//! * **Virtual time** ([`ClockMode::Virtual`]): a deterministic
//!   discrete-event loop advances per-PE clocks by declared work
//!   ([`RankCtx::compute`]) and delivers messages through the
//!   [`pvr_des::NetworkModel`]. This is how the 64-core strong-scaling
//!   experiments (Fig. 9 / Table 2) run: all code, messages, LB
//!   decisions and migrations are real; only *time* is modeled.
//!
//! ## Parallel execution
//!
//! The machine can drive its PEs on a pool of OS worker threads
//! ([`Parallelism`]) that lives for one [`Machine::run`]. In virtual
//! time the engine is *conservative* — the event queue is drained in
//! lookahead-bounded epochs, each epoch's non-empty per-PE lanes are
//! claimed one by one by whichever worker is free, and cross-PE sends
//! are buffered in per-lane outboxes that the barrier merges in
//! deterministic `(time, pe, seq)` order. Result: `Threads(n)` runs are
//! bit-identical to `Serial` runs, for every `n`. In real time, each
//! worker owns a contiguous block of PEs for a burst and workers
//! exchange messages through sharded inboxes with an all-idle
//! termination detector; wall-clock scheduling makes those runs
//! inherently nondeterministic, as on any real SMP machine.
//! `Serial` is the same pool with no helper thread. Memory-safety guards
//! ([`MachineConfig`]'s `guards`) scan every rank each time one leaves
//! its stack and therefore keep a run on that pool of one.
//!
//! ## Structure
//!
//! * [`machine::Machine`] — the whole simulated job: topology, PEs,
//!   ranks, the epoch driver, migration.
//! * `barrier` / `checkpoint` (private) and [`rescale`] — the LB barrier
//!   as a list of phases ([`BarrierAction`] states their order), and
//!   the two protocols it drives, each with the state only it touches:
//!   buddy checkpoints, and the geometry of active and failed PEs.
//! * [`config`] — [`MachineConfig`] / [`MachineBuilder`]: validated
//!   job configuration, startup (binary load, privatizer selection,
//!   fallback chain), and [`ConfigError`].
//! * [`command`] — the rank ⇄ scheduler protocol: the lane's scheduler
//!   code executes a rank's [`command::Command`] on the rank's own
//!   stack, and only a call that must wait suspends the ULT. This
//!   mirrors how blocking MPI calls trap into AMPI's scheduler.
//! * [`matching`] — the per-rank matching engine: hashed posted and
//!   unexpected queues, the request table, counted waits.
//! * `worker` / `engine_parallel` / `guards` (private) — the execution
//!   engine: per-PE lane state, the shared engine view, the worker pool
//!   (of one thread or many) that drives the lanes, and the
//!   memory-safety guards' state and checks, which every lane shares.
//! * [`lb`] — load balancing strategies (GreedyLB, RefineLB,
//!   GreedyRefineLB — the paper's choice for ADCIRC — RotateLB, RandomLB).
//! * [`location`] — rank → PE directory (Charm++'s distributed location
//!   manager, centralized here).

mod barrier;
mod checkpoint;
pub mod command;
pub mod config;
mod engine_parallel;
mod guards;
pub mod lb;
pub mod location;
pub mod machine;
pub mod matching;
pub mod message;
pub mod pe;
pub mod rank;
pub mod rescale;
pub mod stats;
mod worker;

pub use barrier::BarrierAction;
pub use command::{MatchSpec, RankCtx, WorkModel};
pub use config::{ConfigError, MachineBuilder, MachineConfig, Parallelism};
pub use lb::{LbStats, LoadBalancer};
pub use machine::{
    ClockMode, FaultTallies, HardeningTallies, Machine, MigrationRecord, RtsError, RunReport,
};
pub use message::RtsMessage;
pub use pvr_des::{SimDuration, SimTime, Topology};
pub use rescale::{RescalePolicy, RescaleStats, UtilizationRescale};
pub use stats::{CkptTallies, CowTallies, ElasticTallies, EngineTallies, ReqTallies};

/// Global index of a virtual rank.
pub type RankId = usize;
/// Index of a PE (scheduler), global across the job.
pub type PeId = usize;
