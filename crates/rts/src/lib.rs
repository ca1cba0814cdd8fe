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
//! time the engine is *conservative* — each per-PE lane holds its PE's
//! future events, an epoch runs every event within the lookahead of the
//! earliest lane head, the lanes with such events are claimed one by one
//! by whichever worker is free, and cross-PE sends are buffered in
//! per-lane outboxes that the barrier moves into their target lanes in
//! deterministic `(time, pe, emission)` order. Result: `Threads(n)` runs are
//! bit-identical to `Serial` runs, for every `n`. In real time the same
//! loop runs in *rounds*: every lane with mail or a ready rank deposits
//! its inbox and gives each ready rank one slice, and the barrier moves
//! each cross-PE message once into its target lane's inbox. The
//! schedule is then the same for every `n` and every run; only
//! wall-clock readings (trace stamps, measured loads) differ.
//! `Serial` is the same pool with no helper thread. Memory-safety guards
//! ([`MachineConfig`]'s `guards`) scan every rank each time one leaves
//! its stack and therefore keep a run on that pool of one.
//!
//! ## Structure
//!
//! * [`machine::Machine`] — the whole simulated job: the shared view
//!   its lanes read, the lanes, the barrier protocols' state, and what a
//!   harness may do between runs (migrate, drive or feed a rank).
//! * `driver` (private) — `Machine::run`: one lane per PE for the whole
//!   run and one epoch loop for both clocks (bound the epoch — a window
//!   in virtual time, a round in real time — run the lanes with work,
//!   merge at the barrier).
//! * `barrier` / `checkpoint` (private) and [`rescale`] — the LB barrier
//!   as a list of phases ([`BarrierAction`] states their order), and
//!   the two protocols it drives, each with the state only it touches:
//!   buddy checkpoints, and the geometry of active and failed PEs.
//! * [`config`] — [`MachineConfig`] / [`MachineBuilder`]: validated
//!   job configuration, startup (binary load, privatizer selection,
//!   fallback chain), and [`ConfigError`].
//! * [`command`] — the rank-side API: each [`RankCtx`] call runs the
//!   lane's scheduler code on the rank's own stack, and only a call that
//!   must wait suspends the ULT. This mirrors how blocking MPI calls
//!   trap into AMPI's scheduler.
//! * [`matching`] — the per-rank matching engine: hashed posted and
//!   unexpected queues, the request table, counted waits.
//! * `worker` / `engine_parallel` / `guards` (private) — the execution
//!   engine: a lane's scheduler code (`ExecCtx`: one context, one lane),
//!   the `Shared` state every lane reads, the worker pool (of one thread
//!   or many) that drives the lanes, and the memory-safety guards' state
//!   and checks, which every lane shares.
//! * [`lb`] — load balancing strategies (GreedyLB, GreedyRefineLB — the
//!   paper's choice for ADCIRC — RotateLB, RandomLB).
//! * [`location`] — rank → PE directory (Charm++'s distributed location
//!   manager, centralized here).

mod barrier;
mod checkpoint;
pub mod command;
pub mod config;
mod driver;
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
pub use command::{kernel_cost, MatchSpec, RankCtx};
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
