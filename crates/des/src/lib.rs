//! # pvr-des — discrete-event simulation substrate
//!
//! The paper's strong-scaling experiments (Fig. 9, Table 2) ran ADCIRC on
//! up to 64 cores of Bridges-2. This sandbox has one core, so those
//! experiments run in *virtual time*: per-PE clocks advance by the work
//! each rank actually performs (measured in model FLOPs from the real
//! kernels), and messages are delivered by a deterministic event queue
//! with a latency/bandwidth network model. Everything else — the ranks,
//! the messages, the load balancer's decisions, the migrations — executes
//! for real; only *time* is simulated.
//!
//! Contents:
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — deterministic priority queue keyed `(time,
//!   stamp)`: ties break by a caller's stamp, or by insertion order for
//!   unstamped events, so runs are reproducible; events that arrive in
//!   key order skip its heap.
//! * [`NetworkModel`] — per-hop-class latency + bandwidth costs
//!   (intra-process, intra-node, inter-node), defaults shaped after a
//!   Mellanox InfiniBand cluster like the paper's.
//! * [`Topology`] — maps PEs to processes and nodes so the network model
//!   can classify a message's hop.

pub mod fault;
pub mod network;
pub mod queue;
pub mod time;
pub mod topology;

pub use fault::{FaultDecision, FaultParams, FaultPlan, FaultStream};
pub use network::{HopClass, NetworkModel};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
