//! # pvr-ampi — Adaptive-MPI-style message passing over virtualized ranks
//!
//! The MPI face of the reproduction: ranks are `pvr-rts` user-level
//! threads, and this crate provides communicators, tagged point-to-point
//! matching with wildcards, non-blocking requests, the standard
//! collectives, and reduction operators — including the paper's §3.3
//! *function-pointer-offset* encoding for user-defined `MPI_Op`s, which is
//! what keeps them meaningful when every rank has its own code-segment
//! copy under PIEglobals.
//!
//! Layering (bottom-up): the RTS transports opaque messages addressed by
//! rank and knows nothing about MPI; this crate compiles every receive
//! — blocking, nonblocking, collective — into a [`pvr_rts::MatchSpec`]
//! over the encoded envelope, and the runtime's per-rank matching engine
//! pairs it with a message. Messages trivially survive migration: they
//! chase ranks, not PEs.
//!
//! ```text
//! application (pvr-apps)        jacobi3d, surge, hello
//!   └── pvr-ampi                MPI semantics           ← this crate
//!         └── pvr-rts           scheduling, delivery, LB, migration
//!               └── pvr-ult     context switches
//! ```
//!
//! ## Quick example (inside a machine body)
//!
//! ```
//! use pvr_ampi::{Ampi, Op};
//! use pvr_rts::{MachineBuilder, Topology};
//! use pvr_progimage::{link, ImageSpec};
//! use std::sync::Arc;
//!
//! let bin = link(ImageSpec::builder("demo").global("g", 8).build());
//! let mut machine = MachineBuilder::new(bin)
//!     .topology(Topology::smp(2))
//!     .vp_ratio(2)
//!     .build(Arc::new(|ctx| {
//!         let mpi = Ampi::init(ctx);
//!         let me = mpi.rank() as f64;
//!         let total = mpi.allreduce(&[me], Op::Sum)[0];
//!         assert_eq!(total, 0.0 + 1.0 + 2.0 + 3.0);
//!         mpi.finalize();
//!     }))
//!     .unwrap();
//! machine.run().unwrap();
//! ```

pub mod coll;
pub mod comm;
pub mod datatype;
pub mod envelope;
pub mod op;
pub mod p2p;
pub mod util;

pub use comm::{CommId, COMM_WORLD};
pub use datatype::Datatype;
pub use op::{Op, OpHandle};
pub use p2p::{RecvReq, ReqId, SendReq, Status, ANY_SOURCE, ANY_TAG};

use bytes::Bytes;
use envelope::{Envelope, Kind};
use pvr_rts::{MatchSpec, RankCtx, RtsMessage};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A `recv_then` continuation closure.
pub(crate) type ContFn = Box<dyn FnOnce(&Ampi, Bytes, p2p::Status)>;

/// A registered `recv_then` continuation: the closure to run when the
/// matching message arrives, plus the communicator for status decoding.
pub(crate) struct ContEntry {
    pub comm: CommId,
    pub f: ContFn,
}

pub(crate) struct State {
    pub comms: Vec<comm::Comm>,
    /// Per-communicator collective sequence numbers.
    pub coll_seq: Vec<u32>,
    /// Outcomes reaped from the runtime's request table but not yet
    /// handed to the caller (`test` stashes; `waitany`/`waitsome` reap
    /// whole completed subsets), decoded when they are. `None` marks a
    /// completed send.
    pub reaped: BTreeMap<u64, Option<RtsMessage>>,
    /// Pending `recv_then` continuations by request id.
    pub continuations: BTreeMap<u64, ContEntry>,
    /// Live continuation nesting depth (capped in
    /// `Ampi::run_continuations`).
    pub cont_depth: u32,
}

/// The per-rank MPI library handle (`MPI_Init` .. `MPI_Finalize`).
pub struct Ampi {
    pub(crate) ctx: RankCtx,
    pub(crate) state: RefCell<State>,
}

impl Ampi {
    /// `MPI_Init`: attach the MPI library to this virtual rank.
    pub fn init(ctx: RankCtx) -> Ampi {
        let world = comm::Comm::world(ctx.n_ranks());
        let ampi = Ampi {
            ctx,
            state: RefCell::new(State {
                comms: vec![world],
                coll_seq: vec![0],
                reaped: BTreeMap::new(),
                continuations: BTreeMap::new(),
                cont_depth: 0,
            }),
        };
        ampi.fixup_world();
        ampi
    }

    /// `MPI_Comm_rank(MPI_COMM_WORLD)`.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// `MPI_Comm_size(MPI_COMM_WORLD)`.
    pub fn size(&self) -> usize {
        self.ctx.n_ranks()
    }

    /// Rank within an arbitrary communicator.
    pub fn comm_rank(&self, comm: CommId) -> usize {
        self.state.borrow().comms[comm.0 as usize].my_index
    }

    pub fn comm_size(&self, comm: CommId) -> usize {
        self.state.borrow().comms[comm.0 as usize].members.len()
    }

    /// `MPI_Wtime`.
    pub fn wtime(&self) -> f64 {
        self.ctx.wtime()
    }

    /// AMPI extension `AMPI_Migrate`: a load-balancing sync point at
    /// which the runtime may migrate this rank to another PE.
    pub fn migrate(&self) {
        self.ctx.at_sync();
    }

    /// Declare modeled computation time (virtual-time runs).
    pub fn compute(&self, work: pvr_des::SimDuration) {
        self.ctx.compute(work);
    }

    /// Underlying runtime context (escape hatch for apps).
    pub fn ctx(&self) -> &RankCtx {
        &self.ctx
    }

    /// `MPI_Finalize` — nothing to tear down in this model, but apps call
    /// it for shape fidelity.
    pub fn finalize(&self) {}

    // -- internal plumbing shared by p2p and collectives ----------------

    /// Raw-send with an envelope; `to_global` is a COMM_WORLD rank.
    pub(crate) fn raw_send(&self, to_global: usize, env: Envelope, payload: Bytes) {
        self.ctx.send(to_global, env.encode(), payload);
    }

    /// The runtime predicate of a receive on `comm`: communicator and
    /// kind always participate; a concrete tag pins every tag bit (the
    /// envelope's reserved bits are always zero), which with a concrete
    /// source lets the runtime match through its index; wildcards drop
    /// their term.
    pub(crate) fn match_spec(
        &self,
        comm: CommId,
        kind: Kind,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> MatchSpec {
        let env = Envelope {
            comm: comm.0,
            kind,
            tag: tag.unwrap_or(0),
        };
        let tag_mask = match tag {
            Some(_) => u64::MAX,
            None => envelope::HEADER_MASK,
        };
        MatchSpec {
            src: src.map(|local| self.to_global(comm, local)),
            tag_mask,
            tag_value: env.encode() & tag_mask,
        }
    }

    /// Allocate the next collective sequence number on `comm`.
    pub(crate) fn next_coll_seq(&self, comm: CommId) -> u32 {
        let mut st = self.state.borrow_mut();
        let seq = st.coll_seq[comm.0 as usize];
        st.coll_seq[comm.0 as usize] = seq.wrapping_add(1);
        seq
    }

    /// Kind/tag for round `round` of collective number `seq`.
    pub(crate) fn coll_tag(seq: u32, round: u32) -> u32 {
        seq.wrapping_mul(64).wrapping_add(round)
    }

    /// Translate a communicator-local rank to a global rank.
    pub(crate) fn to_global(&self, comm: CommId, local: usize) -> usize {
        self.state.borrow().comms[comm.0 as usize].members[local]
    }

    /// Translate a global rank to its index in `comm` (None if absent).
    pub(crate) fn to_local(&self, comm: CommId, global: usize) -> Option<usize> {
        self.state.borrow().comms[comm.0 as usize]
            .members
            .iter()
            .position(|&g| g == global)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use pvr_privatize::Method;
    use pvr_progimage::{link, FunctionSpec, ImageSpec};
    use pvr_rts::{ClockMode, MachineBuilder, Topology};
    use std::sync::Arc;

    /// Run `body` as an SPMD program on `n_pes` PEs × `vp` ranks each.
    pub fn run_spmd(n_pes: usize, vp: usize, body: impl Fn(&Ampi) + Send + Sync + 'static) {
        let bin = link(
            ImageSpec::builder("ampi-test")
                .global("g", 8)
                .function(FunctionSpec::new("user_max_abs", 64).with_callable(Arc::new(
                    |input: &[u8], acc: &mut [u8]| {
                        // elementwise max(|a|, |b|) on f64 arrays
                        let n = acc.len() / 8;
                        for i in 0..n {
                            let a = f64::from_le_bytes(input[i * 8..i * 8 + 8].try_into().unwrap());
                            let b = f64::from_le_bytes(acc[i * 8..i * 8 + 8].try_into().unwrap());
                            let m = a.abs().max(b.abs());
                            acc[i * 8..i * 8 + 8].copy_from_slice(&m.to_le_bytes());
                        }
                    },
                )))
                .build(),
        );
        let mut machine = MachineBuilder::new(bin)
            .topology(Topology::non_smp(n_pes))
            .vp_ratio(vp)
            .method(Method::PieGlobals)
            .clock(ClockMode::RealTime)
            .build(Arc::new(move |ctx| {
                let mpi = Ampi::init(ctx);
                body(&mpi);
                mpi.finalize();
            }))
            .unwrap();
        machine.run().unwrap();
    }
}
