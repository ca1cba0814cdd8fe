//! The machine: topology + PEs + ranks + scheduler + migration + LB.
//!
//! One `Machine` is a whole simulated job (possibly many nodes/processes/
//! PEs), driven deterministically by one OS thread. See the crate docs
//! for the real-time vs virtual-time distinction.

use crate::barrier::BarrierAction;
use crate::checkpoint::Checkpoints;
use crate::config::Parallelism;
use crate::engine_parallel::{self, WorkerPool};
use crate::guards::Guards;
use crate::lb::LoadBalancer;
use crate::location::LocationManager;
use crate::message::RtsMessage;
use crate::pe::PeState;
use crate::rank::RankStatus;
use crate::rescale::Geometry;
use crate::stats::{CowTallies, EngineTallies, Tallies};
pub use crate::stats::{FaultTallies, HardeningTallies, LbRecord, MigrationRecord, RunReport};
use crate::worker::{self, EngineShared, HlsBlocks, Lane, Outbox, RankTable, StopReason};
use crate::{PeId, RankId};
use parking_lot::Mutex;
use pvr_des::{EventQueue, FaultPlan, NetworkModel, SimDuration, SimTime, Topology};
use pvr_isomalloc::GuardViolation;
use pvr_privatize::{Method, PrivatizeError, Privatizer};
use pvr_trace::{ArenaTrip, EventKind, Tracer, NO_RANK};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How time passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Wall-clock: real execution, measured externally (Figs. 5–8).
    RealTime,
    /// Discrete-event virtual time (Fig. 9 / Table 2 scaling runs).
    Virtual,
}

/// Runtime errors.
#[derive(Debug)]
pub enum RtsError {
    Privatize(PrivatizeError),
    /// All live ranks are blocked and no event can wake them.
    Deadlock { waiting: Vec<RankId> },
    /// A rank's body panicked.
    RankPanicked { rank: RankId, message: String },
    /// A rank yielded outside the command protocol.
    Protocol { rank: RankId, detail: String },
    /// Invalid migration request.
    BadMigration { rank: RankId, detail: String },
    /// A user reduction operator had to be applied on a PE hosting no
    /// virtual ranks — under PIEglobals there is no image base to anchor
    /// the function-pointer offset (§3.3's documented runtime error).
    EmptyPeReduction { pe: PeId },
    /// The reliable-delivery layer exhausted its retransmit budget for a
    /// message that was never delivered.
    DeliveryFailed {
        from: RankId,
        to: RankId,
        seq: u64,
        attempts: u32,
    },
    /// A ULT stack red zone was found clobbered at a guard check: the
    /// rank overflowed (or scribbled past) its stack. The corrupt stack
    /// is never resumed or unwound.
    StackGuard { rank: RankId, detail: String },
    /// The Isomalloc arena guard caught an invalid free or a write
    /// through a stale pointer in this rank's heap.
    ArenaGuard { rank: RankId, detail: String },
    /// The segment-integrity audit found `rank`'s privatized data
    /// segment modified outside its owner's execution — a cross-rank
    /// global bleed, attributed to the rank on the PE when it was
    /// detected ([`crate::RankId::MAX`] when no rank had run since).
    SegmentBleed { rank: RankId, writer: RankId },
    /// Recovery found a rank whose checkpoint image is unreachable: both
    /// the primary holder and the buddy holder are dead (a cascading
    /// double loss that outran the buddy scheme's redundancy).
    CheckpointLost {
        rank: RankId,
        primary_pe: PeId,
        buddy_pe: PeId,
    },
    /// A rank posted a nonblocking request past the configured
    /// per-rank cap (`MachineConfig::max_outstanding_reqs`) — requests
    /// are leaking (posted but never waited on or reaped).
    RequestOverflow {
        rank: RankId,
        outstanding: usize,
        limit: usize,
    },
}

impl fmt::Display for RtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtsError::Privatize(e) => write!(f, "privatization: {e}"),
            RtsError::Deadlock { waiting } => {
                write!(f, "deadlock: ranks {waiting:?} blocked forever")
            }
            RtsError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RtsError::Protocol { rank, detail } => write!(f, "rank {rank}: {detail}"),
            RtsError::BadMigration { rank, detail } => {
                write!(f, "cannot migrate rank {rank}: {detail}")
            }
            RtsError::EmptyPeReduction { pe } => write!(
                f,
                "PE {pe} has no resident virtual ranks: cannot translate a user \
                 reduction operator's offset to an address under PIEglobals"
            ),
            RtsError::DeliveryFailed {
                from,
                to,
                seq,
                attempts,
            } => write!(
                f,
                "message {from}->{to} seq {seq} undeliverable after {attempts} attempts"
            ),
            RtsError::StackGuard { rank, detail } => {
                write!(f, "rank {rank} stack guard tripped: {detail}")
            }
            RtsError::ArenaGuard { rank, detail } => {
                write!(f, "rank {rank} heap guard tripped: {detail}")
            }
            RtsError::SegmentBleed { rank, writer } => {
                if *writer == RankId::MAX {
                    write!(
                        f,
                        "rank {rank}'s privatized data segment changed outside any \
                         rank's execution (cross-rank global bleed, writer unknown)"
                    )
                } else {
                    write!(
                        f,
                        "rank {rank}'s privatized data segment was modified while rank \
                         {writer} was running (cross-rank global bleed)"
                    )
                }
            }
            RtsError::CheckpointLost {
                rank,
                primary_pe,
                buddy_pe,
            } => write!(
                f,
                "rank {rank}'s checkpoint is lost: both holders (PE {primary_pe} \
                 and buddy PE {buddy_pe}) are dead"
            ),
            RtsError::RequestOverflow {
                rank,
                outstanding,
                limit,
            } => write!(
                f,
                "rank {rank} has {outstanding} outstanding nonblocking requests \
                 (cap {limit}): requests are being posted without being waited on"
            ),
        }
    }
}

impl std::error::Error for RtsError {}

impl From<PrivatizeError> for RtsError {
    fn from(e: PrivatizeError) -> Self {
        RtsError::Privatize(e)
    }
}

/// Virtual-mode events.
pub(crate) enum Event {
    Deliver {
        msg: RtsMessage,
        dest_pe: PeId,
        forwarded: bool,
    },
    PeWake {
        pe: PeId,
    },
    /// Reliable delivery: an acknowledgement for `(from, to, seq)`
    /// arrived back at the sender.
    Ack {
        from: RankId,
        to: RankId,
        seq: u64,
    },
    /// Reliable delivery: the retransmit timer armed at transmission
    /// `attempt` of `(from, to, seq)` fired.
    Retransmit {
        from: RankId,
        to: RankId,
        seq: u64,
        attempt: u32,
    },
}

/// Per-(src,dst) receive state of the reliable-delivery layer: in-order
/// exactly-once delivery via a reorder buffer keyed by sequence number.
pub(crate) struct PairRecv {
    /// Next sequence number to release to the application (seqs are
    /// assigned from 1).
    pub(crate) next_expected: u64,
    /// Out-of-order arrivals awaiting the gap to fill.
    pub(crate) pending: std::collections::BTreeMap<u64, RtsMessage>,
    /// Monotonic ack instance counter for this pair (keys ack fault
    /// decisions; per-pair so decisions are independent of cross-pair
    /// event interleaving and thus identical across engine parallelism).
    pub(crate) ack_seq: u64,
}

impl Default for PairRecv {
    fn default() -> Self {
        PairRecv {
            next_expected: 1,
            pending: Default::default(),
            ack_seq: 0,
        }
    }
}

/// Sender/receiver state of the reliable-delivery layer, active when a
/// [`FaultPlan`] is attached to the network model (virtual clock only).
///
/// This state intentionally lives *outside* rank memory: it rolls
/// forward across checkpoint rollback, so replayed application sends get
/// fresh sequence numbers and both endpoints stay consistent.
pub(crate) struct ReliableState {
    pub(crate) plan: FaultPlan,
    /// Base retransmission timeout added on top of the modeled path cost.
    pub(crate) base_rto: SimDuration,
    /// Total transmission attempts allowed per message (1 original +
    /// `max_attempts - 1` retransmits).
    pub(crate) max_attempts: u32,
    /// Next sequence number per (src, dst) pair.
    pub(crate) send_seq: std::collections::HashMap<(RankId, RankId), u64>,
    /// Unacknowledged messages by (src, dst, seq).
    pub(crate) inflight: std::collections::HashMap<(RankId, RankId, u64), RtsMessage>,
    /// Receive-side dedup/reorder state per (src, dst) pair.
    pub(crate) recv: std::collections::HashMap<(RankId, RankId), PairRecv>,
}

/// Map an arena guard violation to its trace-event kind.
pub(crate) fn arena_trip_kind(v: &GuardViolation) -> ArenaTrip {
    match v {
        GuardViolation::DoubleFree { .. } => ArenaTrip::DoubleFree,
        GuardViolation::UseAfterFree { .. } => ArenaTrip::UseAfterFree,
        GuardViolation::ForeignPointer { .. } => ArenaTrip::ForeignPointer,
    }
}

/// A running (or runnable) job. Built by
/// [`MachineConfig::build`](crate::config::MachineConfig::build) (or the
/// [`MachineBuilder`](crate::config::MachineBuilder) facade).
pub struct Machine {
    pub topology: Topology,
    pub(crate) clock: ClockMode,
    pub(crate) network: NetworkModel,
    pub(crate) balancer: Option<Box<dyn LoadBalancer>>,
    pub(crate) privatizers: Vec<Box<dyn Privatizer>>,
    pub(crate) location: LocationManager,
    pub(crate) ranks: RankTable,
    pub(crate) pes: Vec<PeState>,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) done_count: usize,
    pub(crate) at_sync_count: usize,
    /// Every exact count of the run so far; `run` copies it into the
    /// [`RunReport`].
    pub(crate) tallies: Tallies,
    pub(crate) lb_steps: u32,
    pub(crate) migrations: Vec<MigrationRecord>,
    pub(crate) epoch: Instant,
    /// Per-PE HLS block (null when the method has none); installed at
    /// each context switch alongside the rank's registers.
    pub(crate) pe_hls_blocks: HlsBlocks,
    pub(crate) code_dedup_migration: bool,
    /// Checkpoint configuration and the checkpoint held.
    pub(crate) ckpt: Checkpoints,
    /// What the barriers still to come do besides balancing, sorted by
    /// `(step, BarrierAction::order)`; each barrier pops its own step's.
    pub(crate) barrier_script: VecDeque<(u32, BarrierAction)>,
    /// Bytes exchanged per (from, to) rank pair since the last LB step
    /// (ordered so LB inputs are independent of merge order).
    pub(crate) comm_bytes: std::collections::BTreeMap<(RankId, RankId), u64>,
    pub(crate) lb_history: Vec<LbRecord>,
    /// Which PEs are active, and which have failed.
    pub(crate) geometry: Geometry,
    /// Automatic rescale policy, consulted at every LB barrier the
    /// script asks no rescale of.
    pub(crate) rescale_policy: Option<Box<dyn crate::rescale::RescalePolicy>>,
    /// Reliable-delivery state, present when the network carries a
    /// fault plan. Behind a mutex so concurrent lanes can share it; the
    /// per-pair keying keeps its evolution deterministic regardless.
    pub(crate) reliable: Option<Mutex<ReliableState>>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    /// Present when the memory-safety guards are on (stack red zones,
    /// arena poisoning, segment audits).
    pub(crate) guards: Option<Guards>,
    /// The method the configuration asked for (`method()` reports what
    /// actually landed).
    pub(crate) method_requested: Method,
    /// Request-table size cap per rank (`MachineConfig` knob).
    pub(crate) max_outstanding_reqs: usize,
    /// How `run` drives the PEs (serial, fixed thread count, or auto).
    pub(crate) parallelism: Parallelism,
    /// Engine activity counters for the [`RunReport`].
    pub(crate) engine: EngineTallies,
    /// Recycled per-PE lane scheduler state (event queue + outbox),
    /// indexed by PE: steady-state epochs allocate no fresh lane
    /// structures.
    pub(crate) lane_slots: Vec<(EventQueue<Event>, Outbox)>,
    /// Recycled barrier-merge staging buffer.
    pub(crate) merge_buf: Vec<(SimTime, PeId, Event)>,
    /// Wire buffer of [`Machine::migrate_now`], reused across migrations
    /// so each one costs its two memcpys, not a fresh mapping as well.
    pub(crate) migrate_buf: pvr_isomalloc::MigrationBuffer,
}

impl Machine {
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    pub fn n_pes(&self) -> usize {
        self.pes.len()
    }

    pub fn method(&self) -> Method {
        self.privatizers[0].method()
    }

    /// The method the configuration asked for; differs from
    /// [`Machine::method`] exactly when the fallback chain degraded.
    pub fn method_requested(&self) -> Method {
        self.method_requested
    }

    /// Probe/fallback/guard tallies accumulated so far.
    pub fn hardening_stats(&self) -> HardeningTallies {
        self.tallies.hardening
    }

    /// The attached event recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Nanosecond timestamp for trace events on `pe`: the virtual clock
    /// in virtual mode, wall time since the machine epoch otherwise.
    fn trace_now_ns(&self, pe: PeId) -> u64 {
        match self.clock {
            ClockMode::Virtual => self.pes[pe].clock.nanos(),
            ClockMode::RealTime => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Record a scheduler-side trace event. Free (one `Option` branch)
    /// when no tracer is attached.
    #[inline]
    pub(crate) fn trace(&self, pe: PeId, rank: u32, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(pe, rank, self.trace_now_ns(pe), kind);
        }
    }

    /// Record an event of the whole job (a barrier's, a checkpoint's):
    /// on PE 0's track, against no rank.
    pub(crate) fn trace_job(&self, kind: EventKind) {
        self.trace(0, NO_RANK, kind);
    }

    /// Install the tracer as this thread's emission target for the
    /// duration of a public entry point, so hooks in the library crates
    /// (`pvr-ampi`, `pvr-privatize`, `pvr-isomalloc`) reach it.
    fn trace_scope(&self) -> Option<pvr_trace::ThreadScope> {
        self.tracer
            .as_ref()
            .map(|t| pvr_trace::ThreadScope::install(t.clone()))
    }

    /// Simulated I/O charged during startup (FSglobals) — add to measured
    /// build time for the Fig. 5 startup comparison.
    pub fn simulated_startup_cost(&self) -> Duration {
        self.privatizers
            .iter()
            .map(|p| p.simulated_startup_cost())
            .sum()
    }

    /// Bytes of segment copies per rank (startup accounting).
    pub fn per_rank_copied_bytes(&self) -> usize {
        self.privatizers[0].per_rank_copied_bytes()
    }

    pub fn location_of(&self, rank: RankId) -> PeId {
        self.location.lookup(rank)
    }

    pub fn resident_count(&self, pe: PeId) -> usize {
        self.location.resident_count(pe)
    }

    /// Rank memory footprint (for reports/tests).
    pub fn rank_migration_bytes(&self, rank: RankId) -> usize {
        self.ranks[rank].migration_bytes()
    }

    /// Access a privatizer (e.g. for `pieglobalsfind` queries).
    pub fn privatizer(&self, process: usize) -> &dyn Privatizer {
        self.privatizers[process].as_ref()
    }

    /// A rank's privatization instance (demos/tests: resolving the
    /// rank's view of a global from outside the rank).
    pub fn rank_instance(&self, rank: RankId) -> &Arc<pvr_privatize::RankInstance> {
        &self.ranks[rank].instance
    }

    /// Resolve a user reduction operator (encoded as a code-segment
    /// offset) for application *on a specific PE* — what the runtime does
    /// when combining reduction messages. Under PIEglobals every rank has
    /// a distinct code copy, so the offset must be anchored to the base
    /// of some rank resident on `pe`; a PE hosting no ranks raises the
    /// runtime error the paper describes instead of silently forwarding.
    pub fn resolve_op_on_pe(
        &self,
        pe: PeId,
        offset: usize,
    ) -> Result<pvr_progimage::spec::Callable, RtsError> {
        if self.method() == Method::PieGlobals && self.location.resident_count(pe) == 0 {
            return Err(RtsError::EmptyPeReduction { pe });
        }
        let proc = self.topology.process_of_pe(pe);
        self.privatizers[proc]
            .callable_for_offset(offset)
            .ok_or(RtsError::Protocol {
                rank: usize::MAX,
                detail: format!("no callable at code offset {offset}"),
            })
    }

    /// Drive one rank until it blocks, parks, yields, or completes —
    /// used by benchmark harnesses that need a rank in a known state
    /// (e.g. parked in `Recv`) before migrating it.
    pub fn drive_rank(&mut self, rank: RankId) -> Result<(), RtsError> {
        let _scope = self.trace_scope();
        self.run_rank_slice(rank).map(|_| ())
    }

    /// Deliver a raw runtime message (harness use: waking a parked rank).
    pub fn inject_message(&mut self, msg: RtsMessage) {
        self.deposit(msg);
    }

    /// Explicitly migrate a suspended rank (the Fig. 8 harness; LB uses
    /// the same path).
    pub fn migrate_now(&mut self, rank: RankId, to_pe: PeId) -> Result<MigrationRecord, RtsError> {
        if to_pe >= self.pes.len() {
            return Err(RtsError::BadMigration {
                rank,
                detail: format!("destination PE {to_pe} out of range"),
            });
        }
        if !self.geometry.alive()[to_pe] {
            return Err(RtsError::BadMigration {
                rank,
                detail: format!("destination PE {to_pe} has failed"),
            });
        }
        if !self.privatizers[0].supports_migration() {
            return Err(RtsError::BadMigration {
                rank,
                detail: format!(
                    "{} does not support migration (segments not allocated via Isomalloc)",
                    self.method()
                ),
            });
        }
        let from_pe = self.ranks[rank].location;
        if self.ranks[rank].status == RankStatus::Done {
            return Err(RtsError::BadMigration {
                rank,
                detail: "rank already completed".into(),
            });
        }
        // Region-copy events from pack/unpack land against this rank.
        let trace_scope = self.trace_scope();
        if trace_scope.is_some() {
            pvr_trace::set_context(from_pe, rank as u32, self.trace_now_ns(from_pe));
        }

        // Pack (real memcpy) → "transfer" → unpack (real memcpy). The
        // region ownership never leaves this address space, preserving
        // the Isomalloc same-VA invariant; the byte movement is real.
        // With code-dedup on, the bitwise-identical code segment copies
        // are skipped (re-duplicated from the destination's local image
        // in the real system).
        let dedup = self.code_dedup_migration;
        let include = move |k: pvr_isomalloc::RegionKind| {
            !(dedup && k == pvr_isomalloc::RegionKind::CodeSegment)
        };
        let t0 = Instant::now();
        // COW methods supply a read-through view of their page table, so
        // the byte-level pack below never materializes the backing store
        // (cross-rank page sharing survives the migration round-trip).
        let mut buf = std::mem::take(&mut self.migrate_buf);
        self.refresh_stack_extent(rank);
        self.pack_rank_read_through(rank, include, &mut buf);
        let (bytes, stored_bytes) = (buf.len(), buf.stored_len());
        let unpacked = self.ranks[rank].memory.unpack_into_with(&buf, include);
        let real_time = t0.elapsed();
        self.migrate_buf = buf;
        // The stored ranges are data read back from the buffer: a round
        // trip that cannot fail is an argument, not a type.
        unpacked.map_err(|e| RtsError::BadMigration {
            rank,
            detail: format!("image does not unpack at the destination: {e}"),
        })?;
        let sim_cost = self
            .network
            .cost(&self.topology, from_pe, to_pe, bytes);

        self.place(rank, to_pe);
        self.ranks[rank].migrations += 1;
        if self.ranks[rank].status == RankStatus::Ready {
            self.pes[from_pe].ready.retain(|&x| x != rank);
            self.enqueue_ready(rank, to_pe);
        }

        let rec = MigrationRecord {
            rank,
            from_pe,
            to_pe,
            bytes,
            stored_bytes,
            real_time,
            sim_cost,
        };
        self.trace(
            from_pe,
            rank as u32,
            EventKind::Migration {
                from_pe: from_pe as u32,
                to_pe: to_pe as u32,
                bytes: bytes as u64,
            },
        );
        drop(trace_scope);
        self.migrations.push(rec);
        Ok(rec)
    }

    /// `rank` now lives on `pe` — the commit point of every move, in the
    /// three places that say where a rank is: the directory, the rank's
    /// state, and what [`crate::RankCtx::my_pe`] reads.
    pub(crate) fn place(&mut self, rank: RankId, pe: PeId) {
        self.location.update(rank, pe);
        self.ranks[rank].location = pe;
        self.ranks[rank].shared.current_pe.store(pe, Ordering::Relaxed);
    }

    /// Put a ready `rank` on `pe`'s queue and, in virtual time, wake the PE.
    pub(crate) fn enqueue_ready(&mut self, rank: RankId, pe: PeId) {
        self.pes[pe].ready.push_back(rank);
        if self.clock == ClockMode::Virtual {
            let at = self.queue.now().max_of(self.pes[pe].clock);
            self.queue.schedule(at, Event::PeWake { pe });
        }
    }

    /// Hand a message to its target's matching engine — the barrier-time
    /// path (harness injection, real-time hub spill-over), through the
    /// same lane code the engines run during epochs.
    pub(crate) fn deposit(&mut self, msg: RtsMessage) {
        let pe = self.location.lookup(msg.to);
        let merged = self.with_lane(pe, |ctx| ctx.deposit(0, msg)).1;
        debug_assert!(merged.is_ok(), "a deposit raises no lane error");
    }

    /// Drive one rank until it blocks, parks, yields, or completes
    /// (harness/test entry point).
    pub(crate) fn run_rank_slice(&mut self, r: RankId) -> Result<StopReason, RtsError> {
        let pe = self.location.lookup(r);
        let (res, merged) = self.with_lane(pe, |ctx| ctx.run_rank_slice(r));
        let stop = res?;
        merged?;
        Ok(stop)
    }

    /// Run `f` as a one-lane engine invocation on `pe` and merge the
    /// lane back. Horizon ZERO: every emission crosses the barrier,
    /// exactly reproducing global-queue scheduling.
    fn with_lane<T>(
        &mut self,
        pe: PeId,
        f: impl FnOnce(&mut worker::ExecCtx<'_, '_>) -> T,
    ) -> (T, Result<(), RtsError>) {
        let mut lane = Lane {
            pe,
            state: std::mem::take(&mut self.pes[pe]),
            queue: EventQueue::new(),
            horizon: SimTime::ZERO,
            out: Outbox::default(),
        };
        let res = f(&mut worker::ExecCtx {
            shared: &self.engine_shared(),
            lanes: std::slice::from_mut(&mut lane),
            pe_base: pe,
            li: 0,
        });
        (res, self.merge_lanes([lane]))
    }

    /// Bring `rank`'s stack extent up to date with its ULT's suspended
    /// stack pointer, which is returned — before anything reads, overwrites
    /// or restores the rank's memory as an image. Nobody else knows where
    /// a stack's live bytes end; the heap's extents keep themselves.
    pub(crate) fn refresh_stack_extent(&mut self, rank: RankId) -> Option<usize> {
        let state = &mut self.ranks[rank];
        let sp = state.ult.as_ref().and_then(|u| u.suspended_sp());
        state.memory.set_stack_live(sp);
        sp
    }

    /// Pack `rank`'s memory into `out` (cleared first), sourcing a COW
    /// data segment through its page table instead of its backing store.
    /// The produced bytes are identical to a materialize-then-pack
    /// (shared pages read the template, which the backing region mirrors
    /// on unpack), but the segment's page sharing — and hence the dedup
    /// audit's numbers — survive the pack.
    pub(crate) fn pack_rank_read_through(
        &self,
        rank: RankId,
        include: impl Fn(pvr_isomalloc::RegionKind) -> bool,
        out: &mut pvr_isomalloc::MigrationBuffer,
    ) {
        let mut snap = self
            .privatizers
            .iter()
            .find_map(|p| p.cow_segment_snapshot(rank));
        self.ranks[rank].memory.pack_with_sources_into(out, include, |reg| {
            let (_, bytes) = snap.take_if(|(seg_base, _)| reg.base() as usize == *seg_base)?;
            Some(bytes)
        });
    }

    /// Worker threads `run` will actually use: the configured
    /// [`Parallelism`] (with `Auto` reading `PVR_THREADS`), clamped to
    /// the PE count, and forced to 1 when guards or an unprivatized
    /// method require the single-threaded engine.
    pub(crate) fn effective_threads(&self) -> usize {
        let requested = match self.parallelism {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::env::var("PVR_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1),
        };
        let capped = requested.min(self.pes.len().max(1));
        if self.guards.is_some() || self.method() == Method::Unprivatized {
            1
        } else {
            capped
        }
    }

    /// Conservative lookahead for epoch formation: the minimum cost any
    /// cross-PE event can incur. Events popped within one window can
    /// only schedule onto *other* lanes at or beyond the horizon, which
    /// is what makes concurrent lane execution safe.
    /// Only *active* PE pairs count: dead and deactivated PEs source no
    /// events, so links touching them cannot constrain the window. The
    /// machine recomputes this whenever the active set changes
    /// (`Geometry::take_dirty`) — epoch partitioning does not affect merged
    /// results, so a mid-run window change preserves bit-identity.
    fn lookahead(&self) -> Lookahead {
        let active = self.geometry.active();
        if active.len() <= 1 {
            return Lookahead::Unbounded;
        }
        let mut min_cost: Option<SimDuration> = None;
        for &a in &active {
            for &b in &active {
                if a == b {
                    continue;
                }
                let c = self.network.cost(&self.topology, a, b, 0);
                min_cost = Some(match min_cost {
                    Some(m) if m <= c => m,
                    _ => c,
                });
            }
        }
        match min_cost {
            None => Lookahead::Unbounded,
            // An ideal network gives zero lookahead: fall back to
            // one-event epochs (still parallel-safe; rarely parallel-
            // profitable, which the dynamic engine choice handles).
            Some(c) if c.nanos() == 0 => Lookahead::SingleEvent,
            Some(c) => Lookahead::Window(c),
        }
    }

    /// Which lane an event belongs to. `Deliver` follows the target's
    /// *current* placement (stale `dest_pe` stamps still pay the forward
    /// hop); reliable-layer timers run on the sender's lane.
    fn event_pe(&self, ev: &Event) -> PeId {
        match ev {
            Event::Deliver { msg, .. } => self.location.lookup(msg.to),
            Event::PeWake { pe } => *pe,
            Event::Ack { from, .. } | Event::Retransmit { from, .. } => {
                self.location.lookup(*from)
            }
        }
    }

    /// Split an epoch's event batch into per-PE lanes, moving each PE's
    /// scheduler state into its lane. Batch order (time, global seq) is
    /// preserved within each lane. Drains `batch` so the caller can
    /// reuse the buffer.
    ///
    /// Lane queues and outboxes are recycled from `lane_slots`
    /// (returned by [`Self::merge_lanes`]) so steady-state
    /// epochs allocate nothing. Recycling is safe for the queue's
    /// monotonic `now`: every event in the next epoch's batch is at or
    /// beyond the previous horizon, which bounds every lane's `now`.
    fn make_lanes(&mut self, batch: &mut Vec<(SimTime, Event)>, horizon: SimTime) -> Vec<Lane> {
        let n = self.pes.len();
        if self.lane_slots.len() != n {
            // First epoch (or the PE count changed): pre-size each
            // lane's queue and outbox from the run shape so the
            // steady state never reallocates.
            let cap = (self.ranks.len() * 4 / n.max(1)).max(16);
            self.lane_slots = (0..n)
                .map(|_| (EventQueue::with_capacity(cap), Outbox::with_capacity(cap)))
                .collect();
        }
        let mut lanes: Vec<Lane> = (0..n)
            .map(|pe| {
                let (queue, out) = std::mem::take(&mut self.lane_slots[pe]);
                Lane {
                    pe,
                    state: std::mem::take(&mut self.pes[pe]),
                    queue,
                    horizon,
                    out,
                }
            })
            .collect();
        for (t, ev) in batch.drain(..) {
            let pe = self.event_pe(&ev);
            lanes[pe].queue.schedule(t, ev);
        }
        lanes
    }

    /// Fold completed lanes back into the machine at the barrier:
    /// restore PE state, absorb counter deltas in PE order, merge
    /// cross-lane events into the global queue in deterministic
    /// (time, source PE, emission index) order, resolve deferred
    /// retransmit-exhaustion verdicts, and surface the canonical
    /// (earliest) error if any lane failed.
    fn merge_lanes(&mut self, lanes: impl IntoIterator<Item = Lane>) -> Result<(), RtsError> {
        let mut merged: Vec<(SimTime, PeId, Event)> = std::mem::take(&mut self.merge_buf);
        let mut exhausted: Vec<(PeId, worker::Exhausted)> = Vec::new();
        let mut errors: Vec<(SimTime, PeId, u8, RtsError)> = Vec::new();
        for mut lane in lanes {
            let pe = lane.pe;
            self.pes[pe] = std::mem::take(&mut lane.state);
            // A lane that errored stops mid-window; reinstate its
            // unprocessed events so machine state stays coherent.
            while let Some((t, ev)) = lane.queue.pop() {
                merged.push((t, pe, ev));
            }
            let out = &mut lane.out;
            self.tallies.absorb(&out.tallies);
            self.done_count += out.done;
            self.at_sync_count += out.at_sync;
            for ((a, b), v) in std::mem::take(&mut out.comm_bytes) {
                *self.comm_bytes.entry((a, b)).or_default() += v;
            }
            for _ in 0..out.forwards {
                self.location.note_forward();
            }
            if let (Some(guards), Some(r)) = (&mut self.guards, out.last_ran) {
                guards.last_ran = Some(r);
            }
            for (t, ev) in out.events.drain(..) {
                merged.push((t, pe, ev));
            }
            for ex in out.exhausted.drain(..) {
                exhausted.push((pe, ex));
            }
            if let Some((t, class, e)) = out.error.take() {
                errors.push((t, pe, class, e));
            }
            let unrouted = std::mem::take(&mut out.unrouted);
            for msg in unrouted {
                self.deposit(msg);
            }
            // Recycle the lane's (now empty) queue and outbox so the
            // next epoch's `make_lanes` allocates nothing.
            if pe < self.lane_slots.len() {
                lane.out.reset();
                self.lane_slots[pe] = (lane.queue, lane.out);
            }
        }
        // Stable sort on (time, source PE); the per-lane emission index
        // is the push order the sort preserves, and the global queue's
        // sequence number is the final tie-break.
        merged.sort_by_key(|e| (e.0, e.1));
        for (t, _, ev) in merged.drain(..) {
            let at = t.max_of(self.queue.now());
            self.queue.schedule(at, ev);
        }
        self.merge_buf = merged;
        // Deferred retransmit exhaustions, judged against post-epoch
        // receive state in deterministic (time, sender PE) order.
        exhausted.sort_by_key(|&(pe, ref ex)| (ex.at, pe));
        for (pe, ex) in exhausted {
            let verdict = {
                let mut rel = self
                    .reliable
                    .as_ref()
                    .expect("reliable layer active")
                    .lock();
                if !rel.inflight.contains_key(&(ex.from, ex.to, ex.seq)) {
                    continue;
                }
                let delivered = rel
                    .recv
                    .get(&(ex.from, ex.to))
                    .is_some_and(|p| p.next_expected > ex.seq);
                if delivered {
                    // Receiver released it; only the acks were lost.
                    rel.inflight.remove(&(ex.from, ex.to, ex.seq));
                    None
                } else {
                    Some(RtsError::DeliveryFailed {
                        from: ex.from,
                        to: ex.to,
                        seq: ex.seq,
                        attempts: ex.attempts,
                    })
                }
            };
            if let Some(e) = verdict {
                errors.push((ex.at, pe, 1, e));
            }
        }
        errors.sort_by_key(|&(t, pe, class, _)| (t, pe, class));
        match errors.into_iter().next() {
            Some((_, _, _, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Shared state handle for one epoch/burst. Borrows are per-field so
    /// engines can hold it alongside `&mut` lanes.
    fn engine_shared(&self) -> EngineShared<'_> {
        EngineShared {
            clock: self.clock,
            topology: &self.topology,
            network: &self.network,
            location: &self.location,
            ranks: &self.ranks,
            hls: &self.pe_hls_blocks,
            alive: self.geometry.alive(),
            tracer: self.tracer.as_ref(),
            reliable: self.reliable.as_ref(),
            privatizers: &self.privatizers,
            guards: self.guards.as_ref(),
            epoch_start: self.epoch,
            n_ranks: self.ranks.len(),
            max_outstanding_reqs: self.max_outstanding_reqs,
        }
    }

    /// Fold one epoch's or burst's per-worker wall-clocks into the engine
    /// tallies. `parallel_since` is when it went to more than one worker
    /// (`None`: the driver ran it alone).
    fn record_walls(&mut self, parallel_since: Option<Instant>, walls: Vec<Duration>) {
        if let Some(t0) = parallel_since {
            self.engine.barriers += 1;
            self.engine.parallel_wall += t0.elapsed();
            self.engine.parallel_busy += walls.iter().sum::<Duration>();
        }
        for (total, w) in self.engine.worker_wall.iter_mut().zip(walls) {
            *total += w;
        }
    }

    /// Execute one epoch: split the batch into lanes, let the pool's
    /// workers claim the ones with events, and merge at the barrier.
    /// Every lane runs the same lane code whoever claims it, so neither
    /// the thread count nor the claim order can change results.
    fn run_epoch(
        &mut self,
        batch: &mut Vec<(SimTime, Event)>,
        horizon: SimTime,
        pool: &WorkerPool,
    ) -> Result<(), RtsError> {
        self.engine.epochs += 1;
        let mut lanes = self.make_lanes(batch, horizon);
        let active = lanes.iter().filter(|l| !l.queue.is_empty()).count();
        let t0 = (pool.threads() > 1 && active > 1).then(Instant::now);
        let walls =
            engine_parallel::run_epoch_lanes(&self.engine_shared(), &mut lanes, pool, active);
        self.record_walls(t0, walls);
        self.merge_lanes(lanes)
    }

    /// One real-time scheduler burst: round-robin fair sweeps until no
    /// PE can make progress. Returns whether any slice ran.
    fn run_real_burst(&mut self, pool: &WorkerPool) -> Result<bool, RtsError> {
        self.engine.epochs += 1;
        let mut lanes = self.make_lanes(&mut Vec::new(), SimTime::ZERO);
        let t0 = (pool.threads() > 1).then(Instant::now);
        let (ran, walls) = engine_parallel::real_burst(&self.engine_shared(), &mut lanes, pool);
        self.record_walls(t0, walls);
        self.merge_lanes(lanes)?;
        Ok(ran > 0)
    }

    /// Run the job to completion.
    pub fn run(&mut self) -> Result<RunReport, RtsError> {
        let _scope = self.trace_scope();
        let threads = self.effective_threads();
        self.engine.threads = threads;
        if self.engine.worker_wall.len() < threads {
            self.engine.worker_wall.resize(threads, Duration::ZERO);
        }
        let t0 = Instant::now();
        // The helpers live for this call: `pool` is dropped — and its
        // threads joined — on the `?` paths below as on the normal one.
        let pool = WorkerPool::new(threads);
        match self.clock {
            ClockMode::RealTime => self.run_real(&pool)?,
            ClockMode::Virtual => self.run_virtual(&pool)?,
        }
        drop(pool);
        let real_elapsed = t0.elapsed();
        if let Some(t) = &self.tracer {
            for (pe, p) in self.pes.iter().enumerate() {
                t.set_pe_clock(pe, p.busy.nanos(), p.idle.nanos());
            }
        }
        self.tallies.cow = self.collect_cow_tallies();
        self.tallies.ckpt.chain_len = self.ckpt.chain_len();
        let t = self.tallies;
        Ok(RunReport {
            sim_elapsed: self
                .pes
                .iter()
                .map(|p| p.clock)
                .max()
                .unwrap_or(SimTime::ZERO)
                - SimTime::ZERO,
            real_elapsed,
            pe_busy_idle: self.pes.iter().map(|p| (p.busy, p.idle)).collect(),
            context_switches: t.switches,
            messages_delivered: t.delivered,
            lb_steps: self.lb_steps,
            migrations: self.migrations.clone(),
            pe_clocks: self.pes.iter().map(|p| p.clock).collect(),
            lb_history: self.lb_history.clone(),
            faults: t.faults,
            method_requested: self.method_requested,
            method_landed: self.method(),
            hardening: t.hardening,
            cow: t.cow,
            elastic: t.elastic,
            ckpt: t.ckpt,
            req: t.req,
            engine: EngineTallies {
                pool_hits: t.pool_hits,
                pool_misses: t.pool_misses,
                ..self.engine.clone()
            },
        })
    }

    /// Bench hook (`repro -- perf`, row `epoch_dispatch`): on a machine
    /// whose run is over, drive `epochs` epochs of two lanes holding one
    /// no-op `PeWake` each — all an epoch costs beyond its lanes' work —
    /// on the pool `run` would use, and return the wall-clock they took.
    /// Panics unless the machine has two PEs or more.
    #[doc(hidden)]
    pub fn bench_epoch_dispatch(&mut self, epochs: usize) -> Duration {
        let pool = WorkerPool::new(self.effective_threads());
        // Fresh lane queues: theirs start at time zero, like the wakes.
        self.lane_slots.clear();
        let mut batch = Vec::new();
        let t0 = Instant::now();
        for _ in 0..epochs {
            batch.extend((0..2).map(|pe| (SimTime::ZERO, Event::PeWake { pe })));
            self.run_epoch(&mut batch, SimTime::MAX, &pool)
                .expect("an idle PE's wake raises nothing");
        }
        t0.elapsed()
    }

    /// Sum copy-on-write accounting across the per-process privatizers
    /// and run the end-of-run dedup audit: union the per-process
    /// faulted-page masks, count the pages that never diverged on any
    /// rank, and emit one `DedupAudit` trace event. All-zero (and no
    /// event) for eager methods.
    fn collect_cow_tallies(&mut self) -> CowTallies {
        let mut cow = CowTallies::default();
        let mut ranks: u64 = 0;
        let mut union: Vec<u64> = Vec::new();
        for p in &self.privatizers {
            let Some(s) = p.cow_stats() else { continue };
            cow.page_faults += s.page_faults;
            cow.pages_privatized += s.pages_privatized;
            cow.materialized_ranks += s.materialized_ranks;
            cow.total_pages = cow.total_pages.max(s.total_pages);
            ranks += s.ranks;
            if union.len() < s.faulted_page_union.len() {
                union.resize(s.faulted_page_union.len(), 0);
            }
            for (w, &m) in union.iter_mut().zip(&s.faulted_page_union) {
                *w |= m;
            }
        }
        if ranks == 0 && cow.total_pages == 0 {
            return cow;
        }
        let diverged: u64 = union.iter().map(|w| w.count_ones() as u64).sum();
        cow.shared_pages = cow.total_pages.saturating_sub(diverged);
        self.trace_job(pvr_trace::EventKind::DedupAudit {
            ranks: ranks as u32,
            shared_pages: cow.shared_pages,
            total_pages: cow.total_pages,
        });
        cow
    }

    /// Run the LB barrier if every live rank is parked at it, and bring
    /// `lookahead` up to date if that changed the active set. Returns
    /// whether a barrier ran.
    fn barrier_if_due(&mut self, lookahead: &mut Lookahead) -> Result<bool, RtsError> {
        let live = self.ranks.len() - self.done_count;
        let due = self.at_sync_count > 0 && self.at_sync_count == live;
        if due {
            self.do_lb_step()?;
            if self.geometry.take_dirty() {
                *lookahead = self.lookahead();
            }
        }
        Ok(due)
    }

    /// Nothing can run and no barrier is due: the job is finished, or
    /// its live ranks are blocked forever.
    fn finished_or_deadlocked(&self) -> Result<(), RtsError> {
        let waiting: Vec<RankId> =
            (0..self.ranks.len()).filter(|&r| !self.ranks[r].is_done()).collect();
        if waiting.is_empty() {
            Ok(())
        } else {
            Err(RtsError::Deadlock { waiting })
        }
    }

    fn run_real(&mut self, pool: &WorkerPool) -> Result<(), RtsError> {
        // Real time forms no epochs; the barrier keeps this current anyway.
        let mut lookahead = Lookahead::Unbounded;
        while self.done_count < self.ranks.len() {
            let progressed = self.run_real_burst(pool)?;
            if !self.barrier_if_due(&mut lookahead)? && !progressed {
                return self.finished_or_deadlocked();
            }
        }
        Ok(())
    }

    fn run_virtual(&mut self, pool: &WorkerPool) -> Result<(), RtsError> {
        // all PEs start at t=0
        for pe in 0..self.pes.len() {
            self.queue.schedule(SimTime::ZERO, Event::PeWake { pe });
        }
        let mut lookahead = self.lookahead();
        // Reused across epochs: `drain_until` and `make_lanes` both
        // drain it, so one warm buffer serves the whole run.
        let mut batch: Vec<(SimTime, Event)> = Vec::new();
        while self.done_count < self.ranks.len() {
            debug_assert!(batch.is_empty());
            match lookahead {
                Lookahead::Unbounded => self.queue.drain_until(SimTime::MAX, &mut batch),
                Lookahead::SingleEvent => batch.extend(self.queue.pop()),
                Lookahead::Window(l) => {
                    if let Some(t0) = self.queue.peek_time() {
                        self.queue.drain_until(t0.saturating_add(l), &mut batch);
                    }
                }
            }
            if batch.is_empty() {
                if self.barrier_if_due(&mut lookahead)? {
                    continue;
                }
                return self.finished_or_deadlocked();
            }
            let horizon = match lookahead {
                Lookahead::Unbounded => SimTime::MAX,
                // Horizon at the event's own time: every emission
                // crosses the barrier, replicating global-queue order.
                Lookahead::SingleEvent => batch[0].0,
                Lookahead::Window(l) => batch[0].0.saturating_add(l),
            };
            self.run_epoch(&mut batch, horizon, pool)?;
            self.barrier_if_due(&mut lookahead)?;
        }
        Ok(())
    }
}

/// Epoch-window policy derived from the network model (see
/// [`Machine::lookahead`]).
#[derive(Debug, Clone, Copy)]
enum Lookahead {
    /// One PE (or no cross-PE pairs): a single epoch covers everything.
    Unbounded,
    /// Zero minimum cross-PE cost: one event per epoch.
    SingleEvent,
    /// Minimum cross-PE cost `L`: epochs are `[t0, t0 + L)` windows.
    Window(SimDuration),
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("method", &self.method())
            .field("pes", &self.pes.len())
            .field("ranks", &self.ranks.len())
            .field("clock", &self.clock)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::command::{MatchSpec, RankCtx};
    use crate::config::{ConfigError, MachineBuilder};
    use bytes::Bytes;
    use pvr_isomalloc::RegionKind;
    use pvr_progimage::{link, ImageSpec, ProgramBinary, SharedFs};
    use std::sync::atomic::AtomicUsize;

    fn test_binary() -> Arc<ProgramBinary> {
        link(
            ImageSpec::builder("rts-test")
                .global("my_rank", 8)
                .static_var("round", 8)
                .build(),
        )
    }

    pub(crate) fn builder() -> MachineBuilder {
        MachineBuilder::new(test_binary())
    }

    /// Trace events and `RunReport` tallies reconcile exactly, row by row.
    fn assert_reconciled(report: &RunReport, t: &Tracer) {
        for (row, traced, reported) in report.trace_rows(&t.counts()) {
            assert_eq!(traced, reported, "{row}");
        }
    }

    thread_local! {
        static RESTORE_SKIPS_HEAP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Seeded mutant read by `restore_checkpoint` (on the thread that
    /// drives the barrier — the test's own).
    pub(crate) fn restore_skips_heap() -> bool {
        RESTORE_SKIPS_HEAP.with(|m| m.get())
    }

    #[test]
    fn single_rank_runs_to_completion() {
        let mut m = builder()
            .build(Arc::new(|ctx: RankCtx| {
                assert_eq!(ctx.rank(), 0);
                assert_eq!(ctx.n_ranks(), 1);
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert!(report.context_switches >= 1);
    }

    #[test]
    fn ping_pong_between_two_ranks() {
        let mut m = builder()
            .topology(Topology::smp(1))
            .vp_ratio(2)
            .build(Arc::new(|ctx: RankCtx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 42, Bytes::from_static(b"ping"));
                    let m = ctx.recv();
                    assert_eq!(&m.payload[..], b"pong");
                    assert_eq!(m.from, 1);
                } else {
                    let m = ctx.recv();
                    assert_eq!(&m.payload[..], b"ping");
                    assert_eq!(m.tag, 42);
                    ctx.send(0, 43, Bytes::from_static(b"pong"));
                }
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.messages_delivered, 2);
    }

    #[test]
    fn virtual_time_advances_with_compute() {
        let mut m = builder()
            .clock(ClockMode::Virtual)
            .vp_ratio(2)
            .build(Arc::new(|ctx: RankCtx| {
                ctx.compute(SimDuration::from_millis(5));
                let t = ctx.wtime();
                assert!(t >= 0.005, "clock should show computed time, got {t}");
            }))
            .unwrap();
        let report = m.run().unwrap();
        // both ranks on one PE: serial in virtual time
        assert_eq!(report.sim_elapsed, SimDuration::from_millis(10));
    }

    #[test]
    fn virtual_time_parallel_pes_overlap() {
        let mut m = builder()
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(4))
            .vp_ratio(1)
            .build(Arc::new(|ctx: RankCtx| {
                ctx.compute(SimDuration::from_millis(5));
            }))
            .unwrap();
        let report = m.run().unwrap();
        // 4 PEs work in parallel in virtual time
        assert_eq!(report.sim_elapsed, SimDuration::from_millis(5));
    }

    #[test]
    fn virtual_messages_charge_network_latency() {
        let mut m = builder()
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .build(Arc::new(|ctx: RankCtx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, Bytes::from_static(b"x"));
                } else {
                    let _ = ctx.recv();
                    // inter-node latency is 2us minimum
                    assert!(ctx.wtime() >= 2e-6);
                }
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert!(report.sim_elapsed >= SimDuration::from_micros(2));
    }

    #[test]
    fn overdecomposition_hides_latency() {
        // The core AMPI claim: with blocking ranks, more VPs per PE
        // overlap communication gaps with other ranks' compute.
        let body = |ctx: RankCtx| {
            // each rank: compute, exchange with partner on other node,
            // compute again
            let me = ctx.rank();
            let n = ctx.n_ranks();
            let partner = (me + n / 2) % n;
            for _ in 0..4 {
                ctx.compute(SimDuration::from_micros(10));
                ctx.send(partner, 0, Bytes::from(vec![0u8; 10_000]));
                let _ = ctx.recv();
            }
        };
        let run = |ratio: usize| -> SimDuration {
            let mut m = builder()
                .clock(ClockMode::Virtual)
                .topology(Topology::non_smp(2))
                .vp_ratio(ratio)
                .build(Arc::new(body))
                .unwrap();
            m.run().unwrap().sim_elapsed
        };
        let t1 = run(1);
        let t8 = run(8);
        // per-rank work grows 8x but elapsed should grow far less than 8x
        // because communication overlaps with other ranks' compute.
        let per_rank_t1 = t1.as_secs_f64();
        let per_rank_t8 = t8.as_secs_f64() / 8.0;
        assert!(
            per_rank_t8 < per_rank_t1 * 0.9,
            "overdecomposition should hide latency: t1={t1}, t8={t8}"
        );
    }

    #[test]
    fn deadlock_detected() {
        let mut m = builder()
            .vp_ratio(2)
            .build(Arc::new(|ctx: RankCtx| {
                let _ = ctx.recv(); // everyone waits, nobody sends
            }))
            .unwrap();
        match m.run() {
            Err(RtsError::Deadlock { waiting }) => assert_eq!(waiting, vec![0, 1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_detected_virtual() {
        let mut m = builder()
            .clock(ClockMode::Virtual)
            .vp_ratio(2)
            .build(Arc::new(|ctx: RankCtx| {
                if ctx.rank() == 1 {
                    let _ = ctx.recv();
                }
            }))
            .unwrap();
        match m.run() {
            Err(RtsError::Deadlock { waiting }) => assert_eq!(waiting, vec![1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_surfaces_with_rank_id() {
        let mut m = builder()
            .vp_ratio(2)
            .build(Arc::new(|ctx: RankCtx| {
                if ctx.rank() == 1 {
                    panic!("sabotage");
                }
            }))
            .unwrap();
        match m.run() {
            Err(RtsError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 1);
                assert!(message.contains("sabotage"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn globals_are_privatized_through_the_machine() {
        // The Fig. 2/3 scenario end-to-end: write rank id to a global,
        // exchange messages (forcing interleaving), read it back.
        let body = |ctx: RankCtx| {
            let me = ctx.rank();
            let acc = ctx.instance().access("my_rank");
            acc.write_u64(me as u64);
            // force a context switch to the other rank
            ctx.yield_now();
            ctx.yield_now();
            let observed = acc.read_u64();
            // under PIEglobals the value must still be ours
            assert_eq!(observed, me as u64, "global leaked across ranks");
        };
        let mut m = builder()
            .method(Method::PieGlobals)
            .vp_ratio(2)
            .build(Arc::new(body))
            .unwrap();
        m.run().unwrap();
    }

    #[test]
    fn unprivatized_exhibits_the_bug() {
        use std::sync::atomic::AtomicU64;
        let observed = Arc::new(AtomicU64::new(u64::MAX));
        let obs = observed.clone();
        let body = move |ctx: RankCtx| {
            let me = ctx.rank();
            let acc = ctx.instance().access("my_rank");
            acc.write_u64(me as u64);
            ctx.yield_now();
            ctx.yield_now();
            if me == 0 {
                obs.store(acc.read_u64(), Ordering::SeqCst);
            }
        };
        let mut m = builder()
            .method(Method::Unprivatized)
            .vp_ratio(2)
            .build(Arc::new(body))
            .unwrap();
        m.run().unwrap();
        // rank 0 sees rank 1's value — the paper's Fig. 3 output
        assert_eq!(observed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn migration_moves_rank_and_preserves_state() {
        let mut m = builder()
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(1)
            .build(Arc::new(|ctx: RankCtx| {
                if ctx.rank() != 0 {
                    return; // only rank 0 participates
                }
                let acc = ctx.instance().access("my_rank");
                acc.write_u64(7777);
                let _ = ctx.recv(); // park so the driver can migrate us
                assert_eq!(acc.read_u64(), 7777, "state must survive migration");
            }))
            .unwrap();
        // run rank 0 until it parks in recv: drive manually
        assert!(matches!(
            m.run_rank_slice(0),
            Ok(StopReason::BlockedRecv)
        ));
        let rec = m.migrate_now(0, 1).unwrap();
        assert_eq!(rec.from_pe, 0);
        assert_eq!(rec.to_pe, 1);
        assert!(rec.bytes > 128 * 1024, "stack+heap+segments must move");
        assert_eq!(m.location_of(0), 1);
        // wake it up and finish
        m.deposit(RtsMessage::new(1, 0, 0, Bytes::new()));
        m.run().unwrap();
    }

    #[test]
    fn matched_receive_ignores_other_arrivals_and_survives_migration() {
        let wanted = MatchSpec {
            src: Some(1),
            tag_mask: u64::MAX,
            tag_value: 9,
        };
        let mut m = builder()
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(1)
            .build(Arc::new(move |ctx: RankCtx| {
                if ctx.rank() != 0 {
                    return;
                }
                let got = ctx.recv_match(wanted);
                assert_eq!((got.from, got.tag, &got.payload[..]), (1, 9, &b"wanted"[..]));
                // what it slept through is still buffered, in arrival order
                let tags: Vec<u64> = std::iter::from_fn(|| ctx.try_recv()).map(|m| m.tag).collect();
                assert_eq!(tags, [8, 9, 7]);
            }))
            .unwrap();
        assert!(matches!(m.run_rank_slice(0), Ok(StopReason::BlockedRecv)));
        // wrong tag, wrong source: buffered, the rank stays suspended
        m.deposit(RtsMessage::new(1, 0, 8, Bytes::new()));
        m.deposit(RtsMessage::new(0, 0, 9, Bytes::new()));
        assert_eq!(m.ranks[0].status, RankStatus::Waiting);
        assert_eq!(m.ranks[0].matcher.buffered(), 2);
        // the suspended receive moves with the rank
        m.migrate_now(0, 1).unwrap();
        m.deposit(RtsMessage::new(1, 0, 7, Bytes::new()));
        assert_eq!(m.ranks[0].status, RankStatus::Waiting);
        assert_eq!(m.pes[1].ready, [1], "not requeued by arrivals it rejects");
        m.deposit(RtsMessage::new(1, 0, 9, Bytes::from_static(b"wanted")));
        assert_eq!(m.ranks[0].status, RankStatus::Ready);
        assert_eq!(m.pes[1].ready, [1, 0], "requeued on its new PE");
        let report = m.run().unwrap();
        assert!(report.req.is_clean(), "a blocking receive is not a request");
    }

    #[test]
    fn migration_rejected_for_non_migratable_methods() {
        let mut m = builder()
            .method(Method::PipGlobals)
            .topology(Topology::non_smp(2))
            .build(Arc::new(|_ctx: RankCtx| {}))
            .unwrap();
        match m.migrate_now(0, 1) {
            Err(RtsError::BadMigration { detail, .. }) => {
                assert!(detail.contains("Isomalloc"))
            }
            other => panic!("expected BadMigration, got {other:?}"),
        }
    }

    #[test]
    fn at_sync_with_greedy_lb_rebalances() {
        use crate::lb::GreedyLb;
        // 4 ranks on 2 PEs; ranks 0,1 (PE 0) are heavy. After AtSync+LB,
        // heavy ranks should be split across PEs.
        let mut m = builder()
            .method(Method::PieGlobals)
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .balancer(Box::new(GreedyLb))
            .build(Arc::new(|ctx: RankCtx| {
                for _round in 0..2 {
                    let work = if ctx.rank() < 2 { 80 } else { 1 };
                    ctx.compute(SimDuration::from_millis(work));
                    ctx.at_sync();
                }
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.lb_steps, 2);
        assert!(!report.migrations.is_empty(), "LB must move ranks");
        // after LB the heavy ranks are on different PEs
        assert_ne!(m.location_of(0), m.location_of(1));
        // and the run is faster than the unbalanced serial 2*160ms
        assert!(report.sim_elapsed < SimDuration::from_millis(250));
    }

    #[test]
    fn lb_history_records_imbalance_reduction() {
        use crate::lb::GreedyLb;
        let mut m = builder()
            .method(Method::PieGlobals)
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .vp_ratio(4)
            .balancer(Box::new(GreedyLb))
            .build(Arc::new(|ctx: RankCtx| {
                for _ in 0..2 {
                    // ranks 0..4 (all on PE 0 initially) are heavy
                    let work = if ctx.rank() < 4 { 50 } else { 1 };
                    ctx.compute(SimDuration::from_millis(work));
                    ctx.at_sync();
                }
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.lb_history.len(), 2);
        let first = &report.lb_history[0];
        assert!(first.imbalance_before() > 1.5, "block map is imbalanced");
        assert!(
            first.imbalance_after() < first.imbalance_before(),
            "greedy must reduce imbalance: {} -> {}",
            first.imbalance_before(),
            first.imbalance_after()
        );
        assert!(first.migrations > 0);
        assert_eq!(first.step, 1);
    }

    #[test]
    fn lb_improves_makespan_vs_null() {
        use crate::lb::GreedyRefineLb;
        let body = |ctx: RankCtx| {
            for _round in 0..4 {
                // all the heavy ranks start block-mapped onto PE 0
                let work = if ctx.rank() < 4 { 40 } else { 1 };
                ctx.compute(SimDuration::from_millis(work));
                ctx.at_sync();
            }
        };
        let run = |lb: Option<Box<dyn LoadBalancer>>| {
            let mut b = builder()
                .method(Method::PieGlobals)
                .clock(ClockMode::Virtual)
                .topology(Topology::non_smp(4))
                .vp_ratio(4);
            if let Some(lb) = lb {
                b = b.balancer(lb);
            }
            let mut m = b.build(Arc::new(body)).unwrap();
            m.run().unwrap().sim_elapsed
        };
        let without = run(None);
        let with = run(Some(Box::new(GreedyRefineLb::default())));
        assert!(
            with < without,
            "LB should improve imbalanced run: {with} !< {without}"
        );
    }

    #[test]
    fn startup_reports_costs() {
        let m = builder()
            .method(Method::FsGlobals)
            .vp_ratio(4)
            .build(Arc::new(|_ctx: RankCtx| {}))
            .unwrap();
        assert!(m.simulated_startup_cost() > Duration::ZERO);
        assert!(m.per_rank_copied_bytes() > 0);
    }

    #[test]
    fn pip_namespace_exhaustion_at_build_time() {
        // 16 VPs on one PE needs 16 namespaces: stock glibc caps at 12.
        let err = builder()
            .method(Method::PipGlobals)
            .vp_ratio(16)
            .build(Arc::new(|_ctx: RankCtx| {}));
        match err {
            Err(ConfigError::Startup(PrivatizeError::Dl(
                pvr_progimage::DlError::NamespaceExhausted { .. },
            ))) => {}
            other => panic!("expected namespace exhaustion, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn wildcard_timer_monotone() {
        let mut m = builder()
            .clock(ClockMode::Virtual)
            .build(Arc::new(|ctx: RankCtx| {
                let t0 = ctx.wtime();
                ctx.compute(SimDuration::from_millis(1));
                let t1 = ctx.wtime();
                assert!(t1 >= t0 + 0.001);
            }))
            .unwrap();
        m.run().unwrap();
    }

    #[test]
    fn empty_pe_reduction_error_under_pieglobals() {
        use pvr_progimage::FunctionSpec;
        let bin = link(
            ImageSpec::builder("op-test")
                .global("g", 8)
                .function(FunctionSpec::new("combine", 64).with_callable(Arc::new(|_i, _o| {})))
                .build(),
        );
        let mut m = MachineBuilder::new(bin)
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(1)
            .build(Arc::new(|ctx: RankCtx| {
                if ctx.rank() == 0 {
                    let _ = ctx.recv();
                }
            }))
            .unwrap();
        let offset = m.privatizer(0).fn_offset_of("combine").unwrap();
        // both PEs have a rank: resolution works everywhere
        assert!(m.resolve_op_on_pe(0, offset).is_ok());
        assert!(m.resolve_op_on_pe(1, offset).is_ok());
        // park rank 0, move it away: PE 0 becomes empty
        assert!(matches!(m.run_rank_slice(0), Ok(StopReason::BlockedRecv)));
        m.migrate_now(0, 1).unwrap();
        match m.resolve_op_on_pe(0, offset) {
            Err(RtsError::EmptyPeReduction { pe }) => assert_eq!(pe, 0),
            other => panic!("expected EmptyPeReduction, got {:?}", other.map(|_| ())),
        }
        // under TLSglobals the same situation is fine (shared code)
        let bin2 = link(
            ImageSpec::builder("op-test2")
                .global("g", 8)
                .function(FunctionSpec::new("combine", 64).with_callable(Arc::new(|_i, _o| {})))
                .build(),
        );
        let m2 = MachineBuilder::new(bin2)
            .method(Method::TlsGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(1)
            .build(Arc::new(|_ctx: RankCtx| {}))
            .unwrap();
        assert!(m2.resolve_op_on_pe(0, offset).is_ok());
    }

    #[test]
    fn code_dedup_migration_skips_code_segments() {
        let build = |dedup: bool| {
            let mut m = builder()
                .method(Method::PieGlobals)
                .topology(Topology::non_smp(2))
                .code_dedup_migration(dedup)
                .build(Arc::new(|ctx: RankCtx| {
                    if ctx.rank() == 0 {
                        let _ = ctx.recv();
                    }
                }))
                .unwrap();
            m.drive_rank(0).unwrap();
            let rec = m.migrate_now(0, 1).unwrap();
            m.inject_message(RtsMessage::new(1, 0, 0, Bytes::new()));
            m.run().unwrap();
            rec.bytes
        };
        let full = build(false);
        let dedup = build(true);
        // test binary has a small code segment, but the delta must be
        // exactly visible
        assert!(
            dedup < full,
            "dedup migration must move fewer bytes: {dedup} vs {full}"
        );
    }

    #[test]
    fn checkpoint_restart_recovers_from_soft_fault() {
        use parking_lot::Mutex;
        // A checkpoint-compliant body: cross-sync state lives in the rank
        // heap and in stack scalars (as Isomalloc requires), and the
        // network is quiescent at every sync point.
        let finals: Arc<Mutex<Vec<(usize, f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let body_for = |finals: Arc<Mutex<Vec<(usize, f64, f64)>>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
            Arc::new(move |ctx: RankCtx| {
                let data = ctx.heap_alloc_f64s(64);
                let mut acc: f64 = ctx.rank() as f64 + 1.0;
                for step in 0..6u64 {
                    for v in data.iter_mut() {
                        *v += acc;
                    }
                    // lock-step ring exchange (fully drained before sync)
                    let partner = (ctx.rank() + 1) % ctx.n_ranks();
                    ctx.send(
                        partner,
                        step,
                        bytes::Bytes::copy_from_slice(&acc.to_le_bytes()),
                    );
                    let m = ctx.recv();
                    acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
                    ctx.at_sync();
                }
                let sum: f64 = data.iter().sum();
                finals.lock().push((ctx.rank(), acc, sum));
            })
        };

        // reference run: no faults
        let f1 = finals.clone();
        let mut m = builder()
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .checkpoint_period(1)
            .build(body_for(f1))
            .unwrap();
        m.run().unwrap();
        let mut reference = finals.lock().clone();
        reference.sort_by_key(|a| a.0);
        finals.lock().clear();
        let (ckpts, recov) = m.fault_tolerance_stats();
        assert!(ckpts >= 5);
        assert_eq!(recov, 0);

        // faulty run: memory scribbled at LB step 3, recovered from the
        // step-3 checkpoint, recomputes forward
        let f2 = finals.clone();
        let mut m = builder()
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .checkpoint_period(1)
            .inject_fault_at_lb_step(3)
            .build(body_for(f2))
            .unwrap();
        m.run().unwrap();
        let (_, recov) = m.fault_tolerance_stats();
        assert_eq!(recov, 1, "the injected fault must trigger one recovery");
        let mut faulty = finals.lock().clone();
        faulty.sort_by_key(|a| a.0);
        assert_eq!(
            faulty, reference,
            "recovered run must produce identical results"
        );
        finals.lock().clear();

        // The same fault with a restore that leaves the heap out must
        // not pass: the fault really took the heap (before `scribble_rank`
        // it never did, and this same-step rollback could not tell).
        let f3 = finals.clone();
        let mut m = builder()
            .method(Method::PieGlobals)
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .checkpoint_period(1)
            .inject_fault_at_lb_step(3)
            .build(body_for(f3))
            .unwrap();
        RESTORE_SKIPS_HEAP.with(|s| s.set(true));
        let ran = m.run();
        RESTORE_SKIPS_HEAP.with(|s| s.set(false));
        ran.unwrap();
        let mut mutant = finals.lock().clone();
        mutant.sort_by_key(|a| a.0);
        assert_ne!(mutant, reference, "a heap-skipping restore went unnoticed");
    }

    #[test]
    fn scribble_takes_the_live_extents_and_nothing_else() {
        let mut m = builder()
            .guards(true)
            .build(Arc::new(|ctx: RankCtx| {
                let data = ctx.heap_alloc_f64s(100);
                data.fill(1.5);
                let _ = ctx.recv();
            }))
            .unwrap();
        m.drive_rank(0).unwrap();
        let sp = m.ranks[0].ult.as_ref().unwrap().suspended_sp().expect("parked in recv");
        m.scribble_rank(0);
        let memory = &m.ranks[0].memory;
        let chunk = memory.heap_ref().regions().next().expect("one heap chunk");
        let hwm = chunk.live().end;
        assert!(hwm >= 800 && hwm < chunk.len());
        assert!(chunk.as_slice()[..hwm].iter().all(|&b| b == 0xDE), "the heap is lost with the rank");
        assert!(chunk.as_slice()[hwm..].iter().all(|&b| b == 0), "never handed out: not state");
        let stack = memory.regions().find(|r| r.kind() == RegionKind::Stack).unwrap();
        let at = sp - stack.base() as usize;
        assert_eq!(stack.live(), at - 128..stack.len());
        assert!(stack.as_slice()[at - 128..].iter().all(|&b| b == 0xDE), "frames and red zone");
        assert!(stack.as_slice()[..at - 128].iter().any(|&b| b != 0xDE), "dead stack left alone");
        let ult = m.ranks[0].ult.as_ref().unwrap();
        assert!(ult.check_stack_guard().is_ok(), "the canaries at the base are not rank state");
        // the frames are gone: never resume or unwind this ULT
        m.abandon_ranks(&[0]);
    }

    #[test]
    fn fault_without_checkpoint_is_an_error() {
        // caught at build time now: a fault schedule with no checkpoint
        // period can never recover, so the configuration is rejected
        // before any rank runs
        match builder()
            .vp_ratio(2)
            .method(Method::PieGlobals)
            .inject_fault_at_lb_step(1)
            .build(Arc::new(|ctx: RankCtx| {
                ctx.at_sync();
            })) {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("checkpoint_period"), "{detail}")
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn pe_failure_without_checkpoint_is_an_error() {
        match builder()
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .inject_pe_failure_at_lb_step(1, 1)
            .build(Arc::new(|ctx: RankCtx| {
                ctx.at_sync();
            })) {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("checkpoint_period"), "{detail}")
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn pe_failure_target_must_exist() {
        match builder()
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .checkpoint_period(1)
            .inject_pe_failure_at_lb_step(1, 7)
            .build(Arc::new(|ctx: RankCtx| {
                ctx.at_sync();
            })) {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("out of range"), "{detail}")
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fault_plan_requires_virtual_clock() {
        use pvr_des::FaultPlan;
        let net = NetworkModel::infiniband().with_faults(FaultPlan::lossy_internode(1, 0.1, 0.0));
        match builder()
            .network(net)
            .checkpoint_period(1)
            .build(Arc::new(|_ctx: RankCtx| {})) {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("Virtual"), "{detail}")
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fallback_degrades_pip_to_fs_and_matches_direct_run() {
        // The acceptance scenario: PIPglobals requested with 16 ranks per
        // process on stock glibc (12-namespace budget). With the fallback
        // chain on, the probe rates PIPglobals resource-limited, degrades
        // to FSglobals, and the run completes with results bit-identical
        // to a direct FSglobals run.
        let body_for = |sink: Arc<Mutex<Vec<(usize, u64)>>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
            Arc::new(move |ctx: RankCtx| {
                let me = ctx.rank();
                let acc = ctx.instance().access("my_rank");
                acc.write_u64(me as u64 * 3 + 1);
                ctx.yield_now();
                sink.lock().push((me, acc.read_u64()));
            })
        };
        let run = |fallback: bool, method: Method| {
            let out: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
            let t = Tracer::new(1);
            t.enable();
            let mut b = builder().method(method).vp_ratio(16).tracer(t.clone());
            if fallback {
                b = b.fallback(true);
            }
            let mut m = b.build(body_for(out.clone())).unwrap();
            let report = m.run().unwrap();
            assert_reconciled(&report, &t);
            let landed = m.method();
            let mut v = out.lock().clone();
            v.sort();
            (landed, report, v)
        };
        let (landed, report, results) = run(true, Method::PipGlobals);
        assert_eq!(landed, Method::FsGlobals);
        assert_eq!(report.method_requested, Method::PipGlobals);
        assert_eq!(report.method_landed, Method::FsGlobals);
        assert_eq!(report.hardening.probes, 3, "pip, fs, pie each probed");
        assert_eq!(report.hardening.fallbacks, 1);
        assert_eq!(results.len(), 16);
        let (direct_landed, direct_report, direct_results) = run(false, Method::FsGlobals);
        assert_eq!(direct_landed, Method::FsGlobals);
        assert!(direct_report.hardening.is_clean(), "strict mode probes nothing");
        assert_eq!(
            results, direct_results,
            "degraded run must be bit-identical to the direct FSglobals run"
        );
    }

    #[test]
    fn midstartup_fs_failure_degrades_and_cleans_up() {
        // The probe passes (unbounded FS) but the injected write budget
        // runs dry at rank 2's copy: mid-startup degradation tears the
        // FSglobals attempt down (no leaked copies), skips the
        // probe-infeasible PIPglobals, and lands on PIEglobals.
        let fs = Arc::new(Mutex::new(SharedFs::new()));
        fs.lock().fail_writes_after(3); // deploy + 2 rank copies, then NoSpace
        let t = Tracer::new(1);
        t.enable();
        let mut m = builder()
            .method(Method::FsGlobals)
            .shared_fs(Some(fs.clone()))
            .vp_ratio(16)
            .fallback(true)
            .tracer(t.clone())
            .build(Arc::new(|_ctx: RankCtx| {}))
            .unwrap();
        assert_eq!(m.method_requested(), Method::FsGlobals);
        assert_eq!(m.method(), Method::PieGlobals);
        assert_eq!(fs.lock().file_count(), 0, "failed attempt must delete its copies");
        assert_eq!(fs.lock().bytes_used(), 0);
        let report = m.run().unwrap();
        let h = m.hardening_stats();
        assert_eq!(h.probes, 3);
        assert_eq!(h.fallbacks, 2, "fs (mid-startup) -> pip (probe) -> pie");
        assert_eq!(report.hardening, h);
        assert_reconciled(&report, &t);
    }

    #[test]
    fn fallback_exhaustion_reports_every_failure() {
        // FS capped so FSglobals can't fit, 16 ranks so PIPglobals can't
        // either, and a chain without PIEglobals: nothing lands.
        let fs = Arc::new(Mutex::new(SharedFs::with_capacity(1024)));
        match builder()
            .method(Method::PipGlobals)
            .shared_fs(Some(fs))
            .vp_ratio(16)
            .fallback_chain(vec![Method::FsGlobals])
            .build(Arc::new(|_ctx: RankCtx| {}))
        {
            Err(ConfigError::NoFeasibleMethod { detail }) => {
                assert!(detail.contains("pipglobals"), "{detail}");
                assert!(detail.contains("fsglobals"), "{detail}");
            }
            other => panic!("expected NoFeasibleMethod, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn guards_rejected_for_unprivatized_method() {
        match builder()
            .method(Method::Unprivatized)
            .guards(true)
            .build(Arc::new(|_ctx: RankCtx| {}))
        {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("guards"), "{detail}")
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fallback_chain_rejects_env_unsupported_entry() {
        // Swapglobals can never run under the default (bridges2)
        // toolchain: naming it as a backup is a configuration error.
        match builder()
            .method(Method::PieGlobals)
            .fallback_chain(vec![Method::Swapglobals])
            .build(Arc::new(|_ctx: RankCtx| {}))
        {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("fallback_chain"), "{detail}");
                assert!(detail.contains("swapglobals"), "{detail}");
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn empty_fallback_chain_rejected() {
        match builder()
            .fallback_chain(vec![])
            .build(Arc::new(|_ctx: RankCtx| {}))
        {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains("fallback_chain"), "{detail}")
            }
            other => panic!("expected Invalid error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn scribbled_stack_trips_guard_with_clean_error() {
        let t = Tracer::new(1);
        t.enable();
        let mut m = builder()
            .method(Method::PieGlobals)
            .guards(true)
            .tracer(t.clone())
            .build(Arc::new(|ctx: RankCtx| {
                ctx.yield_now();
            }))
            .unwrap();
        m.corrupt_rank_stack(0);
        match m.run() {
            Err(RtsError::StackGuard { rank, detail }) => {
                assert_eq!(rank, 0);
                assert!(detail.contains("red zone"), "{detail}");
            }
            other => panic!("expected StackGuard, got {:?}", other.map(|_| ())),
        }
        assert_eq!(m.hardening_stats().stack_guard_trips, 1);
        assert_eq!(t.snapshot().counts.stack_guard_trips, 1);
    }

    #[test]
    fn double_free_trips_arena_guard() {
        let t = Tracer::new(1);
        t.enable();
        let mut m = builder()
            .method(Method::PieGlobals)
            .guards(true)
            .tracer(t.clone())
            .build(Arc::new(|ctx: RankCtx| {
                let p = ctx.heap_alloc(64, 8);
                ctx.heap_free(p, 64);
                ctx.heap_free(p, 64);
            }))
            .unwrap();
        match m.run() {
            Err(RtsError::ArenaGuard { rank, detail }) => {
                assert_eq!(rank, 0);
                assert!(detail.contains("double free"), "{detail}");
            }
            other => panic!("expected ArenaGuard, got {:?}", other.map(|_| ())),
        }
        assert_eq!(m.hardening_stats().arena_guard_trips, 1);
        assert_eq!(t.snapshot().counts.arena_guard_trips, 1);
    }

    #[test]
    fn valid_free_and_reuse_pass_the_guard() {
        let mut m = builder()
            .method(Method::PieGlobals)
            .guards(true)
            .build(Arc::new(|ctx: RankCtx| {
                let p = ctx.heap_alloc(64, 8);
                unsafe { std::ptr::write_bytes(p, 7, 64) };
                ctx.heap_free(p, 64);
                let q = ctx.heap_alloc(64, 8);
                unsafe { std::ptr::write_bytes(q, 9, 64) };
                ctx.heap_free(q, 64);
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.hardening.arena_guard_trips, 0);
        assert_eq!(report.hardening.stack_guard_trips, 0);
    }

    #[test]
    fn use_after_free_detected_at_the_barrier() {
        let t = Tracer::new(1);
        t.enable();
        let mut m = builder()
            .method(Method::PieGlobals)
            .guards(true)
            .tracer(t.clone())
            .build(Arc::new(|ctx: RankCtx| {
                let p = ctx.heap_alloc(64, 8);
                ctx.heap_free(p, 64);
                unsafe { *p = 1 }; // write through the stale pointer
                ctx.at_sync();
            }))
            .unwrap();
        match m.run() {
            Err(RtsError::ArenaGuard { rank, detail }) => {
                assert_eq!(rank, 0);
                assert!(detail.contains("use-after-free"), "{detail}");
            }
            other => panic!("expected ArenaGuard, got {:?}", other.map(|_| ())),
        }
        assert_eq!(t.snapshot().counts.arena_guard_trips, 1);
    }

    #[test]
    fn cross_rank_segment_bleed_is_detected_and_attributed() {
        let t = Tracer::new(1);
        t.enable();
        let mut m = builder()
            .method(Method::PieGlobals)
            .vp_ratio(2)
            .guards(true)
            .tracer(t.clone())
            .build(Arc::new(|ctx: RankCtx| {
                ctx.yield_now();
            }))
            .unwrap();
        m.corrupt_rank_segment(1);
        match m.run() {
            Err(RtsError::SegmentBleed { rank, writer }) => {
                assert_eq!(rank, 1, "rank 1's segment was dirtied");
                assert_eq!(writer, 0, "rank 0 held the PE when it was detected");
            }
            other => panic!("expected SegmentBleed, got {:?}", other.map(|_| ())),
        }
        assert_eq!(m.hardening_stats().segment_audits, 1);
        assert_eq!(t.snapshot().counts.segment_audits, 1);
    }

    /// Base address and length of `rank`'s ULT stack region.
    fn stack_region(m: &Machine, rank: RankId) -> (usize, usize) {
        m.ranks[rank]
            .memory
            .regions()
            .find(|reg| reg.kind() == RegionKind::Stack)
            .map(|reg| (reg.base_mut() as usize, reg.len()))
            .expect("every rank has a stack region")
    }

    /// Guards are audited when a rank leaves its stack, not after every
    /// command: a bleed between two posts is still caught, and still
    /// pinned on the rank that held the PE.
    #[test]
    fn segment_bleed_between_two_posts_trips_the_guard_when_the_writer_parks() {
        let victim = Arc::new(AtomicUsize::new(0));
        let v = victim.clone();
        let mut m = builder()
            .method(Method::PieGlobals)
            .vp_ratio(2)
            .guards(true)
            .build(Arc::new(move |ctx: RankCtx| {
                if ctx.rank() == 0 {
                    let r = ctx.req_post_recv(MatchSpec::ANY);
                    let p = v.load(Ordering::Relaxed) as *mut u8;
                    unsafe { *p = (*p).wrapping_add(1) }; // rank 1's global
                    let s = ctx.req_post_send(1, 0, Bytes::new());
                    ctx.req_wait(vec![r, s], false, false);
                    unreachable!("the writer is never resumed");
                }
            }))
            .unwrap();
        let (base, _) = m
            .privatizers
            .iter()
            .find_map(|p| p.rank_data_segment(1))
            .unwrap();
        victim.store(base as usize, Ordering::Relaxed);
        match m.run() {
            Err(RtsError::SegmentBleed { rank: 1, writer: 0 }) => {}
            other => panic!("expected SegmentBleed, got {:?}", other.map(|_| ())),
        }
        assert_eq!(m.hardening_stats().segment_audits, 1);
    }

    #[test]
    fn red_zone_clobbered_in_a_post_loop_trips_the_stack_guard_when_the_rank_parks() {
        let red_zone = Arc::new(AtomicUsize::new(0));
        let z = red_zone.clone();
        let mut m = builder()
            .method(Method::PieGlobals)
            .guards(true)
            .build(Arc::new(move |ctx: RankCtx| {
                let mut ids = Vec::new();
                for i in 0..8 {
                    ids.push(ctx.req_post_recv(MatchSpec::ANY));
                    if i == 3 {
                        // what a frame (the rank's, or a handler's on its
                        // stack) does when it grows past the stack's base
                        let base = z.load(Ordering::Relaxed) as *mut u64;
                        unsafe { base.write(0xDEAD_DEAD) };
                    }
                }
                ctx.req_wait(ids, false, false);
                unreachable!("an overflowed rank is never resumed");
            }))
            .unwrap();
        red_zone.store(stack_region(&m, 0).0, Ordering::Relaxed);
        match m.run() {
            Err(RtsError::StackGuard { rank: 0, detail }) => {
                assert!(detail.contains("red zone"), "{detail}")
            }
            other => panic!("expected StackGuard, got {:?}", other.map(|_| ())),
        }
        assert_eq!(m.hardening_stats().stack_guard_trips, 1);
    }

    /// A command that fails on the rank's stack ends the run exactly as
    /// one that failed in the scheduler did: the rank is not resumed, and
    /// both engines pick the same error among the lanes that raised one
    /// (both at the first event, so the lower PE's).
    #[test]
    fn handler_error_mid_slice_stops_the_rank_and_both_engines_pick_the_same_error() {
        let mut picked = Vec::new();
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let reached = Arc::new([const { AtomicUsize::new(0) }; 2]);
            let resumed = Arc::new(AtomicUsize::new(0));
            let (at, after) = (reached.clone(), resumed.clone());
            let mut m = builder()
                .clock(ClockMode::Virtual)
                .topology(Topology::non_smp(2))
                .parallelism(par)
                .build(Arc::new(move |ctx: RankCtx| {
                    ctx.compute(SimDuration::from_micros(5));
                    at[ctx.rank()].store(1, Ordering::Relaxed);
                    if ctx.rank() == 0 {
                        // default cap 1024: the 1 025th open request
                        for _ in 0..=1024 {
                            ctx.req_post_recv(MatchSpec::ANY);
                        }
                    } else {
                        let mut not_from_the_heap = 0u64;
                        ctx.heap_free(&mut not_from_the_heap as *mut u64 as *mut u8, 8);
                    }
                    after.fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap();
            let err = m.run().map(|_| ()).unwrap_err();
            assert!(
                matches!(
                    err,
                    RtsError::RequestOverflow {
                        rank: 0,
                        outstanding: 1024,
                        limit: 1024
                    }
                ),
                "{par:?}: {err:?}"
            );
            assert_eq!(m.tallies.req.recv_posts, 1024, "{par:?}");
            assert_eq!(m.hardening_stats().arena_guard_trips, 1, "{par:?}");
            for r in 0..2 {
                assert_eq!(reached[r].load(Ordering::Relaxed), 1, "{par:?}: rank {r} ran");
            }
            drop(m); // cancels the two suspended ULTs
            assert_eq!(resumed.load(Ordering::Relaxed), 0, "{par:?}");
            picked.push(format!("{err:?}"));
        }
        assert_eq!(picked[0], picked[1]);
    }

    /// Roughly the caller's stack pointer: the address of a local one
    /// small frame below it.
    #[inline(never)]
    fn sp_here() -> usize {
        let here = 0u8;
        std::hint::black_box(&here) as *const u8 as usize
    }

    /// Handlers run on the rank's stack, so the deepest of them must fit
    /// the smallest stack a configuration may ask for and leave the rank
    /// its own frames. The deepest are the reliable sends: a `send` or
    /// `isend` to self under a lossy plan with tracing on (seal, fault
    /// decisions, duplicate copy, retransmit timer, trace records).
    /// `MachineBuilder::stack_size` quotes the figures this prints.
    #[test]
    fn deepest_handler_fits_the_smallest_stack() {
        use crate::config::MIN_STACK_SIZE;
        use pvr_des::{FaultParams, FaultPlan, HopClass};
        let caller_sp = Arc::new(AtomicUsize::new(0));
        let sp = caller_sp.clone();
        let t = Tracer::new(1);
        t.enable();
        let plan = FaultPlan::new(3).with_class(
            HopClass::IntraProcess,
            FaultParams {
                drop_p: 0.2,
                dup_p: 0.5,
                corrupt_p: 0.2,
                jitter_max: SimDuration::from_nanos(500),
            },
        );
        let mut m = builder()
            .clock(ClockMode::Virtual)
            .network(NetworkModel::ideal().with_faults(plan))
            .tracer(t)
            .stack_size(MIN_STACK_SIZE)
            .build(Arc::new(move |ctx: RankCtx| {
                sp.store(sp_here(), Ordering::Relaxed);
                for tag in 0..32 {
                    let r = ctx.req_post_recv(MatchSpec::ANY);
                    let s = ctx.req_post_send(0, tag, Bytes::from(vec![7u8; 256]));
                    ctx.send(0, tag, Bytes::from(vec![7u8; 256]));
                    ctx.req_test(vec![r, s], false);
                    ctx.try_recv();
                    ctx.compute(SimDuration::from_nanos(10));
                    let p = ctx.heap_alloc(64, 8);
                    ctx.heap_free(p, 64);
                    ctx.req_wait(vec![r], false, false);
                }
            }))
            .unwrap();
        let (base, len) = stack_region(&m, 0);
        m.run().unwrap();
        // the region starts zeroed: the lowest word ever written is how
        // deep the calls below the body reached
        let words = unsafe { std::slice::from_raw_parts(base as *const u64, len / 8) };
        let lowest = base + 8 * words.iter().position(|&w| w != 0).unwrap();
        let depth = caller_sp.load(Ordering::Relaxed) - lowest;
        eprintln!("deepest handler: {depth} bytes below its caller");
        assert!(
            depth <= MIN_STACK_SIZE / 2,
            "handlers reach {depth} bytes below their caller: over half the {MIN_STACK_SIZE}-byte floor"
        );
    }

    /// What used to be `expect`s and `panic!`s between rank and scheduler
    /// is the one typed error: a parked receive resumed with no message,
    /// and a body that yields behind the runtime's back.
    #[test]
    fn rank_and_scheduler_disagreeing_is_a_protocol_error_not_a_panic() {
        let mut m = builder()
            .vp_ratio(2)
            .build(Arc::new(|ctx: RankCtx| match ctx.rank() {
                0 => drop(ctx.recv()),
                _ => pvr_ult::yield_now(),
            }))
            .unwrap();
        assert!(matches!(m.run_rank_slice(0), Ok(StopReason::BlockedRecv)));
        for (rank, what) in [(0, "RecvMatch"), (1, "without issuing a command")] {
            match m.run_rank_slice(rank) {
                Err(RtsError::Protocol { rank: r, detail }) => {
                    assert_eq!(r, rank);
                    assert!(detail.contains(what), "{detail}");
                }
                other => panic!("expected Protocol, got {other:?}"),
            }
        }
    }

    #[test]
    fn rank_ctx_on_a_foreign_thread_panics_instead_of_racing() {
        let mut m = builder()
            .build(Arc::new(|ctx: RankCtx| {
                let stray = ctx.clone();
                let sent = std::thread::spawn(move || stray.send(0, 0, Bytes::new())).join();
                if let Err(p) = sent {
                    std::panic::resume_unwind(p);
                }
            }))
            .unwrap();
        match m.run() {
            Err(RtsError::RankPanicked { rank: 0, message }) => {
                assert!(message.contains("outside a rank's ULT"), "{message}")
            }
            other => panic!("expected RankPanicked, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rank_ctx_used_after_the_run_panics_cleanly() {
        let kept = Arc::new(Mutex::new(None));
        let k = kept.clone();
        let mut m = builder()
            .build(Arc::new(move |ctx: RankCtx| *k.lock() = Some(ctx)))
            .unwrap();
        m.run().unwrap();
        let ctx = kept.lock().take().unwrap();
        // from a plain thread: not in a ULT
        let stale = ctx.clone();
        let plain = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            stale.compute(SimDuration::from_nanos(1))
        }));
        assert!(plain.is_err());
        // from some other ULT: in a ULT, but its rank is not running
        let mut other = pvr_ult::Ult::new(64 * 1024, move || ctx.send(0, 0, Bytes::new()));
        match other.try_resume() {
            Err(pvr_ult::ResumeError::Panicked(p)) => {
                let message = p.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(message.contains("not running"), "{message}");
            }
            _ => panic!("a stale RankCtx must panic, not run"),
        }
    }

    #[test]
    fn guarded_run_stays_clean_and_audits_at_barriers() {
        let t = Tracer::new(1);
        t.enable();
        let mut m = builder()
            .method(Method::PieGlobals)
            .vp_ratio(2)
            .guards(true)
            .tracer(t.clone())
            .build(Arc::new(|ctx: RankCtx| {
                let me = ctx.rank();
                let acc = ctx.instance().access("my_rank");
                for _ in 0..2 {
                    acc.write_u64(me as u64);
                    ctx.yield_now();
                    assert_eq!(acc.read_u64(), me as u64);
                    ctx.at_sync();
                }
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.lb_steps, 2);
        assert_eq!(report.hardening.segment_audits, 2, "one audit per barrier");
        assert_eq!(report.hardening.stack_guard_trips, 0);
        assert_eq!(report.hardening.arena_guard_trips, 0);
        assert_reconciled(&report, &t);
    }

    #[test]
    fn guards_survive_checkpoint_recovery_without_false_trips() {
        // A soft fault scribbles all rank memory (segment copies and
        // poisoned quarantine ranges included); recovery restores the
        // checkpoint and reseeds the guard state, so no false trips fire.
        let mut m = builder()
            .method(Method::PieGlobals)
            .vp_ratio(2)
            .guards(true)
            .checkpoint_period(1)
            .inject_fault_at_lb_step(2)
            .build(Arc::new(|ctx: RankCtx| {
                let p = ctx.heap_alloc(32, 8);
                ctx.heap_free(p, 32); // leaves a poisoned quarantine range
                let acc = ctx.instance().access("my_rank");
                for step in 0..3u64 {
                    acc.write_u64(ctx.rank() as u64 + step);
                    ctx.at_sync();
                    assert_eq!(acc.read_u64(), ctx.rank() as u64 + step);
                }
            }))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.faults.recoveries, 1);
        assert_eq!(report.hardening.stack_guard_trips, 0);
        assert_eq!(report.hardening.arena_guard_trips, 0);
    }

    #[test]
    fn smp_topology_message_costs_cheaper_than_internode() {
        let run = |topo: Topology| -> SimDuration {
            let mut m = builder()
                .clock(ClockMode::Virtual)
                .topology(topo)
                .vp_ratio(1)
                .build(Arc::new(|ctx: RankCtx| {
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, Bytes::from(vec![0u8; 1 << 20]));
                    } else {
                        let _ = ctx.recv();
                    }
                }))
                .unwrap();
            m.run().unwrap().sim_elapsed
        };
        let smp = run(Topology::smp(2)); // same process
        let non_smp = run(Topology::non_smp(2)); // different nodes
        assert!(
            smp < non_smp,
            "SMP-mode shared-memory path must be cheaper: {smp} vs {non_smp}"
        );
    }

    /// Regression: the real-time scheduler must round-robin PEs — one
    /// rank slice per PE per sweep — rather than draining one PE to
    /// exhaustion before looking at the next. The old loop produced
    /// `0,0,0,0,1,1,1,1`; the fair sweep interleaves `0,1,0,1,...`.
    #[test]
    fn real_time_scheduler_is_fair_across_pes() {
        let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = order.clone();
        let mut m = builder()
            .clock(ClockMode::RealTime)
            .parallelism(Parallelism::Serial) // interleave assert needs one thread
            .topology(Topology::non_smp(2))
            .vp_ratio(1)
            .build(Arc::new(move |ctx: RankCtx| {
                for _ in 0..4 {
                    sink.lock().push(ctx.rank());
                    ctx.yield_now();
                }
            }))
            .unwrap();
        m.run().unwrap();
        let got = order.lock().clone();
        assert_eq!(
            got,
            vec![0, 1, 0, 1, 0, 1, 0, 1],
            "PE slices must interleave round-robin"
        );
    }
}
