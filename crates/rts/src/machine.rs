//! The machine: one simulated job — its shared view (`worker::Shared`),
//! its lanes (`driver.rs`), and the barrier protocols' state — and what a harness may
//! do to it between runs: migrate a rank, drive or feed one.
//!
//! See the crate docs for the real-time vs virtual-time distinction.

use crate::barrier::BarrierAction;
use crate::checkpoint::Checkpoints;
use crate::driver::Driver;
use crate::lb::LoadBalancer;
use crate::message::RtsMessage;
use crate::rank::RankStatus;
use crate::stats::{CowTallies, Tallies};
pub use crate::stats::{FaultTallies, HardeningTallies, LbRecord, MigrationRecord, RunReport};
use crate::worker::Shared;
use crate::{PeId, RankId};
use pvr_des::{FaultPlan, SimDuration};
use pvr_isomalloc::GuardViolation;
use pvr_privatize::{Method, PrivatizeError, Privatizer};
use pvr_trace::{ArenaTrip, EventKind, Tracer, NO_RANK};
use std::collections::VecDeque;
use std::fmt;
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
    /// Rank and lane code disagree about a call (a rank yielded outside
    /// one, or was resumed without its answer).
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

impl ReliableState {
    /// Transmission `attempts` of `(from, to, seq)` was the last the
    /// budget allows, and no ack has come back. If the receiver released
    /// the message, only its acks were lost: forget it quietly.
    /// Otherwise it is undeliverable.
    pub(crate) fn give_up(
        &mut self,
        from: RankId,
        to: RankId,
        seq: u64,
        attempts: u32,
    ) -> Result<(), RtsError> {
        let released = self
            .recv
            .get(&(from, to))
            .is_some_and(|p| p.next_expected > seq);
        if !released && self.inflight.contains_key(&(from, to, seq)) {
            return Err(RtsError::DeliveryFailed {
                from,
                to,
                seq,
                attempts,
            });
        }
        self.inflight.remove(&(from, to, seq));
        Ok(())
    }
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
    /// The lanes, one per PE for the whole run, and the loop that runs
    /// them (`driver.rs`). Declared before `shared` so that it drops
    /// first: the lanes hold the ranks, whose ULTs and memory must not
    /// outlive the privatizers in `shared` that own their segments.
    pub(crate) driver: Driver,
    /// What every lane reads and only barriers write.
    pub(crate) shared: Shared,
    pub(crate) balancer: Option<Box<dyn LoadBalancer>>,
    /// Every exact count of the run so far; `run` copies it into the
    /// [`RunReport`].
    pub(crate) tallies: Tallies,
    pub(crate) lb_steps: u32,
    pub(crate) migrations: Vec<MigrationRecord>,
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
    /// Automatic rescale policy, consulted at every LB barrier the
    /// script asks no rescale of.
    pub(crate) rescale_policy: Option<Box<dyn crate::rescale::RescalePolicy>>,
    /// The method the configuration asked for (`method()` reports what
    /// actually landed).
    pub(crate) method_requested: Method,
    /// The program every rank runs; `MPI_Op` code offsets resolve in it.
    pub(crate) binary: Arc<pvr_progimage::ProgramBinary>,
    /// Wire buffer of [`Machine::migrate_now`], reused across migrations
    /// so each one costs its two memcpys, not a fresh mapping as well.
    pub(crate) migrate_buf: pvr_isomalloc::MigrationBuffer,
}

impl Machine {
    pub fn n_ranks(&self) -> usize {
        self.shared.location.n_ranks()
    }

    pub fn n_pes(&self) -> usize {
        self.driver.lanes.len()
    }

    pub fn method(&self) -> Method {
        self.shared.privatizers[0].method()
    }

    /// Probe/fallback/guard tallies accumulated so far.
    /// Kept for tests: the only tallies left after a run that returned `Err`.
    pub fn hardening_stats(&self) -> HardeningTallies {
        self.tallies.hardening
    }

    /// The attached event recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.shared.tracer.as_ref()
    }

    /// Record a scheduler-side trace event on `pe`'s track, stamped with
    /// its clock. Free (one `Option` branch) when no tracer is attached.
    #[inline]
    pub(crate) fn trace(&self, pe: PeId, rank: u32, kind: EventKind) {
        self.shared.trace(&self.driver.lanes[pe], rank, kind);
    }

    /// Record an event of the whole job (a barrier's, a checkpoint's):
    /// on PE 0's track, against no rank.
    pub(crate) fn trace_job(&self, kind: EventKind) {
        self.trace(0, NO_RANK, kind);
    }

    /// Install the tracer as this thread's emission target for the
    /// duration of a public entry point, so hooks in the library crates
    /// (`pvr-ampi`, `pvr-privatize`, `pvr-isomalloc`) reach it.
    pub(crate) fn trace_scope(&self) -> Option<pvr_trace::ThreadScope> {
        self.shared
            .tracer
            .as_ref()
            .map(|t| pvr_trace::ThreadScope::install(t.clone()))
    }

    /// Simulated I/O charged during startup (FSglobals) — add to measured
    /// build time for the Fig. 5 startup comparison.
    pub fn simulated_startup_cost(&self) -> Duration {
        self.shared
            .privatizers
            .iter()
            .map(|p| p.simulated_startup_cost())
            .sum()
    }

    /// Bytes of segment copies per rank (startup accounting).
    pub fn per_rank_copied_bytes(&self) -> usize {
        self.shared.privatizers[0].per_rank_copied_bytes()
    }

    /// The PE `rank` lives on now. Kept for tests: a fact no report carries.
    pub fn location_of(&self, rank: RankId) -> PeId {
        self.shared.location.lookup(rank)
    }

    pub fn resident_count(&self, pe: PeId) -> usize {
        self.shared.location.resident_count(pe)
    }

    /// Rank memory footprint (for reports/tests).
    pub fn rank_migration_bytes(&self, rank: RankId) -> usize {
        self.rank(rank).migration_bytes()
    }

    /// Access a privatizer (e.g. for `pieglobalsfind` queries).
    pub fn privatizer(&self, process: usize) -> &dyn Privatizer {
        self.shared.privatizers[process].as_ref()
    }

    /// A rank's privatization instance (demos/tests: resolving the
    /// rank's view of a global from outside the rank).
    pub fn rank_instance(&self, rank: RankId) -> &Arc<pvr_privatize::RankInstance> {
        &self.rank(rank).instance
    }

    /// Resolve a user reduction operator (a code offset into the job's
    /// binary) for application *on a specific PE* — what the runtime does
    /// when combining reduction messages. Under PIEglobals every rank has
    /// a distinct code copy, so the offset must be anchored to the base
    /// of some rank resident on `pe`; a PE hosting no ranks raises the
    /// runtime error the paper describes instead of silently forwarding.
    /// Kept for tests: a fact no report carries (DESIGN §7's empty PE).
    pub fn resolve_op_on_pe(
        &self,
        pe: PeId,
        offset: usize,
    ) -> Result<pvr_progimage::spec::Callable, RtsError> {
        if self.method() == Method::PieGlobals && self.shared.location.resident_count(pe) == 0 {
            return Err(RtsError::EmptyPeReduction { pe });
        }
        self.binary.callable_at(offset).ok_or(RtsError::Protocol {
            rank: usize::MAX,
            detail: format!("no callable at code offset {offset}"),
        })
    }

    /// Drive one rank until it blocks, parks, yields, or completes —
    /// used by benchmark harnesses that need a rank in a known state
    /// (e.g. parked in `Recv`) before migrating it.
    pub fn drive_rank(&mut self, rank: RankId) -> Result<(), RtsError> {
        let _scope = self.trace_scope();
        self.run_rank_slice(rank)
    }

    /// Deliver a raw runtime message (harness use: waking a parked rank).
    pub fn inject_message(&mut self, msg: RtsMessage) {
        self.deposit(msg);
    }

    /// Explicitly migrate a suspended rank (the Fig. 8 harness; LB uses
    /// the same path).
    pub fn migrate_now(&mut self, rank: RankId, to_pe: PeId) -> Result<MigrationRecord, RtsError> {
        if to_pe >= self.n_pes() {
            return Err(RtsError::BadMigration {
                rank,
                detail: format!("destination PE {to_pe} out of range"),
            });
        }
        if !self.shared.geometry.alive()[to_pe] {
            return Err(RtsError::BadMigration {
                rank,
                detail: format!("destination PE {to_pe} has failed"),
            });
        }
        if !self.shared.privatizers[0].supports_migration() {
            return Err(RtsError::BadMigration {
                rank,
                detail: format!(
                    "{} does not support migration (segments not allocated via Isomalloc)",
                    self.method()
                ),
            });
        }
        let from_pe = self.shared.location.lookup(rank);
        if self.rank(rank).status == RankStatus::Done {
            return Err(RtsError::BadMigration {
                rank,
                detail: "rank already completed".into(),
            });
        }
        // Region-copy events from pack/unpack land against this rank.
        let trace_scope = self.trace_scope();
        if trace_scope.is_some() {
            let now_ns = self.shared.now_ns(&self.driver.lanes[from_pe]);
            pvr_trace::set_context(from_pe, rank as u32, now_ns);
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
        let unpacked = self.rank_mut(rank).memory.unpack_into_with(&buf, include);
        let real_time = t0.elapsed();
        self.migrate_buf = buf;
        // The stored ranges are data read back from the buffer: a round
        // trip that cannot fail is an argument, not a type.
        unpacked.map_err(|e| RtsError::BadMigration {
            rank,
            detail: format!("image does not unpack at the destination: {e}"),
        })?;
        let shared = &self.shared;
        let sim_cost = shared.network.cost(&shared.topology, from_pe, to_pe, bytes);

        self.place(rank, to_pe);
        let state = self.rank_mut(rank);
        state.migrations += 1;
        if state.status == RankStatus::Ready {
            self.driver.lanes[from_pe]
                .state
                .ready
                .retain(|&x| x != rank);
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
    /// directory — and its state and events follow it into `pe`'s lane,
    /// whose PE [`crate::RankCtx::my_pe`] reads.
    pub(crate) fn place(&mut self, rank: RankId, pe: PeId) {
        let from = self.shared.location.lookup(rank);
        self.shared.location.update(rank, pe);
        if from != pe {
            let lanes = &mut self.driver.lanes;
            let state = lanes[from].ranks.take(rank);
            lanes[pe].ranks.put(rank, state);
            self.rehome_events(from);
        }
    }

    /// Bring `rank`'s stack extent up to date with its ULT's suspended
    /// stack pointer, which is returned — before anything reads, overwrites
    /// or restores the rank's memory as an image. Nobody else knows where
    /// a stack's live bytes end; the heap's extents keep themselves.
    pub(crate) fn refresh_stack_extent(&mut self, rank: RankId) -> Option<usize> {
        let state = self.rank_mut(rank);
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
            .shared
            .privatizers
            .iter()
            .find_map(|p| p.cow_segment_snapshot(rank));
        self.rank(rank)
            .memory
            .pack_with_sources_into(out, include, |reg| {
                let (_, bytes) = snap.take_if(|(seg_base, _)| reg.base() as usize == *seg_base)?;
                Some(bytes)
            });
    }

    /// Sum copy-on-write accounting across the per-process privatizers
    /// and run the end-of-run dedup audit: union the per-process
    /// faulted-page masks, count the pages that never diverged on any
    /// rank, and emit one `DedupAudit` trace event. All-zero (and no
    /// event) for eager methods.
    pub(crate) fn collect_cow_tallies(&mut self) -> CowTallies {
        let mut cow = CowTallies::default();
        let mut ranks: u64 = 0;
        let mut union: Vec<u64> = Vec::new();
        for p in &self.shared.privatizers {
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
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("method", &self.method())
            .field("pes", &self.n_pes())
            .field("ranks", &self.n_ranks())
            .field("clock", &self.shared.clock)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::command::{MatchSpec, RankCtx};
    use crate::config::{ConfigError, MachineBuilder, MachineConfig, Parallelism};
    use bytes::Bytes;
    use parking_lot::Mutex;
    use pvr_des::{NetworkModel, Topology};
    use pvr_isomalloc::RegionKind;
    use pvr_progimage::{link, ImageSpec, ProgramBinary, SharedFs};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    // Each protocol's machine-level tests, written beside it.
    crate::checkpoint::checkpoint_tests!();
    crate::command::handler_tests!();
    crate::config::startup_tests!();
    crate::guards::guard_tests!();

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
        m.run_rank_slice(0).unwrap();
        assert_eq!(m.rank(0).status, RankStatus::Waiting);
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
                let tags: Vec<u64> = std::iter::from_fn(|| ctx.try_recv_match(MatchSpec::ANY))
                    .map(|m| m.tag)
                    .collect();
                assert_eq!(tags, [8, 9, 7]);
            }))
            .unwrap();
        m.run_rank_slice(0).unwrap();
        assert_eq!(m.rank(0).status, RankStatus::Waiting);
        // wrong tag, wrong source: buffered, the rank stays suspended
        m.deposit(RtsMessage::new(1, 0, 8, Bytes::new()));
        m.deposit(RtsMessage::new(0, 0, 9, Bytes::new()));
        assert_eq!(m.rank(0).status, RankStatus::Waiting);
        assert_eq!(m.rank(0).matcher.buffered(), 2);
        // the suspended receive moves with the rank
        m.migrate_now(0, 1).unwrap();
        m.deposit(RtsMessage::new(1, 0, 7, Bytes::new()));
        assert_eq!(m.rank(0).status, RankStatus::Waiting);
        assert_eq!(
            m.driver.lanes[1].state.ready,
            [1],
            "not requeued by arrivals it rejects"
        );
        m.deposit(RtsMessage::new(1, 0, 9, Bytes::from_static(b"wanted")));
        assert_eq!(m.rank(0).status, RankStatus::Ready);
        assert_eq!(
            m.driver.lanes[1].state.ready,
            [1, 0],
            "requeued on its new PE"
        );
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
        let offset = m.binary.fn_offset_of("combine").unwrap();
        // both PEs have a rank: resolution works everywhere
        assert!(m.resolve_op_on_pe(0, offset).is_ok());
        assert!(m.resolve_op_on_pe(1, offset).is_ok());
        // park rank 0, move it away: PE 0 becomes empty
        m.run_rank_slice(0).unwrap();
        assert_eq!(m.rank(0).status, RankStatus::Waiting);
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

    /// Base address and length of `rank`'s ULT stack region.
    fn stack_region(m: &Machine, rank: RankId) -> (usize, usize) {
        m.rank(rank)
            .memory
            .regions()
            .find(|reg| reg.kind() == RegionKind::Stack)
            .map(|reg| (reg.base_mut() as usize, reg.len()))
            .expect("every rank has a stack region")
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
