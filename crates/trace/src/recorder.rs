//! The recorder: per-PE ring buffers plus exact event counters.
//!
//! Design constraints (all load-bearing for Fig. 6):
//!
//! * **Disabled is free.** [`Tracer::record`] starts with one relaxed
//!   atomic load; a disabled tracer costs a predictable branch.
//! * **Enabled never allocates on the hot path.** Every ring buffer is
//!   allocated to full capacity up front; recording into a full ring
//!   overwrites the oldest event instead of growing.
//! * **Counts stay exact.** The counters of the `counters!` table are
//!   bumped on every record, so aggregate numbers (context switches,
//!   migrations, LB steps…) remain correct even after rings wrap — that
//!   is what lets the integration tests reconcile a trace against a
//!   `RunReport`.

use crate::event::{Event, EventKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring capacity per PE (events). An [`Event`] is 64 bytes, so
/// this is exactly 1 MiB per PE.
pub const DEFAULT_PE_CAPACITY: usize = 16 * 1024;

/// The one declaration of every counter. An `event` counter takes one
/// bump per recorded event of its kind, so the `event` counters sum to
/// [`TraceCounts::total_events`]; a `sum` counter accumulates a quantity
/// the event carries (bytes, pages). Generates [`TraceCounts`], the
/// atomics each kind's `events!` entry (in `event.rs`) bumps by field
/// name, the load between the two and the name/value walk the JSON
/// export uses — a new counter is a line here plus its name in the entry
/// of the kind that bumps it.
macro_rules! counters {
    ($($(#[$doc:meta])* $kind:ident $name:ident,)*) => {
        /// Aggregate counters, bumped on every recorded event.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TraceCounts {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl TraceCounts {
            /// Total events recorded (one per counted occurrence; byte
            /// counters excluded).
            pub fn total_events(&self) -> u64 {
                0 $(+ counters!(@$kind self.$name))*
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub(crate) fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }

            /// Counters numbered 1, 2, … in declaration order.
            #[cfg(test)]
            pub(crate) fn numbered() -> TraceCounts {
                let mut n = 0;
                TraceCounts { $($name: { n += 1; n },)* }
            }
        }

        /// The live form of [`TraceCounts`].
        #[derive(Default)]
        pub(crate) struct Counters {
            $(pub(crate) $name: AtomicU64,)*
        }

        impl Counters {
            fn load(&self) -> TraceCounts {
                TraceCounts { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }
    };
    (@event $v:expr) => { $v };
    (@sum $v:expr) => { 0 };
}

counters! {
    event ctx_switches,
    event blocks,
    event unblocks,
    event msgs_sent,
    event msgs_recv,
    sum send_bytes,
    sum recv_bytes,
    event migrations,
    sum migration_bytes,
    event lb_steps,
    event segment_copies,
    sum segment_copy_bytes,
    event got_fixups,
    event priv_installs,
    event region_copies,
    sum region_copy_bytes,
    event mpi_calls,
    /// Data-message copies dropped in transit by the fault plan.
    event msg_drops,
    /// Ack copies dropped in transit by the fault plan.
    event ack_drops,
    /// Copies discarded at the receiver for checksum mismatch.
    event msg_corrupts,
    /// Retransmissions issued by the reliable-delivery layer.
    event msg_retransmits,
    /// Duplicate copies suppressed by receive-side dedup.
    event dup_suppressed,
    /// PEs killed by fault injection.
    event pe_fails,
    /// Coordinated checkpoints taken.
    event checkpoints,
    /// Total bytes of primary checkpoint images.
    sum checkpoint_bytes,
    /// Coordinated rollback/restore operations.
    event recoveries,
    /// Capability probes evaluated at startup (one per method rated).
    event method_probes,
    /// Method degradations taken by the fallback chain.
    event method_fallbacks,
    /// ULT stack red-zone violations detected.
    event stack_guard_trips,
    /// Arena guard violations (double free / UAF / foreign pointer).
    event arena_guard_trips,
    /// Segment-integrity audits performed at barriers.
    event segment_audits,
    /// Message sends whose payload fit the envelope pool's inline
    /// storage (allocation-free lifecycle).
    event pool_hits,
    /// Message sends whose payload spilled to a refcounted heap buffer.
    event pool_misses,
    /// Simulated copy-on-write faults (writes trapping on shared pages).
    event page_faults,
    /// Pages privatized by the COW fault handler.
    event pages_privatized,
    /// Bytes copied template → backing store by page privatizations.
    sum page_copy_bytes,
    /// End-of-run COW deduplication audits.
    event dedup_audits,
    /// Elastic rescales committed (active-PE set changed at a barrier).
    event rescales,
    /// Rescales abandoned because a PE failure struck the same barrier.
    event rescale_aborts,
    /// Buddy-checkpoint re-replications onto a new geometry.
    event re_replications,
    /// Total bytes of primary images in re-replicated checkpoints.
    sum re_replication_bytes,
    /// Checkpoints restored onto a different geometry than taken.
    event geometry_restores,
    /// Degenerate-buddy warnings (buddy == primary: single alive PE).
    event buddy_degenerates,
    /// Incremental checkpoint delta captures at LB barriers.
    event ckpt_deltas,
    /// Dirty page-chunks captured across all delta captures.
    sum ckpt_delta_pages,
    /// Sparse patch payload bytes across all delta captures.
    sum ckpt_delta_bytes,
    /// Consistent-cut seals of in-flight deltas at LB barriers.
    event ckpt_seals,
    /// Asynchronous delta drains to buddy PEs.
    event ckpt_async_drains,
    /// Delta payload bytes drained asynchronously to buddy PEs.
    sum ckpt_async_bytes,
    /// Delta-chain compactions (fresh base replacing a chain).
    event ckpt_compacts,
    /// Nonblocking requests posted (`ReqPost`).
    event req_posts,
    /// Nonblocking requests completed (`ReqComplete`).
    event req_completes,
    /// Completions that ran a continuation closure (`ReqContinuation`).
    event req_continuations,
    /// Wait-family suspensions on pending requests (`ReqWaitBlock`).
    event req_wait_blocks,
}

/// Fixed-capacity ring of the most recent events on one PE.
struct PeRing {
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    capacity: usize,
}

impl PeRing {
    fn new(capacity: usize) -> PeRing {
        PeRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
        }
    }

    /// Append, overwriting the oldest event when full. Returns whether an
    /// event was overwritten. Never allocates: `buf` was reserved to
    /// `capacity` at construction.
    fn push(&mut self, e: Event) -> bool {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
            false
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }

    /// Events in chronological (sequence) order.
    fn ordered(&self) -> Vec<Event> {
        let mut v = Vec::with_capacity(self.buf.len());
        v.extend_from_slice(&self.buf[self.head..]);
        v.extend_from_slice(&self.buf[..self.head]);
        v
    }
}

/// The per-job event recorder. Cheap to consult when disabled; shared
/// between the machine and whoever wants the trace afterwards.
pub struct Tracer {
    enabled: AtomicBool,
    seq: AtomicU64,
    dropped: AtomicU64,
    counters: Counters,
    pes: Vec<Mutex<PeRing>>,
    /// Final (busy_ns, idle_ns) per PE, filled by the machine at run end
    /// so summaries can report utilization without a `RunReport`.
    pe_clocks: Mutex<Vec<(u64, u64)>>,
}

impl Tracer {
    /// A tracer for `n_pes` PEs with the default per-PE ring capacity,
    /// created **disabled**.
    pub fn new(n_pes: usize) -> Arc<Tracer> {
        Tracer::with_capacity(n_pes, DEFAULT_PE_CAPACITY)
    }

    /// A tracer with `capacity` ring slots per PE.
    pub fn with_capacity(n_pes: usize, capacity: usize) -> Arc<Tracer> {
        let capacity = capacity.max(1);
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            counters: Counters::default(),
            pes: (0..n_pes.max(1)).map(|_| Mutex::new(PeRing::new(capacity))).collect(),
            pe_clocks: Mutex::new(vec![(0, 0); n_pes.max(1)]),
        })
    }

    pub fn n_pes(&self) -> usize {
        self.pes.len()
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Record one event. The first instruction is the enabled check —
    /// this is the whole cost when tracing is off.
    #[inline]
    pub fn record(&self, pe: usize, rank: u32, t_ns: u64, kind: EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.record_enabled(pe, rank, t_ns, kind);
    }

    #[cold]
    fn record_enabled(&self, pe: usize, rank: u32, t_ns: u64, kind: EventKind) {
        kind.count(&self.counters);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let pe_slot = pe.min(self.pes.len() - 1);
        let e = Event {
            seq,
            t_ns,
            pe: pe as u32,
            rank,
            kind,
        };
        if self.pes[pe_slot].lock().push(e) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Store a PE's final busy/idle clocks (the machine calls this when
    /// a run completes).
    pub fn set_pe_clock(&self, pe: usize, busy_ns: u64, idle_ns: u64) {
        let mut clocks = self.pe_clocks.lock();
        if let Some(slot) = clocks.get_mut(pe) {
            *slot = (busy_ns, idle_ns);
        }
    }

    /// Exact aggregate counts so far.
    pub fn counts(&self) -> TraceCounts {
        self.counters.load()
    }

    /// Events overwritten because a PE's ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out the current state for reporting.
    pub fn snapshot(&self) -> TraceSnapshot {
        let per_pe: Vec<PeTrace> = self
            .pes
            .iter()
            .enumerate()
            .map(|(pe, ring)| {
                let (busy_ns, idle_ns) = self.pe_clocks.lock()[pe];
                PeTrace {
                    pe,
                    events: ring.lock().ordered(),
                    busy_ns,
                    idle_ns,
                }
            })
            .collect();
        TraceSnapshot {
            counts: self.counts(),
            dropped: self.dropped(),
            per_pe,
        }
    }
}

/// One PE's slice of a snapshot.
#[derive(Debug, Clone)]
pub struct PeTrace {
    pub pe: usize,
    /// Most recent events on this PE, oldest first.
    pub events: Vec<Event>,
    pub busy_ns: u64,
    pub idle_ns: u64,
}

impl PeTrace {
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// A consistent copy of the trace: exact counts plus the retained events.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    pub counts: TraceCounts,
    pub dropped: u64,
    pub per_pe: Vec<PeTrace>,
}

impl TraceSnapshot {
    pub fn n_pes(&self) -> usize {
        self.per_pe.len()
    }

    /// All PEs' retained events in sequence order. Kept for tests: a fact no report carries.
    pub fn events_sorted(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.per_pe.iter().flat_map(|p| p.events.iter().copied()).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// (from, to) → (messages, bytes) aggregated over retained send
    /// events, heaviest edge first. Truncated if rings wrapped.
    pub fn message_edges(&self) -> Vec<((u32, u32), (u64, u64))> {
        let mut edges: std::collections::HashMap<(u32, u32), (u64, u64)> = Default::default();
        for p in &self.per_pe {
            for e in &p.events {
                if let EventKind::MsgSend { to, bytes, .. } = e.kind {
                    let slot = edges.entry((e.rank, to)).or_default();
                    slot.0 += 1;
                    slot.1 += bytes as u64;
                }
            }
        }
        let mut v: Vec<_> = edges.into_iter().collect();
        v.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_RANK;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(2);
        t.record(0, 0, 0, EventKind::Block);
        assert_eq!(t.counts(), TraceCounts::default());
        assert!(t.snapshot().per_pe[0].events.is_empty());
    }

    #[test]
    fn counts_and_events_agree() {
        let t = Tracer::new(2);
        t.enable();
        t.record(0, 0, 10, EventKind::CtxSwitchIn { ctx_work: true });
        t.record(1, 1, 20, EventKind::MsgSend { to: 0, tag: 7, bytes: 64 });
        t.record(0, 0, 30, EventKind::MsgRecv { from: 1, tag: 7, bytes: 64 });
        t.record(0, NO_RANK, 40, EventKind::LbStep { step: 1, migrations: 0 });
        let c = t.counts();
        assert_eq!(c.ctx_switches, 1);
        assert_eq!(c.msgs_sent, 1);
        assert_eq!(c.send_bytes, 64);
        assert_eq!(c.msgs_recv, 1);
        assert_eq!(c.lb_steps, 1);
        assert_eq!(c.total_events(), 4);
        let snap = t.snapshot();
        let merged = snap.events_sorted();
        assert_eq!(merged.len(), 4);
        // sequence numbers are strictly increasing across PEs
        for w in merged.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    /// One sample of every `EventKind` variant, both sides of the two a
    /// flag splits between counters. Each arm names the sample after its
    /// own: a new variant does not compile until it has an arm here, and
    /// it is sampled once the arm before it points at it.
    fn samples() -> Vec<EventKind> {
        use crate::event::{ArenaTrip, CopyDir, PrivReg, ProbeVerdict, Segment};
        use EventKind::*;
        let mut out = Vec::new();
        let mut next = Some(CtxSwitchIn { ctx_work: true });
        while let Some(kind) = next {
            out.push(kind);
            next = match kind {
                CtxSwitchIn { .. } => Some(Block),
                Block => Some(Unblock),
                Unblock => Some(MsgSend { to: 1, tag: 2, bytes: 3 }),
                MsgSend { .. } => Some(MsgRecv { from: 1, tag: 2, bytes: 3 }),
                MsgRecv { .. } => Some(Migration { from_pe: 0, to_pe: 1, bytes: 4 }),
                Migration { .. } => Some(LbStep { step: 1, migrations: 1 }),
                LbStep { .. } => Some(SegmentCopy { segment: Segment::Data, bytes: 5 }),
                SegmentCopy { .. } => Some(GotFixup { entries: 6 }),
                GotFixup { .. } => Some(PrivInstall { reg: PrivReg::Got }),
                PrivInstall { .. } => Some(RegionCopy { dir: CopyDir::Pack, regions: 2, bytes: 7 }),
                RegionCopy { .. } => Some(MpiCall { name: "MPI_Send" }),
                MpiCall { .. } => Some(MsgDrop { from: 0, to: 1, seq: 1, ack: false }),
                MsgDrop { ack: false, .. } => Some(MsgDrop { from: 1, to: 0, seq: 1, ack: true }),
                MsgDrop { ack: true, .. } => Some(MsgCorrupt { from: 0, to: 1, seq: 2 }),
                MsgCorrupt { .. } => Some(MsgRetransmit { from: 0, to: 1, seq: 2, attempt: 1 }),
                MsgRetransmit { .. } => Some(MsgDupSuppressed { from: 0, to: 1, seq: 2 }),
                MsgDupSuppressed { .. } => Some(PeFail { pe: 1, ranks_lost: 2 }),
                PeFail { .. } => Some(CheckpointTaken { step: 1, bytes: 8 }),
                CheckpointTaken { .. } => Some(Recovery { ranks: 2 }),
                Recovery { .. } => Some(MethodProbe { method: "pip", verdict: ProbeVerdict::Feasible }),
                MethodProbe { .. } => Some(MethodFallback { from: "pip", to: "fs" }),
                MethodFallback { .. } => Some(StackGuardTrip { stack_size: 4096 }),
                StackGuardTrip { .. } => Some(ArenaGuardTrip { kind: ArenaTrip::DoubleFree }),
                ArenaGuardTrip { .. } => Some(SegmentAudit { ranks: 2, dirty: 0 }),
                SegmentAudit { .. } => Some(MsgPool { inline: true }),
                MsgPool { inline: true } => Some(MsgPool { inline: false }),
                MsgPool { inline: false } => Some(PageFault { page: 1 }),
                PageFault { .. } => Some(PagePrivatized { page: 1, bytes: 9 }),
                PagePrivatized { .. } => {
                    Some(DedupAudit { ranks: 2, shared_pages: 3, total_pages: 4 })
                }
                DedupAudit { .. } => Some(Rescale { from_pes: 4, to_pes: 2, moved_ranks: 3 }),
                Rescale { .. } => Some(RescaleAborted { from_pes: 2, to_pes: 4 }),
                RescaleAborted { .. } => Some(ReReplicate { ranks: 2, bytes: 10 }),
                ReReplicate { .. } => Some(GeometryRestore { ranks: 2, to_pes: 3 }),
                GeometryRestore { .. } => Some(BuddyDegenerate { pe: 0, ranks: 2 }),
                BuddyDegenerate { .. } => {
                    Some(CkptDelta { step: 2, ranks: 2, pages: 11, bytes: 12 })
                }
                CkptDelta { .. } => Some(CkptSeal { step: 3, epoch: 1 }),
                CkptSeal { .. } => Some(CkptAsyncDrain { bytes: 13 }),
                CkptAsyncDrain { .. } => Some(CkptCompact { chain: 2, bytes: 14 }),
                CkptCompact { .. } => Some(ReqPost { req: 1, send: true }),
                ReqPost { .. } => Some(ReqComplete { req: 1, send: true }),
                ReqComplete { .. } => Some(ReqContinuation { req: 1 }),
                ReqContinuation { .. } => Some(ReqWaitBlock { waiting: 1 }),
                ReqWaitBlock { .. } => None,
            };
        }
        out
    }

    /// `samples()` spread over two PEs, every fifth one with no rank.
    fn golden_tracer() -> Arc<Tracer> {
        let t = Tracer::new(2);
        t.enable();
        for (i, kind) in samples().into_iter().enumerate() {
            let rank = if i % 5 == 4 { NO_RANK } else { i as u32 };
            t.record(i % 2, rank, 10 * i as u64, kind);
        }
        // One more of each flag's true side, so a flag that picked the
        // wrong counter would change the counts.
        t.record(0, 1, 430, EventKind::MsgDrop { from: 1, to: 0, seq: 3, ack: true });
        t.record(1, 2, 440, EventKind::MsgPool { inline: true });
        t.set_pe_clock(0, 75, 25);
        t.set_pe_clock(1, 40, 60);
        t
    }

    #[test]
    fn every_event_kind_counts_as_exactly_one_event() {
        let t = Tracer::new(1);
        t.enable();
        let samples = samples();
        for (i, kind) in samples.iter().enumerate() {
            t.record(0, 0, i as u64, *kind);
            assert_eq!(t.counts().total_events(), i as u64 + 1, "{}", kind.tag());
        }
        // Every sampled quantity is nonzero, so a counter still at zero
        // has no `count()` arm (or an arm bumps a neighbour twice).
        for (name, value) in t.counts().fields() {
            assert!(value > 0, "{name} was never bumped");
        }
    }

    /// The whole export of one event of every kind on two PEs, pinned
    /// byte for byte: the tag, field keys and value formats of each kind,
    /// the counters it bumps, and the summary drawn from them.
    #[test]
    fn every_event_kind_exports_as_pinned() {
        let t = golden_tracer();
        let snap = t.snapshot();
        assert_eq!(snap.to_json(), include_str!("../tests/golden/every_kind.json"));
        assert_eq!(snap.summary(5), include_str!("../tests/golden/every_kind_summary.txt"));
        assert_eq!(
            format!("{:?}", t.counts()),
            "TraceCounts { ctx_switches: 1, blocks: 1, unblocks: 1, msgs_sent: 1, \
             msgs_recv: 1, send_bytes: 3, recv_bytes: 3, migrations: 1, migration_bytes: 4, \
             lb_steps: 1, segment_copies: 1, segment_copy_bytes: 5, got_fixups: 1, \
             priv_installs: 1, region_copies: 1, region_copy_bytes: 7, mpi_calls: 1, \
             msg_drops: 1, ack_drops: 2, msg_corrupts: 1, msg_retransmits: 1, \
             dup_suppressed: 1, pe_fails: 1, checkpoints: 1, checkpoint_bytes: 8, \
             recoveries: 1, method_probes: 1, method_fallbacks: 1, stack_guard_trips: 1, \
             arena_guard_trips: 1, segment_audits: 1, pool_hits: 2, pool_misses: 1, \
             page_faults: 1, pages_privatized: 1, page_copy_bytes: 9, dedup_audits: 1, \
             rescales: 1, rescale_aborts: 1, re_replications: 1, re_replication_bytes: 10, \
             geometry_restores: 1, buddy_degenerates: 1, ckpt_deltas: 1, \
             ckpt_delta_pages: 11, ckpt_delta_bytes: 12, ckpt_seals: 1, \
             ckpt_async_drains: 1, ckpt_async_bytes: 13, ckpt_compacts: 1, req_posts: 1, \
             req_completes: 1, req_continuations: 1, req_wait_blocks: 1 }"
        );
    }

    #[test]
    fn ring_wraps_without_losing_counts() {
        let t = Tracer::with_capacity(1, 8);
        t.enable();
        for i in 0..20 {
            t.record(0, 0, i, EventKind::Block);
        }
        assert_eq!(t.counts().blocks, 20);
        assert_eq!(t.dropped(), 12);
        let snap = t.snapshot();
        assert_eq!(snap.per_pe[0].events.len(), 8);
        // retained events are the most recent, oldest first
        let ts: Vec<u64> = snap.per_pe[0].events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn message_edges_aggregate() {
        let t = Tracer::new(1);
        t.enable();
        for _ in 0..3 {
            t.record(0, 2, 0, EventKind::MsgSend { to: 5, tag: 1, bytes: 100 });
        }
        t.record(0, 5, 0, EventKind::MsgSend { to: 2, tag: 1, bytes: 10 });
        let edges = t.snapshot().message_edges();
        assert_eq!(edges[0], ((2, 5), (3, 300)));
        assert_eq!(edges[1], ((5, 2), (1, 10)));
    }

    #[test]
    fn pe_clock_utilization() {
        let t = Tracer::new(2);
        t.set_pe_clock(0, 75, 25);
        let snap = t.snapshot();
        assert!((snap.per_pe[0].utilization() - 0.75).abs() < 1e-12);
        assert_eq!(snap.per_pe[1].utilization(), 0.0);
    }
}

