//! Trace event vocabulary.
//!
//! Every event is a fixed-size `Copy` value so the recorder's hot path
//! never allocates: variable-length information (MPI call names) is
//! carried as `&'static str`.

/// Sentinel rank for events not attributable to a virtual rank (LB steps,
/// scheduler-side bookkeeping).
pub const NO_RANK: u32 = u32::MAX;

/// Which program segment a privatizer copied for a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    Code,
    Data,
    Tls,
}

impl Segment {
    pub fn as_str(self) -> &'static str {
        match self {
            Segment::Code => "code",
            Segment::Data => "data",
            Segment::Tls => "tls",
        }
    }
}

/// Direction of an Isomalloc rank-memory copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDir {
    /// Regions → wire buffer (migration/checkpoint pack).
    Pack,
    /// Wire buffer → regions (migration/checkpoint unpack).
    Unpack,
}

impl CopyDir {
    pub fn as_str(self) -> &'static str {
        match self {
            CopyDir::Pack => "pack",
            CopyDir::Unpack => "unpack",
        }
    }
}

/// Which privatization register a context switch installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivReg {
    Tls,
    Got,
}

impl PrivReg {
    pub fn as_str(self) -> &'static str {
        match self {
            PrivReg::Tls => "tls",
            PrivReg::Got => "got",
        }
    }
}

/// Verdict of a startup capability probe for one privatization method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    Feasible,
    ResourceLimited,
    Unsupported,
}

impl ProbeVerdict {
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeVerdict::Feasible => "feasible",
            ProbeVerdict::ResourceLimited => "resource_limited",
            ProbeVerdict::Unsupported => "unsupported",
        }
    }
}

/// What an isomalloc arena guard caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaTrip {
    DoubleFree,
    UseAfterFree,
    ForeignPointer,
}

impl ArenaTrip {
    pub fn as_str(self) -> &'static str {
        match self {
            ArenaTrip::DoubleFree => "double_free",
            ArenaTrip::UseAfterFree => "use_after_free",
            ArenaTrip::ForeignPointer => "foreign_pointer",
        }
    }
}

/// One traced runtime occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The scheduler switched a PE to a rank's ULT.
    CtxSwitchIn {
        /// Whether the rank's privatization method performs register
        /// work on activation (Fig. 6's differentiator).
        ctx_work: bool,
    },
    /// A rank blocked on communication (parked in `Recv`).
    Block,
    /// A message arrival woke a blocked rank.
    Unblock,
    /// A rank posted a message.
    MsgSend { to: u32, tag: u64, bytes: u32 },
    /// A message reached its destination rank's mailbox.
    MsgRecv { from: u32, tag: u64, bytes: u32 },
    /// A rank's memory moved between PEs.
    Migration { from_pe: u32, to_pe: u32, bytes: u64 },
    /// One load-balancing sync step completed.
    LbStep { step: u32, migrations: u32 },
    /// A privatizer copied a program segment for a rank (startup).
    SegmentCopy { segment: Segment, bytes: u64 },
    /// A privatizer rebased a rank's GOT entries (startup).
    GotFixup { entries: u32 },
    /// A context switch installed a privatization register (TLS/GOT).
    PrivInstall { reg: PrivReg },
    /// Isomalloc packed/unpacked a rank's regions (migration,
    /// checkpoint, or restore).
    RegionCopy {
        dir: CopyDir,
        regions: u32,
        bytes: u64,
    },
    /// An MPI-level entry point ran (AMPI layer).
    MpiCall { name: &'static str },
    /// The lossy network dropped a message copy in transit (`ack` marks
    /// acknowledgement copies of the reliable-delivery layer).
    MsgDrop {
        from: u32,
        to: u32,
        seq: u64,
        ack: bool,
    },
    /// A message copy arrived with a checksum mismatch and was discarded
    /// (the retransmit path recovers it).
    MsgCorrupt { from: u32, to: u32, seq: u64 },
    /// The reliable-delivery layer retransmitted an unacknowledged
    /// message (`attempt` counts transmissions; 1 = first retransmit).
    MsgRetransmit {
        from: u32,
        to: u32,
        seq: u64,
        attempt: u32,
    },
    /// The receiver discarded a duplicate copy of an already-delivered
    /// message (network duplication or a spurious retransmit).
    MsgDupSuppressed { from: u32, to: u32, seq: u64 },
    /// A PE was killed by fault injection; `ranks_lost` ranks resided
    /// there.
    PeFail { pe: u32, ranks_lost: u32 },
    /// A coordinated checkpoint was taken at an LB step (`bytes` is the
    /// total primary image size).
    CheckpointTaken { step: u32, bytes: u64 },
    /// A coordinated rollback restored `ranks` ranks from checkpoint
    /// images.
    Recovery { ranks: u32 },
    /// A startup capability probe rated one privatization method for the
    /// requested run shape.
    MethodProbe {
        method: &'static str,
        verdict: ProbeVerdict,
    },
    /// Startup degraded from an infeasible (or mid-startup-failing)
    /// method to the next feasible one in the fallback chain.
    MethodFallback {
        from: &'static str,
        to: &'static str,
    },
    /// A ULT stack red zone was found clobbered at a guard check (the
    /// rank field names the overflowing rank).
    StackGuardTrip { stack_size: u64 },
    /// An isomalloc arena guard caught an invalid free or a write to
    /// quarantined (freed) memory.
    ArenaGuardTrip { kind: ArenaTrip },
    /// A segment-integrity audit checksummed `ranks` privatized data
    /// segments at a barrier; `dirty` of them changed outside their
    /// owner's execution (cross-rank global bleed).
    SegmentAudit { ranks: u32, dirty: u32 },
    /// Envelope-pool classification of one message send: `inline` means
    /// the payload fit the pool's inline small-payload storage (≤ 64 B)
    /// and its whole send/retransmit/delivery lifecycle allocates
    /// nothing; otherwise it spilled to a refcounted heap buffer.
    MsgPool { inline: bool },
    /// A write trapped on a still-shared copy-on-write page (CowGlobals'
    /// simulated fault handler; the rank field names the writer).
    PageFault { page: u32 },
    /// The fault handler privatized the page: copied `bytes` from the
    /// shared template into the rank's backing store (plus any memoized
    /// patches for that page).
    PagePrivatized { page: u32, bytes: u64 },
    /// End-of-run deduplication audit over all copy-on-write ranks:
    /// `shared_pages` of the `total_pages` per-rank data-segment pages
    /// never diverged on any of the `ranks` ranks.
    DedupAudit {
        ranks: u32,
        shared_pages: u64,
        total_pages: u64,
    },
    /// The machine committed an elastic rescale at an LB barrier: the
    /// active-PE set changed from `from_pes` to `to_pes`, draining
    /// `moved_ranks` ranks off the deactivated PEs.
    Rescale {
        from_pes: u32,
        to_pes: u32,
        moved_ranks: u32,
    },
    /// A planned rescale was abandoned because a PE failure struck the
    /// same barrier; the machine kept the pre-rescale geometry.
    RescaleAborted { from_pes: u32, to_pes: u32 },
    /// Buddy checkpoints were re-replicated onto a new geometry after a
    /// rescale or geometry restore committed (`bytes` is the total
    /// primary image size of the fresh checkpoint).
    ReReplicate { ranks: u32, bytes: u64 },
    /// A coordinated checkpoint taken on one geometry was restored onto
    /// a different one: `ranks` ranks were re-placed across `to_pes`
    /// active PEs.
    GeometryRestore { ranks: u32, to_pes: u32 },
    /// Warning: checkpoint redundancy degenerated — with a single alive
    /// PE the buddy is the primary itself, so `ranks` images exist only
    /// once and one more PE loss is unrecoverable.
    BuddyDegenerate { pe: u32, ranks: u32 },
    /// An incremental checkpoint captured a delta at an LB barrier:
    /// `pages` dirty page-chunks across `ranks` ranks, `bytes` of sparse
    /// patch payload (vs. a full image repack).
    CkptDelta {
        step: u32,
        ranks: u32,
        pages: u64,
        bytes: u64,
    },
    /// The consistent-cut marker at an LB barrier sealed every in-flight
    /// delta: the buddy's sealed chain prefix now extends to `epoch`
    /// deltas past the base image.
    CkptSeal { step: u32, epoch: u32 },
    /// Asynchronously drained `bytes` of delta payload to the buddy PE
    /// between barriers (rides the reliable-delivery machinery, so drops
    /// and corruption are retransmitted/discarded as usual).
    CkptAsyncDrain { bytes: u64 },
    /// Delta-chain compaction: a fresh base image replaced a chain of
    /// `chain` deltas (`bytes` of patch payload folded away).
    CkptCompact { chain: u32, bytes: u64 },
    /// A nonblocking request entered the rank's request table (`send`
    /// distinguishes Isend from Irecv posts).
    ReqPost { req: u64, send: bool },
    /// A posted request completed: an Irecv matched an arriving message
    /// at delivery time, or an Isend's payload was acknowledged.
    ReqComplete { req: u64, send: bool },
    /// A completion ran a registered continuation closure instead of
    /// resuming a suspended ULT.
    ReqContinuation { req: u64 },
    /// A rank suspended inside `MPI_Wait`-family calls on `waiting`
    /// still-pending requests.
    ReqWaitBlock { waiting: u32 },
}

impl EventKind {
    /// Stable lowercase tag used by the JSON export and summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::CtxSwitchIn { .. } => "ctx_switch_in",
            EventKind::Block => "block",
            EventKind::Unblock => "unblock",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgRecv { .. } => "msg_recv",
            EventKind::Migration { .. } => "migration",
            EventKind::LbStep { .. } => "lb_step",
            EventKind::SegmentCopy { .. } => "segment_copy",
            EventKind::GotFixup { .. } => "got_fixup",
            EventKind::PrivInstall { .. } => "priv_install",
            EventKind::RegionCopy { .. } => "region_copy",
            EventKind::MpiCall { .. } => "mpi_call",
            EventKind::MsgDrop { .. } => "msg_drop",
            EventKind::MsgCorrupt { .. } => "msg_corrupt",
            EventKind::MsgRetransmit { .. } => "msg_retransmit",
            EventKind::MsgDupSuppressed { .. } => "msg_dup_suppressed",
            EventKind::PeFail { .. } => "pe_fail",
            EventKind::CheckpointTaken { .. } => "checkpoint_taken",
            EventKind::Recovery { .. } => "recovery",
            EventKind::MethodProbe { .. } => "method_probe",
            EventKind::MethodFallback { .. } => "method_fallback",
            EventKind::StackGuardTrip { .. } => "stack_guard_trip",
            EventKind::ArenaGuardTrip { .. } => "arena_guard_trip",
            EventKind::SegmentAudit { .. } => "segment_audit",
            EventKind::MsgPool { .. } => "msg_pool",
            EventKind::PageFault { .. } => "page_fault",
            EventKind::PagePrivatized { .. } => "page_privatized",
            EventKind::DedupAudit { .. } => "dedup_audit",
            EventKind::Rescale { .. } => "rescale",
            EventKind::RescaleAborted { .. } => "rescale_aborted",
            EventKind::ReReplicate { .. } => "re_replicate",
            EventKind::GeometryRestore { .. } => "geometry_restore",
            EventKind::BuddyDegenerate { .. } => "buddy_degenerate",
            EventKind::CkptDelta { .. } => "ckpt_delta",
            EventKind::CkptSeal { .. } => "ckpt_seal",
            EventKind::CkptAsyncDrain { .. } => "ckpt_async_drain",
            EventKind::CkptCompact { .. } => "ckpt_compact",
            EventKind::ReqPost { .. } => "req_post",
            EventKind::ReqComplete { .. } => "req_complete",
            EventKind::ReqContinuation { .. } => "req_continuation",
            EventKind::ReqWaitBlock { .. } => "req_wait_block",
        }
    }
}

/// A recorded event: what happened, where, and when.
///
/// `seq` is a tracer-wide monotonic sequence number, so merged per-PE
/// streams have a total order even when timestamps tie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub seq: u64,
    /// Nanoseconds: virtual clock in virtual mode, wall time since the
    /// machine epoch in real-time mode.
    pub t_ns: u64,
    pub pe: u32,
    /// The rank involved, or [`NO_RANK`].
    pub rank: u32,
    pub kind: EventKind,
}

// Every ring slot is one `Event`: a variant that grows it grows every
// PE's ring (16 Ki slots by default), so that is a decision, not a drift.
const _: () = assert!(std::mem::size_of::<Event>() == 64);
