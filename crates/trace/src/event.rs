//! Trace event vocabulary, declared once.
//!
//! Every event is a fixed-size `Copy` value so the recorder's hot path
//! never allocates: variable-length information (MPI call names) is
//! carried as `&'static str`.
//!
//! The `events!` table is the only place that knows what a kind carries:
//! each entry gives the variant, its export tag, the JSON key of every
//! field whose key is not its name, and the counters the kind bumps. The
//! enum, [`EventKind::tag`], the export's field writer and the counter
//! bumps are all generated from it, so a new kind is one entry here plus
//! its counters' lines in `recorder.rs`'s `counters!` table.

use crate::json::{self, JsonValue};
use crate::recorder::Counters;
use std::sync::atomic::Ordering;

/// Sentinel rank for events not attributable to a virtual rank (LB steps,
/// scheduler-side bookkeeping).
pub const NO_RANK: u32 = u32::MAX;

/// Declares the small value enums events carry, each variant with the
/// name the export writes for it.
macro_rules! names {
    ($($(#[$doc:meta])* $ty:ident { $($(#[$vdoc:meta])* $variant:ident = $name:literal,)* })*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vdoc])* $variant,)*
        }

        impl $ty {
            pub fn as_str(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }

        impl JsonValue for $ty {
            fn write_json(&self, out: &mut String) {
                self.as_str().write_json(out);
            }
        }
    )*};
}

names! {
    /// Which program segment a privatizer copied for a rank.
    Segment {
        Code = "code",
        Data = "data",
        Tls = "tls",
    }

    /// Direction of an Isomalloc rank-memory copy.
    CopyDir {
        /// Regions → wire buffer (migration/checkpoint pack).
        Pack = "pack",
        /// Wire buffer → regions (migration/checkpoint unpack).
        Unpack = "unpack",
    }

    /// Which privatization register a context switch installed.
    PrivReg {
        Tls = "tls",
        Got = "got",
    }

    /// Verdict of a startup capability probe for one privatization method.
    ProbeVerdict {
        Feasible = "feasible",
        ResourceLimited = "resource_limited",
        Unsupported = "unsupported",
    }

    /// What an isomalloc arena guard caught.
    ArenaTrip {
        DoubleFree = "double_free",
        UseAfterFree = "use_after_free",
        ForeignPointer = "foreign_pointer",
    }
}

/// The one declaration of every event kind. An entry reads
///
/// ```text
/// Variant "tag" { field: Type, renamed as "json_key": Type } => counter, sum += field;
/// ```
///
/// Fields are exported in declaration order under their own names unless
/// an `as "key"` renames them. After `=>` comes the `event` counter the
/// kind bumps by one — or `(flag ? yes : no)`, which picks it by a `bool`
/// field — then each `sum` counter with the field it adds.
macro_rules! events {
    (@bump $c:ident, ($flag:ident ? $yes:ident : $no:ident)) => {
        (if $flag { &$c.$yes } else { &$c.$no }).fetch_add(1, Ordering::Relaxed)
    };
    (@bump $c:ident, $counter:ident) => {
        $c.$counter.fetch_add(1, Ordering::Relaxed)
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    ($(
        $(#[$doc:meta])*
        $variant:ident $tag:literal $({
            $($(#[$fdoc:meta])* $field:ident $(as $key:literal)?: $ty:ty),* $(,)?
        })? => $event:tt $(, $sum:ident += $sfield:ident)*;
    )*) => {
        /// One traced runtime occurrence.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum EventKind {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
        }

        impl EventKind {
            /// Stable lowercase tag used by the JSON export and summaries.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $tag,)*
                }
            }

            /// Append this kind's fields to an exported record, each as
            /// `, "key": value`.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match self {
                    $(EventKind::$variant $({ $($field),* })? => {
                        $($(json::field(out, events!(@key $field $($key)?), $field);)*)?
                    })*
                }
            }

            /// Bump the counters this kind counts toward.
            #[allow(unused_variables)]
            pub(crate) fn count(self, c: &Counters) {
                match self {
                    $(EventKind::$variant $({ $($field),* })? => {
                        events!(@bump c, $event);
                        $(c.$sum.fetch_add(u64::from($sfield), Ordering::Relaxed);)*
                    })*
                }
            }
        }
    };
}

events! {
    /// The scheduler switched a PE to a rank's ULT.
    CtxSwitchIn "ctx_switch_in" {
        /// Whether the rank's privatization method performs register
        /// work on activation (Fig. 6's differentiator).
        ctx_work: bool,
    } => ctx_switches;
    /// A rank blocked on communication (parked in `Recv`).
    Block "block" => blocks;
    /// A message arrival woke a blocked rank.
    Unblock "unblock" => unblocks;
    /// A rank posted a message.
    MsgSend "msg_send" { to: u32, tag: u64, bytes: u32 } => msgs_sent, send_bytes += bytes;
    /// A message reached its destination rank's mailbox.
    MsgRecv "msg_recv" { from: u32, tag: u64, bytes: u32 } => msgs_recv, recv_bytes += bytes;
    /// A rank's memory moved between PEs.
    Migration "migration" { from_pe: u32, to_pe: u32, bytes: u64 }
        => migrations, migration_bytes += bytes;
    /// One load-balancing sync step completed.
    LbStep "lb_step" { step: u32, migrations: u32 } => lb_steps;
    /// A privatizer copied a program segment for a rank (startup).
    SegmentCopy "segment_copy" { segment: Segment, bytes: u64 }
        => segment_copies, segment_copy_bytes += bytes;
    /// A privatizer rebased a rank's GOT entries (startup).
    GotFixup "got_fixup" { entries: u32 } => got_fixups;
    /// A context switch installed a privatization register (TLS/GOT).
    PrivInstall "priv_install" { reg: PrivReg } => priv_installs;
    /// Isomalloc packed/unpacked a rank's regions (migration,
    /// checkpoint, or restore).
    RegionCopy "region_copy" { dir: CopyDir, regions: u32, bytes: u64 }
        => region_copies, region_copy_bytes += bytes;
    /// An MPI-level entry point ran (AMPI layer).
    MpiCall "mpi_call" { name: &'static str } => mpi_calls;
    /// The lossy network dropped a message copy in transit (`ack` marks
    /// acknowledgement copies of the reliable-delivery layer).
    MsgDrop "msg_drop" { from: u32, to: u32, seq as "msg_seq": u64, ack: bool }
        => (ack ? ack_drops : msg_drops);
    /// A message copy arrived with a checksum mismatch and was discarded
    /// (the retransmit path recovers it).
    MsgCorrupt "msg_corrupt" { from: u32, to: u32, seq as "msg_seq": u64 } => msg_corrupts;
    /// The reliable-delivery layer retransmitted an unacknowledged
    /// message (`attempt` counts transmissions; 1 = first retransmit).
    MsgRetransmit "msg_retransmit" { from: u32, to: u32, seq as "msg_seq": u64, attempt: u32 }
        => msg_retransmits;
    /// The receiver discarded a duplicate copy of an already-delivered
    /// message (network duplication or a spurious retransmit).
    MsgDupSuppressed "msg_dup_suppressed" { from: u32, to: u32, seq as "msg_seq": u64 }
        => dup_suppressed;
    /// A PE was killed by fault injection; `ranks_lost` ranks resided
    /// there.
    PeFail "pe_fail" { pe as "failed_pe": u32, ranks_lost: u32 } => pe_fails;
    /// A coordinated checkpoint was taken at an LB step (`bytes` is the
    /// total primary image size).
    CheckpointTaken "checkpoint_taken" { step: u32, bytes: u64 }
        => checkpoints, checkpoint_bytes += bytes;
    /// A coordinated rollback restored `ranks` ranks from checkpoint
    /// images.
    Recovery "recovery" { ranks: u32 } => recoveries;
    /// A startup capability probe rated one privatization method for the
    /// requested run shape.
    MethodProbe "method_probe" { method: &'static str, verdict: ProbeVerdict } => method_probes;
    /// Startup degraded from an infeasible (or mid-startup-failing)
    /// method to the next feasible one in the fallback chain.
    MethodFallback "method_fallback" {
        from as "from_method": &'static str,
        to as "to_method": &'static str,
    } => method_fallbacks;
    /// A ULT stack red zone was found clobbered at a guard check (the
    /// rank field names the overflowing rank).
    StackGuardTrip "stack_guard_trip" { stack_size: u64 } => stack_guard_trips;
    /// An isomalloc arena guard caught an invalid free or a write to
    /// quarantined (freed) memory.
    ArenaGuardTrip "arena_guard_trip" { kind as "trip": ArenaTrip } => arena_guard_trips;
    /// A segment-integrity audit checksummed `ranks` privatized data
    /// segments at a barrier; `dirty` of them changed outside their
    /// owner's execution (cross-rank global bleed).
    SegmentAudit "segment_audit" { ranks: u32, dirty: u32 } => segment_audits;
    /// Envelope-pool classification of one message send: `inline` means
    /// the payload fit the pool's inline small-payload storage (≤ 64 B)
    /// and its whole send/retransmit/delivery lifecycle allocates
    /// nothing; otherwise it spilled to a refcounted heap buffer.
    MsgPool "msg_pool" { inline: bool } => (inline ? pool_hits : pool_misses);
    /// A write trapped on a still-shared copy-on-write page (CowGlobals'
    /// simulated fault handler; the rank field names the writer).
    PageFault "page_fault" { page: u32 } => page_faults;
    /// The fault handler privatized the page: copied `bytes` from the
    /// shared template into the rank's backing store (plus any memoized
    /// patches for that page).
    PagePrivatized "page_privatized" { page: u32, bytes: u64 }
        => pages_privatized, page_copy_bytes += bytes;
    /// End-of-run deduplication audit over all copy-on-write ranks:
    /// `shared_pages` of the `total_pages` per-rank data-segment pages
    /// never diverged on any of the `ranks` ranks.
    DedupAudit "dedup_audit" { ranks: u32, shared_pages: u64, total_pages: u64 } => dedup_audits;
    /// The machine committed an elastic rescale at an LB barrier: the
    /// active-PE set changed from `from_pes` to `to_pes`, draining
    /// `moved_ranks` ranks off the deactivated PEs.
    Rescale "rescale" { from_pes: u32, to_pes: u32, moved_ranks: u32 } => rescales;
    /// A planned rescale was abandoned because a PE failure struck the
    /// same barrier; the machine kept the pre-rescale geometry.
    RescaleAborted "rescale_aborted" { from_pes: u32, to_pes: u32 } => rescale_aborts;
    /// Buddy checkpoints were re-replicated onto a new geometry after a
    /// rescale or geometry restore committed (`bytes` is the total
    /// primary image size of the fresh checkpoint).
    ReReplicate "re_replicate" { ranks: u32, bytes: u64 }
        => re_replications, re_replication_bytes += bytes;
    /// A coordinated checkpoint taken on one geometry was restored onto
    /// a different one: `ranks` ranks were re-placed across `to_pes`
    /// active PEs.
    GeometryRestore "geometry_restore" { ranks: u32, to_pes: u32 } => geometry_restores;
    /// Warning: checkpoint redundancy degenerated — with a single alive
    /// PE the buddy is the primary itself, so `ranks` images exist only
    /// once and one more PE loss is unrecoverable.
    BuddyDegenerate "buddy_degenerate" { pe as "degenerate_pe": u32, ranks: u32 }
        => buddy_degenerates;
    /// An incremental checkpoint captured a delta at an LB barrier:
    /// `pages` dirty page-chunks across `ranks` ranks, `bytes` of sparse
    /// patch payload (vs. a full image repack).
    CkptDelta "ckpt_delta" { step: u32, ranks: u32, pages: u64, bytes: u64 }
        => ckpt_deltas, ckpt_delta_pages += pages, ckpt_delta_bytes += bytes;
    /// The consistent-cut marker at an LB barrier sealed every in-flight
    /// delta: the buddy's sealed chain prefix now extends to `epoch`
    /// deltas past the base image.
    CkptSeal "ckpt_seal" { step: u32, epoch: u32 } => ckpt_seals;
    /// Asynchronously drained `bytes` of delta payload to the buddy PE
    /// between barriers (rides the reliable-delivery machinery, so drops
    /// and corruption are retransmitted/discarded as usual).
    CkptAsyncDrain "ckpt_async_drain" { bytes: u64 } => ckpt_async_drains, ckpt_async_bytes += bytes;
    /// Delta-chain compaction: a fresh base image replaced a chain of
    /// `chain` deltas (`bytes` of patch payload folded away).
    CkptCompact "ckpt_compact" { chain: u32, bytes: u64 } => ckpt_compacts;
    /// A nonblocking request entered the rank's request table (`send`
    /// distinguishes Isend from Irecv posts).
    ReqPost "req_post" { req: u64, send: bool } => req_posts;
    /// A posted request completed: an Irecv matched an arriving message
    /// at delivery time, or an Isend's payload was acknowledged.
    ReqComplete "req_complete" { req: u64, send: bool } => req_completes;
    /// A completion ran a registered continuation closure instead of
    /// resuming a suspended ULT.
    ReqContinuation "req_continuation" { req: u64 } => req_continuations;
    /// A rank suspended inside `MPI_Wait`-family calls on `waiting`
    /// still-pending requests.
    ReqWaitBlock "req_wait_block" { waiting: u32 } => req_wait_blocks;
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
