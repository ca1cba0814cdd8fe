//! Run-level reporting.

use pvr_des::{SimDuration, SimTime};
use pvr_privatize::Method;
use pvr_trace::TraceCounts;
use std::fmt::Write;
use std::time::Duration;

/// One load-balancing step's record — the "LB database" entry the
/// runtime keeps for introspection (the §2.1 metrics: execution time per
/// rank, idle time per PE, communication volume).
#[derive(Debug, Clone)]
pub struct LbRecord {
    /// 1-based LB step number.
    pub step: u32,
    /// Virtual time of the sync barrier.
    pub at: SimTime,
    /// Per-PE load (seconds) measured since the previous step, before
    /// rebalancing.
    pub pe_loads_before: Vec<f64>,
    /// Per-PE load under the new placement (same measurements, new map).
    pub pe_loads_after: Vec<f64>,
    pub migrations: usize,
    /// Bytes tracked on the communication graph this period.
    pub comm_bytes: u64,
}

impl LbRecord {
    fn imbalance(loads: &[f64]) -> f64 {
        if loads.is_empty() {
            return 0.0;
        }
        let max = loads.iter().copied().fold(0.0, f64::max);
        let avg = loads.iter().sum::<f64>() / loads.len() as f64;
        if avg == 0.0 {
            // an all-idle step carries no imbalance (and must not report
            // the "perfectly balanced" 1.0 either)
            0.0
        } else {
            max / avg
        }
    }

    /// max/avg PE load before rebalancing (1.0 = perfectly balanced).
    pub fn imbalance_before(&self) -> f64 {
        Self::imbalance(&self.pe_loads_before)
    }

    pub fn imbalance_after(&self) -> f64 {
        Self::imbalance(&self.pe_loads_after)
    }
}

/// One migration's accounting.
#[derive(Debug, Clone, Copy)]
pub struct MigrationRecord {
    pub rank: usize,
    pub from_pe: usize,
    pub to_pe: usize,
    /// The rank's image as the network model is charged for it: every
    /// region whole (heap + stack + TLS + segments).
    pub bytes: usize,
    /// Bytes the wire buffer held: of each region, what the rank has
    /// written (see `pvr_isomalloc::MigrationBuffer::stored_len`).
    pub stored_bytes: usize,
    /// Wall time of pack + transfer + unpack (real in both modes).
    pub real_time: Duration,
    /// Virtual network cost charged (virtual mode).
    pub sim_cost: SimDuration,
}

/// The one declaration of a block of exact tallies: each field once, with
/// how two tallies of it fold — `sum` adds, `peak` keeps the larger
/// (maxima, and levels read when the run ends), `wall` adds but is
/// wall-clock, so it is neither activity nor part of the digests, and
/// `block` is a field that is itself such a struct — and, after `=>`, the
/// trace counter it mirrors. Generates the struct and `absorb`; for a
/// `pub` block of the [`RunReport`] also `is_clean`, the walk
/// [`RunReport::sim_digest`] makes of it, its rows of
/// [`RunReport::trace_rows`] and its line of [`RunReport::summary`].
///
/// A field with `=> counter` is bumped beside the `trace(…)` call that
/// emits the counter's event; a field without one says why in its doc.
macro_rules! tallies {
    (
        $(#[$sdoc:meta])*
        pub struct $name:ident {
            $($(#[$fdoc:meta])* $kind:ident $field:ident: $ty:ty $(=> $counter:ident)?,)*
        }
    ) => {
        tallies! { @carrier $(#[$sdoc])* pub struct $name { $($(#[$fdoc])* $kind $field: $ty,)* } }

        impl $name {
            /// True when the run saw none of this activity: every field is
            /// zero, wall-clock ones aside.
            pub fn is_clean(&self) -> bool {
                true $(&& tallies!(@clean $kind self.$field))*
            }

            /// Every field but the wall-clock ones, in declaration order.
            fn digest(&self, put: &mut impl FnMut(u64)) {
                $(tallies!(@digest $kind put, self.$field);)*
            }

            /// `(counter, traced, reported)` of every field with a counter;
            /// fields that name the same counter add up in one row.
            fn trace_rows(&self, c: &TraceCounts, rows: &mut Vec<(&'static str, u64, u64)>) {
                $($(
                    let reported = u64::from(self.$field);
                    match rows.iter_mut().find(|r| r.0 == stringify!($counter)) {
                        Some(row) => row.2 += reported,
                        None => rows.push((stringify!($counter), c.$counter, reported)),
                    }
                )?)*
            }

            /// `label: field=value …` of every nonzero field, or nothing
            /// when the block is clean.
            fn summary_line(&self, label: &str, out: &mut String) {
                if !self.is_clean() {
                    let _ = write!(out, "{label}:");
                    $(if self.$field != 0 {
                        let _ = write!(out, " {}={}", stringify!($field), self.$field);
                    })*
                    out.push('\n');
                }
            }

            /// `(kind, name, value)` of every field, in declaration order.
            #[cfg(test)]
            fn fields(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$((stringify!($kind), stringify!($field), u64::from(self.$field)),)*]
            }

            #[cfg(test)]
            fn set(&mut self, name: &str, v: u32) {
                $(if name == stringify!($field) { self.$field = v.into() })*
            }
        }
    };
    (
        $(@carrier)? $(#[$sdoc:meta])*
        $vis:vis struct $name:ident { $($(#[$fdoc:meta])* $kind:ident $field:ident: $ty:ty,)* }
    ) => {
        $(#[$sdoc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fdoc])* pub $field: $ty,)*
        }

        impl $name {
            /// Fold another tally into this one (epoch-barrier merge).
            pub(crate) fn absorb(&mut self, o: &$name) {
                $(tallies!(@absorb $kind self.$field, o.$field);)*
            }
        }
    };
    (@absorb peak $a:expr, $b:expr) => { $a = $a.max($b) };
    (@absorb block $a:expr, $b:expr) => { $a.absorb(&$b) };
    (@absorb $sum_or_wall:ident $a:expr, $b:expr) => { $a += $b };
    (@clean wall $v:expr) => { true };
    (@clean $kind:ident $v:expr) => { $v == 0 };
    (@digest wall $put:ident, $v:expr) => {};
    (@digest $kind:ident $put:ident, $v:expr) => { $put(u64::from($v)) };
}

tallies! {
    /// Exact tallies of fault-injection and recovery activity during a run.
    pub struct FaultTallies {
        /// Data-message copies dropped in transit by the fault plan.
        sum msgs_dropped: u64 => msg_drops,
        /// Ack copies dropped in transit.
        sum acks_dropped: u64 => ack_drops,
        /// Copies discarded at the receiver for checksum mismatch.
        sum msgs_corrupted: u64 => msg_corrupts,
        /// Extra copies injected by network duplication. No row: a copy is
        /// traced where it ends (delivered, dropped or suppressed), not
        /// where the plan makes it.
        sum duplicates_injected: u64,
        /// Copies discarded by receive-side dedup (network duplicates and
        /// spurious retransmits).
        sum duplicates_suppressed: u64 => dup_suppressed,
        /// Retransmissions issued by the reliable delivery layer.
        sum retransmits: u64 => msg_retransmits,
        /// Coordinated checkpoints taken at LB steps.
        sum checkpoints: u32 => checkpoints,
        /// Coordinated rollback/restore operations performed.
        sum recoveries: u32 => recoveries,
        /// PEs killed by fault injection.
        sum pe_failures: u32 => pe_fails,
        /// Checkpoint entries whose buddy degenerated to the primary itself
        /// (single alive PE): the image exists only once, so one more PE
        /// loss is unrecoverable. No row: this counts ranks, while the
        /// `buddy_degenerates` counter counts `BuddyDegenerate` warnings,
        /// one per checkpoint.
        sum degenerate_buddies: u32,
    }
}

tallies! {
    /// Exact tallies of elastic (dynamic PE set) activity during a run.
    /// All-zero on fixed-geometry runs. `pes_activated`, `pes_deactivated`
    /// and `ranks_drained` have no row: they add up fields of the `Rescale`
    /// and `GeometryRestore` events, which no counter sums.
    pub struct ElasticTallies {
        /// Rescales committed at LB barriers (grow or shrink).
        sum rescales: u32 => rescales,
        /// Planned rescales abandoned because a PE failure struck the same
        /// barrier (failure-atomicity: geometry kept, work rolled back by
        /// the normal recovery path).
        sum rescales_aborted: u32 => rescale_aborts,
        /// PEs brought into the active set by committed rescales.
        sum pes_activated: u32,
        /// PEs drained and removed from the active set by committed
        /// rescales.
        sum pes_deactivated: u32,
        /// Ranks migrated off deactivated PEs during rescale drains.
        sum ranks_drained: u32,
        /// Fresh buddy checkpoints taken on a new geometry after a rescale
        /// or geometry restore committed.
        sum re_replications: u32 => re_replications,
        /// Checkpoints restored onto a geometry different from the one that
        /// took them.
        sum geometry_restores: u32 => geometry_restores,
    }
}

tallies! {
    /// Exact tallies of privatization-hardening activity: capability probes,
    /// method fallbacks, and memory-safety guard trips.
    pub struct HardeningTallies {
        /// Capability probes evaluated at startup (one per candidate method
        /// when the fallback chain is enabled).
        sum probes: u64 => method_probes,
        /// Degradations from one method to the next in the fallback chain
        /// (probe-predicted or mid-startup).
        sum fallbacks: u64 => method_fallbacks,
        /// ULT stack red zones found clobbered.
        sum stack_guard_trips: u64 => stack_guard_trips,
        /// Isomalloc arena guard violations (double free, use-after-free,
        /// foreign pointer).
        sum arena_guard_trips: u64 => arena_guard_trips,
        /// Segment-integrity audits performed (per-slice trips and barrier
        /// sweeps).
        sum segment_audits: u64 => segment_audits,
    }
}

tallies! {
    /// Exact tallies of copy-on-write privatization activity (CowGlobals),
    /// read from the privatizers when the run ends. All-zero for eager
    /// methods. `shared_pages` and `total_pages` have no row: they are
    /// levels, carried as fields of the one `DedupAudit` event.
    pub struct CowTallies {
        /// Simulated page faults taken (first write to a shared page).
        sum page_faults: u64 => page_faults,
        /// Pages privatized (equals `page_faults` in this model).
        sum pages_privatized: u64 => pages_privatized,
        /// Pages of the per-rank data segment that never diverged on any
        /// rank — the dedup audit's shared-page count.
        peak shared_pages: u64,
        /// Pages per rank data segment.
        peak total_pages: u64,
        /// Ranks whose COW segment was force-materialized (private copy of
        /// every page). Checkpoint packing must keep this zero — a nonzero
        /// count under checkpointing is the dedup-defeat regression. No
        /// row: materializing emits no event.
        sum materialized_ranks: u64,
    }
}

tallies! {
    /// Exact tallies of incremental/asynchronous checkpoint activity.
    /// All-zero when `ckpt_incremental` is off — except `pause_ns`, which
    /// measures checkpoint capture pause in both modes. The three `peak`
    /// fields and `pause_ns` have no row: they are maxima, a level and a
    /// duration, and trace counters only count events and sum quantities.
    pub struct CkptTallies {
        /// Incremental delta captures taken at LB barriers.
        sum deltas: u32 => ckpt_deltas,
        /// Dirty page-chunks captured across all delta captures.
        sum pages_delta: u64 => ckpt_delta_pages,
        /// Sparse patch payload bytes across all delta captures.
        sum delta_bytes: u64 => ckpt_delta_bytes,
        /// Consistent-cut seals of in-flight deltas at the following barrier.
        sum seals: u32 => ckpt_seals,
        /// Asynchronous drains of sealed deltas to buddy PEs.
        sum async_drains: u32 => ckpt_async_drains,
        /// Delta payload bytes streamed to buddies asynchronously.
        sum async_bytes: u64 => ckpt_async_bytes,
        /// Peak unsealed (in-flight) delta bytes observed between barriers.
        peak max_in_flight_bytes: u64,
        /// Delta-chain compactions (fresh base capture replacing a chain).
        sum compactions: u32 => ckpt_compacts,
        /// Delta-chain length at end of run (0 when the last capture was a
        /// base, or in full mode).
        peak chain_len: u32,
        /// Longest delta chain observed during the run.
        peak max_chain_len: u32,
        /// Wall-clock nanoseconds spent inside checkpoint captures (the
        /// application pause). Measured in both full and incremental modes;
        /// excluded from the digests because wall-clock varies run to run.
        wall pause_ns: u64,
    }
}

tallies! {
    /// Exact tallies of nonblocking-request activity during a run.
    /// All-zero on blocking-only runs. Posts and completes reconcile as
    /// send + recv (rows `req_posts`, `req_completes`).
    pub struct ReqTallies {
        /// Isend requests posted into rank request tables.
        sum send_posts: u64 => req_posts,
        /// Irecv requests posted into rank request tables (including posts
        /// that claimed an already-arrived unexpected message).
        sum recv_posts: u64 => req_posts,
        /// Isend requests completed (payload handed to the runtime, or the
        /// reliable-delivery ack arrived).
        sum send_completes: u64 => req_completes,
        /// Irecv requests completed (matched against an arriving or already
        /// buffered message).
        sum recv_completes: u64 => req_completes,
        /// Completions delivered through a registered continuation closure
        /// instead of resuming a suspended ULT.
        sum continuations: u64 => req_continuations,
        /// Wait-family suspensions taken because at least one awaited
        /// request was still pending.
        sum wait_blocks: u64 => req_wait_blocks,
        /// Requests still open (never completed or never reaped) when their
        /// rank finished — the leaked-request count cleaned up at finalize.
        /// No row: tallied at rank completion, after the request's own
        /// events, with no event of its own.
        sum leaked: u64,
    }
}

tallies! {
    /// Every exact count of a run in one value: a lane's
    /// [`Outbox`](crate::worker::Outbox) carries one per epoch, the
    /// [`Machine`](crate::Machine) absorbs them into its own at the barrier
    /// and copies that into the [`RunReport`].
    pub(crate) struct Tallies {
        /// ULT context switches ([`RunReport::context_switches`]).
        sum switches: u64,
        /// Messages handed to their target rank
        /// ([`RunReport::messages_delivered`]).
        sum delivered: u64,
        /// Reported as [`EngineTallies::pool_hits`].
        sum pool_hits: u64,
        /// Reported as [`EngineTallies::pool_misses`].
        sum pool_misses: u64,
        block faults: FaultTallies,
        block hardening: HardeningTallies,
        block cow: CowTallies,
        block elastic: ElasticTallies,
        block ckpt: CkptTallies,
        block req: ReqTallies,
    }
}

/// Execution-engine counters: how the run was actually driven.
///
/// [`RunReport::sim_digest`] excludes this block: `threads`, `barriers`
/// and the wall-clocks depend on the engine and the host, not on the
/// simulation. `pool_hits` and `pool_misses` are exact all the same —
/// every engine counts the same, and they have rows in
/// [`RunReport::trace_rows`] — and `epochs` is exact in virtual time
/// and repeats in real time unless measured loads move ranks.
#[derive(Debug, Clone, Default)]
pub struct EngineTallies {
    /// Worker threads the engine actually used (1 = the driver alone).
    pub threads: usize,
    /// Epochs (virtual mode) or rounds (real-time mode) driven.
    pub epochs: u64,
    /// Epochs and rounds that went to more than one worker (0 on a pool
    /// of one).
    pub barriers: u64,
    /// Message sends whose payload fit the envelope pool's inline
    /// small-payload storage (≤ 64 B: no heap allocation on the send
    /// path). The classification depends only on the message stream,
    /// so every engine counts the same.
    pub pool_hits: u64,
    /// Message sends whose payload spilled to a refcounted heap buffer.
    pub pool_misses: u64,
    /// Wall-clock each worker spent executing lane events, indexed by
    /// worker id (0 = the driving thread, which also runs every epoch
    /// with one active lane); always `threads` entries after a run.
    pub worker_wall: Vec<Duration>,
    /// Driving-thread wall-clock summed over the parallel epochs and
    /// rounds, dispatch and the wait for the slowest worker included.
    pub parallel_wall: Duration,
    /// Worker busy time inside those same epochs and rounds, summed over
    /// workers. `parallel_wall - parallel_busy / threads` is what the
    /// pool costs beyond a perfectly balanced split: dispatch plus
    /// imbalance (the barrier pause).
    pub parallel_busy: Duration,
}

impl EngineTallies {
    /// Dispatch plus imbalance: `parallel_wall` minus the workers' mean
    /// share of `parallel_busy` (zero on serial runs).
    pub fn barrier_pause(&self) -> Duration {
        let mean_busy = self.parallel_busy / self.threads.max(1) as u32;
        self.parallel_wall.saturating_sub(mean_busy)
    }
}

/// What a completed run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual makespan: max PE clock at completion (virtual mode).
    pub sim_elapsed: SimDuration,
    /// Wall-clock time of the run loop.
    pub real_elapsed: Duration,
    /// Per-PE (busy, idle) virtual time.
    pub pe_busy_idle: Vec<(SimDuration, SimDuration)>,
    /// Total ULT context switches performed.
    pub context_switches: u64,
    pub messages_delivered: u64,
    pub lb_steps: u32,
    pub migrations: Vec<MigrationRecord>,
    /// Final virtual clock per PE.
    pub pe_clocks: Vec<SimTime>,
    /// Per-LB-step records (empty when no balancer is configured).
    pub lb_history: Vec<LbRecord>,
    /// Fault-injection and recovery activity (all-zero on clean runs).
    pub faults: FaultTallies,
    /// The privatization method the configuration asked for.
    pub method_requested: Method,
    /// The method the job actually started under (differs from
    /// `method_requested` exactly when the fallback chain degraded).
    pub method_landed: Method,
    /// Probe/fallback/guard activity (all-zero without hardening knobs).
    pub hardening: HardeningTallies,
    /// Copy-on-write privatization activity plus the end-of-run dedup
    /// audit (all-zero for eager methods).
    pub cow: CowTallies,
    /// Elastic rescale/re-replication activity (all-zero on
    /// fixed-geometry runs).
    pub elastic: ElasticTallies,
    /// Incremental/asynchronous checkpoint activity (all-zero in full
    /// mode except the wall-clock `pause_ns`).
    pub ckpt: CkptTallies,
    /// Nonblocking-request activity (all-zero on blocking-only runs).
    /// Part of [`RunReport::sim_digest`] but not
    /// [`RunReport::sim_digest_core`], so continuation-vs-suspension
    /// equivalence can be checked on the core digest alone.
    pub req: ReqTallies,
    /// How the run was driven (threads, epochs, barriers, worker wall).
    /// Excluded from [`RunReport::sim_digest`].
    pub engine: EngineTallies,
}

/// FNV-1a accumulation step shared by the digest methods.
fn fnv_mix(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(PRIME);
    }
}

impl RunReport {
    pub fn total_migration_bytes(&self) -> usize {
        self.migrations.iter().map(|m| m.bytes).sum()
    }

    /// FNV-1a digest of every *deterministic* field of the report.
    ///
    /// Two runs of the same configuration must produce the same digest
    /// regardless of [`Parallelism`](crate::Parallelism) — this is the
    /// bit-identity check the parallel-determinism suite pins. Wall-clock
    /// fields (`real_elapsed`, per-migration `real_time`, the whole
    /// `engine` block) are excluded because they legitimately vary.
    pub fn sim_digest(&self) -> u64 {
        let mut digest = self.sim_digest_core();
        let mut put = |v: u64| fnv_mix(&mut digest, v.to_le_bytes());
        self.cow.digest(&mut put);
        self.ckpt.digest(&mut put);
        self.elastic.digest(&mut put);
        self.req.digest(&mut put);
        for name in [self.method_requested, self.method_landed] {
            fnv_mix(&mut digest, name.to_string().bytes());
        }
        digest
    }

    /// The method-agnostic prefix of [`Self::sim_digest`]: every
    /// deterministic *simulation* field, excluding the method names and
    /// the COW tallies. Two privatization methods that promise identical
    /// execution (eager PIEglobals vs. page-granular CowGlobals) must
    /// produce identical core digests for the same configuration — the
    /// cross-method bit-identity check.
    pub fn sim_digest_core(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let mut digest = OFFSET;
        let mut put = |v: u64| fnv_mix(&mut digest, v.to_le_bytes());
        put(self.sim_elapsed.nanos());
        put(self.pe_busy_idle.len() as u64);
        for (b, i) in &self.pe_busy_idle {
            put(b.nanos());
            put(i.nanos());
        }
        put(self.context_switches);
        put(self.messages_delivered);
        put(self.lb_steps as u64);
        put(self.migrations.len() as u64);
        for m in &self.migrations {
            put(m.rank as u64);
            put(m.from_pe as u64);
            put(m.to_pe as u64);
            put(m.bytes as u64);
            put(m.sim_cost.nanos());
        }
        put(self.pe_clocks.len() as u64);
        for c in &self.pe_clocks {
            put(c.nanos());
        }
        put(self.lb_history.len() as u64);
        for r in &self.lb_history {
            put(r.step as u64);
            put(r.at.nanos());
            for l in r.pe_loads_before.iter().chain(&r.pe_loads_after) {
                put(l.to_bits());
            }
            put(r.migrations as u64);
            put(r.comm_bytes);
        }
        self.faults.digest(&mut put);
        self.hardening.digest(&mut put);
        digest
    }

    /// The reconciliation list: `(row, traced, reported)` for every trace
    /// counter a tally of this report mirrors, `row` being the counter's
    /// name in [`TraceCounts`] and in the JSON export. On a run traced
    /// from `build` on, the two columns are equal on every row. The
    /// blocks' rows follow from their `tallies!` lines; the rows here
    /// report what is not a block field.
    pub fn trace_rows(&self, c: &TraceCounts) -> Vec<(&'static str, u64, u64)> {
        macro_rules! row {
            ($counter:ident, $reported:expr) => {
                (stringify!($counter), c.$counter, $reported)
            };
        }
        let mut rows = vec![
            row!(ctx_switches, self.context_switches),
            row!(msgs_recv, self.messages_delivered),
            row!(migrations, self.migrations.len() as u64),
            row!(migration_bytes, self.total_migration_bytes() as u64),
            row!(lb_steps, self.lb_steps.into()),
            row!(pool_hits, self.engine.pool_hits),
            row!(pool_misses, self.engine.pool_misses),
        ];
        self.faults.trace_rows(c, &mut rows);
        self.hardening.trace_rows(c, &mut rows);
        self.cow.trace_rows(c, &mut rows);
        self.elastic.trace_rows(c, &mut rows);
        self.ckpt.trace_rows(c, &mut rows);
        self.req.trace_rows(c, &mut rows);
        rows
    }

    /// Human-readable run summary (examples and demos): one line per
    /// block that is not clean, naming each nonzero field.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "virtual time: {}   wall: {:.3} s",
            self.sim_elapsed,
            self.real_elapsed.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "context switches: {}   messages: {}   LB steps: {}",
            self.context_switches, self.messages_delivered, self.lb_steps
        );
        let _ = writeln!(
            out,
            "migrations: {} ({:.1} MB moved)   mean PE utilization: {:.0}%",
            self.migrations.len(),
            self.total_migration_bytes() as f64 / 1e6,
            self.mean_utilization() * 100.0
        );
        if self.method_landed != self.method_requested {
            let _ = writeln!(
                out,
                "method: {} degraded to {} ({} fallbacks)",
                self.method_requested, self.method_landed, self.hardening.fallbacks
            );
        }
        self.faults.summary_line("faults", &mut out);
        self.hardening.summary_line("hardening", &mut out);
        self.cow.summary_line("cow", &mut out);
        self.elastic.summary_line("elastic", &mut out);
        self.ckpt.summary_line("ckpt", &mut out);
        self.req.summary_line("req", &mut out);
        if self.engine.threads > 1 {
            let e = &self.engine;
            let _ = writeln!(
                out,
                "engine: {} threads, {} epochs, {} barriers; parallel wall {:.3} ms, \
                 workers busy {:.3} ms in sum, dispatch + imbalance {:.3} ms",
                e.threads,
                e.epochs,
                e.barriers,
                e.parallel_wall.as_secs_f64() * 1e3,
                e.parallel_busy.as_secs_f64() * 1e3,
                e.barrier_pause().as_secs_f64() * 1e3
            );
        }
        for (pe, (busy, idle)) in self.pe_busy_idle.iter().enumerate() {
            let _ = writeln!(out, "  PE {pe}: busy {busy} / idle {idle}");
        }
        out
    }

    /// Mean PE utilization over the run (virtual mode).
    pub fn mean_utilization(&self) -> f64 {
        if self.pe_busy_idle.is_empty() {
            return 0.0;
        }
        let utilization = |(b, i): &(SimDuration, SimDuration)| {
            let t = b.as_secs_f64() + i.as_secs_f64();
            if t == 0.0 { 0.0 } else { b.as_secs_f64() / t }
        };
        self.pe_busy_idle.iter().map(utilization).sum::<f64>() / self.pe_busy_idle.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report of a run in which nothing happened.
    fn blank() -> RunReport {
        RunReport {
            sim_elapsed: SimDuration::from_millis(1),
            real_elapsed: Duration::from_millis(1),
            pe_busy_idle: vec![],
            context_switches: 0,
            messages_delivered: 0,
            lb_steps: 0,
            migrations: vec![],
            pe_clocks: vec![],
            lb_history: vec![],
            faults: FaultTallies::default(),
            method_requested: Method::PieGlobals,
            method_landed: Method::PieGlobals,
            hardening: HardeningTallies::default(),
            cow: CowTallies::default(),
            elastic: ElasticTallies::default(),
            ckpt: CkptTallies::default(),
            req: ReqTallies::default(),
            engine: EngineTallies::default(),
        }
    }

    #[test]
    fn summary_renders() {
        let r = RunReport {
            sim_elapsed: SimDuration::from_millis(12),
            real_elapsed: Duration::from_millis(3),
            pe_busy_idle: vec![
                (SimDuration::from_millis(10), SimDuration::from_millis(2)),
                (SimDuration::from_millis(6), SimDuration::from_millis(6)),
            ],
            context_switches: 42,
            messages_delivered: 7,
            lb_steps: 2,
            migrations: vec![MigrationRecord {
                rank: 0,
                from_pe: 0,
                to_pe: 1,
                bytes: 1 << 20,
                stored_bytes: 1 << 16,
                real_time: Duration::from_micros(500),
                sim_cost: SimDuration::from_micros(90),
            }],
            pe_clocks: vec![SimTime(12_000_000), SimTime(12_000_000)],
            lb_history: vec![LbRecord {
                step: 1,
                at: SimTime(5_000_000),
                pe_loads_before: vec![0.010, 0.002],
                pe_loads_after: vec![0.006, 0.006],
                migrations: 2,
                comm_bytes: 1024,
            }],
            ..blank()
        };
        let s = r.summary();
        assert!(s.contains("context switches: 42"));
        assert!(!s.contains("faults:"), "clean run must omit fault lines");
        assert!(!s.contains("hardening:"), "clean run must omit hardening lines");
        assert!(!s.contains("degraded"), "same method must omit the fallback line");
        assert!(s.contains("migrations: 1"));
        assert!(s.contains("PE 1"));
        assert!((r.mean_utilization() - (10.0 / 12.0 + 0.5) / 2.0).abs() < 1e-9);
        assert_eq!(r.total_migration_bytes(), 1 << 20);
        let rec = &r.lb_history[0];
        assert!((rec.imbalance_before() - 10.0 / 6.0).abs() < 1e-9);
        assert!((rec.imbalance_after() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_renders_fault_lines_when_active() {
        let r = RunReport {
            lb_steps: 1,
            faults: FaultTallies {
                msgs_dropped: 3,
                acks_dropped: 1,
                retransmits: 4,
                checkpoints: 2,
                recoveries: 1,
                pe_failures: 1,
                ..Default::default()
            },
            ..blank()
        };
        let s = r.summary();
        assert!(
            s.contains(
                "\nfaults: msgs_dropped=3 acks_dropped=1 retransmits=4 checkpoints=2 \
                 recoveries=1 pe_failures=1\n"
            ),
            "{s}"
        );
    }

    #[test]
    fn summary_renders_degradation_and_hardening_lines() {
        let r = RunReport {
            method_requested: Method::PipGlobals,
            method_landed: Method::FsGlobals,
            hardening: HardeningTallies {
                probes: 3,
                fallbacks: 1,
                segment_audits: 2,
                ..Default::default()
            },
            ..blank()
        };
        let s = r.summary();
        assert!(s.contains("method: pipglobals degraded to fsglobals (1 fallbacks)"), "{s}");
        assert!(s.contains("\nhardening: probes=3 fallbacks=1 segment_audits=2\n"), "{s}");
        assert!(!r.hardening.is_clean());
    }

    /// What the `tallies!` arms are trusted for: `absorb` folds every field
    /// by its kind, and a field counts as activity, enters the digests and
    /// is named on its block's summary line exactly when it is not `wall`.
    #[test]
    fn tally_tables_absorb_by_kind_and_digest_every_exact_field() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 34) as u32 // < 2^30: two of them add up inside a u32 field
        };
        let (base, base_core) = (blank().sim_digest(), blank().sim_digest_core());
        macro_rules! check {
            ($($block:ident: $ty:ident, in core digest: $core:expr;)*) => {$(
                let (mut a, mut b) = ($ty::default(), $ty::default());
                for (_, name, _) in a.fields() {
                    a.set(name, rng());
                    b.set(name, rng());
                }
                let mut sum = a;
                sum.absorb(&b);
                for (((kind, name, x), (_, _, y)), (_, _, z)) in
                    a.fields().into_iter().zip(b.fields()).zip(sum.fields())
                {
                    let want = if kind == "peak" { x.max(y) } else { x + y };
                    assert_eq!(z, want, "{}::{name} absorbs as {kind}", stringify!($ty));
                    let mut r = blank();
                    r.$block.set(name, 1);
                    let exact = kind != "wall";
                    assert_eq!(r.$block.is_clean(), !exact, "{name}: is_clean");
                    assert_eq!(r.sim_digest() != base, exact, "{name}: sim_digest");
                    assert_eq!(r.sim_digest_core() != base_core, exact && $core, "{name}: core");
                    let line = format!("\n{}: {name}=1\n", stringify!($block));
                    assert_eq!(r.summary().contains(&line), exact, "{name}: {}", r.summary());
                }
            )*};
        }
        check! {
            faults: FaultTallies, in core digest: true;
            hardening: HardeningTallies, in core digest: true;
            cow: CowTallies, in core digest: false;
            elastic: ElasticTallies, in core digest: false;
            ckpt: CkptTallies, in core digest: false;
            req: ReqTallies, in core digest: false;
        }
    }

    /// Every counter a tally mirrors has its row: a `tallies!` line that
    /// loses its `=> counter` drops a name here. Two fields that mirror
    /// one counter share its row.
    #[test]
    fn trace_rows_name_every_mirrored_counter() {
        let mut r = blank();
        (r.req.send_posts, r.req.recv_posts) = (1, 2);
        let rows = r.trace_rows(&TraceCounts::default());
        let mut names: Vec<_> = rows.iter().map(|row| row.0).collect();
        let mut want = [
            "ctx_switches", "msgs_recv", "migrations", "migration_bytes", "lb_steps",
            "msg_drops", "ack_drops", "msg_corrupts", "msg_retransmits", "dup_suppressed",
            "pe_fails", "checkpoints", "recoveries", "method_probes", "method_fallbacks",
            "stack_guard_trips", "arena_guard_trips", "segment_audits", "pool_hits",
            "pool_misses", "page_faults", "pages_privatized", "rescales", "rescale_aborts",
            "re_replications", "geometry_restores", "ckpt_deltas", "ckpt_delta_pages",
            "ckpt_delta_bytes", "ckpt_seals", "ckpt_async_drains", "ckpt_async_bytes",
            "ckpt_compacts", "req_posts", "req_completes", "req_continuations",
            "req_wait_blocks",
        ];
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(rows.contains(&("req_posts", 0, 3)), "{rows:?}");
    }

    #[test]
    fn imbalance_of_empty_or_idle_step_is_zero() {
        let rec = LbRecord {
            step: 1,
            at: SimTime(0),
            pe_loads_before: vec![],
            pe_loads_after: vec![0.0, 0.0, 0.0],
            migrations: 0,
            comm_bytes: 0,
        };
        // empty load vector: no PEs measured, no imbalance — and no NaN
        assert_eq!(rec.imbalance_before(), 0.0);
        // all-idle step: must not claim "perfectly balanced" (1.0)
        assert_eq!(rec.imbalance_after(), 0.0);
        assert!(rec.imbalance_before().is_finite());
    }

    #[test]
    fn imbalance_single_pe_is_balanced() {
        let rec = LbRecord {
            step: 1,
            at: SimTime(0),
            pe_loads_before: vec![0.25],
            pe_loads_after: vec![0.25],
            migrations: 0,
            comm_bytes: 0,
        };
        assert!((rec.imbalance_before() - 1.0).abs() < 1e-12);
    }
}
