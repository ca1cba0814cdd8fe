//! The memory-safety guards (`MachineConfig::guards`): ULT stack red
//! zones, arena poisoning, and the audit of every rank's privatized data
//! segment — checked after every resume on the lane, and again at every
//! LB barrier. The canaries and the quarantines live in rank memory;
//! what the guards keep besides is [`Guards`], which every lane reaches
//! through the machine's `Shared`, like the directory and the network.
//!
//! The per-slice segment check reads *every* rank's segment, so a rank
//! running on another worker at that moment would look like bleed: a
//! guarded machine runs on a pool of one (`Machine::effective_threads`),
//! and `MachineConfig::validate` refuses an explicit `Threads(n > 1)`.

use crate::machine::{arena_trip_kind, Machine, RtsError};
use crate::rank::RankStatus;
use crate::worker::ExecCtx;
use crate::RankId;
use parking_lot::Mutex;
use pvr_isomalloc::RegionKind;
use pvr_privatize::Privatizer;
use pvr_trace::EventKind;

/// Checksum `rank`'s privatized data segment, whichever per-process
/// privatizer owns it (`None` for methods without per-rank segments).
fn segment_checksum(privatizers: &[Box<dyn Privatizer>], rank: RankId) -> Option<u64> {
    privatizers.iter().find_map(|p| {
        p.rank_data_segment(rank).map(|(base, len)| {
            // SAFETY: the privatizer owns the segment for its lifetime,
            // which the borrow of `privatizers` spans; no rank runs on
            // another worker while a guarded machine scans.
            let bytes = unsafe { std::slice::from_raw_parts(base, len) };
            pvr_isomalloc::checksum64(bytes)
        })
    })
}

fn checksums(privatizers: &[Box<dyn Privatizer>], n_ranks: usize) -> Vec<Option<u64>> {
    (0..n_ranks)
        .map(|q| segment_checksum(privatizers, q))
        .collect()
}

/// What one segment scan found.
struct Scan {
    /// Ranks that have a segment.
    audited: u32,
    /// Segments that changed since the last scan, the writer's excepted.
    dirty: u32,
    /// The lowest-numbered of them.
    victim: Option<RankId>,
}

/// The guards' state outside rank memory.
pub(crate) struct Guards {
    /// Each rank's segment checksum as of the last scan (`None`: the
    /// method gives the rank no segment).
    baseline: Mutex<Vec<Option<u64>>>,
    /// The rank most recently resumed: the writer a barrier audit blames
    /// for bleed that no slice check saw.
    pub(crate) last_ran: Option<RankId>,
}

impl Guards {
    pub(crate) fn new(privatizers: &[Box<dyn Privatizer>], n_ranks: usize) -> Guards {
        Guards {
            baseline: Mutex::new(checksums(privatizers, n_ranks)),
            last_ran: None,
        }
    }

    /// Checksum every segment against the baseline and make the result
    /// the new baseline. A change to `writer`'s own segment is its
    /// globals at work, not bleed.
    fn scan(&self, privatizers: &[Box<dyn Privatizer>], writer: Option<RankId>) -> Scan {
        let mut scan = Scan {
            audited: 0,
            dirty: 0,
            victim: None,
        };
        for (q, seen) in self.baseline.lock().iter_mut().enumerate() {
            let Some(sum) = segment_checksum(privatizers, q) else {
                continue;
            };
            scan.audited += 1;
            if *seen != Some(sum) {
                *seen = Some(sum);
                if writer != Some(q) {
                    scan.dirty += 1;
                    scan.victim.get_or_insert(q);
                }
            }
        }
        scan
    }
}

impl ExecCtx<'_> {
    /// After rank `r` left its stack: its red zone must be intact, and no
    /// other rank's segment may have changed while it held the PE.
    pub(crate) fn check_guards(&mut self, guards: &Guards, r: RankId) -> Result<(), RtsError> {
        self.check_stack_guard(r)?;
        self.check_segment_bleed(guards, r)
    }

    /// A clobbered canary ends the run with a clean, rank-attributed
    /// error; the corrupt stack is abandoned, never resumed or unwound.
    fn check_stack_guard(&mut self, r: RankId) -> Result<(), RtsError> {
        let trip = match self.lane.ranks[r].ult.as_ref() {
            Some(u) if u.stack_guarded() => u.check_stack_guard().err(),
            _ => None,
        };
        let Some(e) = trip else {
            return Ok(());
        };
        let pvr_ult::UltError::StackOverflow { stack_size } = &e;
        self.trace(
            r as u32,
            EventKind::StackGuardTrip {
                stack_size: *stack_size as u64,
            },
        );
        self.lane.out.tallies.hardening.stack_guard_trips += 1;
        let rs = &mut self.lane.ranks[r];
        if let Some(u) = rs.ult.as_mut() {
            u.abandon();
        }
        rs.status = RankStatus::Done;
        self.lane.out.done += 1;
        Err(RtsError::StackGuard {
            rank: r,
            detail: e.to_string(),
        })
    }

    /// Any *other* rank's segment changing while `writer` held the PE is
    /// cross-rank global bleed, attributed to `writer`.
    fn check_segment_bleed(&mut self, guards: &Guards, writer: RankId) -> Result<(), RtsError> {
        let scan = guards.scan(&self.shared.privatizers, Some(writer));
        let Some(q) = scan.victim else {
            return Ok(());
        };
        self.trace(
            writer as u32,
            EventKind::SegmentAudit {
                ranks: self.shared.location.n_ranks() as u32,
                dirty: scan.dirty,
            },
        );
        self.lane.out.tallies.hardening.segment_audits += 1;
        Err(RtsError::SegmentBleed { rank: q, writer })
    }
}

impl Machine {
    /// Test/experiment hook: scribble over the base of `rank`'s ULT
    /// stack region — where the red zone canaries live — simulating a
    /// stack overflow for the guard to catch at the next guard check. Kept for tests: fault hook.
    pub fn corrupt_rank_stack(&mut self, rank: RankId) {
        let target: Option<(*mut u8, usize)> = self
            .rank(rank)
            .memory
            .regions()
            .find(|reg| reg.kind() == RegionKind::Stack)
            .map(|reg| (reg.base_mut(), reg.len()));
        if let Some((base, len)) = target {
            let n = (pvr_ult::RED_ZONE_WORDS * 8).min(len);
            // SAFETY: `n <= len` bytes of the rank's own stack region,
            // which `&mut self` keeps from running meanwhile.
            unsafe { std::ptr::write_bytes(base, 0xAB, n) };
        }
    }

    /// Test/experiment hook: flip one byte inside `rank`'s privatized
    /// data segment from outside any rank's execution — simulating
    /// cross-rank global bleed for the segment audit to catch. Kept for tests: fault hook.
    pub fn corrupt_rank_segment(&mut self, rank: RankId) {
        if let Some((base, len)) = self
            .shared
            .privatizers
            .iter()
            .find_map(|p| p.rank_data_segment(rank))
        {
            if len > 0 {
                // SAFETY: the first byte of a non-empty segment its
                // privatizer owns; `&mut self` keeps every rank still.
                unsafe {
                    let p = base as *mut u8;
                    *p = (*p).wrapping_add(1);
                }
            }
        }
    }

    /// Barrier-time guard audits, run while every live rank is quiescent:
    /// sweep each rank's arena quarantine for writes through stale
    /// pointers, then checksum every privatized data segment and emit the
    /// summary `SegmentAudit` event. Nothing to do with guards off.
    pub(crate) fn audit(&mut self) -> Result<(), RtsError> {
        let Some(guards) = &self.shared.guards else {
            return Ok(());
        };
        for r in 0..self.n_ranks() {
            if let Err(v) = self.rank(r).memory.heap_ref().audit_quarantine() {
                let pe = self.shared.location.lookup(r);
                self.trace(
                    pe,
                    r as u32,
                    EventKind::ArenaGuardTrip {
                        kind: arena_trip_kind(&v),
                    },
                );
                self.tallies.hardening.arena_guard_trips += 1;
                return Err(RtsError::ArenaGuard {
                    rank: r,
                    detail: v.to_string(),
                });
            }
        }
        let scan = guards.scan(&self.shared.privatizers, None);
        // The per-slice check clears after every resume, so bleed
        // surfacing only at the barrier was written outside any rank's
        // slice; the best attribution is the last resumed rank.
        let writer = guards.last_ran.unwrap_or(RankId::MAX);
        self.trace_job(EventKind::SegmentAudit {
            ranks: scan.audited,
            dirty: scan.dirty,
        });
        self.tallies.hardening.segment_audits += 1;
        match scan.victim {
            Some(rank) => Err(RtsError::SegmentBleed { rank, writer }),
            None => Ok(()),
        }
    }

    /// Recovery rewrites rank memory wholesale: reseed the segment
    /// baselines and reset each arena's quarantine so stale poison
    /// expectations don't fire as false guard trips on restored bytes.
    pub(crate) fn reseed_guards_after_restore(&mut self) {
        if self.shared.guards.is_none() {
            return;
        }
        let n_ranks = self.n_ranks();
        for r in 0..n_ranks {
            let heap = self.rank_mut(r).memory.heap();
            if heap.guard_enabled() {
                heap.set_guard(false);
                heap.set_guard(true);
            }
        }
        if let Some(guards) = &mut self.shared.guards {
            *guards.baseline.get_mut() = checksums(&self.shared.privatizers, n_ranks);
        }
    }
}

#[cfg(test)]
/// Machine-level guard tests. Written beside what
/// they test, they expand inside `machine::tests`, whose helpers they
/// share and under whose path the suite lists them.
macro_rules! guard_tests {
    () => {
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

        /// Guards are audited when a rank leaves its stack, not after every
        /// call: a bleed between two posts is still caught, and still
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
                .shared.privatizers
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
    };
}
#[cfg(test)]
pub(crate) use guard_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::RankCtx;
    use crate::config::{MachineBuilder, Parallelism};
    use crate::machine::tests::builder;
    use pvr_des::Topology;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Four ranks on four PEs, guards on; `Auto` reads `PVR_THREADS`, so
    /// without the guards the run would take that many workers.
    fn guarded() -> MachineBuilder {
        builder()
            .topology(Topology::non_smp(4))
            .parallelism(Parallelism::Auto)
            .guards(true)
    }

    #[test]
    fn a_scan_blames_the_lowest_changed_segment_other_than_the_writers() {
        let mut m = guarded().build(Arc::new(|_ctx: RankCtx| {})).unwrap();
        let guards = m.shared.guards.take().expect("guards on");
        m.corrupt_rank_segment(3);
        m.corrupt_rank_segment(1);
        m.corrupt_rank_segment(2);
        let scan = guards.scan(&m.shared.privatizers, Some(1));
        assert_eq!((scan.audited, scan.dirty, scan.victim), (4, 2, Some(2)));
        let scan = guards.scan(&m.shared.privatizers, None);
        assert_eq!(
            (scan.dirty, scan.victim),
            (0, None),
            "a scan is the new baseline"
        );
    }

    #[test]
    fn the_barrier_audit_blames_the_last_rank_resumed_and_a_reseed_forgives() {
        let mut m = guarded().build(Arc::new(|_ctx: RankCtx| {})).unwrap();
        m.corrupt_rank_segment(2);
        match m.audit() {
            Err(RtsError::SegmentBleed { rank: 2, writer }) => assert_eq!(writer, RankId::MAX),
            other => panic!("expected SegmentBleed, got {other:?}"),
        }
        m.corrupt_rank_segment(0);
        m.reseed_guards_after_restore();
        m.audit().expect("restored bytes are the new baseline");
        assert_eq!(m.hardening_stats().segment_audits, 2);
    }

    #[test]
    fn a_guarded_run_is_a_pool_of_one_and_its_slices_see_bleed() {
        let report = guarded()
            .build(Arc::new(|ctx: RankCtx| ctx.at_sync()))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!((report.engine.threads, report.engine.barriers), (1, 0));
        let h = report.hardening;
        assert_eq!(
            (h.segment_audits, h.stack_guard_trips),
            (1, 0),
            "one clean barrier audit"
        );

        // Rank 0 writes the global of rank 3, which lives on another PE,
        // then parks: the check after its slice sees the change.
        let victim = Arc::new(AtomicUsize::new(0));
        let v = victim.clone();
        let mut m = guarded()
            .build(Arc::new(move |ctx: RankCtx| {
                if ctx.rank() == 0 {
                    let p = v.load(Ordering::Relaxed) as *mut u8;
                    unsafe { *p = (*p).wrapping_add(1) };
                }
                ctx.at_sync();
            }))
            .unwrap();
        let (base, _) = m
            .shared
            .privatizers
            .iter()
            .find_map(|p| p.rank_data_segment(3))
            .unwrap();
        victim.store(base as usize, Ordering::Relaxed);
        match m.run() {
            Err(RtsError::SegmentBleed { rank: 3, writer: 0 }) => {}
            other => panic!("expected SegmentBleed, got {:?}", other.map(|_| ())),
        }
    }
}

