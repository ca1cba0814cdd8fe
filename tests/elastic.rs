//! Acceptance: elastic machine — deterministic PE shrink/expand with
//! re-replication and restart-on-different-geometry.
//!
//! The determinism bar: a run that rescales to geometry G must produce
//! the same per-rank results as a fixed-size run at G, stay bit-identical
//! across `Serial`/`Threads(4)` under lossy networks and injected PE
//! failures, and a rescale interrupted by a PE failure must roll back
//! and complete bit-identically to a no-rescale run.

use parking_lot::Mutex;
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::{
    lb::GreedyRefineLb, BarrierAction, ClockMode, MachineBuilder, MachineConfig, Parallelism, RankCtx, RtsError,
    RunReport, UtilizationRescale,
};
use pvr_trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STEPS: u64 = 5;

type Residuals = Vec<(usize, f64)>;

/// Ring exchange with per-step heap mutation: residuals depend on every
/// message payload and every rollback/recompute, but not on placement —
/// the property that lets a rescaled run be compared to a fixed-geometry
/// run of the same rank count.
fn ring_body(out: Arc<Mutex<Residuals>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    spinning_ring_body(out, Duration::ZERO)
}

/// [`ring_body`], with ranks 0 and 1 busy-waiting `spin` in the step
/// before the second barrier, whose moves read that step's load: load a
/// real-time run measures, and a virtual-time one does not see.
fn spinning_ring_body(
    out: Arc<Mutex<Residuals>>,
    spin: Duration,
) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let data = ctx.heap_alloc_f64s(32);
        let mut acc = ctx.rank() as f64 + 1.0;
        for step in 0..STEPS {
            if ctx.rank() < 2 && step == 1 {
                let t0 = Instant::now();
                while t0.elapsed() < spin {
                    std::hint::spin_loop();
                }
            }
            for v in data.iter_mut() {
                *v += acc * 0.5;
            }
            let partner = (ctx.rank() + 1) % ctx.n_ranks();
            ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
            let m = ctx.recv();
            acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
            ctx.at_sync();
        }
        out.lock().push((ctx.rank(), acc + data.iter().sum::<f64>()));
    })
}

fn base(pes: usize, vp: usize) -> MachineBuilder {
    MachineBuilder::new(pvr_apps::hello::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(pes))
        .vp_ratio(vp)
        .checkpoint_period(1)
}

fn run(b: MachineBuilder) -> (RunReport, Residuals) {
    run_spinning(b, Duration::ZERO)
}

fn run_spinning(b: MachineBuilder, spin: Duration) -> (RunReport, Residuals) {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(4);
    tracer.enable();
    let body = spinning_ring_body(out.clone(), spin);
    let mut m = b.tracer(tracer.clone()).build(body).unwrap();
    let report = m.run().unwrap();
    assert_reconciled(&report, &tracer);
    let mut v = out.lock().clone();
    v.sort_by_key(|r| r.0);
    (report, v)
}

/// DESIGN §5h: `Rescale`, `RescaleAborted`, `ReReplicate` and
/// `GeometryRestore` events reconcile with the elastic tallies — as
/// every other row of `trace_rows` does, in every scenario of this file.
fn assert_reconciled(report: &RunReport, tracer: &Tracer) {
    for (row, traced, reported) in report.trace_rows(&tracer.counts()) {
        assert_eq!(traced, reported, "{row}");
    }
}

fn lossy_plan(seed: u64) -> FaultPlan {
    // The ring only puts a few dozen messages on inter-node hops, so the
    // rates are higher than the jacobi fault tests' to guarantee the
    // plan actually fires within one run.
    FaultPlan::new(seed).with_class(
        HopClass::InterNode,
        FaultParams {
            drop_p: 0.25,
            dup_p: 0.15,
            corrupt_p: 0.05,
            jitter_max: SimDuration::from_nanos(500),
        },
    )
}

/// Shrink: 8 ranks start on 4 PEs, rescale to 2 at the second barrier.
/// Results must match a fixed 2-PE run of the same 8 ranks, the drained
/// PEs must be empty, and the checkpoint must be re-replicated.
#[test]
fn scheduled_shrink_matches_fixed_geometry_results() {
    let (fixed_report, fixed) = run(base(2, 4));
    assert!(fixed_report.elastic.is_clean(), "fixed run must not rescale");

    let (report, elastic) = run(base(4, 2).rescale_at_lb_step(2, 2));
    assert_eq!(elastic, fixed, "rescaled run diverged from the fixed 2-PE run");
    let e = &report.elastic;
    assert_eq!(e.rescales, 1);
    assert_eq!(e.pes_deactivated, 2);
    assert_eq!(e.ranks_drained, 4, "PE 2 and PE 3 each hosted 2 ranks");
    assert_eq!(e.re_replications, 1, "shrink must re-replicate the checkpoint");
    // drained PEs do no further work: their clocks freeze at the barrier
    assert!(report.pe_clocks[2] < report.pe_clocks[0]);
    let s = report.summary();
    assert!(s.contains("\nelastic: rescales=1 "), "{s}");
}

/// Grow: start with 2 of 4 PEs active, rescale to the full capacity at
/// the second barrier. Results must match a native all-4-PE run.
#[test]
fn scheduled_grow_matches_fixed_geometry_results() {
    let (_, fixed) = run(base(4, 2));

    let (report, elastic) = run(base(4, 2).active_pes(2).rescale_at_lb_step(2, 4));
    assert_eq!(elastic, fixed, "grown run diverged from the fixed 4-PE run");
    let e = &report.elastic;
    assert_eq!(e.rescales, 1);
    assert_eq!(e.pes_activated, 2);
    assert_eq!(e.pes_deactivated, 0);
    assert_eq!(e.ranks_drained, 0, "growing drains nothing");
    assert_eq!(e.re_replications, 1);
}

/// The determinism gate: one configuration combining a lossy inter-node
/// network, a shrink rescale, and a PE failure injected *after* the
/// rescale must be bit-identical between `Serial` and `Threads(4)` —
/// digests, residuals, tallies, and trace event counts.
#[test]
fn rescale_under_faults_is_engine_deterministic() {
    let drive = |par: Parallelism| -> (RunReport, Residuals, u64) {
        let tracer = Tracer::new(4);
        tracer.enable();
        let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
        let mut m = base(4, 2)
            .network(NetworkModel::ideal().with_faults(lossy_plan(42)))
            .rescale_at_lb_step(2, 3)
            .inject_pe_failure_at_lb_step(3, 1)
            .parallelism(par)
            .tracer(tracer.clone())
            .build(ring_body(out.clone()))
            .unwrap();
        let report = m.run().unwrap();
        assert_reconciled(&report, &tracer);
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        (report, v, tracer.counts().total_events())
    };
    let (r1, res1, ev1) = drive(Parallelism::Serial);
    let (r2, res2, ev2) = drive(Parallelism::Threads(4));
    assert_eq!(r1.sim_digest(), r2.sim_digest(), "engine-dependent digest");
    assert_eq!(res1, res2, "engine-dependent residuals");
    assert_eq!(ev1, ev2, "engine-dependent trace counts");
    assert_eq!(r1.faults, r2.faults);
    assert_eq!(r1.elastic, r2.elastic);
    assert_eq!(r1.elastic.rescales, 1);
    assert_eq!(r1.faults.pe_failures, 1, "the post-rescale failure must fire");
    assert!(r1.faults.msgs_dropped > 0, "the lossy plan must actually drop");

    // ...and the recovered lossy run still matches the clean fixed-size
    // results of the same rank count.
    let (_, clean) = run(base(4, 2));
    assert_eq!(res1, clean, "faulty rescaled run diverged from clean results");
}

/// Failure-atomicity: a PE failure striking the same barrier as a
/// planned rescale aborts the rescale; the run must complete exactly
/// like one that never requested the rescale.
#[test]
fn rescale_aborted_by_same_barrier_failure_rolls_back() {
    let (plain_report, plain) = run(base(4, 2).inject_pe_failure_at_lb_step(2, 3));
    assert!(plain_report.elastic.is_clean());

    let (report, aborted) = run(
        base(4, 2)
            .inject_pe_failure_at_lb_step(2, 3)
            .rescale_at_lb_step(2, 2),
    );
    assert_eq!(aborted, plain, "aborted rescale changed application results");
    assert_eq!(
        report.sim_digest_core(),
        plain_report.sim_digest_core(),
        "aborted rescale must leave the simulation bit-identical to a no-rescale run"
    );
    let e = &report.elastic;
    assert_eq!(e.rescales_aborted, 1, "the abort must be counted");
    assert_eq!(e.rescales, 0, "the rescale must not commit");
    assert_eq!(e.ranks_drained, 0);
    assert_eq!(report.faults.pe_failures, 1);
}

/// Restart-on-different-geometry: checkpoint at N active PEs, restore at
/// N-1 and N+1. Each restored run must match the clean fixed-size
/// results, count one rollback, and re-replicate onto the new geometry.
#[test]
fn geometry_restore_shrinks_and_grows() {
    let (_, clean) = run(base(4, 2));
    for target in [2usize, 4] {
        let (report, restored) = run(base(4, 2).active_pes(3).restore_geometry_at_lb_step(2, target));
        assert_eq!(restored, clean, "restore at {target} PEs diverged");
        let e = &report.elastic;
        assert_eq!(e.geometry_restores, 1);
        assert_eq!(e.re_replications, 1);
        assert_eq!(report.faults.recoveries, 1, "a geometry restore is a rollback");
        if target == 4 {
            assert_eq!(e.pes_activated, 1, "3 -> 4 brings one PE up");
        } else {
            assert_eq!(e.pes_deactivated, 1, "3 -> 2 takes one PE down");
        }
    }
}

/// Cascading failures from the schedule: two PEs die at successive
/// barriers and both recoveries succeed (the re-taken checkpoints keep
/// two live copies of every rank between the failures).
#[test]
fn cascading_pe_failures_recover() {
    let (_, clean) = run(base(4, 2));
    let (report, faulty) = run(
        base(4, 2)
            .inject_pe_failure_at_lb_step(2, 3)
            .inject_pe_failure_at_lb_step(3, 2),
    );
    assert_eq!(faulty, clean, "cascading recovery diverged");
    assert_eq!(report.faults.pe_failures, 2);
    assert_eq!(report.faults.recoveries, 2);
}

/// Double loss: with the only checkpoint predating both failures, the
/// second failure kills the buddy holder too — the run must end with a
/// clean, typed `CheckpointLost` naming the rank and both dead holders.
#[test]
fn primary_and_buddy_double_loss_is_a_clean_error() {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    // period 10 => the step-1 checkpoint is never refreshed; PE 1's
    // ranks are buddied on PE 2, so killing 1 then 2 orphans them.
    let mut m = base(3, 2)
        .checkpoint_period(10)
        .inject_pe_failure_at_lb_step(2, 1)
        .inject_pe_failure_at_lb_step(3, 2)
        .build(ring_body(out.clone()))
        .unwrap();
    match m.run() {
        Err(RtsError::CheckpointLost { rank, primary_pe, buddy_pe }) => {
            assert_eq!((primary_pe, buddy_pe), (1, 2), "rank {rank}: wrong holders");
        }
        other => panic!("expected CheckpointLost, got {:?}", other.map(|_| ())),
    }
}

/// Degenerate geometry: once a single PE survives, its checkpoints have
/// buddy == primary (one live copy). That must be detected, tallied, and
/// surfaced as a trace warning — not silently accepted as redundancy.
#[test]
fn degenerate_buddy_is_detected_and_counted() {
    let tracer = Tracer::new(2);
    tracer.enable();
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let mut m = base(2, 2)
        .inject_pe_failure_at_lb_step(2, 1)
        .tracer(tracer.clone())
        .build(ring_body(out.clone()))
        .unwrap();
    let report = m.run().unwrap();
    assert_reconciled(&report, &tracer);
    // checkpoints at steps 3.. run with one alive PE: every rank's entry
    // degenerates, once per remaining barrier
    assert!(
        report.faults.degenerate_buddies >= 4,
        "4 ranks on the lone survivor must all be flagged: {:?}",
        report.faults
    );
    assert!(tracer.counts().buddy_degenerates > 0, "trace warning missing");
    // two-PE jobs before the failure are fine: the step-1/2 checkpoints
    // have real buddies, so clean two-PE runs stay unflagged
    let (clean_report, _) = run(base(2, 2));
    assert_eq!(clean_report.faults.degenerate_buddies, 0);
}

/// The `RescalePolicy` hook: an overloaded 2-of-4-PE run under the stock
/// utilization policy must grow to the full capacity, one PE per
/// barrier, and still finish with correct results.
#[test]
fn utilization_policy_grows_under_load() {
    let body = |out: Arc<Mutex<Residuals>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
        Arc::new(move |ctx: RankCtx| {
            let mut acc = ctx.rank() as f64 + 1.0;
            for step in 0..STEPS {
                ctx.compute(SimDuration::from_micros(200));
                let partner = (ctx.rank() + 1) % ctx.n_ranks();
                ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
                let m = ctx.recv();
                acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
                ctx.at_sync();
            }
            out.lock().push((ctx.rank(), acc));
        })
    };
    let run_policy = |policy: bool| -> (RunReport, Residuals, usize) {
        let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
        let mut b = base(4, 2).active_pes(2);
        if policy {
            b = b.rescale_policy(Box::new(UtilizationRescale {
                grow_above: 0.000_1, // 100 µs: 200 µs/rank trips it
                shrink_below: 0.0,
                min_pes: 1,
                max_pes: 4,
            }));
        }
        let mut m = b.build(body(out.clone())).unwrap();
        let report = m.run().unwrap();
        let active = m.active_pes();
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        (report, v, active)
    };
    let (fixed_report, fixed, fixed_active) = run_policy(false);
    assert_eq!(fixed_active, 2, "without the policy the job stays at 2 PEs");
    assert!(fixed_report.elastic.is_clean());

    let (report, grown, active) = run_policy(true);
    assert_eq!(grown, fixed, "policy growth changed application results");
    assert_eq!(active, 4, "the overloaded job must reach full capacity");
    assert_eq!(report.elastic.pes_activated, 2);
    assert!(report.elastic.rescales >= 2, "one PE per barrier: {:?}", report.elastic);
}

/// The `Machine::rescale` entry point: a pre-run request commits at the
/// first barrier (clamped to capacity), and the report carries the
/// elastic tallies.
#[test]
fn machine_rescale_api_applies_at_next_barrier() {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let mut m = base(4, 2).build(ring_body(out.clone())).unwrap();
    assert_eq!(m.active_pes(), 4);
    m.rescale(2);
    let report = m.run().unwrap();
    assert_eq!(m.active_pes(), 2);
    assert_eq!(report.elastic.rescales, 1);
    assert_eq!(report.elastic.pes_deactivated, 2);

    let (_, fixed) = run(base(2, 4));
    let mut v = out.lock().clone();
    v.sort_by_key(|r| r.0);
    assert_eq!(v, fixed, "API-requested shrink diverged from the fixed 2-PE run");

    // An over-capacity request through the API clamps to the usable
    // capacity; at full capacity already, that is a no-op and must not
    // be counted as a committed rescale.
    let out2: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let mut m2 = base(2, 4).build(ring_body(out2.clone())).unwrap();
    m2.rescale(99);
    let clamped = m2.run().unwrap();
    assert_eq!(m2.active_pes(), 2, "capacity is the hard ceiling");
    assert_eq!(clamped.elastic.rescales, 0, "clamped no-op must not count");
    assert_eq!(clamped.elastic.pes_activated, 0);
}

/// However a rank was moved — drained by a rescale, adopted after a PE
/// failure, re-placed by a geometry restore — what it reads as its PE is
/// where the directory says it lives.
#[test]
fn my_pe_follows_every_kind_of_move() {
    type Seen = Arc<Mutex<Vec<(usize, usize)>>>;
    let body = |seen: Seen| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
        Arc::new(move |ctx: RankCtx| {
            for _ in 0..3 {
                ctx.at_sync();
            }
            seen.lock().push((ctx.rank(), ctx.my_pe()));
        })
    };
    for (what, b) in [
        ("rescale", base(4, 2).rescale_at_lb_step(2, 2)),
        ("PE failure", base(4, 2).inject_pe_failure_at_lb_step(2, 3)),
        ("geometry restore", base(4, 2).active_pes(3).restore_geometry_at_lb_step(2, 2)),
    ] {
        let seen: Seen = Arc::default();
        let mut m = b.build(body(seen.clone())).unwrap();
        m.run().unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 8, "{what}");
        assert!(seen.iter().any(|&(r, pe)| pe != r / 2), "{what}: nothing moved");
        for &(rank, pe) in seen.iter() {
            assert_eq!(pe, m.location_of(rank), "{what}: rank {rank}'s my_pe() is stale");
        }
    }
}

fn digests_agree(b: impl Fn() -> MachineBuilder) -> RunReport {
    let (serial, res1) = run(b().parallelism(Parallelism::Serial));
    let (threads, res4) = run(b().parallelism(Parallelism::Threads(4)));
    assert_eq!(serial.sim_digest(), threads.sim_digest(), "engine-dependent digest");
    assert_eq!(res1, res4, "engine-dependent residuals");
    let (_, clean) = run(base(4, 2));
    assert_eq!(res1, clean, "diverged from the clean run");
    serial
}

/// A spare that died stays dead: killing a PE outside the active set
/// marks it unusable (nothing to roll back — it hosts no rank), so the
/// next grow does not bring it back up.
#[test]
fn a_dead_spare_is_never_reactivated() {
    let report = digests_agree(|| {
        base(4, 2).active_pes(3).inject_pe_failure_at_lb_step(2, 3).rescale_at_lb_step(3, 4)
    });
    assert_eq!(report.faults.pe_failures, 1, "the spare's death is counted");
    assert_eq!(report.faults.recoveries, 0, "no rank was lost: nothing rolls back");
    let e = &report.elastic;
    assert_eq!((e.rescales, e.pes_activated), (0, 0), "PE 3 must stay down: {e:?}");
    assert_eq!(report.pe_clocks[3], pvr_des::SimTime::ZERO, "a dead spare never runs");
}

/// Only a *live* PE's death abandons the barrier's rescale: a spare's
/// does not, and neither does a second injection on a PE already dead.
#[test]
fn a_failure_that_kills_no_live_pe_does_not_abandon_the_rescale() {
    let spare = digests_agree(|| {
        base(4, 2).active_pes(3).inject_pe_failure_at_lb_step(2, 3).rescale_at_lb_step(2, 2)
    });
    assert_eq!(spare.faults.pe_failures, 1);
    assert_eq!((spare.elastic.rescales, spare.elastic.rescales_aborted), (1, 0));

    let twice = digests_agree(|| {
        base(4, 2)
            .inject_pe_failure_at_lb_step(2, 3)
            .inject_pe_failure_at_lb_step(3, 3)
            .rescale_at_lb_step(3, 2)
    });
    assert_eq!(twice.faults.pe_failures, 1, "a dead PE cannot die again");
    assert_eq!((twice.elastic.rescales, twice.elastic.rescales_aborted), (1, 0));
}

fn scripted(script: &[(u32, BarrierAction)]) -> MachineBuilder {
    script.iter().fold(base(4, 2), |b, &(k, action)| match action {
        BarrierAction::CorruptDelta { byte } => b.corrupt_ckpt_delta_at(k, byte),
        BarrierAction::SoftFault => b.inject_fault_at_lb_step(k),
        BarrierAction::FailPe(pe) => b.inject_pe_failure_at_lb_step(k, pe),
        BarrierAction::RestoreGeometry(n) => b.restore_geometry_at_lb_step(k, n),
        BarrierAction::Rescale(n) => b.rescale_at_lb_step(k, n),
    })
}

/// Run `script` written in every rotation, each also reversed (every
/// entry visits every slot, every pair appears in both orders): the
/// residuals are the clean run's and the digest is one. Returns the
/// last report.
fn in_every_order(script: &[(u32, BarrierAction)]) -> RunReport {
    let (_, clean) = run(base(4, 2));
    let mut reports = Vec::new();
    for rot in 0..script.len() {
        for reversed in [false, true] {
            let mut s = script.to_vec();
            s.rotate_left(rot);
            if reversed {
                s.reverse();
            }
            let (report, residuals) = run(scripted(&s));
            assert_eq!(residuals, clean, "{s:?}");
            reports.push(report);
        }
    }
    let digests: Vec<u64> = reports.iter().map(RunReport::sim_digest).collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{script:?}: {digests:x?}");
    reports.pop().unwrap()
}

/// The order of a barrier is a property of its actions
/// ([`BarrierAction`]), not of how the script was written.
#[test]
fn a_barrier_applies_its_actions_in_one_order_however_the_script_was_written() {
    use BarrierAction::*;
    let script = [(2, FailPe(3)), (2, Rescale(2)), (4, SoftFault), (4, RestoreGeometry(3))];
    let report = in_every_order(&script);
    let digest = report.sim_digest();
    let e = &report.elastic;
    assert_eq!((e.rescales_aborted, e.rescales, e.geometry_restores), (1, 0, 1));
    assert_eq!(report.faults.recoveries, 3);

    // Within one step, too: the PE dies first (a rollback of its own),
    // then the restore. The other way round PE 3 would be a spare by the
    // time it is killed, and one rollback would be missing.
    let report = in_every_order(&[(3, RestoreGeometry(3)), (3, FailPe(3))]);
    assert_eq!((report.faults.pe_failures, report.faults.recoveries), (1, 2));
    assert_eq!(report.elastic.geometry_restores, 1);

    // The first script through the `pub` field, as a generator fills it.
    let mut cfg = MachineConfig::new(pvr_apps::hello::binary());
    cfg.method = Method::PieGlobals;
    cfg.clock = ClockMode::Virtual;
    cfg.topology = Topology::non_smp(4);
    cfg.vp_ratio = 2;
    cfg.checkpoint_period = 1;
    cfg.barrier_script = script.iter().rev().copied().collect();
    let out: Arc<Mutex<Residuals>> = Arc::default();
    let filled = cfg.build(ring_body(out)).unwrap().run().unwrap();
    assert_eq!(filled.sim_digest(), digest);
}

/// Actions of one kind keep the order they were given in: two PEs dying
/// at one barrier cascade in script order, so swapping them changes who
/// adopts whom — and nothing the application computes.
#[test]
fn two_failures_at_one_step_cascade_in_the_order_given() {
    let moves = |r: &RunReport| -> Vec<(usize, usize, usize)> {
        r.migrations.iter().map(|m| (m.rank, m.from_pe, m.to_pe)).collect()
    };
    let (a, res_a) =
        run(base(4, 2).inject_pe_failure_at_lb_step(2, 3).inject_pe_failure_at_lb_step(2, 1));
    let (b, res_b) =
        run(base(4, 2).inject_pe_failure_at_lb_step(2, 1).inject_pe_failure_at_lb_step(2, 3));
    assert_eq!(res_a, res_b);
    assert_eq!((a.faults.pe_failures, b.faults.pe_failures), (2, 2));
    assert_eq!(moves(&a)[0].1, 3, "PE 3 was given first");
    assert_eq!(moves(&b)[0].1, 1, "PE 1 was given first");
    assert_ne!(moves(&a), moves(&b));
}

/// Real time with a PE that stops being alive: a lane whose PE failed or
/// was drained has no work, so the round loop neither spins on it nor
/// strands a message there. 6 ranks on 3 PEs; at the second barrier PE 1
/// fails, or the machine shrinks to 2 PEs. Where the moved ranks land
/// follows measured load, so PE 0's ranks spin before that barrier to
/// keep PE 0 the busiest and never the target. Both engines finish with
/// the same results and the same schedule.
#[test]
fn real_time_runs_that_lose_a_pe_finish_on_every_engine() {
    let spin = Duration::from_millis(20);
    for what in ["PE failure", "rescale"] {
        let b = || {
            let b = base(3, 2).clock(ClockMode::RealTime);
            match what {
                "PE failure" => b.inject_pe_failure_at_lb_step(2, 1),
                _ => b.rescale_at_lb_step(2, 2),
            }
        };
        let (serial, res1) = run_spinning(b().parallelism(Parallelism::Serial), spin);
        let (threads, res2) = run_spinning(b().parallelism(Parallelism::Threads(2)), spin);
        assert_eq!(res1.len(), 6, "{what}");
        assert_eq!(res1, res2, "{what}: engine-dependent results");
        assert_eq!(
            serial.context_switches, threads.context_switches,
            "{what}: engine-dependent schedule"
        );
    }
}

/// The elastic claim in exact virtual time: 8 ranks on 4 PEs of
/// capacity, a ring whose per-step compute ramps (step `s` costs
/// `(s + 1) * 100 us`) over 4 steps. Fixed at 2 PEs the ramp is slow;
/// under the utilization policy the job grows to 4 PEs, one PE per
/// barrier, and lands between the fixed geometries, with the same
/// results as both.
#[test]
fn ramping_load_grows_the_job_between_the_fixed_geometries() {
    let grain = SimDuration::from_micros(100);
    let ramp = |out: Arc<Mutex<Residuals>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
        Arc::new(move |ctx: RankCtx| {
            let mut acc = ctx.rank() as f64 + 1.0;
            for step in 0..4u64 {
                ctx.compute(SimDuration::from_nanos(grain.nanos() * (step + 1)));
                let partner = (ctx.rank() + 1) % ctx.n_ranks();
                ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
                let m = ctx.recv();
                acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
                ctx.at_sync();
            }
            out.lock().push((ctx.rank(), acc));
        })
    };
    let run_ramp = |b: MachineBuilder| -> (RunReport, Residuals, usize) {
        let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
        let b = b.balancer(Box::new(GreedyRefineLb::default()));
        let mut m = b.build(ramp(out.clone())).unwrap();
        let report = m.run().unwrap();
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        (report, v, m.active_pes())
    };
    let (small, small_res, small_active) = run_ramp(base(4, 2).active_pes(2));
    let (elastic, elastic_res, elastic_active) =
        run_ramp(base(4, 2).active_pes(2).rescale_policy(Box::new(UtilizationRescale {
            grow_above: grain.as_secs_f64() * 1.5,
            shrink_below: 0.0,
            min_pes: 2,
            max_pes: 4,
        })));
    let (large, large_res, large_active) = run_ramp(base(4, 2));
    assert_eq!(elastic_res, small_res, "geometry changed results");
    assert_eq!(large_res, small_res, "geometry changed results");
    assert_eq!((small_active, elastic_active, large_active), (2, 4, 4));
    let moves = |r: &RunReport| (r.elastic.rescales, r.elastic.re_replications);
    assert_eq!((moves(&small), moves(&elastic), moves(&large)), ((0, 0), (2, 2), (0, 0)));
    let ns = |r: &RunReport| r.sim_elapsed.nanos();
    assert_eq!((ns(&small), ns(&elastic), ns(&large)), (4_414_496, 3_017_738, 2_414_496));
    let busy = |r: &RunReport| r.pe_busy_idle.iter().map(|(b, _)| b.nanos()).sum::<u64>();
    assert_eq!((busy(&small), busy(&elastic), busy(&large)), (8_812_968, 9_829_178, 9_219_452));
}
