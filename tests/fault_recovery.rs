//! Acceptance: end-to-end fault injection and recovery.
//!
//! A virtual-time Jacobi-3D under PIEglobals on a lossy inter-node
//! network (drops, duplicates, corruption, jitter) *plus* one PE
//! failure must complete with bit-identical results to the fault-free
//! run, with trace counters that reconcile exactly with the
//! `RunReport`'s fault tallies — and the same seed must give the same
//! fault schedule twice.

use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::{Method, Toolchain};
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, RtsError, RunReport};
use pvr_trace::Tracer;
use std::sync::Arc;

const ROUNDS: usize = 3;

fn jacobi_cfg() -> JacobiConfig {
    JacobiConfig {
        nx: 10,
        ny: 10,
        nz: 4,
        iters: 6,
    }
}

/// Per-rank residual history: one entry per round, per rank.
type Residuals = Vec<(usize, Vec<f64>)>;

fn jacobi_body(out: Arc<Mutex<Residuals>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let mut history = Vec::with_capacity(ROUNDS);
        for _round in 0..ROUNDS {
            let stats = jacobi3d::run(&mpi, jacobi_cfg());
            history.push(stats.residual);
            mpi.migrate(); // AMPI_Migrate: the LB/checkpoint sync point
        }
        out.lock().push((mpi.rank(), history));
    })
}

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_class(
        HopClass::InterNode,
        FaultParams {
            drop_p: 0.05,
            dup_p: 0.05,
            corrupt_p: 0.02,
            jitter_max: SimDuration::from_nanos(500),
        },
    )
}

fn run_jacobi(faults: Option<(u64, Option<(u32, usize)>)>) -> (RunReport, Residuals, Arc<Tracer>) {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(3);
    tracer.enable();
    let mut network = NetworkModel::ideal();
    let mut b = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(3))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .checkpoint_period(1)
        .tracer(tracer.clone());
    if let Some((seed, pe_failure)) = faults {
        network = network.with_faults(lossy_plan(seed));
        if let Some((step, pe)) = pe_failure {
            b = b.inject_pe_failure_at_lb_step(step, pe);
        }
    }
    let mut m = b.network(network).build(jacobi_body(out.clone())).unwrap();
    let report = m.run().unwrap();
    // The trace counters were bumped at the same sites as the tallies;
    // they must reconcile exactly, whatever the fault schedule.
    for (row, traced, reported) in report.trace_rows(&tracer.counts()) {
        assert_eq!(traced, reported, "{row}");
    }
    let mut residuals = out.lock().clone();
    residuals.sort_by_key(|r| r.0);
    (report, residuals, tracer)
}

#[test]
fn lossy_jacobi_with_pe_failure_is_bit_identical() {
    let (clean_report, clean, _) = run_jacobi(None);
    let cf = &clean_report.faults;
    assert_eq!(
        (cf.msgs_dropped, cf.retransmits, cf.pe_failures, cf.recoveries),
        (0, 0, 0, 0),
        "no faults were configured (checkpoints alone are expected)"
    );

    // 5% drop + 5% duplication + 2% corruption on every inter-node hop,
    // and PE 2 dies at the second LB barrier.
    let (report, faulty, _) = run_jacobi(Some((42, Some((2, 2)))));

    assert_eq!(
        faulty, clean,
        "recovered lossy run must match the fault-free residuals bit-for-bit"
    );

    let f = &report.faults;
    assert_eq!(f.pe_failures, 1, "exactly one PE was killed");
    assert_eq!(f.recoveries, 1, "the PE failure forces one rollback");
    assert_eq!(f.checkpoints, ROUNDS as u32, "one checkpoint per LB step");
    assert!(f.msgs_dropped > 0, "a 5% drop rate must actually drop");
    assert!(f.retransmits > 0, "drops must be repaired by retransmits");
    assert!(
        f.duplicates_injected > 0 && f.duplicates_suppressed > 0,
        "duplication must be injected and deduplicated: {f:?}"
    );

    // (`run_jacobi` reconciled the trace counters with these tallies.)

    // The report's summary must surface the fault activity.
    let s = report.summary();
    assert!(s.contains(&format!(" retransmits={}", f.retransmits)), "{s}");
    assert!(s.contains(" recoveries=1"), "{s}");
}

#[test]
fn same_seed_reproduces_the_same_fault_schedule() {
    let (r1, res1, t1) = run_jacobi(Some((1234, Some((2, 1)))));
    let (r2, res2, t2) = run_jacobi(Some((1234, Some((2, 1)))));
    assert_eq!(r1.faults, r2.faults, "same seed, same fault schedule");
    assert_eq!(r1.sim_elapsed, r2.sim_elapsed, "same virtual makespan");
    assert_eq!(res1, res2, "same results");
    assert_eq!(
        t1.counts().total_events(),
        t2.counts().total_events(),
        "same event counts"
    );

    // ...and a different seed gives a different schedule (overwhelmingly
    // likely at these rates and message counts).
    let (r3, res3, _) = run_jacobi(Some((99, Some((2, 1)))));
    assert_ne!(r1.faults, r3.faults, "different seed, different schedule");
    assert_eq!(res1, res3, "but identical application results");
}

#[test]
fn retransmit_exhaustion_degrades_to_a_clean_error() {
    // 100% inter-node drop: nothing ever arrives, the sender burns its
    // attempts and the run fails with DeliveryFailed, not a hang.
    let plan = FaultPlan::lossy_internode(7, 1.0, 0.0);
    let mut m = MachineBuilder::new(pvr_apps::hello::binary())
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .checkpoint_period(1)
        .network(NetworkModel::ideal().with_faults(plan))
        .retransmit_params(SimDuration::from_micros(10), 3)
        .build(Arc::new(|ctx: RankCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, bytes::Bytes::from_static(b"doomed"));
            } else {
                let _ = ctx.recv();
            }
        }))
        .unwrap();
    match m.run() {
        Err(RtsError::DeliveryFailed { from, to, attempts, .. }) => {
            assert_eq!((from, to), (0, 1));
            assert_eq!(attempts, 3);
        }
        other => panic!("expected DeliveryFailed, got {:?}", other.map(|_| ())),
    }
}

/// Every copy dropped, one message from rank 0 to rank 1: the budget
/// runs out at the same attempt whether the receiver shares the sender's
/// lane (`smp(1)` with two ranks: decided on the lane) or lives on
/// another (`non_smp(2)`: decided at the barrier), under either engine.
#[test]
fn retransmit_exhaustion_is_one_error_on_one_lane_and_across_lanes() {
    let drop_all = FaultParams {
        drop_p: 1.0,
        dup_p: 0.0,
        corrupt_p: 0.0,
        jitter_max: SimDuration::ZERO,
    };
    let cases = [
        (HopClass::IntraProcess, Topology::smp(1), 2),
        (HopClass::InterNode, Topology::non_smp(2), 1),
    ];
    for (class, topology, vp) in cases {
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let plan = FaultPlan::new(7).with_class(class, drop_all);
            let mut m = MachineBuilder::new(pvr_apps::hello::binary())
                .clock(ClockMode::Virtual)
                .parallelism(par)
                .topology(topology)
                .vp_ratio(vp)
                .network(NetworkModel::ideal().with_faults(plan))
                .retransmit_params(SimDuration::from_micros(10), 3)
                .build(Arc::new(|ctx: RankCtx| {
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, bytes::Bytes::from_static(b"doomed"));
                    } else {
                        let _ = ctx.recv();
                    }
                }))
                .unwrap();
            match m.run() {
                Err(RtsError::DeliveryFailed {
                    from: 0,
                    to: 1,
                    attempts: 3,
                    ..
                }) => {}
                other => panic!(
                    "{class:?} {par:?}: expected DeliveryFailed, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }
}

/// Every copy of rank 0's first message to rank 1 arrives and every ack
/// of it is dropped (seed 29 at a 50% drop rate: all three data
/// attempts through, all three acks lost). The budget runs out, but the
/// receiver released the message, so the sender forgets it quietly —
/// judged on the lane (`smp(1)`) or at the barrier (`non_smp(2)`),
/// under either engine. A second message, sent a virtual millisecond
/// later, keeps rank 1 waiting past the last retransmit timer.
#[test]
fn retransmit_exhaustion_after_delivery_is_not_an_error() {
    let half = FaultParams {
        drop_p: 0.5,
        dup_p: 0.0,
        corrupt_p: 0.0,
        jitter_max: SimDuration::ZERO,
    };
    let cases = [
        (HopClass::IntraProcess, Topology::smp(1), 2),
        (HopClass::InterNode, Topology::non_smp(2), 1),
    ];
    const ATTEMPTS: u32 = 3;
    for (class, topology, vp) in cases {
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let plan = FaultPlan::new(29).with_class(class, half);
            let mut m = MachineBuilder::new(pvr_apps::hello::binary())
                .clock(ClockMode::Virtual)
                .parallelism(par)
                .topology(topology)
                .vp_ratio(vp)
                .network(NetworkModel::ideal().with_faults(plan))
                .retransmit_params(SimDuration::from_micros(10), ATTEMPTS)
                .build(Arc::new(|ctx: RankCtx| {
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, bytes::Bytes::from_static(b"through"));
                        ctx.compute(SimDuration::from_millis(1));
                        ctx.send(1, 1, bytes::Bytes::from_static(b"later"));
                    } else {
                        assert_eq!(ctx.recv().tag, 0);
                        assert_eq!(ctx.recv().tag, 1);
                    }
                }))
                .unwrap();
            let r = m
                .run()
                .unwrap_or_else(|e| panic!("{class:?} {par:?}: {e:?}"));
            assert_eq!(r.faults.msgs_dropped, 0, "{class:?} {par:?}");
            assert!(
                r.faults.acks_dropped >= u64::from(ATTEMPTS),
                "{class:?} {par:?}: {:?}",
                r.faults
            );
            assert_eq!(
                r.faults.retransmits,
                u64::from(ATTEMPTS - 1),
                "{class:?} {par:?}"
            );
        }
    }
}

/// Seeded sweep smoke (also exercised by scripts/ci.sh): several seeds
/// and drop rates, each run twice — every run must complete with the
/// same per-rank results as its twin and as the clean run.
#[test]
fn seeded_fault_sweep_is_deterministic() {
    let ring = |out: Arc<Mutex<Vec<(usize, f64)>>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
        Arc::new(move |ctx: RankCtx| {
            let mut acc = ctx.rank() as f64 + 1.0;
            for step in 0..4u64 {
                let partner = (ctx.rank() + 1) % ctx.n_ranks();
                ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
                let m = ctx.recv();
                acc = acc * 1.5 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
                ctx.at_sync();
            }
            out.lock().push((ctx.rank(), acc));
        })
    };
    let run = |plan: Option<FaultPlan>| -> (Vec<(usize, f64)>, pvr_rts::FaultTallies) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut network = NetworkModel::ideal();
        if let Some(p) = plan {
            network = network.with_faults(p);
        }
        let mut m = MachineBuilder::new(pvr_apps::hello::binary())
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .checkpoint_period(1)
            .network(network)
            .build(ring(out.clone()))
            .unwrap();
        let report = m.run().unwrap();
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        (v, report.faults)
    };

    let (clean, clean_tallies) = run(None);
    assert_eq!(clean_tallies.msgs_dropped, 0);
    assert_eq!(clean_tallies.retransmits, 0);
    for seed in [1u64, 7, 13] {
        for drop_p in [0.02f64, 0.08] {
            let plan = FaultPlan::lossy_internode(seed, drop_p, drop_p);
            let (a, ta) = run(Some(plan));
            let (b, tb) = run(Some(plan));
            assert_eq!(a, clean, "seed {seed} drop {drop_p}: wrong results");
            assert_eq!(a, b, "seed {seed} drop {drop_p}: nondeterministic");
            assert_eq!(ta, tb, "seed {seed} drop {drop_p}: tallies diverged");
        }
    }
}

/// Rollback depth: kill a PE two barriers after the only checkpoint
/// (period 2 ⇒ checkpoints at steps 1, 3, …) so recovery genuinely
/// recomputes a full round instead of restoring same-step state.
#[test]
fn pe_failure_rolls_back_and_recomputes_a_full_round() {
    let body = |out: Arc<Mutex<Vec<(usize, f64)>>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
        Arc::new(move |ctx: RankCtx| {
            // heap layout fixed up front so a cross-step rollback can
            // restore into it
            let data = ctx.heap_alloc_f64s(32);
            let mut acc = ctx.rank() as f64 + 1.0;
            for step in 0..4u64 {
                for v in data.iter_mut() {
                    *v += acc;
                }
                let partner = (ctx.rank() + 1) % ctx.n_ranks();
                ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
                let m = ctx.recv();
                acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
                ctx.at_sync();
            }
            out.lock().push((ctx.rank(), acc + data.iter().sum::<f64>()));
        })
    };
    let run = |fail: Option<(u32, usize)>| -> (Vec<(usize, f64)>, pvr_rts::FaultTallies) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut b = MachineBuilder::new(pvr_apps::hello::binary())
            .method(Method::PieGlobals)
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(3))
            .vp_ratio(2)
            .checkpoint_period(2);
        if let Some((step, pe)) = fail {
            b = b.inject_pe_failure_at_lb_step(step, pe);
        }
        let mut m = b.build(body(out.clone())).unwrap();
        let report = m.run().unwrap();
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        (v, report.faults)
    };
    let (clean, _) = run(None);
    // checkpoint at step 1; PE 1 dies at step 2 → roll back one round
    let (faulty, tallies) = run(Some((2, 1)));
    assert_eq!(faulty, clean, "cross-step rollback must recompute exactly");
    assert_eq!(tallies.pe_failures, 1);
    assert_eq!(tallies.recoveries, 1);
}

// ---------------------------------------------------------------------
// What a fault takes and a restore brings back, beyond the application's
// arrays: the guards' own bytes, and a stack the runtime cannot see into.
// ---------------------------------------------------------------------

/// Ring exchange with heap state, a block freed up front and one freed
/// every step (poisoned and quarantined when the guards are on), every
/// barrier reached from another call depth.
fn churn_body(out: Arc<Mutex<Vec<(usize, f64)>>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    #[inline(never)]
    fn sync_from_depth(ctx: &RankCtx, depth: u64) -> f64 {
        if depth == 0 {
            ctx.at_sync();
            return 0.0;
        }
        let mut frame = [depth as f64; 64];
        std::hint::black_box(&mut frame);
        sync_from_depth(ctx, depth - 1) + std::hint::black_box(&frame).iter().sum::<f64>()
    }
    Arc::new(move |ctx: RankCtx| {
        let early = ctx.heap_alloc(256, 8);
        ctx.heap_free(early, 256);
        let data = ctx.heap_alloc_f64s(32);
        let mut acc = ctx.rank() as f64 + 1.0;
        for step in 0..4u64 {
            for v in data.iter_mut() {
                *v += acc;
            }
            let scratch = ctx.heap_alloc(128, 8);
            unsafe { std::ptr::write_bytes(scratch, step as u8 + 1, 128) };
            ctx.heap_free(scratch, 128);
            let partner = (ctx.rank() + 1) % ctx.n_ranks();
            ctx.send(partner, step, bytes::Bytes::copy_from_slice(&acc.to_le_bytes()));
            let m = ctx.recv();
            acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
            acc += sync_from_depth(&ctx, [9, 0, 20, 3][step as usize]);
        }
        out.lock().push((ctx.rank(), acc + data.iter().sum::<f64>()));
    })
}

fn churn_run(configure: impl FnOnce(MachineBuilder) -> MachineBuilder) -> (Vec<(usize, f64)>, RunReport) {
    let out = Arc::new(Mutex::new(Vec::new()));
    let b = MachineBuilder::new(pvr_apps::hello::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(2);
    let mut m = configure(b).build(churn_body(out.clone())).unwrap();
    let report = m.run().unwrap();
    let mut v = out.lock().clone();
    v.sort_by_key(|r| r.0);
    (v, report)
}

/// Guards on, soft fault one barrier after the only capture so far. The
/// fault takes every rank's heap — poisoned quarantine ranges included —
/// and the live part of its stack; the stack canaries sit at the stack's
/// base, below anything live, and are neither lost nor restored. The
/// rollback must leave nothing for the guards to trip on, and the job
/// must end where the unfaulted one does.
#[test]
fn guards_see_no_false_trip_across_a_rollback() {
    let (clean, _) = churn_run(|b| b.guards(true).checkpoint_period(2));
    for incremental in [false, true] {
        let (faulty, report) = churn_run(|b| {
            b.guards(true)
                .checkpoint_period(2)
                .ckpt_incremental(incremental)
                .inject_fault_at_lb_step(2)
        });
        assert_eq!(faulty, clean, "incremental={incremental}: rollback under guards diverged");
        assert_eq!(report.faults.recoveries, 1);
        let h = &report.hardening;
        assert_eq!((h.stack_guard_trips, h.arena_guard_trips), (0, 0), "{h:?}");
        assert!(h.segment_audits > 0, "the guards were on: {h:?}");
    }
}

/// The thread backend keeps a rank's context kernel-side: there is no
/// suspended `sp`, the whole stack region is the image's extent, and a
/// rollback cannot rewind the thread — so the fault strikes at the
/// capture's own barrier, where there is nothing to rewind. Same answer
/// as the asm backend, whose images carry the live stack only.
#[test]
fn thread_backend_restores_to_the_asm_backend_answer() {
    let fault = |b: MachineBuilder| b.checkpoint_period(1).inject_fault_at_lb_step(2);
    let (clean, _) = churn_run(|b| b.checkpoint_period(1));
    for incremental in [false, true] {
        let (asm, asm_report) = churn_run(|b| fault(b).ckpt_incremental(incremental));
        let (thread, thread_report) =
            churn_run(|b| fault(b).ckpt_incremental(incremental).ult_backend(pvr_ult::Backend::Thread));
        assert_eq!(asm, clean, "incremental={incremental}");
        assert_eq!(thread, asm, "incremental={incremental}: thread backend diverged");
        assert_eq!((asm_report.faults.recoveries, thread_report.faults.recoveries), (1, 1));
    }
}

/// The drop-rate x method table in exact counts: virtual-time Jacobi-3D
/// (10x10x4, 6 iterations, 2 rounds) on 3 PEs x 2 ranks, checkpointing
/// at every LB step, over an inter-node network that drops at 2, 5 and
/// 10 % (duplicating at half and corrupting at a quarter of that rate,
/// seed 42). The reliable transport repairs every fault, so each cell's
/// residuals equal its method's clean run; what recovery costs is a fixed
/// number of retransmits and simulated nanoseconds, the same under every
/// migratable method.
#[test]
fn fault_sweep_table_is_exact_and_bit_identical() {
    let run = |method: Method, drop_p: f64| -> (RunReport, Residuals) {
        let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
        let sink = out.clone();
        let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
            let mpi = Ampi::init(ctx);
            let history = (0..2)
                .map(|_| {
                    let residual = jacobi3d::run(&mpi, jacobi_cfg()).residual;
                    mpi.migrate();
                    residual
                })
                .collect();
            sink.lock().push((mpi.rank(), history));
        });
        let mut network = NetworkModel::ideal();
        if drop_p > 0.0 {
            network = network.with_faults(FaultPlan::new(42).with_class(
                HopClass::InterNode,
                FaultParams {
                    drop_p,
                    dup_p: drop_p / 2.0,
                    corrupt_p: drop_p / 4.0,
                    jitter_max: SimDuration::from_nanos(500),
                },
            ));
        }
        let mut b = MachineBuilder::new(jacobi3d::binary())
            .method(method)
            .topology(Topology::non_smp(3))
            .vp_ratio(2)
            .clock(ClockMode::Virtual)
            .stack_size(256 * 1024)
            .checkpoint_period(1)
            .network(network);
        if method == Method::Swapglobals {
            b = b.toolchain(Toolchain::legacy_ld());
        }
        let report = b.build(body).unwrap().run().unwrap();
        let mut residuals = out.lock().clone();
        residuals.sort_by_key(|r| r.0);
        (report, residuals)
    };
    // (drop rate, (dropped, duplicated, corrupted, retransmits), sim ns)
    let table = [
        (0.0, (0, 0, 0, 0), 25_608),
        (0.02, (3, 0, 1, 5), 95_685),
        (0.05, (5, 0, 1, 11), 156_292),
        (0.10, (14, 4, 1, 25), 312_845),
    ];
    for method in [Method::PieGlobals, Method::TlsGlobals, Method::Swapglobals] {
        let mut clean = None;
        for &(drop_p, faults, sim_ns) in &table {
            let (report, residuals) = run(method, drop_p);
            let clean = clean.get_or_insert_with(|| residuals.clone());
            assert_eq!(&residuals, clean, "{method} at {drop_p}: results changed");
            let f = &report.faults;
            assert_eq!(
                (f.msgs_dropped, f.duplicates_injected, f.msgs_corrupted, f.retransmits),
                faults,
                "{method} at {drop_p}"
            );
            assert_eq!(report.sim_elapsed.nanos(), sim_ns, "{method} at {drop_p}");
        }
    }
}
