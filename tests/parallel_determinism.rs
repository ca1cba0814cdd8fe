//! Acceptance: parallel execution is bit-identical to serial.
//!
//! The conservative epoch engine's whole claim is that `Threads(n)` is
//! an implementation detail: same virtual-time results, same digest,
//! same trace event counts as `Serial`, for every `n` — including under
//! a lossy network with retransmissions, duplicate suppression, and a
//! mid-run PE failure with checkpoint rollback, across the migratable
//! privatization methods.

use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::{Method, Toolchain};
use pvr_rts::{ClockMode, EngineTallies, MachineBuilder, Parallelism, RankCtx};
use pvr_trace::{TraceCounts, Tracer};
use std::sync::Arc;
use std::time::Duration;

const ROUNDS: usize = 3;
const METHODS: [Method; 3] = [Method::PieGlobals, Method::TlsGlobals, Method::Swapglobals];

fn jacobi_cfg() -> JacobiConfig {
    JacobiConfig {
        nx: 8,
        ny: 8,
        nz: 4,
        iters: 4,
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

struct Outcome {
    digest: u64,
    residuals: Residuals,
    counts: TraceCounts,
    engine: EngineTallies,
    real_elapsed: Duration,
}

/// 3 PEs on the zero-cost network: one event per epoch, so `Threads(n)`
/// goes through the machine's engine choice but never forms a parallel
/// epoch — what this pins is the barrier merge order.
fn run_one(method: Method, par: Parallelism, faults: bool) -> Outcome {
    run_on(3, NetworkModel::ideal(), method, par, faults)
}

/// The same job on a network with latency: epochs are lookahead
/// windows, several lanes hold events at once, and the pool drives them.
fn run_windowed(pes: usize, par: Parallelism, faults: bool) -> Outcome {
    run_on(
        pes,
        NetworkModel::infiniband(),
        Method::PieGlobals,
        par,
        faults,
    )
}

fn run_on(
    pes: usize,
    mut network: NetworkModel,
    method: Method,
    par: Parallelism,
    faults: bool,
) -> Outcome {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(pes);
    tracer.enable();
    let toolchain = if method == Method::Swapglobals {
        Toolchain::legacy_ld() // stock ld optimizes out the GOT hooks
    } else {
        Toolchain::bridges2()
    };
    let mut b = MachineBuilder::new(jacobi3d::binary())
        .method(method)
        .toolchain(toolchain)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(pes))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .tracer(tracer.clone());
    if faults {
        network = network.with_faults(lossy_plan(42));
        b = b.checkpoint_period(1).inject_pe_failure_at_lb_step(2, 2);
    }
    let mut m = b.network(network).build(jacobi_body(out.clone())).unwrap();
    let report = m.run().unwrap();
    for (row, traced, reported) in report.trace_rows(&tracer.counts()) {
        assert_eq!(traced, reported, "{method} {par:?} faults={faults}: {row}");
    }
    let mut residuals = out.lock().clone();
    residuals.sort_by_key(|r| r.0);
    Outcome {
        digest: report.sim_digest(),
        residuals,
        counts: tracer.counts(),
        engine: report.engine,
        real_elapsed: report.real_elapsed,
    }
}

fn assert_same(par: &Outcome, serial: &Outcome, what: &str) {
    assert_eq!(
        par.digest, serial.digest,
        "{what}: sim digest diverged from serial"
    );
    assert_eq!(
        par.residuals, serial.residuals,
        "{what}: residuals diverged from serial"
    );
    assert_eq!(
        par.counts, serial.counts,
        "{what}: trace event counts diverged from serial"
    );
}

fn assert_identical(method: Method, faults: bool) {
    let serial = run_one(method, Parallelism::Serial, faults);
    assert!(!serial.residuals.is_empty(), "{method}: no results");
    for n in [2usize, 8] {
        let par = run_one(method, Parallelism::Threads(n), faults);
        assert_same(&par, &serial, &format!("{method} Threads({n})"));
    }
}

#[test]
fn jacobi_bit_identical_across_thread_counts() {
    for method in METHODS {
        assert_identical(method, false);
    }
}

#[test]
fn fault_sweep_bit_identical_across_thread_counts() {
    // Lossy inter-node network (drops, dups, corruption, jitter) plus a
    // PE failure at the second LB barrier: the hardest determinism case,
    // because retransmission timers, ack fates, and rollback all have to
    // land in the same virtual-time order regardless of thread count.
    for method in METHODS {
        assert_identical(method, true);
    }
}

#[test]
fn pe_count_the_thread_count_does_not_divide() {
    // 5 PEs on 2 and on 3 workers: lanes are claimed, not dealt out in
    // equal chunks, so an uneven geometry is the ordinary case — clean
    // and under the lossy plan with a PE failure.
    for faults in [false, true] {
        let serial = run_windowed(5, Parallelism::Serial, faults);
        assert!(!serial.residuals.is_empty());
        for n in [2usize, 3] {
            let par = run_windowed(5, Parallelism::Threads(n), faults);
            assert_eq!(par.engine.threads, n);
            assert!(par.engine.barriers > 0, "no epoch went to the pool");
            assert_same(
                &par,
                &serial,
                &format!("5 PEs, faults {faults}, Threads({n})"),
            );
        }
    }
}

#[test]
fn repeated_runs_of_one_configuration_agree() {
    // Which worker drives which lane depends on timing, so one run of a
    // configuration no longer stands for all of them: five in a row,
    // each equal to serial (and so to each other).
    for faults in [false, true] {
        let serial = run_windowed(3, Parallelism::Serial, faults);
        for n in [2usize, 3] {
            for rep in 0..5 {
                let par = run_windowed(3, Parallelism::Threads(n), faults);
                assert!(par.engine.barriers > 0, "no epoch went to the pool");
                assert_same(
                    &par,
                    &serial,
                    &format!("faults {faults}, Threads({n}), run {rep}"),
                );
            }
        }
    }
}

#[test]
fn engine_tallies_report_parallel_shape() {
    let par = run_one(Method::PieGlobals, Parallelism::Threads(8), false).engine;
    assert_eq!(
        par.threads, 3,
        "thread count must be clamped to the PE count"
    );
    assert!(par.epochs > 0, "virtual runs are epoch-counted");
    let serial = run_one(Method::PieGlobals, Parallelism::Serial, false).engine;
    assert_eq!(serial.threads, 1);
    assert_eq!(
        par.epochs, serial.epochs,
        "epoch structure is engine-independent"
    );
    assert_eq!(serial.barriers, 0);
    assert_eq!(serial.parallel_wall, Duration::ZERO);

    // `worker_wall.len()` is a divisor downstream (the benchmark's
    // `rts.worker_busy_share`), so it must be the thread count even when
    // a worker never got a lane; and no worker can have been busy for
    // longer than the run took.
    for (pes, n) in [(3, 2), (3, 8), (5, 2), (5, 3), (5, 4)] {
        let run = run_windowed(pes, Parallelism::Threads(n), false);
        let e = &run.engine;
        assert_eq!(e.worker_wall.len(), e.threads, "{pes} PEs, Threads({n})");
        for (w, wall) in e.worker_wall.iter().enumerate() {
            assert!(
                *wall <= run.real_elapsed,
                "{pes} PEs, Threads({n}): worker {w} busy {wall:?} of a {:?} run",
                run.real_elapsed
            );
        }
        assert!(e.barriers > 0 && e.parallel_wall > Duration::ZERO);
        assert!(e.parallel_wall <= run.real_elapsed);
        assert!(e.parallel_busy <= e.worker_wall.iter().sum());
    }
}
