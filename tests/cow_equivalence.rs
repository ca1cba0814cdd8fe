//! Acceptance: COWglobals is observationally identical to eager
//! PIEglobals.
//!
//! The page-granular copy-on-write method changes *when* data-segment
//! bytes are copied, never *what* the application observes. This suite
//! runs the same Jacobi job under both methods — across engines, a
//! lossy network, and a mid-run PE failure with checkpoint rollback —
//! and requires identical core simulation digests and residual
//! histories. It also checks the COW-specific accounting: the dedup
//! audit fires exactly once per run, and the `RunReport` tallies
//! reconcile with the `PageFault`/`PagePrivatized` trace events.

use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::{ClockMode, CowTallies, MachineBuilder, Parallelism, RankCtx};
use pvr_trace::{TraceCounts, Tracer};
use std::sync::Arc;

const ROUNDS: usize = 3;

fn jacobi_cfg() -> JacobiConfig {
    JacobiConfig {
        nx: 8,
        ny: 8,
        nz: 4,
        iters: 4,
    }
}

type Residuals = Vec<(usize, Vec<f64>)>;

fn jacobi_body(out: Arc<Mutex<Residuals>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let mut history = Vec::with_capacity(ROUNDS);
        for _round in 0..ROUNDS {
            let stats = jacobi3d::run(&mpi, jacobi_cfg());
            history.push(stats.residual);
            mpi.migrate();
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
    digest_core: u64,
    residuals: Residuals,
    counts: TraceCounts,
    cow: CowTallies,
}

fn run_one(method: Method, par: Parallelism, faults: bool) -> Outcome {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(3);
    tracer.enable();
    let mut network = NetworkModel::ideal();
    let mut b = MachineBuilder::new(jacobi3d::binary())
        .method(method)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(3))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .tracer(tracer.clone());
    if faults {
        network = network.with_faults(lossy_plan(42));
        b = b.checkpoint_period(1).inject_pe_failure_at_lb_step(2, 2);
    }
    let mut m = b.network(network).build(jacobi_body(out.clone())).unwrap();
    let report = m.run().unwrap();
    // every scenario of this file: trace counters == RunReport tallies
    for (row, traced, reported) in report.trace_rows(&tracer.counts()) {
        assert_eq!(traced, reported, "{method} {par:?} faults={faults}: {row}");
    }
    let mut residuals = out.lock().clone();
    residuals.sort_by_key(|r| r.0);
    Outcome {
        digest: report.sim_digest(),
        digest_core: report.sim_digest_core(),
        residuals,
        counts: tracer.counts(),
        cow: report.cow,
    }
}

/// COW vs eager PIE: everything the simulation can observe must match.
/// The *core* digest excludes the COW tallies and the method name — the
/// methods legitimately differ in copy bookkeeping, never in behavior.
fn assert_cow_matches_pie(par: Parallelism, faults: bool) {
    let label = format!("{par:?} faults={faults}");
    let pie = run_one(Method::PieGlobals, par, faults);
    assert!(!pie.residuals.is_empty(), "{label}: no results");
    let cow = run_one(Method::CowGlobals, par, faults);
    assert_eq!(
        cow.digest_core, pie.digest_core,
        "{label}: COW core sim digest diverged from eager PIE"
    );
    assert_eq!(
        cow.residuals, pie.residuals,
        "{label}: COW residuals diverged from eager PIE"
    );
    assert!(pie.cow.is_clean(), "{label}: eager PIE must report no COW activity");
}

#[test]
fn cow_bit_identical_to_pie_serial() {
    assert_cow_matches_pie(Parallelism::Serial, false);
}

#[test]
fn cow_bit_identical_to_pie_threads() {
    assert_cow_matches_pie(Parallelism::Threads(4), false);
}

#[test]
fn cow_bit_identical_to_pie_under_faults() {
    // Lossy inter-node network plus a PE failure at the second LB
    // barrier: retransmissions, checkpoint rollback, and recovery all
    // pack/unpack rank memory — COW must materialize transparently.
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        assert_cow_matches_pie(par, true);
    }
}

#[test]
fn cow_engines_bit_identical() {
    // The COW method itself must be deterministic across engines: full
    // digest (including COW tallies) and trace counts, clean and faulty.
    for faults in [false, true] {
        let serial = run_one(Method::CowGlobals, Parallelism::Serial, faults);
        let threads = run_one(Method::CowGlobals, Parallelism::Threads(4), faults);
        assert_eq!(
            serial.digest, threads.digest,
            "faults={faults}: Serial vs Threads(4) digest diverged"
        );
        assert_eq!(
            serial.residuals, threads.residuals,
            "faults={faults}: Serial vs Threads(4) residuals diverged"
        );
        assert_eq!(
            serial.counts, threads.counts,
            "faults={faults}: Serial vs Threads(4) trace counts diverged"
        );
    }
}

/// Regression: checkpoint packing must read *through* the COW page
/// table, never materialize it. Before the read-through pack, the first
/// periodic checkpoint forced every rank's segment to privatize all of
/// its pages (a sticky `materialized` flag), permanently defeating
/// dedup; with it, checkpointed runs keep exactly the sharing a
/// checkpoint-free run has.
#[test]
fn checkpointing_does_not_defeat_cow_dedup() {
    // faults=true runs checkpoint_period(1) plus a rollback: the
    // heaviest pack/unpack traffic the runtime can throw at a segment.
    for faults in [false, true] {
        let o = run_one(Method::CowGlobals, Parallelism::Serial, faults);
        assert_eq!(
            o.cow.materialized_ranks, 0,
            "faults={faults}: checkpoint packing materialized COW segments: {:?}",
            o.cow
        );
        // Every fault-driven privatization is still page-granular: no
        // wholesale copies beyond what the application actually wrote.
        assert_eq!(
            o.cow.pages_privatized, o.cow.page_faults,
            "faults={faults}: non-fault-driven page copies: {:?}",
            o.cow
        );
    }
}

#[test]
fn cow_tallies_reconcile_with_trace_events() {
    let o = run_one(Method::CowGlobals, Parallelism::Serial, false);
    assert!(o.cow.total_pages > 0, "COW run must report its page table");
    assert!(
        o.cow.shared_pages <= o.cow.total_pages,
        "never-diverged pages cannot exceed the page table"
    );
    assert_eq!(
        o.cow.page_faults, o.cow.pages_privatized,
        "every simulated fault privatizes exactly one page"
    );
    // `run_one` reconciled every row; the COW ones must not be vacuous
    assert!(o.counts.page_faults > 0, "a Jacobi run writes its globals");
    assert_eq!(o.counts.dedup_audits, 1, "dedup audit fires exactly once per run");
}
