//! Observability demo — Projections-style tracing of a virtualized
//! Jacobi-3D run.
//!
//! Runs the Fig. 7 workload overdecomposed on simulated PEs
//! (`ClockMode::Virtual`) with GreedyRefineLB at `AMPI_Migrate` syncs
//! and a [`Tracer`] attached, then renders the per-PE timeline summary
//! and reconciles the trace's exact counters against the scheduler's
//! own [`RunReport`] — the two are independent tallies of the same
//! execution, so any disagreement is a bug in one of them.

use pvr_ampi::Ampi;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_privatize::Method;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{ClockMode, MachineBuilder, RankCtx, RunReport, Topology};
use pvr_trace::{TraceSnapshot, Tracer};
use std::sync::Arc;

/// Shape of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceRunConfig {
    pub cores: usize,
    pub vp_ratio: usize,
    pub jacobi: JacobiConfig,
    /// `AMPI_Migrate` rounds after the solve (each is one LB step).
    pub lb_rounds: usize,
}

impl Default for TraceRunConfig {
    fn default() -> Self {
        TraceRunConfig {
            cores: 2,
            vp_ratio: 3,
            jacobi: JacobiConfig {
                nx: 12,
                ny: 12,
                nz: 4,
                iters: 4,
            },
            lb_rounds: 2,
        }
    }
}

/// A traced run: the scheduler's report and the tracer's view of it.
pub struct TraceRun {
    pub report: RunReport,
    pub snapshot: TraceSnapshot,
    pub tracer: Arc<Tracer>,
}

/// Run Jacobi-3D in virtual time with tracing enabled.
pub fn run(cfg: &TraceRunConfig) -> TraceRun {
    let tracer = Tracer::new(cfg.cores);
    tracer.enable();
    let jcfg = cfg.jacobi;
    let rounds = cfg.lb_rounds;
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let _stats = jacobi3d::run(&mpi, jcfg);
        for _ in 0..rounds {
            mpi.migrate(); // AMPI_Migrate: at_sync → LB step
        }
    });
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(cfg.cores))
        .vp_ratio(cfg.vp_ratio)
        .clock(ClockMode::Virtual)
        .stack_size(256 * 1024)
        .balancer(Box::new(GreedyRefineLb::default()))
        .tracer(tracer.clone())
        .build(body)
        .expect("machine builds");
    let report = machine.run().expect("traced jacobi run");
    let snapshot = tracer.snapshot();
    TraceRun {
        report,
        snapshot,
        tracer,
    }
}

/// Lines comparing the trace's counters with the `RunReport`'s: every
/// row of [`RunReport::trace_rows`].
pub fn reconciliation(run: &TraceRun) -> String {
    let mut out = String::from("trace vs RunReport:\n");
    for (name, traced, reported) in run.report.trace_rows(&run.snapshot.counts) {
        let mark = if traced == reported { "ok" } else { "MISMATCH" };
        out.push_str(&format!(
            "  {name:<20} trace {traced:>8}   report {reported:>8}   {mark}\n"
        ));
    }
    out
}

/// The `repro -- trace` experiment: run, summarize, reconcile.
pub fn report() -> String {
    let cfg = TraceRunConfig::default();
    let run = run(&cfg);
    format!(
        "Traced Jacobi-3D: {} PEs x {} ranks/PE, {} iters, {} LB rounds (virtual time)\n\n{}\n{}",
        cfg.cores,
        cfg.vp_ratio,
        cfg.jacobi.iters,
        cfg.lb_rounds,
        run.snapshot.summary(8),
        reconciliation(&run)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_reconciles_and_renders() {
        let run = run(&TraceRunConfig::default());
        assert!(run.report.lb_steps >= 1, "AMPI_Migrate must trigger LB");
        let rows = reconciliation(&run);
        let n_rows = run.report.trace_rows(&run.snapshot.counts).len();
        assert_eq!(rows.matches("   ok\n").count(), n_rows, "{rows}");
        let text = report();
        assert!(text.contains("ctx_switches") && !text.contains("MISMATCH"), "{text}");
    }
}
