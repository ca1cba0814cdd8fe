//! Fig. 7 — Jacobi-3D execution time with privatized innermost-loop
//! variables.
//!
//! Every scalar the sweep's inner loop touches resolves through the
//! active method's access path (direct / TLS-register / GOT). The paper
//! found no measurable per-access penalty with optimized builds; here the
//! indirections are real loads, so small differences are visible in
//! debug terms but should stay within noise in release builds; the
//! benchmark's `jacobi3d` workload (`apps.jacobi_ns_per_point`) is the
//! statistically careful version.

use crate::{fmt_dur, render_table};
use parking_lot::Mutex;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_ampi::Ampi;
use pvr_privatize::{Method, Toolchain};
use pvr_rts::{MachineBuilder, RankCtx, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct JacobiRow {
    pub label: String,
    pub time_per_iter: Duration,
    pub residual: f64,
}

fn measure(method: Method, toolchain: Toolchain, cfg: JacobiConfig, ranks: usize) -> JacobiRow {
    let residual = Arc::new(Mutex::new(0.0f64));
    let r2 = residual.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let stats = jacobi3d::run(&mpi, cfg);
        *r2.lock() = stats.residual;
    });
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(method)
        .toolchain(toolchain)
        .topology(Topology::smp(1))
        .vp_ratio(ranks)
        .stack_size(256 * 1024)
        .build(body)
        .expect("machine builds");
    let t0 = Instant::now();
    machine.run().expect("jacobi runs");
    let elapsed = t0.elapsed();
    let res = *residual.lock();
    JacobiRow {
        label: method.to_string(),
        time_per_iter: elapsed / cfg.iters as u32,
        residual: res,
    }
}

/// Best-of-n to tame single-core scheduling noise.
fn measure_best(method: Method, toolchain: Toolchain, cfg: JacobiConfig, ranks: usize, n: usize) -> JacobiRow {
    (0..n)
        .map(|_| measure(method, toolchain, cfg, ranks))
        .min_by_key(|r| r.time_per_iter)
        .unwrap()
}

pub fn run(cfg: JacobiConfig, ranks: usize) -> Vec<JacobiRow> {
    let mut rows: Vec<JacobiRow> = Method::EVALUATED
        .iter()
        .map(|&m| measure_best(m, Toolchain::bridges2(), cfg, ranks, 3))
        .collect();
    rows.push({
        let mut r = measure_best(Method::Swapglobals, Toolchain::legacy_ld(), cfg, ranks, 3);
        r.label = "swapglobals".into();
        r
    });
    rows
}

pub fn report() -> String {
    let cfg = JacobiConfig {
        nx: 48,
        ny: 48,
        nz: 24,
        iters: 15,
    };
    let rows = run(cfg, 2);
    // all methods must agree numerically
    let r0 = rows[0].residual;
    for r in &rows {
        assert_eq!(r.residual, r0, "{} diverged numerically", r.label);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                fmt_dur(r.time_per_iter),
                format!(
                    "{:+.1}%",
                    (r.time_per_iter.as_secs_f64() / rows[0].time_per_iter.as_secs_f64() - 1.0)
                        * 100.0
                ),
            ]
        })
        .collect();
    render_table(
        &format!(
            "Fig. 7: Jacobi-3D ({}x{}x{} per rank, 2 ranks) with privatized \
             inner-loop variables (lower is better)",
            cfg.nx, cfg.ny, cfg.nz
        ),
        &["method", "time/iter", "vs baseline"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_close_to_baseline() {
        let _host = crate::host_shared();
        let cfg = JacobiConfig {
            nx: 24,
            ny: 24,
            nz: 12,
            iters: 8,
        };
        let rows = run(cfg, 2);
        let baseline = rows[0].time_per_iter.as_secs_f64();
        for r in &rows {
            assert_eq!(r.residual, rows[0].residual, "{} wrong answer", r.label);
            // generous bound: no hidden per-access blowup (the paper
            // found none either)
            // generous: unit tests run concurrently on one core, so wall
            // time is noisy; the benchmark's `jacobi3d` workload is the
            // real measurement
            assert!(
                r.time_per_iter.as_secs_f64() < baseline * 8.0,
                "{} shows a per-access blowup: {:?} vs baseline {:?}",
                r.label,
                r.time_per_iter,
                rows[0].time_per_iter
            );
        }
    }
}
