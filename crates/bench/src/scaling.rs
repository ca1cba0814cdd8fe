//! Table 2 + Fig. 9 — ADCIRC-proxy strong scaling with virtualization
//! and dynamic load balancing.
//!
//! Runs the surge proxy in virtual time over `cores ∈ {1..64}` PEs and
//! virtualization ratios `{1,2,4,8}`, with GreedyRefineLB at every
//! `AMPI_Migrate` sync, against the paper's baseline of "without
//! virtualization or load balancing" (ratio 1, no LB). The physics, the
//! messages, the LB decisions, and the migrations (including PIEglobals'
//! code-segment payload) all execute for real; PE clocks and the network
//! are simulated — that is what lets 64 "cores" run on this machine's
//! single physical core.
//!
//! Memory scale-down (documented in DESIGN.md): the scaling sweep uses a
//! 4 MB code segment instead of ADCIRC's 14 MB so the 512-rank
//! PIEglobals configuration fits in sandbox RAM; Fig. 8 measures
//! migration with the full 14 MB.

use crate::render_table;
use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::surge::{self, SurgeConfig};
use pvr_privatize::Method;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{ClockMode, MachineBuilder, RankCtx, Topology};
use std::sync::Arc;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    pub cores: Vec<usize>,
    pub ratios: Vec<usize>,
    pub surge: SurgeConfig,
    pub code_bytes: usize,
}

impl ScalingConfig {
    /// The paper's sweep (Table 2 columns).
    pub fn full() -> ScalingConfig {
        ScalingConfig {
            cores: vec![1, 2, 4, 8, 16, 32, 64],
            ratios: vec![1, 2, 4, 8],
            surge: SurgeConfig {
                nx: 128,
                ny: 512,
                steps: 100,
                lb_period: 10,
                storm_speed: 5.0,
                flops_per_wet_cell: 400.0,
            },
            code_bytes: 4 << 20,
        }
    }

    /// A down-scaled sweep for tests.
    pub fn quick() -> ScalingConfig {
        ScalingConfig {
            cores: vec![1, 2, 4],
            ratios: vec![1, 4],
            surge: SurgeConfig {
                nx: 128,
                ny: 256,
                steps: 40,
                lb_period: 8,
                storm_speed: 4.0,
                flops_per_wet_cell: 400.0,
            },
            code_bytes: 1 << 20,
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScalingCell {
    pub cores: usize,
    pub ratio: usize,
    pub with_lb: bool,
    pub time_s: f64,
    pub migrations: usize,
    pub mean_utilization: f64,
}

/// Full sweep result.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Baseline per core count (ratio 1, no LB).
    pub baselines: Vec<ScalingCell>,
    /// Virtualized+LB cells.
    pub cells: Vec<ScalingCell>,
}

impl ScalingResult {
    pub fn best_for(&self, cores: usize) -> ScalingCell {
        *self
            .cells
            .iter()
            .filter(|c| c.cores == cores)
            .min_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap())
            .expect("cells present")
    }

    pub fn baseline_for(&self, cores: usize) -> ScalingCell {
        *self
            .baselines
            .iter()
            .find(|c| c.cores == cores)
            .expect("baseline present")
    }

    /// Table 2's number: speedup % of the best ratio over the baseline.
    pub fn speedup_pct(&self, cores: usize) -> f64 {
        let b = self.baseline_for(cores).time_s;
        let best = self.best_for(cores).time_s;
        (b / best - 1.0) * 100.0
    }
}

fn run_one(
    cores: usize,
    ratio: usize,
    with_lb: bool,
    cfg: &ScalingConfig,
) -> ScalingCell {
    let surge_cfg = SurgeConfig {
        lb_period: if with_lb { cfg.surge.lb_period } else { 0 },
        ..cfg.surge
    };
    assert!(
        cores * ratio <= surge_cfg.ny,
        "each rank needs at least one row"
    );
    let max_eta = Arc::new(Mutex::new(0.0f64));
    let m2 = max_eta.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let stats = surge::run(&mpi, surge_cfg);
        let mut g = m2.lock();
        *g = g.max(stats.max_eta);
    });
    let mut builder = MachineBuilder::new(surge::binary_with_code(cfg.code_bytes))
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(cores))
        .vp_ratio(ratio)
        .clock(ClockMode::Virtual)
        .stack_size(192 * 1024);
    if with_lb {
        builder = builder.balancer(Box::new(GreedyRefineLb::default()));
    }
    let mut machine = builder.build(body).expect("machine builds");
    let report = machine.run().expect("surge scaling run");
    ScalingCell {
        cores,
        ratio,
        with_lb,
        time_s: report.sim_elapsed.as_secs_f64(),
        migrations: report.migrations.len(),
        mean_utilization: report.mean_utilization(),
    }
}

/// Run the whole sweep.
pub fn run(cfg: &ScalingConfig) -> ScalingResult {
    let baselines: Vec<ScalingCell> = cfg
        .cores
        .iter()
        .map(|&c| run_one(c, 1, false, cfg))
        .collect();
    let mut cells = Vec::new();
    for &c in &cfg.cores {
        for &r in &cfg.ratios {
            if c * r <= cfg.surge.ny {
                cells.push(run_one(c, r, true, cfg));
            }
        }
    }
    ScalingResult { baselines, cells }
}

/// Render Fig. 9 (full series).
pub fn report_fig9(result: &ScalingResult, cfg: &ScalingConfig) -> String {
    let mut rows = Vec::new();
    for &c in &cfg.cores {
        let b = result.baseline_for(c);
        rows.push(vec![
            c.to_string(),
            "baseline (no virt, no LB)".into(),
            format!("{:.3} s", b.time_s),
            "-".into(),
            format!("{:.0}%", b.mean_utilization * 100.0),
        ]);
        for cell in result.cells.iter().filter(|x| x.cores == c) {
            rows.push(vec![
                c.to_string(),
                format!("{}x virtualization + GreedyRefineLB", cell.ratio),
                format!("{:.3} s", cell.time_s),
                cell.migrations.to_string(),
                format!("{:.0}%", cell.mean_utilization * 100.0),
            ]);
        }
    }
    render_table(
        "Fig. 9: Strong scaling execution time for the ADCIRC proxy with varying \
         degrees of virtualization and dynamic load balancing (lower is better)",
        &["cores", "configuration", "time", "migrations", "PE util"],
        &rows,
    )
}

/// Render Table 2 (best-ratio speedups).
pub fn report_table2(result: &ScalingResult, cfg: &ScalingConfig) -> String {
    let headers: Vec<String> = std::iter::once("".to_string())
        .chain(cfg.cores.iter().map(|c| c.to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut speedups = vec!["Speedup %".to_string()];
    let mut ratios = vec!["Best ratio".to_string()];
    for &c in &cfg.cores {
        speedups.push(format!("{:.0}", result.speedup_pct(c)));
        ratios.push(format!("{}x", result.best_for(c).ratio));
    }
    render_table(
        "Table 2: ADCIRC-proxy speedup of best performing virtualization ratio over \
         the baseline (without virtualization or load balancing). Cores:",
        &header_refs,
        &[speedups, ratios],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_virtualization_plus_lb_winning() {
        let _host = crate::host_shared();
        let cfg = ScalingConfig::quick();
        let result = run(&cfg);
        // strong scaling: baseline time decreases with cores
        let b1 = result.baseline_for(1).time_s;
        let b4 = result.baseline_for(4).time_s;
        assert!(b4 < b1, "more cores must be faster: {b1} vs {b4}");
        // virtualization + LB beats the baseline on multi-core runs
        // (the moving flood front leaves block-mapped PEs idle)
        for &c in &[2usize, 4] {
            let sp = result.speedup_pct(c);
            assert!(
                sp > 5.0,
                "expected virtualization+LB speedup at {c} cores, got {sp:.1}%"
            );
        }
        // LB actually migrated something
        assert!(result
            .cells
            .iter()
            .any(|c| c.cores > 1 && c.migrations > 0));
    }

    #[test]
    fn single_core_gain_comes_from_cache_effects() {
        let _host = crate::host_shared();
        let cfg = ScalingConfig::quick();
        let result = run(&cfg);
        let sp1 = result.speedup_pct(1);
        // the paper's Table 2 reports 13% at 1 core — in our model this
        // is the cache-efficiency term for smaller slabs. It must be
        // positive but modest.
        assert!(sp1 > 0.0, "1-core speedup should be positive, got {sp1:.1}%");
        assert!(sp1 < 40.0, "1-core speedup should be modest, got {sp1:.1}%");
    }
}
