//! `surge` — an ADCIRC-like storm-surge proxy.
//!
//! ADCIRC simulates hurricane storm surge over coastal floodplains
//! (~50 kLoC of Fortran, ~14 MB of code, hundreds of mutable globals).
//! What the paper's Fig. 9 / Table 2 experiment depends on is not the
//! full physics but two structural properties, both preserved here:
//!
//! 1. **Dynamic load imbalance that follows the water.** "The
//!    computationally intensive parts of the domain follow the flow of
//!    water as it spreads over and around obstacles in its path. For dry
//!    areas, there is little to no computational work." We integrate a
//!    2-D diffusive-wave flood model over a coastal ramp with
//!    wetting/drying: only wet cells (and their neighbors) cost work, and
//!    a moving storm forcing drives the flood front inland across the
//!    rank decomposition over time.
//! 2. **A large code segment** (14 MB in the image spec), which is what
//!    makes PIEglobals migrations expensive (Fig. 8) and the memory
//!    footprint interesting.
//!
//! Decomposition: 1-D row slabs along y (inland direction), ghost rows
//! exchanged each step; `AMPI_Migrate` (at_sync) every `lb_period` steps.

use pvr_ampi::{util, Ampi, Op, COMM_WORLD};
use pvr_progimage::{link, FunctionSpec, GlobalSpec, ImageSpec, ProgramBinary, VarClass};
use pvr_rts::kernel_cost;
use std::sync::Arc;

/// Paper-reported ADCIRC code-segment size: ~14 MB.
pub const ADCIRC_CODE_BYTES: usize = 14 << 20;

#[derive(Debug, Clone, Copy)]
pub struct SurgeConfig {
    /// Global grid width (along the coast).
    pub nx: usize,
    /// Global grid depth (inland); divided across ranks in row slabs.
    pub ny: usize,
    pub steps: usize,
    /// Call `AMPI_Migrate` every this many steps (0 = never).
    pub lb_period: usize,
    /// Storm-front speed: rows per step the forcing bump advances.
    pub storm_speed: f64,
    /// Work units charged per wet cell per step (virtual time).
    pub flops_per_wet_cell: f64,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        SurgeConfig {
            nx: 64,
            ny: 128,
            steps: 40,
            lb_period: 10,
            storm_speed: 1.0,
            flops_per_wet_cell: 60.0,
        }
    }
}

/// Image spec: ADCIRC-shaped (huge code, many globals — we declare the
/// hot subset that the kernel actually reads each step).
pub fn image_spec() -> ImageSpec {
    ImageSpec::builder("surge")
        .language(pvr_progimage::Language::Fortran)
        .var(GlobalSpec::new("s_dt", 8, VarClass::Global).with_init(&0.05f64.to_le_bytes()))
        .var(GlobalSpec::new("s_diffusion", 8, VarClass::Global).with_init(&0.2f64.to_le_bytes()))
        .var(GlobalSpec::new("s_wet_eps", 8, VarClass::Global).with_init(&1e-4f64.to_le_bytes()))
        .var(GlobalSpec::new("s_forcing", 8, VarClass::Global).with_init(&0.6f64.to_le_bytes()))
        .static_var("s_step", 8)
        .static_var("s_wet_count", 8)
        .function(FunctionSpec::new("surge_step", 32 * 1024))
        .function(FunctionSpec::new("wetdry_update", 8 * 1024))
        .code_padding(ADCIRC_CODE_BYTES)
        .build()
}

pub fn binary() -> Arc<ProgramBinary> {
    link(image_spec())
}

/// Like [`binary`], but with a custom code-segment size. The scaling
/// harness (Fig. 9 / Table 2) uses a reduced segment so that 512-rank
/// PIEglobals configurations fit this sandbox's memory; the migration
/// experiment (Fig. 8) keeps the full 14 MB.
pub fn binary_with_code(code_bytes: usize) -> Arc<ProgramBinary> {
    let mut spec = image_spec();
    spec.code_padding = code_bytes;
    link(spec)
}

/// Cache-efficiency multiplier for a rank's per-cell cost, as a function
/// of its working-set bytes. Overdecomposition shrinks each rank's slab;
/// once the working set drops under the L2 slice the same arithmetic
/// runs measurably faster — the physical effect behind the paper's 13%
/// single-core speedup at the best virtualization ratio (Table 2).
pub fn cache_efficiency(working_set_bytes: f64) -> f64 {
    const L2: f64 = 512.0 * 1024.0;
    const LLC_SLICE: f64 = 4.0 * 1024.0 * 1024.0;
    if working_set_bytes <= L2 {
        0.86
    } else if working_set_bytes >= LLC_SLICE {
        1.0
    } else {
        // smooth blend between the two plateaus
        let t = (working_set_bytes.ln() - L2.ln()) / (LLC_SLICE.ln() - L2.ln());
        0.86 + 0.14 * t
    }
}

/// Per-rank outcome.
#[derive(Debug, Clone)]
pub struct SurgeStats {
    /// Wet cells on this rank after each step.
    pub wet_history: Vec<usize>,
    /// Peak water height observed anywhere (global, via allreduce).
    pub max_eta: f64,
    /// Total modeled work this rank performed (wet-cell updates).
    pub total_wet_updates: u64,
}

/// Terrain: a coastal ramp rising inland with a shallow bay carved in the
/// middle — water funnels around the headlands, like surge around
/// obstacles.
fn ground_elevation(x: usize, y: usize, nx: usize, ny: usize) -> f64 {
    let fy = y as f64 / ny as f64;
    let fx = x as f64 / nx as f64;
    let ramp = 2.0 * fy; // rises inland
    // a bay: lower ground in the middle third of the coast
    let bay = if (0.33..0.66).contains(&fx) { -0.8 * (1.0 - fy) } else { 0.0 };
    // two headland bumps
    let bump = 0.9 * (-((fx - 0.2) * 12.0).powi(2)).exp() + 0.9 * (-((fx - 0.8) * 12.0).powi(2)).exp();
    ramp + bay + bump * (1.0 - fy)
}

/// Run the proxy. Returns per-rank stats.
pub fn run(mpi: &Ampi, cfg: SurgeConfig) -> SurgeStats {
    let inst = mpi.ctx().instance();
    let g_dt = inst.access("s_dt");
    let g_diff = inst.access("s_diffusion");
    let g_eps = inst.access("s_wet_eps");
    let g_forcing = inst.access("s_forcing");
    let g_step = inst.access("s_step");
    let g_wet = inst.access("s_wet_count");

    let me = mpi.rank();
    let p = mpi.size();
    let nx = cfg.nx;
    let rows = cfg.ny / p + if me < cfg.ny % p { 1 } else { 0 };
    let y0: usize = (0..me)
        .map(|r| cfg.ny / p + if r < cfg.ny % p { 1 } else { 0 })
        .sum();

    // water surface elevation eta = ground + depth; store depth h.
    let stride = nx;
    let slab = (rows + 2) * stride; // two ghost rows
    let h: &mut [f64] = mpi.ctx().heap_alloc_f64s(slab);
    let h_new: &mut [f64] = mpi.ctx().heap_alloc_f64s(slab);
    let ground: &mut [f64] = mpi.ctx().heap_alloc_f64s(slab);
    for r in 0..rows + 2 {
        let gy = (y0 + r).saturating_sub(1).min(cfg.ny - 1);
        for x in 0..nx {
            ground[r * stride + x] = ground_elevation(x, gy, nx, cfg.ny);
        }
    }
    // Initial condition: the ocean. Sea level is 1.0; every cell whose
    // ground lies below sea level starts submerged (the lower ~half of
    // the domain — like ADCIRC's always-wet ocean mesh), and the
    // floodplain above it starts dry.
    const SEA_LEVEL: f64 = 1.0;
    for r in 1..=rows {
        for x in 0..nx {
            let c = r * stride + x;
            if ground[c] < SEA_LEVEL {
                h[c] = SEA_LEVEL - ground[c];
            }
        }
    }

    let mut wet_history = Vec::with_capacity(cfg.steps);
    let mut max_eta: f64 = 0.0;
    let mut total_wet_updates = 0u64;

    for step in 0..cfg.steps {
        g_step.write_u64(step as u64);

        // halo exchange of depth rows — nonblocking overlap idiom:
        // receives posted before the sends, completion at delivery time
        let below = if me > 0 { Some(me - 1) } else { None };
        let above = if me + 1 < p { Some(me + 1) } else { None };
        let r_above = above.map(|a| mpi.irecv(COMM_WORLD, Some(a), Some(200)));
        let r_below = below.map(|b| mpi.irecv(COMM_WORLD, Some(b), Some(201)));
        let mut sends = Vec::new();
        if let Some(b) = below {
            sends.push(mpi.isend_f64s(COMM_WORLD, b, 200, &h[stride..2 * stride]));
        }
        if let Some(a) = above {
            sends.push(mpi.isend_f64s(COMM_WORLD, a, 201, &h[rows * stride..(rows + 1) * stride]));
        }
        if let Some(req) = r_above {
            let (d, _) = mpi.wait(req);
            h[(rows + 1) * stride..(rows + 2) * stride]
                .copy_from_slice(&util::bytes_to_f64s(&d));
        }
        if let Some(req) = r_below {
            let (d, _) = mpi.wait(req);
            h[0..stride].copy_from_slice(&util::bytes_to_f64s(&d));
        }
        mpi.waitall_sends(sends);

        // storm forcing: a surge source sweeping inland along the bay
        let storm_y = (step as f64 * cfg.storm_speed) as usize;
        let dt = g_dt.read_f64();
        let diff = g_diff.read_f64();
        let eps = g_eps.read_f64();
        let forcing = g_forcing.read_f64();

        // diffusive-wave update on wet cells and their neighbors only
        let mut wet = 0usize;
        h_new.copy_from_slice(h);
        for r in 1..=rows {
            let gy = y0 + r - 1;
            for x in 0..nx {
                let c = r * stride + x;
                // skip fully dry neighborhoods: no computational work,
                // like ADCIRC's dry floodplain cells
                let neighborhood_wet = h[c] > eps
                    || h[c - stride] > eps
                    || h[c + stride] > eps
                    || (x > 0 && h[c - 1] > eps)
                    || (x + 1 < nx && h[c + 1] > eps);
                if !neighborhood_wet {
                    continue;
                }
                wet += 1;
                total_wet_updates += 1;
                let eta_c = ground[c] + h[c];
                let mut flux = 0.0;
                let mut add_flux = |hn: f64, gn: f64| {
                    let eta_n = gn + hn;
                    // diffusive wave: flow toward lower surface, limited
                    // by available depth on the giving side
                    let dh = eta_n - eta_c;
                    let give = if dh > 0.0 { hn } else { h[c] };
                    flux += diff * dh.clamp(-give, give);
                };
                add_flux(h[c - stride], ground[c - stride]);
                add_flux(h[c + stride], ground[c + stride]);
                if x > 0 {
                    add_flux(h[c - 1], ground[c - 1]);
                }
                if x + 1 < nx {
                    add_flux(h[c + 1], ground[c + 1]);
                }
                let mut v = h[c] + dt * flux;
                // storm surge source near the advancing front, in the bay
                if gy <= storm_y && gy + 3 > storm_y && (nx / 3..2 * nx / 3).contains(&x) {
                    v += dt * forcing;
                }
                // open ocean boundary keeps the sea topped up
                if me == 0 && r == 1 {
                    v = v.max(SEA_LEVEL - ground[c]);
                }
                if v < 0.0 {
                    v = 0.0;
                }
                h_new[c] = v;
                max_eta = max_eta.max(ground[c] + v);
            }
        }
        h.copy_from_slice(h_new);
        g_wet.write_u64(wet as u64);
        wet_history.push(wet);

        // modeled cost ∝ wet cells (the load-imbalance driver), scaled by
        // the slab's cache behavior (smaller slabs run faster per cell)
        if mpi.ctx().is_virtual_time() {
            let ws = (slab * 8 * 3) as f64;
            let eff = cache_efficiency(ws);
            let flops = (wet.max(1)) as f64 * cfg.flops_per_wet_cell * eff;
            mpi.compute(kernel_cost(flops, wet as f64 * 48.0 * eff));
        }

        // AMPI_Migrate: let the runtime rebalance
        if cfg.lb_period > 0 && (step + 1) % cfg.lb_period == 0 {
            mpi.migrate();
        }
    }

    let global_max = mpi.allreduce(&[max_eta], Op::Max)[0];
    SurgeStats {
        wet_history,
        max_eta: global_max,
        total_wet_updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use pvr_privatize::Method;
    use pvr_rts::{ClockMode, MachineBuilder, Topology};

    fn run_surge(ranks: usize, cfg: SurgeConfig) -> Vec<SurgeStats> {
        let stats = Arc::new(Mutex::new(Vec::new()));
        let s2 = stats.clone();
        let mut m = MachineBuilder::new(binary())
            .method(Method::PieGlobals)
            .topology(Topology::smp(1))
            .vp_ratio(ranks)
            .clock(ClockMode::RealTime)
            .stack_size(256 * 1024)
            .build(Arc::new(move |ctx| {
                let rank = ctx.rank();
                let mpi = Ampi::init(ctx);
                let st = run(&mpi, cfg);
                s2.lock().push((rank, st));
            }))
            .unwrap();
        m.run().unwrap();
        let mut v = stats.lock().clone();
        v.sort_by_key(|(r, _)| *r);
        v.into_iter().map(|(_, s)| s).collect()
    }

    #[test]
    fn flood_front_moves_inland() {
        let cfg = SurgeConfig {
            nx: 32,
            ny: 64,
            steps: 80,
            lb_period: 0,
            storm_speed: 1.0,
            flops_per_wet_cell: 60.0,
        };
        let stats = run_surge(4, cfg);
        // ocean ranks (lower half) are wet from the start
        assert!(stats[0].wet_history[0] > 0);
        assert!(stats[1].wet_history[0] > 0);
        // the floodplain (upper ranks) starts ~dry and floods later
        let first_wet: Vec<Option<usize>> = stats
            .iter()
            .map(|s| s.wet_history.iter().position(|&w| w > s.wet_history[0]))
            .collect();
        let dry_start_r3 = stats[3].wet_history[0];
        assert!(
            dry_start_r3 < stats[0].wet_history[0] / 4,
            "inland rank must start much drier: {} vs {}",
            dry_start_r3,
            stats[0].wet_history[0]
        );
        // the front expands rank 2's wet area over time
        assert!(
            first_wet[2].is_some(),
            "flooding must expand into rank 2: {:?}",
            stats[2].wet_history
        );
        let last2 = *stats[2].wet_history.last().unwrap();
        assert!(
            last2 > stats[2].wet_history[0],
            "rank 2 wet area must grow: {} -> {}",
            stats[2].wet_history[0],
            last2
        );
    }

    #[test]
    fn work_is_imbalanced_early() {
        let cfg = SurgeConfig {
            nx: 32,
            ny: 64,
            steps: 10,
            lb_period: 0,
            ..Default::default()
        };
        let stats = run_surge(4, cfg);
        let work: Vec<u64> = stats.iter().map(|s| s.total_wet_updates).collect();
        assert!(
            work[0] > 10 * work[3].max(1),
            "ocean ranks should dominate early work: {work:?}"
        );
    }

    #[test]
    fn water_depth_stays_bounded_and_positive() {
        let cfg = SurgeConfig {
            nx: 24,
            ny: 48,
            steps: 80,
            lb_period: 0,
            ..Default::default()
        };
        let stats = run_surge(2, cfg);
        assert!(stats[0].max_eta.is_finite());
        assert!(stats[0].max_eta > 0.0);
        assert!(
            stats[0].max_eta < 50.0,
            "explicit scheme must stay stable, max_eta={}",
            stats[0].max_eta
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SurgeConfig {
            nx: 16,
            ny: 32,
            steps: 20,
            lb_period: 5,
            ..Default::default()
        };
        let a = run_surge(2, cfg);
        let b = run_surge(2, cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wet_history, y.wet_history);
            assert_eq!(x.max_eta, y.max_eta);
        }
    }

    #[test]
    fn migrate_period_preserves_results() {
        // AMPI_Migrate must be transparent to the computation.
        let base = SurgeConfig {
            nx: 16,
            ny: 32,
            steps: 20,
            lb_period: 0,
            ..Default::default()
        };
        let with_sync = SurgeConfig {
            lb_period: 4,
            ..base
        };
        let a = run_surge(2, base);
        let b = run_surge(2, with_sync);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wet_history, y.wet_history);
        }
    }
}
