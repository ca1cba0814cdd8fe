//! Jacobi-3D: 7-point stencil relaxation on a 3-D grid.
//!
//! The paper's microbenchmark subject (~100 source lines, ~3 MB code
//! segment): used for Fig. 7, where **all variables accessed in the
//! innermost computational loop are privatized global variables** — so
//! any per-access indirection a method imposes shows up multiplied by
//! every grid point.
//!
//! Decomposition: 1-D slabs along z, two ghost planes per rank, halo
//! exchange via `MPI_Sendrecv`, convergence via `MPI_Allreduce`.
//! Grid arrays live on the rank's Isomalloc heap (they migrate with it).
//!
//! The kernel is one `sweep`, shared with `serial_reference`: it zips six
//! row slices, so the inner loop has no bounds checks; it still calls
//! `omega()` (the privatized read) once per point and sums the residual
//! sequentially in (k, j, i) order; and the two grids swap roles after each
//! sweep instead of being copied back.

use pvr_ampi::{util, Ampi, Op, COMM_WORLD};
use pvr_progimage::{link, FunctionSpec, GlobalSpec, ImageSpec, ProgramBinary, VarClass};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Paper-reported code-segment size for the standalone Jacobi-3D: ~3 MB.
pub const JACOBI_CODE_BYTES: usize = 3 << 20;

/// Per-rank problem shape.
#[derive(Debug, Clone, Copy)]
pub struct JacobiConfig {
    /// Grid points per rank in x, y (global), and z (this rank's slab).
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub iters: usize,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            nx: 32,
            ny: 32,
            nz: 16,
            iters: 10,
        }
    }
}

/// The Jacobi-3D program image. The innermost-loop scalars — relaxation
/// weight `j_omega`, the dimensions, the convergence scratch — are
/// mutable globals, exactly the shape that forces privatization.
pub fn image_spec() -> ImageSpec {
    ImageSpec::builder("jacobi3d")
        .var(GlobalSpec::new("j_nx", 8, VarClass::Global))
        .var(GlobalSpec::new("j_ny", 8, VarClass::Global))
        .var(GlobalSpec::new("j_nz", 8, VarClass::Global))
        .var(
            GlobalSpec::new("j_omega", 8, VarClass::Global)
                .with_init(&(1.0f64 / 6.0).to_le_bytes()),
        )
        .static_var("j_iter", 8)
        .static_var("j_local_residual", 8)
        .function(FunctionSpec::new("jacobi_sweep", 4096))
        .function(FunctionSpec::new("halo_exchange", 2048))
        .code_padding(JACOBI_CODE_BYTES)
        .build()
}

pub fn binary() -> Arc<ProgramBinary> {
    link(image_spec())
}

/// Result of a run on one rank.
#[derive(Debug, Clone, Copy)]
pub struct JacobiStats {
    /// Global residual after the final iteration.
    pub residual: f64,
    /// Grid points updated per iteration on this rank.
    pub points_per_iter: usize,
    pub iters_done: u64,
}

/// Floating-point ops per grid point per sweep (6 adds + 2 muls).
pub const FLOPS_PER_POINT: f64 = 8.0;

/// Run the solver. Boundary condition: the global x==0 face is held at
/// 1.0, everything else starts 0 — heat diffuses inward, giving a
/// nonzero, deterministic answer to test against.
pub fn run(mpi: &Ampi, cfg: JacobiConfig) -> JacobiStats {
    let inst = mpi.ctx().instance();
    // privatized scalars used in the hot loop
    let g_nx = inst.access("j_nx");
    let g_ny = inst.access("j_ny");
    let g_nz = inst.access("j_nz");
    let g_omega = inst.access("j_omega");
    let g_iter = inst.access("j_iter");
    let g_res = inst.access("j_local_residual");

    g_nx.write_u64(cfg.nx as u64);
    g_ny.write_u64(cfg.ny as u64);
    g_nz.write_u64(cfg.nz as u64);

    let me = mpi.rank();
    let p = mpi.size();
    let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
    let plane = nx * ny;
    let volume = (nz + 2) * plane; // nz interior planes + 2 ghost planes
    let mut old: &mut [f64] = mpi.ctx().heap_alloc_f64s(volume);
    let mut new: &mut [f64] = mpi.ctx().heap_alloc_f64s(volume);
    // Dirichlet boundary: x == 0 face fixed at 1.0.
    old.iter_mut().step_by(nx).for_each(|x| *x = 1.0);
    new.iter_mut().step_by(nx).for_each(|x| *x = 1.0);

    let mut residual = 0.0;
    for iter in 0..cfg.iters {
        g_iter.write_u64(iter as u64);

        // halo exchange: ghost plane k=0 from rank below, k=nz+1 above
        // — nonblocking overlap idiom: post receives first, then sends,
        // then wait; delivery-time matching fills the requests while the
        // sends are still being posted.
        let below = if me > 0 { Some(me - 1) } else { None };
        let above = if me + 1 < p { Some(me + 1) } else { None };
        let r_above = above.map(|a| mpi.irecv(COMM_WORLD, Some(a), Some(100)));
        let r_below = below.map(|b| mpi.irecv(COMM_WORLD, Some(b), Some(101)));
        // send my lowest interior plane down, my highest up
        let mut sends = Vec::new();
        if let Some(b) = below {
            sends.push(mpi.isend_f64s(COMM_WORLD, b, 100, &old[plane..2 * plane]));
        }
        if let Some(a) = above {
            sends.push(mpi.isend_f64s(COMM_WORLD, a, 101, &old[nz * plane..(nz + 1) * plane]));
        }
        if let Some(req) = r_above {
            let (data, _) = mpi.wait(req);
            util::bytes_into_f64s(&data, &mut old[(nz + 1) * plane..]);
        }
        if let Some(req) = r_below {
            let (data, _) = mpi.wait(req);
            util::bytes_into_f64s(&data, &mut old[..plane]);
        }
        mpi.waitall_sends(sends);

        // the sweep — every scalar read through the privatization path
        let lnx = g_nx.read_u64() as usize;
        let lny = g_ny.read_u64() as usize;
        let lnz = g_nz.read_u64() as usize;
        let planes = owned_planes(me, p, lnz);
        g_res.write_f64(sweep(old, new, lnx, lny, planes, || g_omega.read_f64()));
        // swap, not copy: unwritten cells agree in both grids; ghosts are refilled first
        std::mem::swap(&mut old, &mut new);

        // declare modeled work for virtual-time runs
        if mpi.ctx().is_virtual_time() {
            let points = (lnx * lny * lnz) as f64;
            let cost = mpi
                .ctx()
                .work_model()
                .kernel_cost(points * FLOPS_PER_POINT, points * 8.0 * 2.0);
            mpi.compute(cost);
        }

        residual = mpi.allreduce(&[g_res.read_f64()], Op::Sum)[0];
    }

    JacobiStats {
        residual,
        points_per_iter: nx * ny * nz,
        iters_done: if cfg.iters == 0 {
            0
        } else {
            g_iter.read_u64() + 1
        },
    }
}

/// The planes rank `me` of `p` updates: `1..=nz` less the domain's first and last.
fn owned_planes(me: usize, p: usize, nz: usize) -> RangeInclusive<usize> {
    let first = if me == 0 { 2 } else { 1 };
    let last = if me + 1 < p { nz } else { nz.saturating_sub(1) };
    first..=last
}

/// Relax the interior of `planes` from `old` into `new` (plane-major); returns
/// `Σ |new − old|` over the points it updates, calling `omega` once per point.
fn sweep(
    old: &[f64],
    new: &mut [f64],
    nx: usize,
    ny: usize,
    planes: RangeInclusive<usize>,
    omega: impl Fn() -> f64,
) -> f64 {
    let plane = nx * ny;
    let mut res = 0.0;
    for k in planes {
        for j in 1..ny - 1 {
            let c = k * plane + j * nx;
            let row = &old[c..c + nx];
            let north = &old[c - nx..c];
            let south = &old[c + nx..c + 2 * nx];
            let back = &old[c - plane..c - plane + nx];
            let front = &old[c + plane..c + plane + nx];
            // zipped, not indexed, so the inner loop carries no bounds checks
            let lanes = (new[c + 1..c + nx].iter_mut().zip(row.windows(3)))
                .zip(north[1..].iter().zip(&south[1..]))
                .zip(back[1..].iter().zip(&front[1..]));
            for (((out, w), (n, s)), (b, f)) in lanes {
                let sum = w[0] + w[2] + n + s + b + f;
                let v = omega() * sum;
                res += (v - w[1]).abs();
                *out = v;
            }
        }
    }
    res
}

/// Serial reference implementation over the *global* grid (for tests):
/// the distributed answer must match this to rounding.
pub fn serial_reference(nx: usize, ny: usize, nz_total: usize, iters: usize) -> f64 {
    let volume = (nz_total + 2) * nx * ny;
    let mut a = vec![0.0f64; volume];
    a.iter_mut().step_by(nx).for_each(|x| *x = 1.0);
    let mut b = a.clone();
    let (mut old, mut new) = (&mut a[..], &mut b[..]);
    let mut residual = 0.0;
    for _ in 0..iters {
        residual = sweep(old, new, nx, ny, owned_planes(0, 1, nz_total), || 1.0 / 6.0);
        std::mem::swap(&mut old, &mut new);
    }
    residual
}

/// Hand the residual comparison a payload-check: pack stats for gather.
pub fn stats_to_bytes(s: &JacobiStats) -> bytes::Bytes {
    util::f64s_to_bytes(&[s.residual, s.points_per_iter as f64, s.iters_done as f64])
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use pvr_privatize::Method;
    use pvr_rts::{MachineBuilder, Topology};

    /// Residual bits of the kernel as first written (a triple-indexed loop
    /// that copied the grid back after every sweep): a kernel edit that
    /// changes the numerics fails here instead of drifting inside a
    /// tolerance. `serial_reference(12, 12, 12, 5)`:
    const SERIAL_12_BITS: u64 = 0x401e_7b42_5ed0_97d3;
    /// `distributed_matches_serial_reference`'s 3-rank PIEglobals run.
    const DIST_3X4_BITS: u64 = 0x401e_7b42_5ed0_97ac;

    /// Every rank's stats, in rank order.
    fn run_ranks(method: Method, ranks: usize, cfg: JacobiConfig) -> Vec<JacobiStats> {
        let stats = Arc::new(Mutex::new(vec![None; ranks]));
        let s2 = stats.clone();
        let mut m = MachineBuilder::new(binary())
            .method(method)
            .topology(Topology::smp(1))
            .vp_ratio(ranks)
            .stack_size(256 * 1024)
            .build(Arc::new(move |ctx| {
                let mpi = Ampi::init(ctx);
                let st = run(&mpi, cfg);
                s2.lock()[mpi.rank()] = Some(st);
            }))
            .unwrap();
        m.run().unwrap();
        let v = stats.lock();
        v.iter().map(|s| s.expect("every rank reports")).collect()
    }

    fn run_distributed(method: Method, ranks: usize, cfg: JacobiConfig) -> f64 {
        let v = run_ranks(method, ranks, cfg);
        // all ranks agree on the global residual (allreduce)
        for w in v.windows(2) {
            assert_eq!(w[0].residual, w[1].residual);
        }
        v[0].residual
    }

    #[test]
    fn distributed_matches_serial_reference() {
        let cfg = JacobiConfig {
            nx: 12,
            ny: 12,
            nz: 4,
            iters: 5,
        };
        let serial = serial_reference(12, 12, 4 * 3, 5);
        let dist = run_distributed(Method::PieGlobals, 3, cfg);
        assert!(
            (serial - dist).abs() < 1e-12,
            "distributed {dist} vs serial {serial}"
        );
        assert!(dist > 0.0, "heat must actually diffuse");
    }

    #[test]
    fn all_methods_compute_identical_results() {
        let cfg = JacobiConfig {
            nx: 10,
            ny: 10,
            nz: 4,
            iters: 3,
        };
        let reference = run_distributed(Method::ManualRefactor, 2, cfg);
        for method in [Method::TlsGlobals, Method::PipGlobals, Method::PieGlobals] {
            let r = run_distributed(method, 2, cfg);
            assert_eq!(r, reference, "{method} diverged");
        }
    }

    #[test]
    fn single_rank_no_halo() {
        let cfg = JacobiConfig {
            nx: 8,
            ny: 8,
            nz: 8,
            iters: 2,
        };
        let dist = run_distributed(Method::PieGlobals, 1, cfg);
        let serial = serial_reference(8, 8, 8, 2);
        assert!((dist - serial).abs() < 1e-12);
    }

    #[test]
    fn residual_decreases_towards_steady_state() {
        let r5 = serial_reference(10, 10, 10, 5);
        let r50 = serial_reference(10, 10, 10, 50);
        assert!(r50 < r5, "relaxation must converge: {r50} !< {r5}");
    }

    #[test]
    fn residual_bits_are_pinned() {
        assert_eq!(serial_reference(12, 12, 12, 5).to_bits(), SERIAL_12_BITS);
        let cfg = JacobiConfig {
            nx: 12,
            ny: 12,
            nz: 4,
            iters: 5,
        };
        assert_eq!(
            run_distributed(Method::PieGlobals, 3, cfg).to_bits(),
            DIST_3X4_BITS
        );
    }

    #[test]
    fn iters_done_counts_the_sweeps_run() {
        for iters in [0, 3] {
            let cfg = JacobiConfig {
                nx: 6,
                ny: 6,
                nz: 3,
                iters,
            };
            for st in run_ranks(Method::PieGlobals, 2, cfg) {
                assert_eq!(st.iters_done, iters as u64, "iters {iters}");
            }
        }
    }

    /// The kernel as first written: one triple-indexed loop over rank
    /// `me`'s planes, skipping the global domain's boundary planes.
    fn oracle(
        old: &[f64],
        new: &mut [f64],
        nx: usize,
        ny: usize,
        nz: usize,
        me: usize,
        p: usize,
    ) -> f64 {
        let omega = 1.0 / 6.0;
        let plane = nx * ny;
        let idx = |i: usize, j: usize, k: usize| k * plane + j * nx + i;
        let mut res = 0.0f64;
        for k in 1..=nz {
            if (me == 0 && k == 1) || (me == p - 1 && k == nz) {
                continue;
            }
            for j in 1..ny - 1 {
                for i in 1..nx - 1 {
                    let c = idx(i, j, k);
                    let sum = old[c - 1]
                        + old[c + 1]
                        + old[c - nx]
                        + old[c + nx]
                        + old[c - plane]
                        + old[c + plane];
                    let v = omega * sum;
                    res += (v - old[c]).abs();
                    new[c] = v;
                }
            }
        }
        res
    }

    /// `sweep` is the oracle bit for bit — every updated point and the
    /// residual — on odd shapes, on every rank position (first, middle,
    /// last, only) and on a one-plane slab; and it reads `omega` once
    /// per updated point, as the privatized read in the inner loop must.
    #[test]
    fn sweep_is_the_oracle_bit_for_bit() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut noise = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for nx in [3, 4, 7, 12] {
            for ny in [3, 4, 7, 12] {
                for nz in [1, 2, 5] {
                    for (me, p) in [(0, 1), (0, 3), (1, 3), (2, 3)] {
                        let volume = (nz + 2) * nx * ny;
                        let old: Vec<f64> = (0..volume).map(|_| noise()).collect();
                        let init: Vec<f64> = (0..volume).map(|_| noise()).collect();
                        let mut want = init.clone();
                        let want_res = oracle(&old, &mut want, nx, ny, nz, me, p);
                        let mut got = init;
                        let calls = std::cell::Cell::new(0usize);
                        let planes = owned_planes(me, p, nz);
                        let n_planes = planes.clone().count();
                        let got_res = sweep(&old, &mut got, nx, ny, planes, || {
                            calls.set(calls.get() + 1);
                            1.0 / 6.0
                        });
                        let case = format!("nx {nx} ny {ny} nz {nz} rank {me} of {p}");
                        assert_eq!(got_res.to_bits(), want_res.to_bits(), "{case}: residual");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{case}: grid");
                        assert_eq!(
                            calls.get(),
                            (nx - 2) * (ny - 2) * n_planes,
                            "{case}: omega reads"
                        );
                    }
                }
            }
        }
    }
}
