//! Integration: SMP mode (multiple PEs per OS process) vs non-SMP
//! (one process per PE) — Fig. 1's deployment shapes.
//!
//! Semantics must be identical; costs differ (intra-process messaging is
//! cheaper — the optimization Swapglobals' non-SMP restriction forfeits).

use parking_lot::Mutex;
use pvr_ampi::{Ampi, Op, COMM_WORLD};
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_privatize::Method;
use pvr_rts::{ClockMode, MachineBuilder, MachineConfig, RankCtx, Topology};
use std::sync::Arc;

fn jacobi_residual(method: Method, topo: Topology, ratio: usize) -> f64 {
    let cfg = JacobiConfig {
        nx: 16,
        ny: 16,
        nz: 4,
        iters: 4,
    };
    let out = Arc::new(Mutex::new(0.0));
    let o2 = out.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx| {
        let mpi = Ampi::init(ctx);
        let stats = jacobi3d::run(&mpi, cfg);
        *o2.lock() = stats.residual;
    });
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(method)
        .topology(topo)
        .vp_ratio(ratio)
        .stack_size(256 * 1024)
        .build(body)
        .unwrap();
    machine.run().unwrap();
    let v = *out.lock();
    v
}

#[test]
fn smp_and_non_smp_agree_numerically() {
    let smp = jacobi_residual(Method::PieGlobals, Topology::smp(4), 1);
    let non_smp = jacobi_residual(Method::PieGlobals, Topology::non_smp(4), 1);
    let multi_node = jacobi_residual(Method::PieGlobals, Topology::new(2, 1, 2), 1);
    assert_eq!(smp, non_smp);
    assert_eq!(smp, multi_node);
}

#[test]
fn smp_mode_messaging_is_cheaper_in_virtual_time() {
    let run = |topo: Topology| {
        let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
            let mpi = Ampi::init(ctx);
            for _ in 0..10 {
                let _ = mpi.allreduce(&[1.0], Op::Sum);
            }
        });
        let mut machine = MachineBuilder::new(jacobi3d::binary())
            .method(Method::PieGlobals)
            .topology(topo)
            .clock(ClockMode::Virtual)
            .build(body)
            .unwrap();
        machine.run().unwrap().sim_elapsed
    };
    let smp = run(Topology::smp(8));
    let non_smp = run(Topology::non_smp(8));
    assert!(
        smp < non_smp,
        "intra-process collectives must be cheaper: {smp:?} vs {non_smp:?}"
    );
}

#[test]
fn pip_namespaces_are_per_process_so_non_smp_scales_past_twelve() {
    // 16 ranks in ONE process exceeds stock glibc's namespaces...
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    assert!(MachineBuilder::new(jacobi3d::binary())
        .method(Method::PipGlobals)
        .topology(Topology::smp(2))
        .vp_ratio(8) // 16 ranks, one loader
        .build(body.clone())
        .is_err());
    // ...but 16 ranks across 4 processes is 4 per loader: fine. This is
    // exactly "limited w/o patched glibc" being an SMP-mode problem.
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PipGlobals)
        .topology(Topology::non_smp(4))
        .vp_ratio(4)
        .build(body)
        .unwrap();
    machine.run().unwrap();
}

#[test]
fn swapglobals_smp_rejection_but_non_smp_runs() {
    use pvr_privatize::Toolchain;
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        let mpi = Ampi::init(ctx);
        mpi.barrier(COMM_WORLD);
    });
    // SMP mode: refused (one GOT per process).
    assert!(MachineBuilder::new(jacobi3d::binary())
        .method(Method::Swapglobals)
        .toolchain(Toolchain::legacy_ld())
        .topology(Topology::smp(2))
        .build(body.clone())
        .is_err());
    // non-SMP: runs.
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(Method::Swapglobals)
        .toolchain(Toolchain::legacy_ld())
        .topology(Topology::non_smp(2))
        .vp_ratio(2)
        .build(body)
        .unwrap();
    machine.run().unwrap();
}

#[test]
fn overdecomposition_equivalence_across_ratios() {
    // same global problem, different vp ratios → same residual
    let r1 = jacobi_residual(Method::PieGlobals, Topology::smp(1), 4);
    let r2 = jacobi_residual(Method::PieGlobals, Topology::smp(2), 2);
    let r3 = jacobi_residual(Method::PieGlobals, Topology::smp(4), 1);
    assert_eq!(r1, r2);
    assert_eq!(r2, r3);
}

#[test]
fn hierarchical_local_storage_end_to_end() {
    // MPC HLS [21]: a Pe-level scratch variable is shared by co-resident
    // ranks but private across PEs — and a migrated rank sees its NEW
    // PE's copy (the storage belongs to the core, not the rank).
    use parking_lot::Mutex as PMutex;
    use pvr_privatize::methods::{HlsLevel, Options};
    use pvr_progimage::{link, ImageSpec};
    use std::collections::HashMap;

    let bin = link(
        ImageSpec::builder("hls-e2e")
            .global("rank_ctr", 8)
            .global("pe_ctr", 8)
            .build(),
    );
    let opts = Options {
        hls_levels: HashMap::from([("pe_ctr".to_string(), HlsLevel::Pe)]),
        ..Default::default()
    };
    let mut t = pvr_privatize::Toolchain::bridges2();
    t.compiler.mpc_patched = true;

    let observed: Arc<PMutex<Vec<(usize, u64, u64)>>> = Arc::new(PMutex::new(Vec::new()));
    let obs = observed.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx| {
        let inst = ctx.instance();
        let rank_ctr = inst.access("rank_ctr");
        let pe_ctr = inst.access("pe_ctr");
        // each rank bumps both counters twice, yielding in between so
        // co-resident ranks interleave
        for _ in 0..2 {
            rank_ctr.write_u64(rank_ctr.read_u64() + 1);
            pe_ctr.write_u64(pe_ctr.read_u64() + 1);
            ctx.yield_now();
        }
        obs.lock().push((ctx.rank(), rank_ctr.read_u64(), pe_ctr.read_u64()));
    });

    // SMP process with 2 PEs, 3 ranks each
    let mut cfg = MachineConfig::new(bin);
    cfg.method = Method::MpcPrivatize;
    cfg.options = opts;
    cfg.toolchain = t;
    cfg.topology = Topology::new(1, 1, 2);
    cfg.vp_ratio = 3;
    let mut machine = cfg.build(body).unwrap();
    machine.run().unwrap();

    let mut v = observed.lock().clone();
    v.sort();
    for &(rank, rank_ctr, pe_ctr) in &v {
        assert_eq!(rank_ctr, 2, "rank {rank}: rank-level counter is private");
        assert_eq!(
            pe_ctr, 6,
            "rank {rank}: PE-level counter accumulates all 3 co-resident ranks x 2"
        );
    }
}
