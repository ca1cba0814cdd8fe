//! Integration: correctness expectations for every privatization method,
//! across the full stack (progimage → privatize → rts → ampi → app).
//!
//! This is the paper's Table 1/3 in executable form: which methods make
//! the Fig. 2 hello-world correct, which leave documented holes
//! (Swapglobals' statics, TLSglobals' untagged variables), and which
//! refuse their unsupported environments.

use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::hello;
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_privatize::methods::{Options, TagPolicy};
use pvr_privatize::{Method, Toolchain};
use pvr_progimage::{link, ImageSpec, SharedFs};
use pvr_rts::{ClockMode, MachineBuilder, MachineConfig, RankCtx, Topology};
use std::collections::HashSet;
use std::sync::Arc;

fn hello_outputs(method: Method, toolchain: Toolchain, vps: usize) -> Vec<hello::HelloOutput> {
    let outputs = Arc::new(Mutex::new(Vec::new()));
    let out = outputs.clone();
    let mut machine = MachineBuilder::new(hello::binary())
        .method(method)
        .toolchain(toolchain)
        .topology(Topology::smp(1))
        .vp_ratio(vps)
        .build(Arc::new(move |ctx| {
            let mpi = Ampi::init(ctx);
            // run first, lock after: holding the lock across the barrier
            // inside hello::run would deadlock the cooperative scheduler
            let o = hello::run(&mpi);
            out.lock().push(o);
        }))
        .unwrap();
    machine.run().unwrap();
    let mut v = outputs.lock().clone();
    v.sort_by_key(|o| o.expected_rank);
    v
}

#[test]
fn correct_methods_fix_hello_world() {
    for (method, toolchain) in [
        (Method::ManualRefactor, Toolchain::bridges2()),
        (Method::TlsGlobals, Toolchain::bridges2()),
        (Method::PipGlobals, Toolchain::bridges2()),
        (Method::FsGlobals, Toolchain::bridges2()),
        (Method::PieGlobals, Toolchain::bridges2()),
        (Method::Swapglobals, Toolchain::legacy_ld()),
    ] {
        for o in hello_outputs(method, toolchain, 4) {
            assert_eq!(
                o.printed_rank, o.expected_rank,
                "{method}: my_rank is a Global — every method here must privatize it"
            );
        }
    }
}

#[test]
fn unprivatized_is_wrong_with_multiple_vps_but_fine_with_one() {
    let outs = hello_outputs(Method::Unprivatized, Toolchain::bridges2(), 1);
    assert_eq!(outs[0].printed_rank, 0);
    let outs = hello_outputs(Method::Unprivatized, Toolchain::bridges2(), 3);
    assert!(outs.iter().any(|o| o.printed_rank != o.expected_rank));
}

#[test]
fn swapglobals_leaves_statics_shared() {
    // A variant of hello using a *static* — Swapglobals can't see it.
    let bin = link(
        ImageSpec::builder("hello_static")
            .static_var("my_rank", 8)
            .build(),
    );
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx| {
        let mpi = Ampi::init(ctx);
        let acc = mpi.ctx().instance().access("my_rank");
        acc.write_u64(mpi.rank() as u64);
        mpi.barrier(pvr_ampi::COMM_WORLD);
        r2.lock().push((mpi.rank(), acc.read_u64()));
    });
    let mut machine = MachineBuilder::new(bin)
        .method(Method::Swapglobals)
        .toolchain(Toolchain::legacy_ld())
        .vp_ratio(2)
        .build(body)
        .unwrap();
    machine.run().unwrap();
    let v = results.lock().clone();
    assert!(
        v.iter().any(|&(rank, seen)| seen != rank as u64),
        "statics must remain shared under Swapglobals (the documented hole): {v:?}"
    );
}

#[test]
fn tlsglobals_partial_tagging_leaks() {
    // User tags `num_ranks` but forgets `my_rank`.
    let tags = TagPolicy::Set(HashSet::from(["num_ranks".to_string()]));
    let opts = Options {
        tls_tags: tags,
        ..Default::default()
    };
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx| {
        let mpi = Ampi::init(ctx);
        let o = hello::run(&mpi);
        r2.lock().push(o);
    });
    let mut cfg = MachineConfig::new(hello::binary());
    cfg.method = Method::TlsGlobals;
    cfg.options = opts;
    cfg.vp_ratio = 2;
    let mut machine = cfg.build(body).unwrap();
    machine.run().unwrap();
    let v = results.lock().clone();
    assert!(
        v.iter().any(|o| o.printed_rank != o.expected_rank),
        "an untagged mutable global must still exhibit the bug"
    );
}

/// One fallback-chain cell: toolchain, shared-FS cap, ranks, requested
/// method, the method it must land on and the fallbacks that takes.
type Cell = (fn() -> Toolchain, Option<usize>, usize, Method, Method, u64);

const STOCK: fn() -> Toolchain = Toolchain::bridges2;
const PATCHED: fn() -> Toolchain = Toolchain::with_patched_glibc;
const CRAMPED: Option<usize> = Some(1); // not even the deploy copy fits
const PIP: Method = Method::PipGlobals;
const FS: Method = Method::FsGlobals;
const PIE: Method = Method::PieGlobals;

/// Run each cell with the default chain (pipglobals -> fsglobals ->
/// pieglobals) enabled. It must land on the predicted method after
/// probing all three, take the predicted number of fallbacks, and
/// produce hello outputs identical to a direct (strict-mode) run of the
/// landed method — degradation changes the mechanism, never the answer.
fn assert_cells_land(cells: &[Cell]) {
    let run = |toolchain: Toolchain, fs_cap: Option<usize>, vps: usize, method: Method, fallback: bool| {
        let outputs = Arc::new(Mutex::new(Vec::new()));
        let out = outputs.clone();
        let fs = Arc::new(Mutex::new(match fs_cap {
            Some(c) => SharedFs::with_capacity(c),
            None => SharedFs::new(),
        }));
        let mut b = MachineBuilder::new(hello::binary())
            .method(method)
            .toolchain(toolchain)
            .shared_fs(Some(fs))
            .topology(Topology::smp(1))
            .vp_ratio(vps);
        if fallback {
            b = b.fallback(true);
        }
        let mut machine = b
            .build(Arc::new(move |ctx| {
                let mpi = Ampi::init(ctx);
                let o = hello::run(&mpi);
                out.lock().push(o);
            }))
            .unwrap();
        let report = machine.run().unwrap();
        let landed = machine.method();
        let mut v = outputs.lock().clone();
        v.sort_by_key(|o| o.expected_rank);
        (landed, (report.hardening.probes, report.hardening.fallbacks), v)
    };

    for &(tc, fs_cap, vps, requested, expect, fallbacks) in cells {
        let cell = format!("requested {requested} with {vps} ranks (fs cap {fs_cap:?})");
        let (landed, chain, outs) = run(tc(), fs_cap, vps, requested, true);
        assert_eq!((landed, chain), (expect, (3, fallbacks)), "{cell}");
        assert_eq!(outs.len(), vps);
        for o in &outs {
            assert_eq!(
                o.printed_rank, o.expected_rank,
                "{landed} at {vps} ranks must still privatize my_rank"
            );
        }
        let (direct_landed, _, direct) = run(tc(), fs_cap, vps, expect, false);
        assert_eq!(direct_landed, expect, "direct run must not degrade");
        assert_eq!(
            outs, direct,
            "degraded run must be bit-identical to a direct {expect} run"
        );
    }
}

/// The fallback-chain matrix: glibc flavor × shared-FS room × rank
/// count, always *requesting* PIPglobals.
#[test]
fn fallback_chain_matrix_lands_and_matches_direct_runs() {
    assert_cells_land(&[
        // stock glibc, roomy FS: the 12-namespace budget decides
        (STOCK, None, 8, PIP, PIP, 0),
        (STOCK, None, 12, PIP, PIP, 0),
        (STOCK, None, 16, PIP, FS, 1),
        (STOCK, None, 64, PIP, FS, 1),
        // stock glibc, cramped FS: past the budget it falls through to PIE
        (STOCK, CRAMPED, 8, PIP, PIP, 0),
        (STOCK, CRAMPED, 16, PIP, PIE, 2),
        (STOCK, CRAMPED, 64, PIP, PIE, 2),
        // patched glibc lifts the namespace cap: PIPglobals as requested
        (PATCHED, None, 16, PIP, PIP, 0),
        (PATCHED, None, 64, PIP, PIP, 0),
        (PATCHED, CRAMPED, 64, PIP, PIP, 0),
    ]);
}

/// The fallback landing table at 16 ranks (past the stock glibc's
/// 12-namespace budget): each method of the chain requested in each of
/// three environments.
#[test]
fn fallback_cells_land_where_the_environment_allows() {
    assert_cells_land(&[
        // stock glibc, roomy FS: a roomy FS catches pip
        (STOCK, None, 16, PIP, FS, 1),
        (STOCK, None, 16, FS, FS, 0),
        (STOCK, None, 16, PIE, PIE, 0),
        // stock glibc, cramped FS: everything degrades to pieglobals
        (STOCK, CRAMPED, 16, PIP, PIE, 2),
        (STOCK, CRAMPED, 16, FS, PIE, 2),
        (STOCK, CRAMPED, 16, PIE, PIE, 0),
        // patched glibc: every method runs as requested
        (PATCHED, None, 16, PIP, PIP, 0),
        (PATCHED, None, 16, FS, FS, 0),
        (PATCHED, None, 16, PIE, PIE, 0),
    ]);
}

/// The memory-safety guards on a migrating job: virtual-time Jacobi-3D
/// on 2 PEs x 4 ranks with two `AMPI_Migrate` rounds, under each method
/// of the fallback chain (patched glibc, so each lands as requested).
/// With guards on, each LB barrier runs one segment audit and nothing
/// trips; the residuals are those of the unguarded run.
#[test]
fn guards_audit_each_lb_barrier_and_never_trip() {
    let run = |method: Method, guards: bool| {
        let out = Arc::new(Mutex::new(Vec::new()));
        let sink = out.clone();
        let mut machine = MachineBuilder::new(jacobi3d::binary())
            .method(method)
            .toolchain(Toolchain::with_patched_glibc())
            .shared_fs(Some(Arc::new(Mutex::new(SharedFs::new()))))
            .topology(Topology::non_smp(2))
            .vp_ratio(4)
            .clock(ClockMode::Virtual)
            .stack_size(256 * 1024)
            .guards(guards)
            .build(Arc::new(move |ctx: RankCtx| {
                let mpi = Ampi::init(ctx);
                let cfg = JacobiConfig { nx: 8, ny: 8, nz: 2, iters: 4 };
                let residuals: Vec<f64> = (0..2)
                    .map(|_| {
                        let r = jacobi3d::run(&mpi, cfg).residual;
                        mpi.migrate();
                        r
                    })
                    .collect();
                sink.lock().push((mpi.rank(), residuals));
            }))
            .unwrap();
        let report = machine.run().unwrap();
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        (report.hardening, v)
    };
    for method in [Method::PipGlobals, Method::FsGlobals, Method::PieGlobals] {
        let (_, plain) = run(method, false);
        let (h, guarded) = run(method, true);
        assert_eq!(guarded, plain, "{method}: guards changed results");
        let trips = h.stack_guard_trips + h.arena_guard_trips;
        assert_eq!((h.segment_audits, trips), (2, 0), "{method}: {h:?}");
    }
}

/// Regression: requesting FSglobals on a node with *no* shared
/// filesystem mounted used to panic (`.unwrap()` on the absent mount
/// inside the privatizer) instead of degrading. With the fallback chain
/// enabled it must fall through to another method and run to
/// completion; in strict mode it must surface a configuration error —
/// never a panic.
#[test]
fn fsglobals_without_shared_fs_degrades_cleanly() {
    let outputs = Arc::new(Mutex::new(Vec::new()));
    let out = outputs.clone();
    let vps = 8; // within PIPglobals' 12-namespace budget
    let mut machine = MachineBuilder::new(hello::binary())
        .method(Method::FsGlobals)
        .toolchain(Toolchain::bridges2())
        .shared_fs(None)
        .fallback(true)
        .topology(Topology::smp(1))
        .vp_ratio(vps)
        .build(Arc::new(move |ctx| {
            let mpi = Ampi::init(ctx);
            let o = hello::run(&mpi);
            out.lock().push(o);
        }))
        .unwrap();
    machine.run().unwrap();
    assert_eq!(
        machine.method(),
        Method::PipGlobals,
        "default chain must land on PIPglobals when the FS is missing"
    );
    let v = outputs.lock().clone();
    assert_eq!(v.len(), vps);
    for o in &v {
        assert_eq!(o.printed_rank, o.expected_rank);
    }

    // Strict mode: a clean error, not a panic.
    let err = MachineBuilder::new(hello::binary())
        .method(Method::FsGlobals)
        .toolchain(Toolchain::bridges2())
        .shared_fs(None)
        .topology(Topology::smp(1))
        .vp_ratio(2)
        .build(Arc::new(|_ctx| {}));
    assert!(
        err.is_err(),
        "strict FSglobals without a shared FS must be a config error"
    );
}

#[test]
fn environment_gates_enforced_end_to_end() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    // Swapglobals on the paper's Bridges-2 toolchain: refused.
    assert!(MachineBuilder::new(hello::binary())
        .method(Method::Swapglobals)
        .toolchain(Toolchain::bridges2())
        .build(body.clone())
        .is_err());
    // PIP/PIE need glibc.
    for m in [Method::PipGlobals, Method::PieGlobals] {
        assert!(MachineBuilder::new(hello::binary())
            .method(m)
            .toolchain(Toolchain::macos())
            .build(body.clone())
            .is_err());
    }
    // MPC needs a patched compiler.
    assert!(MachineBuilder::new(hello::binary())
        .method(Method::MpcPrivatize)
        .toolchain(Toolchain::bridges2())
        .build(body.clone())
        .is_err());
    // ...but works (sans migration) with one.
    let mut t = Toolchain::bridges2();
    t.compiler.mpc_patched = true;
    let m = MachineBuilder::new(hello::binary())
        .method(Method::MpcPrivatize)
        .toolchain(t)
        .vp_ratio(2)
        .build(body)
        .unwrap();
    assert!(!m.privatizer(0).supports_migration());
}

#[test]
fn mpc_privatize_fixes_hello_given_patched_compiler() {
    let mut t = Toolchain::bridges2();
    t.compiler.mpc_patched = true;
    for o in hello_outputs(Method::MpcPrivatize, t, 4) {
        assert_eq!(o.printed_rank, o.expected_rank);
    }
}

#[test]
fn photran_works_on_fortran_programs_end_to_end() {
    // surge is declared Fortran; Photran applies.
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        let inst = ctx.instance();
        let acc = inst.access("s_step");
        acc.write_u64(ctx.rank() as u64 + 100);
        ctx.yield_now();
        assert_eq!(acc.read_u64(), ctx.rank() as u64 + 100);
    });
    let mut machine = MachineBuilder::new(pvr_apps::surge::binary_with_code(1 << 20))
        .method(Method::Photran)
        .vp_ratio(2)
        .build(body)
        .unwrap();
    machine.run().unwrap();
}
