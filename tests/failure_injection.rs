//! Integration: failure injection — every documented limitation must
//! fail loudly, with the paper's failure mode, not corrupt silently.

use bytes::Bytes;
use parking_lot::Mutex;
use pvr_ampi::{Ampi, COMM_WORLD};
use pvr_apps::hello;
use pvr_privatize::{Method, PrivatizeError};
use pvr_progimage::{DlError, FsError, SharedFs};
use pvr_rts::{
    BarrierAction, ConfigError, Machine, MachineBuilder, MachineConfig, RankCtx, RtsError,
    Topology,
};
use std::sync::Arc;

/// `built` must be the typed build-time rejection whose text names `needle`.
fn assert_invalid(built: Result<Machine, ConfigError>, needle: &str) {
    match built {
        Err(ConfigError::Invalid { detail }) => {
            assert!(detail.contains(needle), "expected {needle:?} in: {detail}")
        }
        other => panic!(
            "expected Invalid for {needle:?}, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn pip_namespace_exhaustion_is_a_clean_startup_error() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    let err = MachineBuilder::new(hello::binary())
        .method(Method::PipGlobals)
        .vp_ratio(13)
        .build(body)
        .unwrap_err();
    match err {
        ConfigError::Startup(PrivatizeError::Dl(DlError::NamespaceExhausted { limit })) => {
            assert_eq!(limit, 12)
        }
        other => panic!("expected namespace exhaustion, got {other}"),
    }
}

#[test]
fn patched_glibc_unlocks_high_virtualization() {
    use pvr_privatize::Toolchain;
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    let mut machine = MachineBuilder::new(hello::binary())
        .method(Method::PipGlobals)
        .toolchain(Toolchain::with_patched_glibc())
        .vp_ratio(24)
        .build(body)
        .unwrap();
    machine.run().unwrap();
}

#[test]
fn fsglobals_out_of_quota_fails_startup() {
    let fs = Arc::new(Mutex::new(SharedFs::new()));
    fs.lock().set_capacity(Some(20 << 20)); // fits the binary once + a little
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    let err = MachineBuilder::new(pvr_apps::surge::binary()) // 14 MB binary
        .method(Method::FsGlobals)
        .shared_fs(Some(fs))
        .vp_ratio(8)
        .build(body)
        .unwrap_err();
    match err {
        ConfigError::Startup(PrivatizeError::Fs(FsError::NoSpace { .. })) => {}
        other => panic!("expected FS quota failure, got {other}"),
    }
}

#[test]
fn message_to_nonexistent_rank_is_a_protocol_error() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        ctx.send(99, 0, Bytes::new());
    });
    let mut machine = MachineBuilder::new(hello::binary()).build(body).unwrap();
    match machine.run() {
        Err(RtsError::Protocol { detail, .. }) => assert!(detail.contains("nonexistent")),
        other => panic!("expected protocol error, got {other:?}"),
    }
}

#[test]
fn cross_rank_deadlock_reported_with_culprits() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        let mpi = Ampi::init(ctx);
        if mpi.rank() == 0 {
            // rank 0 waits for a tag nobody sends
            let _ = mpi.recv_bytes(COMM_WORLD, Some(1), Some(42));
        }
    });
    let mut machine = MachineBuilder::new(hello::binary())
        .vp_ratio(2)
        .build(body)
        .unwrap();
    match machine.run() {
        Err(RtsError::Deadlock { waiting }) => assert_eq!(waiting, vec![0]),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn rank_panic_identifies_the_rank() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        if ctx.rank() == 2 {
            panic!("numerical blowup at step 7");
        }
    });
    let mut machine = MachineBuilder::new(hello::binary())
        .vp_ratio(4)
        .build(body)
        .unwrap();
    match machine.run() {
        Err(RtsError::RankPanicked { rank, message }) => {
            assert_eq!(rank, 2);
            assert!(message.contains("numerical blowup"));
        }
        other => panic!("expected rank panic, got {other:?}"),
    }
}

#[test]
fn migration_refused_for_pip_and_fs_at_runtime() {
    for method in [Method::PipGlobals, Method::FsGlobals] {
        let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.recv();
            }
        });
        let mut machine = MachineBuilder::new(hello::binary())
            .method(method)
            .topology(Topology::non_smp(2))
            .build(body)
            .unwrap();
        machine.drive_rank(0).unwrap();
        match machine.migrate_now(0, 1) {
            Err(RtsError::BadMigration { detail, .. }) => {
                assert!(detail.contains("Isomalloc"), "{method}: {detail}")
            }
            other => panic!("{method}: expected BadMigration, got {other:?}"),
        }
        machine.inject_message(pvr_rts::RtsMessage::new(1, 0, 0, Bytes::new()));
        machine.run().unwrap();
    }
}

#[test]
fn empty_pe_reduction_restriction_is_enforced() {
    // Covered at unit level in pvr-rts; here end-to-end: migrate the only
    // rank off PE 0, then ask PE 0 to combine a user reduction.
    use pvr_progimage::{link, FunctionSpec, ImageSpec};
    let bin = link(
        ImageSpec::builder("red")
            .global("g", 8)
            .function(FunctionSpec::new("combine", 64).with_callable(Arc::new(|_i, _o| {})))
            .build(),
    );
    let offset = bin.fn_offset_of("combine").unwrap();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        if ctx.rank() == 0 {
            let _ = ctx.recv();
        }
    });
    let mut machine = MachineBuilder::new(bin)
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(2))
        .build(body)
        .unwrap();
    machine.drive_rank(0).unwrap();
    machine.migrate_now(0, 1).unwrap();
    match machine.resolve_op_on_pe(0, offset) {
        Err(RtsError::EmptyPeReduction { pe }) => assert_eq!(pe, 0),
        other => panic!("expected EmptyPeReduction, got {:?}", other.map(|_| ())),
    }
    machine.inject_message(pvr_rts::RtsMessage::new(1, 0, 0, Bytes::new()));
    machine.run().unwrap();
}

#[test]
fn fault_injection_without_checkpoints_rejected_at_build_time() {
    // Both failure-injection knobs require a checkpoint to recover from;
    // the builder rejects the configuration before any rank exists.
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    for build in [
        MachineBuilder::new(hello::binary()).inject_fault_at_lb_step(2),
        MachineBuilder::new(hello::binary())
            .topology(Topology::non_smp(2))
            .inject_pe_failure_at_lb_step(2, 1),
    ] {
        assert_invalid(build.build(body.clone()), "checkpoint_period");
    }
}

#[test]
fn undersized_stack_rejected_at_build_time() {
    // Under the floor `pvr-ult` panics on (`stack region too small`);
    // `validate()` gets there first, whichever way the value came in.
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    let mut direct = MachineConfig::new(hello::binary());
    direct.stack_size = 256;
    assert_invalid(direct.build(body.clone()), "stack_size");
    let through_builder = MachineBuilder::new(hello::binary()).stack_size(256);
    assert_invalid(through_builder.build(body), "stack_size");
}

#[test]
fn zero_vp_ratio_rejected_at_build_time() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    let mut direct = MachineConfig::new(hello::binary());
    direct.vp_ratio = 0;
    assert_invalid(direct.build(body.clone()), "vp_ratio");
    let through_builder = MachineBuilder::new(hello::binary()).vp_ratio(0);
    assert_invalid(through_builder.build(body), "vp_ratio");
}

/// Checkpoint/restart across every migratable privatization method: a
/// run whose memory is scribbled mid-flight and rolled back must finish
/// bit-identical to the clean run — under PIEglobals, TLSglobals, and
/// Swapglobals alike (the checkpoint packs the method's privatized
/// segments exactly like a migration).
#[test]
fn checkpoint_restart_is_bit_identical_across_methods() {
    let body = |out: Arc<Mutex<Vec<(usize, f64, f64)>>>| -> Arc<dyn Fn(RankCtx) + Send + Sync> {
        Arc::new(move |ctx: RankCtx| {
            let data = ctx.heap_alloc_f64s(48);
            let mut acc: f64 = ctx.rank() as f64 + 1.0;
            for step in 0..5u64 {
                for v in data.iter_mut() {
                    *v += acc * 0.5;
                }
                let partner = (ctx.rank() + 1) % ctx.n_ranks();
                ctx.send(partner, step, Bytes::copy_from_slice(&acc.to_le_bytes()));
                let m = ctx.recv();
                acc = acc * 1.25 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
                ctx.at_sync();
            }
            out.lock().push((ctx.rank(), acc, data.iter().sum()));
        })
    };
    let run = |method: Method, fault_step: Option<u32>| -> Vec<(usize, f64, f64)> {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut b = MachineBuilder::new(hello::binary())
            .method(method)
            .topology(Topology::non_smp(2))
            .vp_ratio(2)
            .checkpoint_period(1);
        if method == Method::Swapglobals {
            // Swapglobals needs a GOT-preserving linker (Table 1)
            b = b.toolchain(pvr_privatize::Toolchain::legacy_ld());
        }
        if let Some(k) = fault_step {
            b = b.inject_fault_at_lb_step(k);
        }
        let mut m = b.build(body(out.clone())).unwrap();
        m.run().unwrap();
        let (ckpts, recov) = m.fault_tolerance_stats();
        assert!(ckpts >= 4, "{method}: checkpoints not taken");
        assert_eq!(recov, u32::from(fault_step.is_some()), "{method}");
        let mut v = out.lock().clone();
        v.sort_by_key(|r| r.0);
        v
    };
    for method in [Method::PieGlobals, Method::TlsGlobals, Method::Swapglobals] {
        let clean = run(method, None);
        let recovered = run(method, Some(3));
        assert_eq!(recovered, clean, "{method}: rollback diverged");
    }
}

/// Failure atomicity: when the only checkpoint predates a heap-layout
/// change (a new arena chunk), restore must detect the mismatch during
/// verification and fail cleanly — no rank memory half-unpacked, no
/// recovery counted, and the error names the cause.
#[test]
fn unrestorable_checkpoint_fails_atomically() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        ctx.at_sync(); // LB step 1: the only checkpoint (period 99)
        if ctx.rank() == 0 {
            // >1 MiB forces a fresh arena chunk: the layout no longer
            // matches the step-1 checkpoint image
            let big = ctx.heap_alloc_f64s(200_000);
            big[0] = 1.0;
        }
        ctx.at_sync(); // LB step 2
        ctx.at_sync(); // LB step 3: fault injected here
    });
    let mut m = MachineBuilder::new(hello::binary())
        .vp_ratio(2)
        .checkpoint_period(99) // checkpoints at steps 1, 100, ...
        .inject_fault_at_lb_step(3)
        .build(body)
        .unwrap();
    match m.run() {
        Err(RtsError::Protocol { detail, .. }) => {
            assert!(detail.contains("checkpoint restore failed"), "{detail}")
        }
        other => panic!("expected Protocol error, got {:?}", other.map(|_| ())),
    }
    let (ckpts, recov) = m.fault_tolerance_stats();
    assert_eq!(ckpts, 1, "only the step-1 checkpoint exists");
    assert_eq!(recov, 0, "failed restore must not count as a recovery");
}

/// Failure atomicity for the incremental protocol: a corrupted delta in
/// the chain must be caught by checksum verification *before* any rank
/// memory is touched — the restore aborts cleanly, names the cause, and
/// counts no recovery.
#[test]
fn corrupted_delta_chain_aborts_restore_atomically() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx| {
        let data = ctx.heap_alloc_f64s(16);
        for step in 0..4u64 {
            data[(step as usize) % 16] += ctx.rank() as f64 + 1.0;
            ctx.at_sync();
        }
    });
    let mut m = MachineBuilder::new(hello::binary())
        .vp_ratio(2)
        .checkpoint_period(1)
        .ckpt_incremental(true)
        .corrupt_ckpt_delta_at(2, 5) // flip a byte in the step-2 delta
        .inject_fault_at_lb_step(3) // ...then force a rollback through it
        .build(body)
        .unwrap();
    match m.run() {
        Err(RtsError::Protocol { detail, .. }) => {
            assert!(detail.contains("checksum mismatch"), "{detail}")
        }
        other => panic!("expected Protocol error, got {:?}", other.map(|_| ())),
    }
    let (_, recov) = m.fault_tolerance_stats();
    assert_eq!(recov, 0, "failed restore must not count as a recovery");
}

/// The incremental-checkpoint knobs must reject meaningless combinations
/// at build time, before any rank exists.
#[test]
fn incremental_ckpt_bad_configs_rejected_at_build_time() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    for (build, needle) in [
        (
            MachineBuilder::new(hello::binary()).ckpt_incremental(true),
            "checkpoint_period",
        ),
        (
            MachineBuilder::new(hello::binary())
                .checkpoint_period(1)
                .ckpt_incremental(true)
                .ckpt_max_chain(0),
            "ckpt_max_chain",
        ),
        (
            MachineBuilder::new(hello::binary())
                .checkpoint_period(1)
                .corrupt_ckpt_delta_at(2, 0),
            "requires ckpt_incremental",
        ),
        (
            MachineBuilder::new(hello::binary())
                .checkpoint_period(1)
                .ckpt_incremental(true)
                .corrupt_ckpt_delta_at(0, 0),
            "1-based",
        ),
    ] {
        assert_invalid(build.build(body.clone()), needle);
    }
}

/// Every way a `barrier_script` entry can be wrong, through the `pub`
/// field (what a scenario generator fills): `(action, defect) -> needle`.
#[test]
fn every_barrier_script_defect_is_rejected_by_validate() {
    use BarrierAction::*;
    // A 2-PE job with incremental checkpoints every step: every action
    // is acceptable at step 1, so each row below has exactly one defect.
    let ok = || {
        let mut cfg = MachineConfig::new(hello::binary());
        cfg.topology = Topology::non_smp(2);
        cfg.checkpoint_period = 1;
        cfg.ckpt_incremental = true;
        cfg
    };
    let all = [CorruptDelta { byte: 0 }, SoftFault, FailPe(1), RestoreGeometry(2), Rescale(2)];
    for action in all {
        let mut cfg = ok();
        cfg.barrier_script = vec![(1, action)];
        cfg.validate().unwrap_or_else(|e| panic!("{action:?} at step 1 is fine: {e}"));
    }
    type Defect = fn(&mut MachineConfig);
    let no_checkpoint: Defect = |c| (c.checkpoint_period, c.ckpt_incremental) = (0, false);
    let mut table: Vec<(u32, BarrierAction, Defect, &str)> = Vec::new();
    for action in all {
        table.push((0, action, |_| {}, "1-based"));
    }
    for action in [SoftFault, FailPe(1), RestoreGeometry(2)] {
        table.push((1, action, no_checkpoint, "checkpoint_period"));
    }
    for action in [RestoreGeometry(0), RestoreGeometry(3), Rescale(0), Rescale(3)] {
        table.push((1, action, |_| {}, "out of range (capacity is 2 PEs)"));
    }
    table.push((1, CorruptDelta { byte: 0 }, |c| c.ckpt_incremental = false, "requires ckpt_incremental"));
    table.push((1, FailPe(2), |_| {}, "PE 2 out of range"));
    table.push((1, FailPe(0), |c| c.topology = Topology::non_smp(1), "at least 2 PEs"));
    for (step, action, defect, needle) in table {
        let mut cfg = ok();
        defect(&mut cfg);
        // a sound entry ahead of it: the loop reaches every entry
        cfg.barrier_script = vec![(1, Rescale(1)), (step, action)];
        match cfg.validate() {
            Err(ConfigError::Invalid { detail }) => {
                assert!(detail.contains(needle), "{action:?}: expected {needle:?} in: {detail}");
                assert!(detail.contains(&format!("{action:?}")), "names the entry: {detail}");
            }
            other => panic!("{action:?} at step {step}: expected {needle:?}, got {other:?}"),
        }
    }
    // Rescale alone needs no checkpoint.
    let mut cfg = ok();
    no_checkpoint(&mut cfg);
    cfg.barrier_script = vec![(3, Rescale(1))];
    cfg.validate().unwrap();
}

/// Moving ranks needs a method that can: known only once a method has
/// landed, so `build()` — not `validate()` — refuses.
#[test]
fn rank_moving_actions_rejected_for_non_migratable_methods() {
    use BarrierAction::*;
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    for action in [FailPe(1), Rescale(1), RestoreGeometry(1)] {
        let mut cfg = MachineConfig::new(hello::binary());
        cfg.method = Method::PipGlobals;
        cfg.topology = Topology::non_smp(2);
        cfg.checkpoint_period = 1;
        cfg.barrier_script = vec![(2, action)];
        cfg.validate().unwrap();
        assert_invalid(cfg.build(body.clone()), "does not support migration");
    }
    // an action that moves nobody is fine on the same method
    let mut cfg = MachineConfig::new(hello::binary());
    cfg.method = Method::PipGlobals;
    cfg.checkpoint_period = 1;
    cfg.barrier_script = vec![(2, SoftFault)];
    cfg.build(body).unwrap();
}

#[test]
fn non_pie_binary_rejected_by_runtime_methods() {
    use pvr_progimage::{link, ImageSpec};
    let bin = link(ImageSpec::builder("legacy").pie(false).global("g", 8).build());
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx| {});
    for method in [Method::PipGlobals, Method::FsGlobals, Method::PieGlobals] {
        let err = MachineBuilder::new(bin.clone())
            .method(method)
            .build(body.clone())
            .unwrap_err();
        match err {
            ConfigError::Startup(PrivatizeError::Dl(DlError::NotPie { .. })) => {}
            other => panic!("{method}: expected NotPie, got {other}"),
        }
    }
}
