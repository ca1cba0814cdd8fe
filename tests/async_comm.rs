//! Acceptance for the nonblocking request engine (PR 9).
//!
//! The request subsystem's claim is that overlap is *only* a schedule
//! change: Isend/Irecv with delivery-time matching, continuations, and
//! the real-time rounds must produce bit-identical results to the
//! blocking reference — across serial and threaded engines, every
//! migratable privatization method, lossy networks, migration, and
//! PE-failure restore — and a rank that leaks request handles must
//! still finalize cleanly (tallied, not wedged).

use bytes::Bytes;
use parking_lot::Mutex;
use pvr_ampi::{util, Ampi, RecvReq, ANY_SOURCE, COMM_WORLD};
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::{
    lb::RotateLb, ClockMode, MachineBuilder, MachineConfig, MatchSpec, Parallelism, RankCtx,
    RtsError, RunReport,
};
use pvr_trace::{TraceCounts, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const METHODS: [Method; 3] = [Method::PieGlobals, Method::TlsGlobals, Method::CowGlobals];

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_class(
        HopClass::InterNode,
        FaultParams {
            drop_p: 0.25,
            dup_p: 0.15,
            corrupt_p: 0.05,
            jitter_max: SimDuration::from_nanos(500),
        },
    )
}

/// Per-rank data collected by a body, shared with the harness.
type RankData = Arc<Mutex<Vec<(usize, Vec<f64>)>>>;

struct Outcome {
    report: RunReport,
    counts: TraceCounts,
    /// Per-rank data collected by the body, sorted by rank.
    data: Vec<(usize, Vec<f64>)>,
}

/// Run `body` on a 3-PE inter-node machine in virtual time.
fn run_virtual(
    method: Method,
    par: Parallelism,
    vp: usize,
    lossy: bool,
    body: impl Fn(&Ampi, &Mutex<Vec<f64>>) + Send + Sync + 'static,
) -> Outcome {
    let out: RankData = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    let tracer = Tracer::new(3);
    tracer.enable();
    let mut network = NetworkModel::ideal();
    if lossy {
        network = network.with_faults(lossy_plan(7));
    }
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(method)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(3))
        .vp_ratio(vp)
        .stack_size(256 * 1024)
        .network(network)
        .tracer(tracer.clone())
        .build(Arc::new(move |ctx: RankCtx| {
            let mpi = Ampi::init(ctx);
            let collected = Mutex::new(Vec::new());
            body(&mpi, &collected);
            o2.lock().push((mpi.rank(), collected.into_inner()));
            mpi.finalize();
        }))
        .unwrap();
    let report = m.run().unwrap();
    let counts = tracer.counts();
    for (row, traced, reported) in report.trace_rows(&counts) {
        assert_eq!(traced, reported, "{method} {par:?} lossy={lossy}: {row}");
    }
    let mut data = out.lock().clone();
    data.sort_by_key(|d| d.0);
    Outcome { report, counts, data }
}

/// The overlap workload: ring halo exchange with the Irecv-first idiom,
/// wildcard receives on odd rounds, compute between post and wait.
fn overlap_body(mpi: &Ampi, collected: &Mutex<Vec<f64>>) {
    let me = mpi.rank();
    let p = mpi.size();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for round in 0..6u32 {
        let src = if round % 2 == 0 { Some(left) } else { None };
        let r = mpi.irecv(COMM_WORLD, src, Some(round));
        let payload = vec![me as f64 + round as f64; 64];
        let s = mpi.isend_f64s(COMM_WORLD, right, round, &payload);
        mpi.compute(SimDuration::from_micros(3));
        let (b, st) = mpi.wait(r);
        assert_eq!(st.source, left, "ring receive from the wrong neighbor");
        mpi.wait_send(s);
        let got = util::bytes_to_f64s(&b);
        collected.lock().push(got[0] + got[63] + st.tag as f64);
    }
}

#[test]
fn overlap_bit_identical_serial_vs_threads_across_methods() {
    for method in METHODS {
        for lossy in [false, true] {
            let serial = run_virtual(method, Parallelism::Serial, 2, lossy, overlap_body);
            assert!(!serial.data.is_empty(), "{method}: no results");
            assert!(serial.report.req.send_posts > 0, "{method}: engine unused");
            assert_eq!(serial.report.req.leaked, 0);
            let par = run_virtual(method, Parallelism::Threads(4), 2, lossy, overlap_body);
            assert_eq!(
                par.report.sim_digest(),
                serial.report.sim_digest(),
                "{method} lossy={lossy}: Threads(4) digest diverged from serial"
            );
            assert_eq!(
                par.data, serial.data,
                "{method} lossy={lossy}: received data diverged"
            );
            assert_eq!(
                par.counts, serial.counts,
                "{method} lossy={lossy}: trace event counts diverged"
            );
        }
    }
}

#[test]
fn wildcard_irecvs_complete_in_non_overtaking_order() {
    // Sender streams same-tag messages; the receiver posts wildcard
    // Irecvs and waits them out of order. Matching happens at post /
    // delivery time, so request i must still carry payload i — waiting
    // in a different order must not let later sends overtake.
    run_virtual(
        Method::PieGlobals,
        Parallelism::Auto,
        1,
        false,
        |mpi, collected| {
            const N: usize = 12;
            match mpi.rank() {
                0 => {
                    for i in 0..N {
                        mpi.send_bytes(COMM_WORLD, 1, 5, Bytes::from(vec![i as u8; i + 1]));
                    }
                }
                1 => {
                    // half the posts go up before any arrival can be
                    // processed, the rest after a sync point so some
                    // messages sit in the unexpected queue first
                    let mut reqs: Vec<_> = (0..N / 2)
                        .map(|_| mpi.irecv(COMM_WORLD, ANY_SOURCE, Some(5)))
                        .collect();
                    let (_, st) = mpi.recv_bytes(COMM_WORLD, Some(2), Some(9));
                    assert_eq!(st.source, 2);
                    reqs.extend((0..N / 2).map(|_| mpi.irecv(COMM_WORLD, ANY_SOURCE, Some(5))));
                    // wait in reverse posting order
                    for i in (0..N).rev() {
                        let req = reqs.remove(i);
                        let (b, st) = mpi.wait(req);
                        assert_eq!(st.source, 0);
                        assert_eq!(b.len(), i + 1, "send {i} overtook an earlier send");
                        assert_eq!(b[0], i as u8);
                        collected.lock().push(i as f64);
                    }
                }
                _ => {
                    mpi.send_bytes(COMM_WORLD, 1, 9, Bytes::new());
                }
            }
            mpi.barrier(COMM_WORLD);
        },
    );
}

/// Chain workload run two ways: rank 0 consumes its inbound messages
/// either by suspending in `wait` or via `recv_then` continuations.
fn chain_body(continuations: bool) -> impl Fn(&Ampi, &Mutex<Vec<f64>>) + Send + Sync {
    move |mpi, collected| {
        const ROUNDS: u32 = 5;
        let me = mpi.rank();
        if me == 0 {
            if continuations {
                for round in 0..ROUNDS {
                    mpi.recv_then(COMM_WORLD, Some(1), Some(round), move |mpi, b, st| {
                        let v = util::bytes_to_f64s(&b);
                        // reply from inside the handler: continuations can
                        // themselves communicate
                        mpi.send_f64s(COMM_WORLD, 1, 100 + st.tag, &[v[0] * 2.0]);
                    });
                }
                while mpi.pending_continuations() > 0 {
                    mpi.progress_wait();
                }
            } else {
                for round in 0..ROUNDS {
                    let r = mpi.irecv(COMM_WORLD, Some(1), Some(round));
                    let (b, st) = mpi.wait(r);
                    let v = util::bytes_to_f64s(&b);
                    mpi.send_f64s(COMM_WORLD, 1, 100 + st.tag, &[v[0] * 2.0]);
                }
            }
        } else if me == 1 {
            for round in 0..ROUNDS {
                mpi.send_f64s(COMM_WORLD, 0, round, &[round as f64 + 1.0]);
                let (v, _) = mpi.recv_f64s(COMM_WORLD, Some(0), Some(100 + round));
                collected.lock().push(v[0]);
            }
        }
        mpi.barrier(COMM_WORLD);
    }
}

#[test]
fn continuation_delivery_equivalent_to_suspension() {
    let waited = run_virtual(
        Method::PieGlobals,
        Parallelism::Auto,
        1,
        false,
        chain_body(false),
    );
    let cont = run_virtual(
        Method::PieGlobals,
        Parallelism::Auto,
        1,
        false,
        chain_body(true),
    );
    assert_eq!(cont.data, waited.data, "continuations changed the data");
    assert_eq!(
        cont.report.sim_digest_core(),
        waited.report.sim_digest_core(),
        "continuation delivery perturbed the core digest"
    );
    // ... but the two paths are distinguishable in the request tallies
    assert_eq!(cont.report.req.continuations, 5);
    assert_eq!(waited.report.req.continuations, 0);
}

#[test]
fn pending_requests_survive_migration() {
    // Rank 0 posts Irecvs and enters the migration barrier with them
    // still pending; RotateLB moves every rank, and the matching sends
    // only happen after the barrier — the restored request table on the
    // new PE must still match them.
    let out: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(Parallelism::Auto)
        .topology(Topology::non_smp(2))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .balancer(Box::new(RotateLb))
        .build(Arc::new(move |ctx: RankCtx| {
            let mpi = Ampi::init(ctx);
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..4)
                    .map(|t| mpi.irecv(COMM_WORLD, Some(1), Some(t)))
                    .collect();
                mpi.migrate();
                for (t, (b, st)) in mpi.waitall(reqs).into_iter().enumerate() {
                    assert_eq!(st.tag, t as u32);
                    assert_eq!(b[0], t as u8);
                    o2.lock().push(st.tag);
                }
            } else {
                mpi.migrate();
                if mpi.rank() == 1 {
                    for t in 0..4u32 {
                        mpi.send_bytes(COMM_WORLD, 0, t, Bytes::from(vec![t as u8]));
                    }
                }
            }
            mpi.finalize();
        }))
        .unwrap();
    let report = m.run().unwrap();
    assert_eq!(*out.lock(), vec![0, 1, 2, 3]);
    assert!(!report.migrations.is_empty(), "RotateLB must actually migrate");
    assert_eq!(report.req.recv_posts, 4);
    assert_eq!(report.req.recv_completes, 4);
    assert_eq!(report.req.leaked, 0);
}

fn jacobi_restore_run(par: Parallelism) -> (u64, Vec<(usize, Vec<f64>)>, TraceCounts) {
    let out: RankData = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    let tracer = Tracer::new(3);
    tracer.enable();
    let cfg = JacobiConfig {
        nx: 8,
        ny: 8,
        nz: 4,
        iters: 4,
    };
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .topology(Topology::non_smp(3))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .network(NetworkModel::ideal().with_faults(lossy_plan(42)))
        .checkpoint_period(1)
        .inject_pe_failure_at_lb_step(2, 2)
        .tracer(tracer.clone())
        .build(Arc::new(move |ctx: RankCtx| {
            let mpi = Ampi::init(ctx);
            let mut history = Vec::new();
            for _round in 0..3 {
                // jacobi3d's halo exchange is the Isend/Irecv overlap
                // idiom since PR 9, so every round exercises the request
                // engine under drops, dups, and corruption; waitall
                // quiesces all requests before the at_sync boundary
                let stats = jacobi3d::run(&mpi, cfg);
                history.push(stats.residual);
                mpi.migrate();
            }
            o2.lock().push((mpi.rank(), history));
        }))
        .unwrap();
    let report = m.run().unwrap();
    let mut data = out.lock().clone();
    data.sort_by_key(|d| d.0);
    assert!(report.req.send_posts > 0, "halo must use the request engine");
    assert_eq!(report.req.leaked, 0, "quiesced ranks leak nothing");
    (report.sim_digest(), data, tracer.counts())
}

#[test]
fn nonblocking_halo_survives_pe_failure_restore_bit_identically() {
    let (sd, sres, scounts) = jacobi_restore_run(Parallelism::Serial);
    let (pd, pres, pcounts) = jacobi_restore_run(Parallelism::Threads(4));
    assert_eq!(pd, sd, "digest diverged across engines under PE failure");
    assert_eq!(pres, sres, "residual history diverged");
    assert_eq!(pcounts, scounts, "trace counts diverged");
    // the failure-free residuals must also match: recovery is exact
    let clean = {
        let out: RankData = Arc::new(Mutex::new(Vec::new()));
        let o2 = out.clone();
        let cfg = JacobiConfig {
            nx: 8,
            ny: 8,
            nz: 4,
            iters: 4,
        };
        let mut m = MachineBuilder::new(jacobi3d::binary())
            .method(Method::PieGlobals)
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(3))
            .vp_ratio(2)
            .stack_size(256 * 1024)
            .build(Arc::new(move |ctx: RankCtx| {
                let mpi = Ampi::init(ctx);
                let mut history = Vec::new();
                for _ in 0..3 {
                    history.push(jacobi3d::run(&mpi, cfg).residual);
                    mpi.migrate();
                }
                o2.lock().push((mpi.rank(), history));
            }))
            .unwrap();
        m.run().unwrap();
        let mut data = out.lock().clone();
        data.sort_by_key(|d| d.0);
        data
    };
    assert_eq!(sres, clean, "faults + restore changed the numerics");
}

#[test]
fn leaked_requests_are_tallied_and_finalize_stays_clean() {
    let outcome = run_virtual(
        Method::PieGlobals,
        Parallelism::Auto,
        1,
        false,
        |mpi, _collected| {
            match mpi.rank() {
                0 => {
                    // never matched: no rank ever sends tag 77 to rank 0
                    let _forgotten = mpi.irecv(COMM_WORLD, Some(1), Some(77));
                    // completed but never reaped: handle dropped after send
                    let _unreaped = mpi.isend_bytes(COMM_WORLD, 1, 3, Bytes::from(vec![1u8]));
                }
                1 => {
                    let (b, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(3));
                    assert_eq!(&b[..], &[1u8]);
                }
                _ => {}
            }
            mpi.barrier(COMM_WORLD);
        },
    );
    assert!(
        outcome.report.req.leaked >= 2,
        "both abandoned requests must be tallied, got {}",
        outcome.report.req.leaked
    );
}

/// The benchmark's `msg_window` regime at test size: 8 ranks in a ring
/// (`non_smp(4)` x vp 2), 50 rounds of 64 `irecv` + 64 `isend_bytes` of
/// 32 B, `waitall`, `waitall_sends`. Nothing else that could suspend a
/// rank: no barrier, no blocking receive.
fn window_run(par: Parallelism, backend: pvr_ult::Backend) -> RunReport {
    const WINDOW: usize = 64;
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .parallelism(par)
        .ult_backend(backend)
        .topology(Topology::non_smp(4))
        .vp_ratio(2)
        .stack_size(256 * 1024)
        .build(Arc::new(|ctx: RankCtx| {
            let mpi = Ampi::init(ctx);
            let (me, p) = (mpi.rank(), mpi.size());
            let (succ, pred) = ((me + 1) % p, (me + p - 1) % p);
            for _ in 0..50 {
                let recvs: Vec<_> = (0..WINDOW)
                    .map(|_| mpi.irecv(COMM_WORLD, Some(pred), Some(7)))
                    .collect();
                let sends: Vec<_> = (0..WINDOW)
                    .map(|k| mpi.isend_bytes(COMM_WORLD, succ, 7, Bytes::from(vec![k as u8; 32])))
                    .collect();
                assert_eq!(mpi.waitall(recvs).len(), WINDOW);
                mpi.waitall_sends(sends);
            }
            mpi.finalize();
        }))
        .unwrap();
    m.run().unwrap()
}

/// Posting costs no context switch: a rank is switched in once to start
/// and once after each wait that really suspended it, and never for an
/// `irecv`, an `isend` or a wait that was already satisfied. Exact, so a
/// change that puts a switch back on every command fails here
/// (`scripts/ci.sh` repeats this test under both thread counts).
#[test]
fn only_a_rank_that_must_wait_leaves_its_stack() {
    let serial = window_run(Parallelism::Serial, pvr_ult::Backend::native());
    assert_eq!(serial.messages_delivered, 8 * 64 * 50);
    assert_eq!(serial.req.recv_posts, 8 * 64 * 50);
    assert!(serial.req.wait_blocks > 0, "some wait must really suspend");
    assert_eq!(
        serial.context_switches,
        8 + serial.req.wait_blocks,
        "one switch per first resume and one per real suspension"
    );
    let threads = window_run(Parallelism::Threads(2), pvr_ult::Backend::native());
    assert_eq!(threads.sim_digest(), serial.sim_digest());
    // handlers run on the carrier thread of a `Backend::Thread` rank
    let carrier = window_run(Parallelism::Serial, pvr_ult::Backend::Thread);
    assert_eq!(carrier.sim_digest(), serial.sim_digest());
    assert_eq!(carrier.context_switches, serial.context_switches);
}

/// The real-time hand-off: 8 ranks in a ring on `non_smp(4)` x vp 2, so
/// the hops are same-PE (0 -> 1), deposited inline, and cross-PE
/// (1 -> 2, 7 -> 0), moved into the target lane's inbox at the end of
/// the round. 50 rounds of 64-deep `req_post_recv` / `req_post_send`
/// windows, 20 runs per engine — `Threads(4)` oversubscribes a 2-core
/// host: every message arrives exactly once, in its pair's order, and
/// every run of every engine follows the same schedule.
#[test]
fn real_time_windows_arrive_once_and_in_pair_order_on_every_hop() {
    const WINDOW: u64 = 64;
    const ROUNDS: u64 = 50;
    let mut schedule = None;
    for par in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        for run in 0..20 {
            let misordered = Arc::new(Mutex::new(Vec::new()));
            let sink = misordered.clone();
            let mut m = MachineBuilder::new(jacobi3d::binary())
                .method(Method::TlsGlobals)
                .clock(ClockMode::RealTime)
                .parallelism(par)
                .topology(Topology::non_smp(4))
                .vp_ratio(2)
                .build(Arc::new(move |ctx: RankCtx| {
                    let (me, n) = (ctx.rank(), ctx.n_ranks());
                    let (succ, pred) = ((me + 1) % n, (me + n - 1) % n);
                    let from_pred = MatchSpec {
                        src: Some(pred),
                        ..MatchSpec::ANY
                    };
                    for round in 0..ROUNDS {
                        let mut ids: Vec<u64> =
                            (0..WINDOW).map(|_| ctx.req_post_recv(from_pred)).collect();
                        for k in 0..WINDOW {
                            let seq = round * WINDOW + k;
                            let payload = Bytes::copy_from_slice(&seq.to_le_bytes());
                            ids.push(ctx.req_post_send(succ, 0, payload));
                        }
                        let outcomes = ctx.req_wait(ids, false, false);
                        for (k, (_, msg)) in outcomes.iter().take(WINDOW as usize).enumerate() {
                            let msg = msg.as_ref().expect("a receive completes with its message");
                            let got = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
                            if got != round * WINDOW + k as u64 {
                                sink.lock().push((me, round, k, got));
                            }
                        }
                    }
                }))
                .unwrap();
            let report = m.run().unwrap();
            let what = format!("{par:?} run {run}");
            assert_eq!(*misordered.lock(), [], "{what}: (rank, round, slot, got)");
            assert_eq!(report.messages_delivered, 8 * ROUNDS * WINDOW, "{what}");
            let counts = (
                report.context_switches,
                report.req.wait_blocks,
                report.messages_delivered,
                report.engine.epochs,
            );
            assert_eq!(*schedule.get_or_insert(counts), counts, "{what}: schedule moved");
        }
    }
}

#[test]
fn a_rank_that_never_waits_finishes_in_one_context_switch() {
    let mut m = MachineBuilder::new(jacobi3d::binary())
        .method(Method::TlsGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(1))
        .build(Arc::new(|ctx: RankCtx| {
            for _ in 0..100 {
                ctx.compute(SimDuration::from_micros(1));
                let p = ctx.heap_alloc(64, 8);
                ctx.heap_free(p, 64);
                assert!(ctx.try_recv_match(MatchSpec::ANY).is_none());
            }
        }))
        .unwrap();
    let report = m.run().unwrap();
    assert_eq!(report.sim_elapsed, SimDuration::from_micros(100));
    assert_eq!(report.context_switches, 1);
}

/// The 3-PE machine of [`run_virtual`], one rank per PE, run to the
/// error `body` must end it in.
fn run_to_error(
    configure: impl FnOnce(MachineBuilder) -> MachineBuilder,
    body: impl Fn(&Ampi) + Send + Sync + 'static,
) -> RtsError {
    let builder = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(3))
        .stack_size(256 * 1024);
    configure(builder)
        .build(Arc::new(move |ctx: RankCtx| body(&Ampi::init(ctx))))
        .unwrap()
        .run()
        .map(|_| ())
        .unwrap_err()
}

#[test]
fn irecv_past_the_request_cap_is_request_overflow() {
    const CAP: usize = 4;
    for par in [Parallelism::Serial, Parallelism::Threads(2)] {
        let err = run_to_error(
            |b| b.parallelism(par).max_outstanding_reqs(CAP),
            |mpi| {
                if mpi.rank() == 1 {
                    // never matched, never reaped: the CAP + 1st post is the overflow
                    for tag in 0..=CAP as u32 {
                        let _leaked = mpi.irecv(COMM_WORLD, Some(0), Some(tag));
                    }
                }
                mpi.barrier(COMM_WORLD);
            },
        );
        match err {
            RtsError::RequestOverflow {
                rank: 1,
                outstanding: CAP,
                limit: CAP,
            } => {}
            other => panic!("{par:?}: expected RequestOverflow on rank 1, got {other:?}"),
        }
    }
}

#[test]
fn continuations_nested_past_the_depth_cap_fail_the_rank_not_the_process() {
    // Each closure registers the next link and drives progress from
    // inside itself: one nesting level per message, twelve messages.
    fn nest(mpi: &Ampi, tag: u32) {
        mpi.recv_then(COMM_WORLD, Some(0), Some(tag), move |mpi, _, _| {
            nest(mpi, tag + 1);
            mpi.progress_wait();
        });
    }
    let err = run_to_error(
        |b| b,
        |mpi| match mpi.rank() {
            0 => (0..12).for_each(|tag| mpi.send_bytes(COMM_WORLD, 1, tag, Bytes::new())),
            1 => {
                nest(mpi, 0);
                mpi.progress_wait();
            }
            _ => {}
        },
    );
    match err {
        RtsError::RankPanicked {
            rank: 1,
            ref message,
        } if message.contains("continuation depth cap (8) exceeded") => {}
        other => panic!("expected rank 1 to panic on the depth cap, got {other:?}"),
    }
}

/// Wall-clock ns per message with `depth` receives outstanding, over
/// about `msgs` messages per phase: `(posted, unexpected)`.
///
/// *Posted*: rank 0 posts `depth` exact-tag `Irecv`s, rank 1 sends the
/// matching messages youngest receive first (a front-to-back scan of the
/// posted queue walks all of it), rank 0 waits for all. *Unexpected*:
/// rank 1 sends `depth` distinct tags before rank 0 asks for any, then
/// rank 0 receives them newest first with blocking `Recv`s. Both clocks
/// run in rank 0 around the whole phase, so they hold the sender's and
/// the engine's share of every message too.
fn match_depth_ns(depth: usize, msgs: usize) -> (f64, f64) {
    const GO: u32 = u32::MAX;
    const DONE: u32 = u32::MAX - 1;
    let rounds = (msgs / depth).max(1);
    let spent = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let sink = spent.clone();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let tags = 0..depth as u32;
        let payload = Bytes::copy_from_slice(&[7u8; 32]);
        for _ in 0..rounds {
            if mpi.rank() == 0 {
                let t0 = Instant::now();
                let recvs: Vec<RecvReq> = tags
                    .clone()
                    .map(|t| mpi.irecv(COMM_WORLD, Some(1), Some(t)))
                    .collect();
                mpi.send_bytes(COMM_WORLD, 1, GO, Bytes::new());
                std::hint::black_box(mpi.waitall(recvs));
                sink[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t0 = Instant::now();
                mpi.send_bytes(COMM_WORLD, 1, GO, Bytes::new());
                mpi.recv_bytes(COMM_WORLD, Some(1), Some(DONE));
                for t in tags.clone().rev() {
                    std::hint::black_box(mpi.recv_bytes(COMM_WORLD, Some(1), Some(t)));
                }
                sink[1].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            } else {
                mpi.recv_bytes(COMM_WORLD, Some(0), Some(GO));
                for t in tags.clone().rev() {
                    mpi.send_bytes(COMM_WORLD, 0, t, payload.clone());
                }
                mpi.recv_bytes(COMM_WORLD, Some(0), Some(GO));
                for t in tags.clone() {
                    mpi.send_bytes(COMM_WORLD, 0, t, payload.clone());
                }
                mpi.send_bytes(COMM_WORLD, 0, DONE, Bytes::new());
            }
        }
    });
    let mut cfg = MachineConfig::new(jacobi3d::binary());
    cfg.method = Method::TlsGlobals;
    cfg.clock = ClockMode::Virtual;
    cfg.topology = Topology::non_smp(2);
    cfg.stack_size = 256 * 1024;
    cfg.max_outstanding_reqs = cfg.max_outstanding_reqs.max(depth);
    let mut m = cfg.build(body).unwrap();
    m.run().unwrap();
    let per_msg = |i: usize| spent[i].load(Ordering::Relaxed) as f64 / (rounds * depth) as f64;
    (per_msg(0), per_msg(1))
}

/// Best of `reps` runs of [`match_depth_ns`], per phase.
fn best_match_depth_ns(depth: usize, msgs: usize, reps: usize) -> (f64, f64) {
    (0..reps)
        .map(|_| match_depth_ns(depth, msgs))
        .fold((f64::INFINITY, f64::INFINITY), |best, run| {
            (best.0.min(run.0), best.1.min(run.1))
        })
}

/// ROADMAP item 5's acceptance: matching cost is flat in queue depth.
/// With 4096 receives outstanding a message costs less than twice what
/// it costs with 16, on the posted and on the unexpected queue (best of
/// five; a matcher that scans is 6-7x dearer at 4096 than at 16).
#[test]
fn matching_cost_is_flat_in_depth() {
    const MSGS: usize = 1 << 14;
    let shallow = best_match_depth_ns(16, MSGS, 5);
    let deep = best_match_depth_ns(4096, MSGS, 5);
    for (phase, at16, at4096) in [
        ("posted", shallow.0, deep.0),
        ("unexpected", shallow.1, deep.1),
    ] {
        assert!(
            at4096 < 2.0 * at16,
            "{phase} queue: {at4096:.0} ns/msg at depth 4096 vs {at16:.0} at depth 16"
        );
    }
}

/// The latency-hiding claim in exact virtual time: a 2-rank halo
/// exchange of 64 KiB planes with 10 us of compute per iteration, 20
/// iterations. Blocking pays latency then compute each iteration;
/// Isend/Irecv posted before the compute hides the transfer entirely, so
/// the nonblocking run takes as long as the compute-only floor.
#[test]
fn nonblocking_halo_hides_the_transfer_behind_compute() {
    #[derive(Clone, Copy)]
    enum Mode {
        Blocking,
        Nonblocking,
        ComputeOnly,
    }
    const ITERS: usize = 20;
    const HALO: usize = 8192;
    let run = |mode: Mode| -> (RunReport, Vec<(usize, f64)>) {
        let out: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = out.clone();
        let mut m = MachineBuilder::new(pvr_apps::hello::binary())
            .method(Method::PieGlobals)
            .clock(ClockMode::Virtual)
            .topology(Topology::non_smp(2))
            .vp_ratio(1)
            .build(Arc::new(move |ctx| {
                let mpi = Ampi::init(ctx);
                let me = mpi.rank();
                let partner = 1 - me;
                let compute = SimDuration::from_micros(10);
                let mut sum = 0.0f64;
                let mut plane = vec![0.0f64; HALO];
                for iter in 0..ITERS {
                    for (i, v) in plane.iter_mut().enumerate() {
                        *v = (iter * HALO + i) as f64 + me as f64;
                    }
                    let tag = iter as u32;
                    let got = match mode {
                        Mode::Blocking => {
                            mpi.send_f64s(COMM_WORLD, partner, tag, &plane);
                            let (got, _) = mpi.recv_f64s(COMM_WORLD, Some(partner), Some(tag));
                            mpi.compute(compute);
                            got
                        }
                        Mode::Nonblocking => {
                            let r = mpi.irecv(COMM_WORLD, Some(partner), Some(tag));
                            let s = mpi.isend_f64s(COMM_WORLD, partner, tag, &plane);
                            mpi.compute(compute);
                            let got = util::bytes_to_f64s(&mpi.wait(r).0);
                            mpi.wait_send(s);
                            got
                        }
                        Mode::ComputeOnly => {
                            mpi.compute(compute);
                            continue;
                        }
                    };
                    sum += got[0] + got[HALO - 1];
                }
                sink.lock().push((me, sum));
                mpi.finalize();
            }))
            .unwrap();
        let report = m.run().unwrap();
        let mut sums = out.lock().clone();
        sums.sort_by_key(|s| s.0);
        (report, sums)
    };
    let (block, block_sums) = run(Mode::Blocking);
    let (nb, nb_sums) = run(Mode::Nonblocking);
    let (comp, _) = run(Mode::ComputeOnly);
    assert_eq!(nb_sums, block_sums, "overlap changed the exchanged data");
    let ns = |r: &RunReport| r.sim_elapsed.nanos();
    assert_eq!((ns(&block), ns(&nb), ns(&comp)), (344_900, 200_000, 200_000));
    let r = &nb.req;
    assert_eq!((r.recv_posts, r.recv_completes, r.send_posts, r.leaked), (40, 40, 40, 0));
    assert_eq!((block.req.recv_posts, comp.req.recv_posts), (0, 0));
}
