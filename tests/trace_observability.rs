//! Acceptance test for the `pvr-trace` observability layer: a traced
//! virtual-time Jacobi-3D run (overdecomposed, with load balancing)
//! must produce a JSON trace whose event counts reconcile exactly with
//! the scheduler's own `RunReport` — and a machine with no tracer must
//! record nothing anywhere.

use pvr_bench::tracing_exp::{self, TraceRunConfig};
use pvr_trace::{json_u64, Tracer};

fn cfg() -> TraceRunConfig {
    TraceRunConfig::default()
}

#[test]
fn traced_jacobi_counts_match_run_report() {
    let run = tracing_exp::run(&cfg());
    let c = &run.snapshot.counts;
    let r = &run.report;

    for (row, traced, reported) in r.trace_rows(c) {
        assert_eq!(traced, reported, "{row}");
    }
    assert!(r.lb_steps >= 1, "AMPI_Migrate rounds must drive LB");

    // sends and deliveries balance (no in-flight messages at exit)
    assert_eq!(c.msgs_sent, c.msgs_recv);
    assert_eq!(c.send_bytes, c.recv_bytes);
    // every block has a matching wake
    assert_eq!(c.blocks, c.unblocks);
    // each migration is one pack + one unpack of the rank's regions
    assert_eq!(c.region_copies, 2 * c.migrations as u64);
    // PIEglobals context switches install the GOT register every time
    assert_eq!(c.priv_installs, c.ctx_switches);
    // instantiation: code+data+TLS segment copies and a GOT fixup per rank
    let n_ranks = (cfg().cores * cfg().vp_ratio) as u64;
    assert_eq!(c.got_fixups, n_ranks);
    assert_eq!(c.segment_copies, 3 * n_ranks);
    assert!(c.mpi_calls > 0, "AMPI entry points must be traced");
}

#[test]
fn json_export_reconciles_with_run_report() {
    let run = tracing_exp::run(&cfg());
    let json = run.snapshot.to_json();

    // the acceptance check goes through the *serialized* trace: the
    // numbers a consumer reads back must match the RunReport (a row is
    // named after the counter it reads, which is its key in `counts`)
    for (row, _, reported) in run.report.trace_rows(&run.snapshot.counts) {
        assert_eq!(json_u64(&json, row), Some(reported), "{row}");
    }
    assert_eq!(json_u64(&json, "n_pes"), Some(cfg().cores as u64));
    assert_eq!(json_u64(&json, "dropped"), Some(run.snapshot.dropped));

    // structural sanity: balanced braces/brackets, no NaN/Infinity
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);
    assert!(!json.contains("NaN") && !json.contains("inf"));
}

#[test]
fn trace_is_deterministic_in_virtual_time() {
    // virtual-time scheduling is deterministic, so two identical runs
    // must produce identical aggregate counts
    let a = tracing_exp::run(&cfg());
    let b = tracing_exp::run(&cfg());
    assert_eq!(a.snapshot.counts, b.snapshot.counts);
    assert_eq!(a.report.context_switches, b.report.context_switches);
}

#[test]
fn nonblocking_call_names_traced_correctly() {
    // Regression for two p2p tracing bugs: `test()` emitted no MpiCall
    // event at all, and `waitall()` recorded one "MPI_Wait" per request
    // instead of a single "MPI_Waitall".
    use bytes::Bytes;
    use pvr_ampi::{Ampi, COMM_WORLD};
    use pvr_privatize::Method;
    use pvr_rts::{ClockMode, MachineBuilder, RankCtx, Topology};
    use pvr_trace::EventKind;
    use std::sync::Arc;

    const N: usize = 6;
    const TESTS: usize = 3;
    let tracer = Tracer::with_capacity(2, 64 * 1024);
    tracer.enable();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        if mpi.rank() == 0 {
            let reqs: Vec<_> = (0..N)
                .map(|t| mpi.irecv(COMM_WORLD, Some(1), Some(t as u32)))
                .collect();
            for r in reqs.iter().take(TESTS) {
                let _ = mpi.test(r);
            }
            mpi.send_bytes(COMM_WORLD, 1, 99, Bytes::new()); // go signal
            let _ = mpi.waitall(reqs);
        } else {
            let _ = mpi.recv_bytes(COMM_WORLD, Some(0), Some(99));
            for t in 0..N {
                mpi.send_bytes(COMM_WORLD, 0, t as u32, Bytes::from(vec![t as u8]));
            }
        }
        mpi.finalize();
    });
    let mut machine = MachineBuilder::new(pvr_apps::jacobi3d::binary())
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .clock(ClockMode::Virtual)
        .stack_size(256 * 1024)
        .tracer(tracer.clone())
        .build(body)
        .expect("machine builds");
    machine.run().expect("run succeeds");

    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring must hold the whole run");
    let calls = |wanted: &str| -> usize {
        snap.per_pe
            .iter()
            .flat_map(|p| &p.events)
            .filter(|e| matches!(e.kind, EventKind::MpiCall { name } if name == wanted))
            .count()
    };
    assert_eq!(calls("MPI_Test"), TESTS, "each test() is one MPI_Test");
    assert_eq!(calls("MPI_Waitall"), 1, "waitall() is ONE MPI_Waitall");
    assert_eq!(calls("MPI_Wait"), 0, "waitall() must not masquerade as waits");
    assert_eq!(calls("MPI_Irecv"), N);
}

#[test]
fn req_tallies_reconcile_with_trace_counts() {
    // The PR 1 convention: every RunReport tally that has a trace event
    // kind must reconcile exactly with the recorded counts. `leaked` has
    // no row — it is tallied at rank completion, after the request's own
    // events, and emits no event of its own.
    use bytes::Bytes;
    use pvr_ampi::{util, Ampi, COMM_WORLD};
    use pvr_privatize::Method;
    use pvr_rts::{ClockMode, MachineBuilder, RankCtx, Topology};
    use std::sync::Arc;

    let tracer = Tracer::new(2);
    tracer.enable();
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        if mpi.rank() == 0 {
            // one suspension wait, one continuation, one leaked request
            let r = mpi.irecv(COMM_WORLD, Some(1), Some(1));
            let _ = mpi.wait(r);
            mpi.recv_then(COMM_WORLD, Some(1), Some(2), |_mpi, b, _st| {
                assert_eq!(util::bytes_to_f64s(&b), vec![2.0]);
            });
            while mpi.pending_continuations() > 0 {
                mpi.progress_wait();
            }
            // tag 998 is never sent: this request stays pending forever
            let _leaked = mpi.irecv(COMM_WORLD, Some(1), Some(998));
        } else {
            mpi.send_f64s(COMM_WORLD, 0, 1, &[1.0]);
            mpi.send_f64s(COMM_WORLD, 0, 2, &[2.0]);
            let s = mpi.isend_bytes(COMM_WORLD, 0, 999, Bytes::new());
            // the payload for tag 999 is never received — but the send
            // itself completes, so waiting on it must not hang
            mpi.wait_send(s);
        }
        mpi.finalize();
    });
    let mut machine = MachineBuilder::new(pvr_apps::jacobi3d::binary())
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .clock(ClockMode::Virtual)
        .stack_size(256 * 1024)
        .tracer(tracer.clone())
        .build(body)
        .expect("machine builds");
    let report = machine.run().expect("run succeeds");

    let c = tracer.counts();
    for (row, traced, reported) in report.trace_rows(&c) {
        assert_eq!(traced, reported, "{row}");
    }
    let r = &report.req;
    assert_eq!(r.continuations, 1);
    assert!(r.wait_blocks >= 1, "the suspension wait must block");
    assert_eq!(r.leaked, 1, "the abandoned irecv is tallied at finalize");
    // leaked requests post but never complete
    assert_eq!(c.req_posts, c.req_completes + r.leaked);
}

#[test]
fn disabled_tracer_records_nothing() {
    // attached but never enabled: hooks must stay silent
    use pvr_ampi::Ampi;
    use pvr_apps::jacobi3d::{self, JacobiConfig};
    use pvr_privatize::Method;
    use pvr_rts::{ClockMode, MachineBuilder, RankCtx, Topology};
    use std::sync::Arc;

    let tracer = Tracer::new(2);
    let jcfg = JacobiConfig {
        nx: 8,
        ny: 8,
        nz: 2,
        iters: 2,
    };
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        let mpi = Ampi::init(ctx);
        let _ = jacobi3d::run(&mpi, jcfg);
    });
    let mut machine = MachineBuilder::new(jacobi3d::binary())
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(2))
        .vp_ratio(2)
        .clock(ClockMode::Virtual)
        .stack_size(256 * 1024)
        .tracer(tracer.clone())
        .build(body)
        .expect("machine builds");
    let report = machine.run().expect("run succeeds");
    assert!(report.context_switches > 0);
    let snap = tracer.snapshot();
    assert_eq!(snap.counts.total_events(), 0, "disabled tracer must be silent");
    assert_eq!(snap.dropped, 0);
}
