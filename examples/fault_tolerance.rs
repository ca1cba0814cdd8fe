//! Checkpoint/restart fault tolerance — the §2.1 payoff of migratable
//! rank memory, demonstrated end to end.
//!
//! Three acts:
//!
//! 1. **Soft fault + rollback**: an iterative computation checkpoints at
//!    every load-balancing sync point; a re-run scribbles all rank
//!    memories at the third sync, and the runtime restores every rank's
//!    heap, stack, privatized globals, and suspended execution context
//!    from the last checkpoint — bit-identical results.
//! 2. **Lossy network**: the same computation in virtual time over an
//!    inter-node fabric that drops, duplicates, and corrupts messages.
//!    The ack/retransmit transport repairs every loss; the fault tallies
//!    show the repair work, the results don't change.
//! 3. **PE failure**: one PE dies mid-run. The survivors roll back to the
//!    buddy checkpoint, adopt the dead PE's ranks, and finish on a
//!    shrunken machine — again bit-identical, with the whole recovery
//!    visible in the trace.
//!
//! ```text
//! cargo run --release -p pvr-bench --example fault_tolerance
//! ```

use bytes::Bytes;
use parking_lot::Mutex;
use pvr_apps::hello;
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, SimDuration};
use pvr_privatize::Method;
use pvr_rts::{ClockMode, MachineBuilder, RankCtx, RunReport, Topology};
use pvr_trace::Tracer;
use std::sync::Arc;

fn body(results: Arc<Mutex<Vec<(usize, f64)>>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        // Checkpoint-compliant state: rank heap + stack scalars.
        let field = ctx.heap_alloc_f64s(1024);
        let mut acc = ctx.rank() as f64 + 1.0;
        for step in 0..8u64 {
            for (i, v) in field.iter_mut().enumerate() {
                *v += acc * (i as f64 + 1.0).sqrt();
            }
            // lock-step ring exchange, drained before the sync point
            let partner = (ctx.rank() + 1) % ctx.n_ranks();
            ctx.send(partner, step, Bytes::copy_from_slice(&acc.to_le_bytes()));
            let m = ctx.recv();
            acc = acc * 1.1 + f64::from_le_bytes(m.payload[..8].try_into().unwrap());
            ctx.at_sync(); // checkpoint site
        }
        let checksum: f64 = field.iter().sum::<f64>() + acc;
        results.lock().push((ctx.rank(), checksum));
    })
}

fn run(fault: bool) -> (Vec<(usize, f64)>, u32, u32) {
    let results = Arc::new(Mutex::new(Vec::new()));
    let mut builder = MachineBuilder::new(hello::binary())
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(2))
        .vp_ratio(2)
        .checkpoint_period(1);
    if fault {
        builder = builder.inject_fault_at_lb_step(3);
    }
    let mut machine = builder.build(body(results.clone())).expect("machine builds");
    machine.run().expect("run completes");
    let (ckpts, recoveries) = machine.fault_tolerance_stats();
    let mut r = results.lock().clone();
    r.sort_by_key(|&(rank, _)| rank);
    (r, ckpts, recoveries)
}

/// Acts 2 and 3 — the same ring computation in virtual time on 3 nodes,
/// optionally over a lossy network and/or with a PE killed mid-run.
fn run_virtual(
    lossy: bool,
    kill_pe: Option<usize>,
) -> (Vec<(usize, f64)>, RunReport, Arc<Tracer>) {
    let results = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(3);
    tracer.enable();
    let mut network = NetworkModel::ideal();
    if lossy {
        network = network.with_faults(FaultPlan::new(7).with_class(
            HopClass::InterNode,
            FaultParams {
                drop_p: 0.10,
                dup_p: 0.05,
                corrupt_p: 0.02,
                jitter_max: SimDuration::from_nanos(400),
            },
        ));
    }
    let mut builder = MachineBuilder::new(hello::binary())
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(3))
        .vp_ratio(2)
        .clock(ClockMode::Virtual)
        .network(network)
        .checkpoint_period(1)
        .tracer(tracer.clone());
    if let Some(pe) = kill_pe {
        builder = builder.inject_pe_failure_at_lb_step(3, pe);
    }
    let mut machine = builder.build(body(results.clone())).expect("machine builds");
    let report = machine.run().expect("run completes");
    let mut r = results.lock().clone();
    r.sort_by_key(|&(rank, _)| rank);
    (r, report, tracer)
}

fn main() {
    println!("== act 1: clean run, checkpointing at every sync point ==");
    let (clean, ckpts, rec) = run(false);
    println!("checkpoints: {ckpts}, recoveries: {rec}");
    for (rank, sum) in &clean {
        println!("rank {rank}: checksum {sum:.6}");
    }

    println!("\n== act 1: faulty run — memory corrupted at sync point 3 ==");
    let (faulty, ckpts, rec) = run(true);
    println!("checkpoints: {ckpts}, recoveries: {rec}");
    for (rank, sum) in &faulty {
        println!("rank {rank}: checksum {sum:.6}");
    }
    assert_eq!(clean, faulty, "recovered run must match the clean run");
    println!("recovered results are bit-identical — rollback worked.");
    println!("(PIPglobals/FSglobals could not do this: their segments are not in Isomalloc.)");

    println!("\n== act 2: lossy inter-node network, reliable delivery ==");
    let (ideal, _, _) = run_virtual(false, None);
    let (lossy, report, _) = run_virtual(true, None);
    let f = &report.faults;
    println!(
        "injected: {} drops, {} ack drops, {} duplicates, {} corruptions",
        f.msgs_dropped, f.acks_dropped, f.duplicates_injected, f.msgs_corrupted
    );
    println!(
        "repaired: {} retransmits, {} duplicates suppressed",
        f.retransmits, f.duplicates_suppressed
    );
    assert!(f.msgs_dropped > 0 && f.retransmits > 0, "faults must fire");
    assert_eq!(ideal, lossy, "transport must hide every network fault");
    println!("results identical to the ideal network — every loss was repaired.");

    println!("\n== act 3: lossy network AND PE 2 dies at sync point 3 ==");
    let (shrunk, report, tracer) = run_virtual(true, Some(2));
    let f = &report.faults;
    assert_eq!(f.pe_failures, 1);
    assert_eq!(f.recoveries, 1);
    assert_eq!(ideal, shrunk, "shrink recovery must not change results");
    println!("PE 2's ranks were restored from the buddy checkpoint and");
    println!("migrated to the survivors; results still bit-identical.");

    // Trace-derived summary: the tracer tallied the same recovery the
    // scheduler reported, event by event.
    let c = tracer.counts();
    println!("\ntrace-derived fault summary (independent of the RunReport):");
    println!(
        "  drops {} / retransmits {} / dups suppressed {} / corruptions {}",
        c.msg_drops, c.msg_retransmits, c.dup_suppressed, c.msg_corrupts
    );
    println!(
        "  checkpoints {} ({} bytes) / PE failures {} / rollbacks {}",
        c.checkpoints, c.checkpoint_bytes, c.pe_fails, c.recoveries
    );
    for (row, traced, reported) in report.trace_rows(&c) {
        assert_eq!(traced, reported, "trace/report {row}");
    }
    println!("\ntrace and RunReport agree — the recovery is fully observable.");
}
