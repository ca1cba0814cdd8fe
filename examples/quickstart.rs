//! Quickstart: the paper's Fig. 2/3 scenario, end to end.
//!
//! Runs the "MPI hello world with a mutable global" program twice with 2
//! virtual ranks in one OS process: once unprivatized (reproducing the
//! wrong `rank: 1 / rank: 1` output of Fig. 3) and once under PIEglobals
//! (correct output), then prints the method matrix.
//!
//! ```text
//! cargo run --release -p pvr-bench --example quickstart
//! ```

use parking_lot::Mutex;
use pvr_ampi::Ampi;
use pvr_apps::hello;
use pvr_bench::render_table;
use pvr_privatize::{matrix, Method};
use pvr_rts::{MachineBuilder, Topology};
use std::sync::Arc;

fn run_hello(method: Method, vps: usize) -> Vec<hello::HelloOutput> {
    let outputs = Arc::new(Mutex::new(Vec::new()));
    let out = outputs.clone();
    let mut machine = MachineBuilder::new(hello::binary())
        .method(method)
        .topology(Topology::smp(1))
        .vp_ratio(vps)
        .build(Arc::new(move |ctx| {
            let mpi = Ampi::init(ctx);
            // NB: run first, lock after — holding a process-wide lock
            // across a blocking MPI call would deadlock the cooperative
            // scheduler (both ULTs share this OS thread).
            let output = hello::run(&mpi);
            out.lock().push(output);
        }))
        .expect("machine builds");
    machine.run().expect("run succeeds");
    let mut v = outputs.lock().clone();
    v.sort_by_key(|o| o.expected_rank);
    v
}

fn main() {
    println!("== ./hello_world +vp 2  (no privatization) ==");
    for o in run_hello(Method::Unprivatized, 2) {
        println!(
            "rank: {}   {}",
            o.printed_rank,
            if o.printed_rank == o.expected_rank {
                ""
            } else {
                "<-- WRONG (the Fig. 3 bug: the global is shared)"
            }
        );
    }

    println!("\n== ./hello_world +vp 2  (-pieglobals) ==");
    for o in run_hello(Method::PieGlobals, 2) {
        assert_eq!(o.printed_rank, o.expected_rank);
        println!("rank: {}", o.printed_rank);
    }

    let (headers, rows) = matrix::cells(&matrix::table3());
    let table = render_table("Method matrix:", &headers, &rows);
    println!("\n{table}");
    println!("Try the other examples: jacobi3d, storm_surge, migration_demo.");
}
