//! Rank migration under PIEglobals, step by step.
//!
//! Builds a two-PE machine, parks a rank holding live privatized state
//! (globals + a heap buffer + its suspended ULT stack), migrates it
//! between PEs, shows that everything survives, and demonstrates the
//! `pieglobalsfind` debugging facility translating a privatized address
//! back to its original image location.
//!
//! ```text
//! cargo run --release -p pvr-bench --example migration_demo
//! ```

use bytes::Bytes;
use pvr_apps::surge;
use pvr_privatize::Method;
use pvr_rts::{MachineBuilder, RankCtx, RtsMessage, Topology};
use std::sync::Arc;

fn main() {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|ctx: RankCtx| {
        if ctx.rank() != 0 {
            return;
        }
        let inst = ctx.instance();
        let dt = inst.access("s_dt");
        dt.write_f64(0.123456);
        let buf = ctx.heap_alloc(8 << 20, 8);
        unsafe { std::ptr::write_bytes(buf, 0x5A, 8 << 20) };
        println!(
            "[rank 0] wrote globals + 8 MB heap, parking on PE {}",
            ctx.my_pe()
        );
        let _ = ctx.recv(); // park; the driver migrates us while suspended
        println!("[rank 0] woke up on PE {}", ctx.my_pe());
        assert_eq!(dt.read_f64(), 0.123456, "privatized global survived");
        assert_eq!(unsafe { *buf.add(4 << 20) }, 0x5A, "heap survived");
        println!("[rank 0] all state intact after migration");
    });

    let binary = surge::binary();
    let step_offset = binary.fn_offset_of("surge_step").unwrap();
    let mut machine = MachineBuilder::new(binary) // 14 MB code segment
        .method(Method::PieGlobals)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .build(body)
        .expect("machine builds");

    machine.drive_rank(0).expect("rank parks");
    println!(
        "\nrank 0 memory footprint: {:.1} MB (heap + stack + TLS + code/data copies)",
        machine.rank_migration_bytes(0) as f64 / 1e6
    );

    // pieglobalsfind: translate rank 0's privatized addresses back to the
    // original image — how a debugger recovers symbols for the manually
    // copied segments (§3.3).
    let inst = machine.rank_instance(0).clone();
    let data_addr = inst.access("s_dt").ptr() as usize;
    let code_addr = inst.code_base() + step_offset;
    for (what, addr) in [("data: &s_dt", data_addr), ("code: surge_step", code_addr)] {
        let f = machine
            .privatizer(0)
            .find_original(addr)
            .expect("pieglobalsfind resolves");
        println!(
            "pieglobalsfind({what} = {addr:#x}) -> rank {}, {} segment, original {:#x}, symbol {:?}",
            f.rank, f.segment, f.original_addr, f.symbol
        );
    }

    let rec = machine.migrate_now(0, 1).expect("migration succeeds");
    println!(
        "\nmigrated rank 0: PE {} -> PE {}, moved {:.1} MB in {:.2} ms (+{:.2} ms simulated wire)",
        rec.from_pe,
        rec.to_pe,
        rec.bytes as f64 / 1e6,
        rec.real_time.as_secs_f64() * 1e3,
        std::time::Duration::from(rec.sim_cost).as_secs_f64() * 1e3,
    );

    machine.inject_message(RtsMessage::new(1, 0, 0, Bytes::new()));
    machine.run().expect("finish");
    println!("\nPIPglobals/FSglobals would have refused this migration (Table 3).");
}
