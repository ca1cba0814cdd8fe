//! Fig. 8 — migration time vs per-rank heap size, TLSglobals vs
//! PIEglobals (and COWglobals, which the paper does not have).
//!
//! A rank is parked in `Recv`, then migrated back and forth between two
//! PEs; each migration packs the rank's memory into a wire buffer (real
//! memcpy), "transfers" it, and unpacks (real memcpy). Under TLSglobals
//! the rank's memory is heap + stack + TLS segment; under PIEglobals the
//! rank's 14 MB ADCIRC-sized code segment (plus data segment) travels
//! too. As heap grows from 1 MB to 100 MB, the code segment's share of
//! the cost shrinks — the paper's proportionality argument.
//!
//! `moved` is the logical image (every region whole: the figure's x-axis
//! and what the simulated wire is charged for); `stored` is what the wire
//! buffer held — each region's live extent. The payload heaps here are
//! written end to end, so the two differ only by the dead part of the
//! stack and the never-allocated tail of the rank's first heap chunk
//! (about 1 MB together), except under COWglobals: its code region is an all-zero ballast that keeps
//! the byte counts equal to PIEglobals' and is never stored, which is the
//! paper's §6 "migrate only code that differs" without a flag.

use crate::{fmt_dur, render_table};
use pvr_apps::surge;
use pvr_privatize::Method;
use pvr_rts::{Machine, MachineBuilder, RankCtx, Topology};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct MigrationRow {
    pub method: Method,
    pub label: String,
    pub heap_bytes: usize,
    pub migrated_bytes: usize,
    pub stored_bytes: usize,
    pub time: Duration,
    pub sim_network_cost: Duration,
}

fn build_parked_machine(method: Method, heap_bytes: usize, code_dedup: bool) -> Machine {
    let body: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(move |ctx: RankCtx| {
        if ctx.rank() == 0 {
            // allocate the heap payload, then park
            let buf = ctx.heap_alloc(heap_bytes, 8);
            // touch it so the memory is real, not lazily zero
            unsafe { std::ptr::write_bytes(buf, 0xA5, heap_bytes) };
            let _ = ctx.recv();
        }
    });
    let mut machine = MachineBuilder::new(surge::binary()) // 14 MB code
        .method(method)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .code_dedup_migration(code_dedup)
        .build(body)
        .expect("machine builds");
    machine.drive_rank(0).expect("rank parks in recv");
    machine
}

/// Measure one (method, heap size) point: median of `reps` migrations.
pub fn measure(method: Method, heap_bytes: usize, reps: usize) -> MigrationRow {
    measure_opt(method, heap_bytes, reps, false)
}

/// Like [`measure`], optionally with the future-work code-segment
/// dedup ("only migrate segments of code that differ across ranks").
pub fn measure_opt(
    method: Method,
    heap_bytes: usize,
    reps: usize,
    code_dedup: bool,
) -> MigrationRow {
    let mut machine = build_parked_machine(method, heap_bytes, code_dedup);
    let mut times = Vec::with_capacity(reps);
    let mut bytes = 0;
    let mut stored = 0;
    let mut sim = Duration::ZERO;
    for k in 0..reps {
        let to = (k + 1) % 2;
        let rec = machine.migrate_now(0, to).expect("migration allowed");
        times.push(rec.real_time);
        bytes = rec.bytes;
        stored = rec.stored_bytes;
        sim = rec.sim_cost.into();
    }
    times.sort();
    // unpark and finish so the machine tears down cleanly
    machine.inject_message(pvr_rts::RtsMessage::new(1, 0, 0, bytes::Bytes::new()));
    machine.run().expect("drain");
    MigrationRow {
        method,
        label: if code_dedup {
            format!("{method}+code-dedup")
        } else {
            method.to_string()
        },
        heap_bytes,
        migrated_bytes: bytes,
        stored_bytes: stored,
        time: times[times.len() / 2],
        sim_network_cost: sim,
    }
}

/// The figure's sweep: heap 1 MB → 100 MB, the paper's two migratable
/// methods, the code-dedup ablation (the paper's §6 future-work idea),
/// and COWglobals, whose code ballast is counted but never stored.
pub fn run(reps: usize) -> Vec<MigrationRow> {
    let mut rows = Vec::new();
    for &heap_mb in &[1usize, 3, 10, 32, 100] {
        rows.push(measure(Method::TlsGlobals, heap_mb << 20, reps));
    }
    for &heap_mb in &[1usize, 3, 10, 32, 100] {
        rows.push(measure(Method::PieGlobals, heap_mb << 20, reps));
    }
    for &heap_mb in &[1usize, 3, 10, 32, 100] {
        rows.push(measure_opt(Method::PieGlobals, heap_mb << 20, reps, true));
    }
    for &heap_mb in &[1usize, 3, 10, 32, 100] {
        rows.push(measure(Method::CowGlobals, heap_mb << 20, reps));
    }
    rows
}

pub fn report(reps: usize) -> String {
    let rows = run(reps);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{} MB", r.heap_bytes >> 20),
                format!("{:.1} MB", r.migrated_bytes as f64 / 1e6),
                format!("{:.1} MB", r.stored_bytes as f64 / 1e6),
                fmt_dur(r.time),
                fmt_dur(r.sim_network_cost),
            ]
        })
        .collect();
    render_table(
        "Fig. 8: Migration time vs rank heap size (14 MB ADCIRC-sized code segment; \
         PIEglobals additionally migrates the code+data copies, COWglobals counts \
         them and stores only written pages; lower is better)",
        &["method", "heap", "moved", "stored", "pack+unpack", "simulated wire"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pie_moves_code_tls_does_not() {
        let tls = measure(Method::TlsGlobals, 1 << 20, 3);
        let pie = measure(Method::PieGlobals, 1 << 20, 3);
        // PIE moves ≥ 14 MB more (code segment) than TLS at equal heap
        assert!(
            pie.migrated_bytes > tls.migrated_bytes + (14 << 20),
            "pie {} vs tls {}",
            pie.migrated_bytes,
            tls.migrated_bytes
        );
        assert!(pie.time > tls.time, "more bytes must cost more time");
    }

    #[test]
    fn code_share_shrinks_with_heap() {
        let small = measure(Method::PieGlobals, 1 << 20, 3);
        let big = measure(Method::PieGlobals, 64 << 20, 3);
        let small_overhead = small.migrated_bytes as f64 / (1u64 << 20) as f64;
        let big_overhead = big.migrated_bytes as f64 / (64u64 << 20) as f64;
        assert!(
            big_overhead < small_overhead / 4.0,
            "code segment share must shrink: {small_overhead:.1}x → {big_overhead:.2}x"
        );
        assert!(big.time > small.time);
    }

    #[test]
    fn cow_counts_the_code_it_does_not_store() {
        let pie = measure(Method::PieGlobals, 1 << 20, 3);
        let cow = measure(Method::CowGlobals, 1 << 20, 3);
        assert_eq!(cow.migrated_bytes, pie.migrated_bytes, "COW == PIE byte parity");
        assert!(pie.stored_bytes + (2 << 20) > pie.migrated_bytes, "real code copies travel");
        assert!(
            cow.stored_bytes + (14 << 20) < cow.migrated_bytes,
            "the ballast is counted, not carried: {} of {}",
            cow.stored_bytes,
            cow.migrated_bytes
        );
    }

    #[test]
    fn migration_preserves_parked_state() {
        // covered more deeply in tests/migration_and_lb.rs; here: the
        // machine finishes cleanly after repeated migrations.
        let row = measure(Method::PieGlobals, 2 << 20, 5);
        assert!(row.migrated_bytes > 2 << 20);
    }

    #[test]
    fn code_dedup_removes_the_pie_penalty() {
        let full = measure_opt(Method::PieGlobals, 1 << 20, 3, false);
        let dedup = measure_opt(Method::PieGlobals, 1 << 20, 3, true);
        let tls = measure(Method::TlsGlobals, 1 << 20, 3);
        assert!(
            full.migrated_bytes > dedup.migrated_bytes + (14 << 20),
            "dedup must drop the 14 MB code copy"
        );
        // with dedup, PIE migration approaches TLS volume (data segment
        // and GOT remain)
        assert!(dedup.migrated_bytes < tls.migrated_bytes + (4 << 20));
    }
}
