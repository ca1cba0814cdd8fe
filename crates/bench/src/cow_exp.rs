//! `cow` — COWglobals dedup/startup sweep (ranks × write locality).
//!
//! COWglobals claims two wins over eager PIEglobals: startup no longer
//! copies the data segment per rank, and resident memory grows with the
//! pages ranks actually *write*, not with ranks × segment. This
//! experiment measures both on the same data-heavy image as the `perf`
//! startup sweep, across rank counts and two write-locality workloads:
//!
//! - **read-mostly** — every rank reads the whole 1 MiB array but
//!   writes only its first page (the stencil-halo shape COW targets);
//! - **write-heavy** — every rank overwrites the whole array (the
//!   adversarial shape: COW degenerates to eager copying plus fault
//!   bookkeeping).
//!
//! Reported per cell: marginal startup ns/rank (PIE → COW), marginal
//! resident bytes/rank, the max rank count fitting in 1 GB of segment
//! memory, and the dedup audit's never-diverged page share. Rows are
//! merged into `BENCH_perf.json` under the `cow` section alongside the
//! `perf` rows.

use crate::perf_exp::{startup_binary, startup_ns_per_rank};
use crate::{merge_bench_json, render_table, JsonRow};
use pvr_privatize::methods::Options;
use pvr_privatize::{create_privatizer, regs, Method, PrivatizeEnv};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ReadMostly,
    WriteHeavy,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read-mostly",
            Workload::WriteHeavy => "write-heavy",
        }
    }
}

/// The 1 MiB array in [`startup_binary`] that the workloads touch.
const BIG: &str = "big_state";
const BIG_LEN: usize = 1 << 20;

struct Cell {
    /// Marginal resident bytes per rank, eager PIE (code+data+TLS copies).
    pie_bytes_per_rank: f64,
    /// Marginal resident bytes per rank, COW (TLS + diverged pages).
    cow_bytes_per_rank: f64,
    shared_pages: u64,
    total_pages: u64,
    /// Wall time for instantiating the ranks *and* running the workload
    /// writes — COW defers page copies to first write, so charging only
    /// instantiation would hide the fault cost.
    cow_touch_ns_per_rank: f64,
}

/// Instantiate `n` COW ranks, run the workload's writes through the
/// `VarAccess` API, and read the privatizer's fault/dedup accounting.
fn run_cow_cell(ranks: usize, workload: Workload) -> Cell {
    let binary = startup_binary();
    let env = PrivatizeEnv::new(binary);
    let mut p = create_privatizer(Method::CowGlobals, env, Options::default()).unwrap();
    let mut mems: Vec<pvr_isomalloc::RankMemory> =
        (0..ranks).map(|_| pvr_isomalloc::RankMemory::new()).collect();
    let page = vec![0xA5u8; 8];
    let full = vec![0x3Cu8; BIG_LEN];
    let t0 = Instant::now();
    for (r, mem) in mems.iter_mut().enumerate() {
        let inst = p.instantiate_rank(r, mem).unwrap();
        let big = inst.access(BIG);
        match workload {
            Workload::ReadMostly => {
                let _ = big.read_bytes(BIG_LEN); // never faults
                big.write_bytes(&page); // one page diverges
            }
            Workload::WriteHeavy => big.write_bytes(&full), // all pages diverge
        }
        drop(inst);
    }
    let cow_touch_ns_per_rank = t0.elapsed().as_nanos() as f64 / ranks as f64;
    let stats = p.cow_stats().unwrap();
    let diverged: u64 = stats.faulted_page_union.iter().map(|w| w.count_ones() as u64).sum();
    let shared_pages = stats.total_pages - diverged;
    let cow_bytes_per_rank = p.per_rank_copied_bytes() as f64
        + (stats.pages_privatized * stats.page_size) as f64 / ranks as f64;

    // Eager baseline: PIEglobals copies code+data+TLS for every rank.
    let env = PrivatizeEnv::new(startup_binary());
    let pie = create_privatizer(Method::PieGlobals, env, Options::default()).unwrap();
    let pie_bytes_per_rank = pie.per_rank_copied_bytes() as f64;

    drop(mems);
    regs::clear();
    Cell {
        pie_bytes_per_rank,
        cow_bytes_per_rank,
        shared_pages,
        total_pages: stats.total_pages,
        cow_touch_ns_per_rank,
    }
}

/// Run the sweep, merge rows into `BENCH_perf.json`, render the table.
pub fn report(quick: bool) -> String {
    let rank_counts: &[usize] = if quick { &[8, 32] } else { &[8, 64, 256] };
    let binary = startup_binary();
    let mut json: Vec<JsonRow> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();

    for &n in rank_counts {
        // Startup is workload-independent: marginal instantiation cost.
        eprintln!("[cow] startup, {n} ranks ...");
        let reps = if quick { 2 } else { 3 };
        let mut pie_ns = f64::INFINITY;
        let mut cow_ns = f64::INFINITY;
        for _ in 0..reps {
            pie_ns = pie_ns.min(startup_ns_per_rank(&binary, Method::PieGlobals, n));
            cow_ns = cow_ns.min(startup_ns_per_rank(&binary, Method::CowGlobals, n));
        }
        json.push(JsonRow {
            section: "cow",
            name: "cow_startup".into(),
            ranks: n,
            method: "pieglobals->cowglobals".into(),
            unit: "ns/rank",
            quick,
            before: pie_ns,
            after: cow_ns,
            ratio: pie_ns / cow_ns.max(1e-9),
        });
        table.push(vec![
            "startup".into(),
            n.to_string(),
            "-".into(),
            format!("{pie_ns:.0} ns/rank"),
            format!("{cow_ns:.0} ns/rank"),
            format!("{:.2}x", pie_ns / cow_ns.max(1e-9)),
        ]);

        for workload in [Workload::ReadMostly, Workload::WriteHeavy] {
            eprintln!("[cow] {} workload, {n} ranks ...", workload.name());
            let cell = run_cow_cell(n, workload);
            let pie_per_gb = ((1u64 << 30) as f64 / cell.pie_bytes_per_rank).floor();
            let cow_per_gb = ((1u64 << 30) as f64 / cell.cow_bytes_per_rank).floor();
            json.push(JsonRow {
                section: "cow",
                name: "cow_resident".into(),
                ranks: n,
                method: workload.name().into(),
                unit: "bytes/rank",
                quick,
                before: cell.pie_bytes_per_rank,
                after: cell.cow_bytes_per_rank,
                ratio: cell.pie_bytes_per_rank / cell.cow_bytes_per_rank.max(1.0),
            });
            json.push(JsonRow {
                section: "cow",
                name: "cow_ranks_per_gb".into(),
                ranks: n,
                method: workload.name().into(),
                unit: "ranks/GB",
                quick,
                before: pie_per_gb,
                after: cow_per_gb,
                ratio: cow_per_gb / pie_per_gb.max(1.0),
            });
            json.push(JsonRow {
                section: "cow",
                name: "cow_shared_pages".into(),
                ranks: n,
                method: workload.name().into(),
                unit: "pages",
                quick,
                before: cell.total_pages as f64,
                after: cell.shared_pages as f64,
                ratio: cell.shared_pages as f64 / (cell.total_pages as f64).max(1.0),
            });
            table.push(vec![
                "resident".into(),
                n.to_string(),
                workload.name().into(),
                format!("{:.0} B/rank", cell.pie_bytes_per_rank),
                format!("{:.0} B/rank", cell.cow_bytes_per_rank),
                format!("{:.2}x", cell.pie_bytes_per_rank / cell.cow_bytes_per_rank.max(1.0)),
            ]);
            table.push(vec![
                "ranks/GB".into(),
                n.to_string(),
                workload.name().into(),
                format!("{pie_per_gb:.0}"),
                format!("{cow_per_gb:.0}"),
                format!("{:.2}x", cow_per_gb / pie_per_gb.max(1.0)),
            ]);
            table.push(vec![
                "dedup".into(),
                n.to_string(),
                workload.name().into(),
                format!("{} pages total", cell.total_pages),
                format!("{} never diverged", cell.shared_pages),
                format!(
                    "{:.0}% shared (touch {:.0} ns/rank)",
                    100.0 * cell.shared_pages as f64 / cell.total_pages as f64,
                    cell.cow_touch_ns_per_rank,
                ),
            ]);
        }
    }

    let json_path = "BENCH_perf.json";
    if let Err(e) = merge_bench_json(json_path, "cow", &json) {
        eprintln!("[cow] warning: could not write {json_path}: {e}");
    }
    render_table(
        &format!(
            "COWglobals dedup sweep — eager PIEglobals vs page-granular COW \
             (1 MiB data image); merged into {json_path}"
        ),
        &["bench", "ranks", "workload", "PIEglobals", "COWglobals", "ratio"],
        &table,
    )
}
