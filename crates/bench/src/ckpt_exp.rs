//! `ckpt` — checkpoint pause sweep: full per-barrier images vs the
//! incremental delta chain (ranks × write locality).
//!
//! Full-mode coordinated checkpointing packs every rank's whole image at
//! every LB barrier — the application pause grows with *state*, not with
//! *change*. The incremental protocol captures one base and then sparse
//! dirty-page deltas (the COW page table pins exactly which data-segment
//! pages changed; heap and stacks are page-diffed against the previous
//! image), streaming them to the buddy between barriers. This experiment
//! measures the barrier pause (`CkptTallies::pause_ns`, wall clock spent
//! inside the periodic capture) and the bytes shipped per run, on the
//! same 1 MiB data-heavy image as the `perf`/`cow` sweeps:
//!
//! - **read-mostly** — every rank reads the whole array but rewrites a
//!   single page per step: the delta chain captures one dirty page where
//!   full mode repacks the megabyte (the paper's stencil-halo shape);
//! - **write-heavy** — every rank overwrites the whole array each step:
//!   the adversarial shape, where a delta degenerates to a full image
//!   plus diff bookkeeping and the ratio approaches 1×.
//!
//! Byte counts are *logical* image bytes (every region whole — what the
//! network model is charged); the last column shows how much of one base
//! capture the buffers actually hold (each region's live extent).
//!
//! Rows are merged into `BENCH_perf.json` under the `ckpt` section; the
//! CI smoke gate greps the read-mostly rows: bytes ratio ≥10× (exact
//! count) and an incremental pause below the full one.

use crate::perf_exp::startup_binary;
use crate::{merge_bench_json, render_table, JsonRow};
use parking_lot::Mutex;
use pvr_des::Topology;
use pvr_privatize::Method;
use pvr_rts::{ClockMode, MachineBuilder, RankCtx, RunReport};
use pvr_trace::Tracer;
use std::sync::Arc;

/// The 1 MiB array in [`startup_binary`] that the workloads touch.
const BIG: &str = "big_state";
const BIG_LEN: usize = 1 << 20;
const PAGE: usize = 4096;
/// LB barriers per run — each takes one periodic capture. Long enough
/// to amortize the incremental mode's one base capture (a full pack)
/// over the delta barriers; `ckpt_max_chain` is raised to match so the
/// chain never compacts and the comparison is pure base-vs-delta.
const STEPS: usize = 12;

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

type Residuals = Vec<(usize, u64)>;

/// Per-step writes through the COW `VarAccess` path, one `at_sync`
/// barrier per step, and a final content checksum per rank — the
/// checksum pins that full and incremental modes leave the application
/// bytes identical.
fn body(workload: Workload, out: Arc<Mutex<Residuals>>) -> Arc<dyn Fn(RankCtx) + Send + Sync> {
    Arc::new(move |ctx: RankCtx| {
        let big = ctx.instance().access(BIG);
        let rank = ctx.rank();
        for step in 0..STEPS {
            let fill = (step as u8).wrapping_mul(31).wrapping_add(rank as u8);
            match workload {
                Workload::ReadMostly => big.write_bytes(&vec![fill; PAGE]),
                Workload::WriteHeavy => big.write_bytes(&vec![fill; BIG_LEN]),
            }
            ctx.at_sync();
        }
        let mut sum = 0u64;
        for b in big.read_bytes(BIG_LEN) {
            sum = sum.wrapping_mul(1099511628211).wrapping_add(b as u64);
        }
        out.lock().push((rank, sum));
    })
}

struct Cell {
    report: RunReport,
    residuals: Residuals,
    /// Total checkpoint bytes shipped: full images (base captures) plus
    /// sparse delta payloads.
    bytes: u64,
    /// The base images held at the end of the run, `(logical, stored)`:
    /// what one capture counts and what its buffers hold.
    base_image: (usize, usize),
}

fn run_cell(pes: usize, vp: usize, workload: Workload, incremental: bool) -> Cell {
    let out: Arc<Mutex<Residuals>> = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(pes);
    tracer.enable();
    let mut m = MachineBuilder::new(startup_binary())
        .method(Method::CowGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(pes))
        .vp_ratio(vp)
        .checkpoint_period(1)
        .ckpt_incremental(incremental)
        .ckpt_max_chain(STEPS as u32)
        .tracer(tracer.clone())
        .build(body(workload, out.clone()))
        .unwrap();
    let report = m.run().unwrap();
    let mut residuals = out.lock().clone();
    residuals.sort_by_key(|r| r.0);
    let bytes = tracer.counts().checkpoint_bytes + report.ckpt.delta_bytes;
    Cell { report, residuals, bytes, base_image: m.checkpoint_image_bytes() }
}

/// Run the sweep, merge rows into `BENCH_perf.json`, render the table.
pub fn report(quick: bool) -> String {
    let configs: &[(usize, usize)] = if quick { &[(2, 2)] } else { &[(2, 2), (2, 4)] };
    let mut json: Vec<JsonRow> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();

    for &(pes, vp) in configs {
        let ranks = pes * vp;
        for workload in [Workload::ReadMostly, Workload::WriteHeavy] {
            eprintln!("[ckpt] {} workload, {ranks} ranks ...", workload.name());
            // Best-of-reps on the pause: wall-clock noise shrinks the
            // ratio, never inflates it, so min is the honest pick.
            let reps = if quick { 2 } else { 3 };
            let mut full_ns = u64::MAX;
            let mut incr_ns = u64::MAX;
            let mut full_bytes = 0u64;
            let mut incr_bytes = 0u64;
            let mut base_image = (0, 0);
            for _ in 0..reps {
                let full = run_cell(pes, vp, workload, false);
                let incr = run_cell(pes, vp, workload, true);
                assert_eq!(
                    incr.residuals, full.residuals,
                    "incremental checkpointing changed application bytes"
                );
                full_ns = full_ns.min(full.report.ckpt.pause_ns);
                incr_ns = incr_ns.min(incr.report.ckpt.pause_ns);
                full_bytes = full.bytes;
                incr_bytes = incr.bytes;
                base_image = full.base_image;
            }
            let per_barrier = |ns: u64| ns as f64 / STEPS as f64;
            let pause_ratio = per_barrier(full_ns) / per_barrier(incr_ns).max(1.0);
            json.push(JsonRow {
                section: "ckpt",
                name: "ckpt_pause".into(),
                ranks,
                method: workload.name().into(),
                unit: "ns/barrier",
                quick,
                before: per_barrier(full_ns),
                after: per_barrier(incr_ns),
                ratio: pause_ratio,
            });
            json.push(JsonRow {
                section: "ckpt",
                name: "ckpt_bytes".into(),
                ranks,
                method: workload.name().into(),
                unit: "bytes/run",
                quick,
                before: full_bytes as f64,
                after: incr_bytes as f64,
                ratio: full_bytes as f64 / (incr_bytes as f64).max(1.0),
            });
            table.push(vec![
                "pause".into(),
                ranks.to_string(),
                workload.name().into(),
                format!("{:.0} ns/barrier", per_barrier(full_ns)),
                format!("{:.0} ns/barrier", per_barrier(incr_ns)),
                format!("{pause_ratio:.2}x"),
                "-".into(),
            ]);
            table.push(vec![
                "bytes".into(),
                ranks.to_string(),
                workload.name().into(),
                format!("{full_bytes} B"),
                format!("{incr_bytes} B"),
                format!("{:.2}x", full_bytes as f64 / (incr_bytes as f64).max(1.0)),
                format!("{} B of {} B", base_image.1, base_image.0),
            ]);
        }
    }

    let json_path = "BENCH_perf.json";
    if let Err(e) = merge_bench_json(json_path, "ckpt", &json) {
        eprintln!("[ckpt] warning: could not write {json_path}: {e}");
    }
    render_table(
        &format!(
            "Checkpoint pause sweep — full per-barrier images vs incremental \
             delta chain (1 MiB data image, {STEPS} barriers); merged into {json_path}"
        ),
        &["bench", "ranks", "workload", "full", "incremental", "ratio", "stored (one base capture)"],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance shape in miniature: read-mostly deltas are sparse
    /// (far below one full image per barrier), restore-relevant bytes
    /// match between modes, and the protocol tallies are active.
    #[test]
    fn incremental_cell_is_sparse_and_bit_identical() {
        let full = run_cell(2, 2, Workload::ReadMostly, false);
        let incr = run_cell(2, 2, Workload::ReadMostly, true);
        assert_eq!(incr.residuals, full.residuals, "modes diverged");
        assert!(incr.report.ckpt.deltas > 0, "{:?}", incr.report.ckpt);
        assert!(full.report.ckpt.is_clean(), "{:?}", full.report.ckpt);
        assert!(
            incr.bytes * 4 < full.bytes,
            "read-mostly deltas not sparse: {} vs {} bytes",
            incr.bytes,
            full.bytes
        );
    }
}
