//! `overlap` — communication/computation overlap experiment
//! (`repro -- overlap`).
//!
//! A two-rank halo-exchange-with-compute loop in virtual time, run three
//! ways:
//!
//! - **blocking** — `MPI_Send` + `MPI_Recv` before the compute step:
//!   every iteration pays message latency *then* compute, the classic
//!   unoverlapped pattern (`T ≈ iters × (L + C)`);
//! - **nonblocking** — `MPI_Irecv`/`MPI_Isend` posted first, compute
//!   runs while the message is in flight, `MPI_Wait` after: the request
//!   engine completes the receive at delivery time, so the iteration
//!   costs `max(L, C)`;
//! - **compute-only** — no messaging at all: the `T ≈ iters × C` floor
//!   that bounds how much latency *could* be hidden.
//!
//! Latency hiding is `(T_block − T_nb) / (T_block − T_comp)` — the
//! fraction of exposed message latency the nonblocking engine removed —
//! and the acceptance gate is ≥ 50%. Both communicating variants must
//! produce bit-identical checksums (overlap must not change results).
//! Two rows are merged into `BENCH_perf.json` under the `overlap`
//! section: the makespan speedup and the hiding fraction.

use crate::{merge_bench_json, render_table, JsonRow};
use parking_lot::Mutex;
use pvr_ampi::{Ampi, COMM_WORLD};
use pvr_des::{SimDuration, Topology};
use pvr_privatize::Method;
use pvr_rts::{ClockMode, MachineBuilder, RunReport};
use std::sync::Arc;

/// Halo plane: 8192 f64s = 64 KiB — inter-node transfer ≈ 7.2 µs under
/// the stock InfiniBand model (2 µs latency + 64 KiB / 12.5 GB/s).
const HALO_DOUBLES: usize = 8192;
/// Per-iteration compute grain, sized a little above the transfer time
/// so the nonblocking run can hide essentially all of the latency.
const COMPUTE_US: u64 = 10;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Blocking,
    Nonblocking,
    ComputeOnly,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Blocking => "blocking",
            Mode::Nonblocking => "nonblocking",
            Mode::ComputeOnly => "compute-only",
        }
    }
}

struct Cell {
    report: RunReport,
    /// Per-rank halo checksums, sorted by rank.
    sums: Vec<(usize, f64)>,
}

fn run_one(mode: Mode, iters: usize) -> Cell {
    let out: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    let mut m = MachineBuilder::new(pvr_apps::hello::binary())
        .method(Method::PieGlobals)
        .clock(ClockMode::Virtual)
        .topology(Topology::non_smp(2))
        .vp_ratio(1)
        .build(Arc::new(move |ctx| {
            let mpi = Ampi::init(ctx);
            let me = mpi.rank();
            let partner = 1 - me;
            let compute = SimDuration::from_micros(COMPUTE_US);
            let mut sum = 0.0f64;
            let mut plane = vec![0.0f64; HALO_DOUBLES];
            for iter in 0..iters {
                for (i, v) in plane.iter_mut().enumerate() {
                    *v = (iter * HALO_DOUBLES + i) as f64 + me as f64;
                }
                match mode {
                    Mode::Blocking => {
                        mpi.send_f64s(COMM_WORLD, partner, iter as u32, &plane);
                        let (got, _) =
                            mpi.recv_f64s(COMM_WORLD, Some(partner), Some(iter as u32));
                        mpi.compute(compute);
                        sum += got[0] + got[HALO_DOUBLES - 1];
                    }
                    Mode::Nonblocking => {
                        // overlap idiom: post the receive, post the send,
                        // compute while the message is in flight, then wait
                        let r = mpi.irecv(COMM_WORLD, Some(partner), Some(iter as u32));
                        let s = mpi.isend_f64s(COMM_WORLD, partner, iter as u32, &plane);
                        mpi.compute(compute);
                        let (bytes, _) = mpi.wait(r);
                        let got = pvr_ampi::util::bytes_to_f64s(&bytes);
                        mpi.wait_send(s);
                        sum += got[0] + got[HALO_DOUBLES - 1];
                    }
                    Mode::ComputeOnly => {
                        mpi.compute(compute);
                    }
                }
            }
            o2.lock().push((me, sum));
            mpi.finalize();
        }))
        .expect("machine builds");
    let report = m.run().expect("overlap run");
    let mut sums = out.lock().clone();
    sums.sort_by_key(|s| s.0);
    Cell { report, sums }
}

fn ms(c: &Cell) -> f64 {
    c.report.sim_elapsed.as_secs_f64() * 1e3
}

/// Fraction of exposed message latency the nonblocking engine hid.
fn hiding(block: &Cell, nb: &Cell, comp: &Cell) -> f64 {
    (ms(block) - ms(nb)) / (ms(block) - ms(comp)).max(1e-12)
}

/// Run the sweep, merge rows into `BENCH_perf.json`, render the table.
pub fn report(quick: bool) -> String {
    let iters = if quick { 20 } else { 50 };
    let mut cells = Vec::new();
    for mode in [Mode::Blocking, Mode::Nonblocking, Mode::ComputeOnly] {
        eprintln!("[overlap] {} ...", mode.name());
        cells.push((mode, run_one(mode, iters)));
    }
    let block = &cells[0].1;
    let nb = &cells[1].1;
    let comp = &cells[2].1;
    assert_eq!(
        block.sums, nb.sums,
        "nonblocking overlap changed the exchanged data"
    );
    let speedup = ms(block) / ms(nb).max(1e-9);
    let hid = hiding(block, nb, comp);
    assert!(
        hid >= 0.5,
        "latency hiding {hid:.2} below the 50% acceptance gate \
         (blocking {:.3} ms, nonblocking {:.3} ms, compute-only {:.3} ms)",
        ms(block),
        ms(nb),
        ms(comp),
    );

    let json = vec![
        JsonRow {
            section: "overlap",
            name: "halo_makespan_speedup".into(),
            ranks: 2,
            method: "isend-irecv-overlap".into(),
            unit: "sim-ms",
            quick,
            before: ms(block),
            after: ms(nb),
            ratio: speedup,
        },
        JsonRow {
            section: "overlap",
            name: "latency_hiding_fraction".into(),
            ranks: 2,
            method: "isend-irecv-overlap".into(),
            // exposed message latency (blocking - compute-only) and the
            // part of it overlap hid (blocking - nonblocking); `ratio` is
            // the fraction
            unit: "sim-ms",
            quick,
            before: ms(block) - ms(comp),
            after: ms(block) - ms(nb),
            ratio: hid,
        },
    ];
    let json_path = "BENCH_perf.json";
    if let Err(e) = merge_bench_json(json_path, "overlap", &json) {
        eprintln!("[overlap] warning: could not write {json_path}: {e}");
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(m, c)| {
            vec![
                m.name().into(),
                format!("{:.3} ms", ms(c)),
                format!("{}", c.report.req.recv_posts),
                format!("{}", c.report.req.recv_completes),
            ]
        })
        .collect();
    let mut table = render_table(
        &format!(
            "Overlap sweep — 2-rank halo exchange, {iters} iters x {COMPUTE_US} us compute, \
             {} KiB halo; rows merged into {json_path}",
            HALO_DOUBLES * 8 / 1024,
        ),
        &["mode", "makespan", "recv posts", "recv completes"],
        &rows,
    );
    table.push_str(&format!(
        "speedup {speedup:.2}x, latency hiding {:.0}%\n",
        hid * 100.0
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonblocking_hides_at_least_half_the_latency() {
        let iters = 10;
        let block = run_one(Mode::Blocking, iters);
        let nb = run_one(Mode::Nonblocking, iters);
        let comp = run_one(Mode::ComputeOnly, iters);
        assert_eq!(block.sums, nb.sums, "overlap changed results");
        assert!(
            nb.report.sim_elapsed < block.report.sim_elapsed,
            "overlap must win: nb {:?} vs blocking {:?}",
            nb.report.sim_elapsed,
            block.report.sim_elapsed
        );
        let hid = hiding(&block, &nb, &comp);
        assert!(hid >= 0.5, "latency hiding {hid:.2} below 50%");
        // the nonblocking run exercises the request engine
        assert_eq!(nb.report.req.recv_posts, 2 * iters as u64);
        assert_eq!(nb.report.req.recv_completes, nb.report.req.recv_posts);
        assert_eq!(nb.report.req.send_posts, 2 * iters as u64);
        assert_eq!(nb.report.req.leaked, 0);
    }
}
