//! Fig. 5 — startup / initialization overhead per privatization method.
//!
//! The paper measures AMPI initialization with 8 virtual ranks per
//! process. The runtime methods duplicate the application's code and
//! data segments once per rank at startup; TLSglobals only copies the
//! TLS segment; FSglobals additionally pays shared-filesystem I/O, the
//! one cost that grows with node count.
//!
//! We time `MachineBuilder::build()` (privatizer construction + all rank
//! instantiations — the real segment copies, pointer fixups, loader
//! calls) and add each method's *simulated* I/O cost. The subject binary
//! is the ADCIRC-sized surge image (14 MB of code), so the copies are
//! macroscopic.

use crate::{fmt_dur, render_table};
use pvr_apps::surge;
use pvr_privatize::Method;
use pvr_rts::{MachineBuilder, RankCtx, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct StartupRow {
    pub method: Method,
    /// Wall time of build(): privatization + rank instantiation.
    pub measured: Duration,
    /// Simulated I/O (FSglobals' shared-filesystem traffic).
    pub simulated_io: Duration,
    pub per_rank_copied_bytes: usize,
}

impl StartupRow {
    pub fn total(&self) -> Duration {
        self.measured + self.simulated_io
    }
}

/// Run the experiment with `vp` virtual ranks in one process.
pub fn run(vp: usize) -> Vec<StartupRow> {
    let noop: Arc<dyn Fn(RankCtx) + Send + Sync> = Arc::new(|_ctx: RankCtx| {});
    Method::EVALUATED
        .iter()
        .map(|&method| {
            let binary = surge::binary();
            let t0 = Instant::now();
            let machine = MachineBuilder::new(binary)
                .method(method)
                .topology(Topology::smp(1))
                .vp_ratio(vp)
                .build(noop.clone())
                .expect("startup must succeed for evaluated methods");
            let measured = t0.elapsed();
            StartupRow {
                method,
                measured,
                simulated_io: machine.simulated_startup_cost(),
                per_rank_copied_bytes: machine.per_rank_copied_bytes(),
            }
        })
        .collect()
}

pub fn report(vp: usize) -> String {
    let rows = run(vp);
    let baseline = rows[0].total();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.to_string(),
                fmt_dur(r.measured),
                fmt_dur(r.simulated_io),
                fmt_dur(r.total()),
                format!("{:.2}x", r.total().as_secs_f64() / baseline.as_secs_f64()),
                format!("{:.1} MB", r.per_rank_copied_bytes as f64 / 1e6),
            ]
        })
        .collect();
    render_table(
        &format!(
            "Fig. 5: Startup/initialization overhead, {vp} virtual ranks per process \
             (ADCIRC-sized binary; lower is better)"
        ),
        &[
            "method",
            "measured",
            "simulated I/O",
            "total",
            "vs baseline",
            "copied/rank",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's shape, asserted on its deterministic parts only
    /// (modelled I/O, bytes copied per rank). The measured build times
    /// are wall-clock samples taken once each: an order between two of
    /// them holds on a quiet host and flips under a parallel test run.
    #[test]
    fn shape_matches_paper() {
        let rows = run(8);
        let get = |m: Method| rows.iter().find(|r| r.method == m).unwrap();
        // FSglobals is the outlier because of shared-FS I/O, the one cost
        // no other method pays, and it is macroscopic for a 14 MB binary
        for r in &rows {
            if r.method == Method::FsGlobals {
                assert!(r.simulated_io > Duration::from_millis(100), "{:?}", r.simulated_io);
                assert_eq!(r.total(), r.measured + r.simulated_io);
            } else {
                assert_eq!(r.simulated_io, Duration::ZERO, "{} pays no I/O", r.method);
            }
        }
        // the duplicating methods copy real code + data segments per rank
        for m in [Method::PipGlobals, Method::FsGlobals, Method::PieGlobals] {
            assert!(get(m).per_rank_copied_bytes > 14 << 20, "{m}");
        }
        // TLSglobals copies only the TLS segment; the baseline copies nothing
        assert!(get(Method::TlsGlobals).per_rank_copied_bytes < 1 << 20);
        assert_eq!(get(Method::Unprivatized).per_rank_copied_bytes, 0);
    }
}
