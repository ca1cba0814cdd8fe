//! # pvr-bench — the evaluation harness
//!
//! One module per table/figure of the paper's §4, each exposing a
//! `run(...)` that produces the data and a rendered report. The `repro`
//! binary drives them (`cargo run --release -p pvr-bench --bin repro --
//! all`); the repository's `benchmark/` package measures the
//! latency-sensitive layers with proper statistics.
//!
//! | Paper artifact | Module | Regenerate with |
//! |---|---|---|
//! | Table 1 / Table 3 | [`tables`] | `repro -- table1` / `table3` |
//! | Fig. 5 startup overhead | [`fig5`] | `repro -- fig5` |
//! | Fig. 6 context-switch time | [`fig6`] | `repro -- fig6` |
//! | Fig. 7 privatized access (Jacobi-3D) | [`fig7`] | `repro -- fig7` |
//! | Fig. 8 migration time | [`fig8`] | `repro -- fig8` |
//! | §4.5 L1I misses | [`icache_exp`] | `repro -- icache` |
//! | Table 2 + Fig. 9 ADCIRC scaling | [`scaling`] | `repro -- table2` / `fig9` |
//!
//! [`tracing_exp`] runs the traced Jacobi-3D job that
//! `examples/trace_summary.rs` prints and `tests/trace_observability.rs`
//! reconciles. Every other property of the runtime is pinned by a test
//! under `tests/` or measured by `benchmark/`.

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod icache_exp;
pub mod scaling;
pub mod tables;
pub mod tracing_exp;

/// Render an aligned text table: `title`, the header row, a dash rule,
/// then `rows`, each column as wide as its widest cell.
pub fn render_table<S: AsRef<str>>(
    title: &str,
    headers: &[&str],
    rows: &[impl AsRef<[S]>],
) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row.as_ref()) {
            *w = (*w).max(c.as_ref().len());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut line = String::from("| ");
        for (c, &w) in cells.zip(&widths) {
            line.push_str(&format!("{c:w$} | "));
        }
        format!("{}\n", line.trim_end())
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + widths.len() * 3 + 1);
    let mut out = format!("{title}\n{}{rule}\n", line(&mut headers.iter().copied()));
    for row in rows {
        out.push_str(&line(&mut row.as_ref().iter().map(AsRef::as_ref)));
    }
    out
}

/// Format a `Duration` compactly.
pub fn fmt_dur(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{} ns", ns)
    }
}

/// The tests of this crate share one process and run in parallel, and
/// a parallel test skews `fig6`'s wall-clock ratio (it slows the ULT
/// rows and speeds the pthread handoff). `fig6` takes the host
/// exclusively; every other test takes it shared.
#[cfg(test)]
static HOST: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
fn host_alone() -> std::sync::RwLockWriteGuard<'static, ()> {
    HOST.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
fn host_shared() -> std::sync::RwLockReadGuard<'static, ()> {
    HOST.read().unwrap_or_else(|e| e.into_inner())
}
