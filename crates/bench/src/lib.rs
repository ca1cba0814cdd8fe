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

/// Render a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut line = String::from("| ");
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{:w$} | ", h, w = w));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 3 + 1));
    out.push('\n');
    for row in rows {
        let mut line = String::from("| ");
        for (c, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{:w$} | ", c, w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
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
