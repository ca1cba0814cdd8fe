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
//! Beyond the paper's artifacts, [`tracing_exp`] demonstrates the
//! `pvr-trace` observability layer (`repro -- trace`), [`faults_exp`]
//! the fault-injection/recovery stack (`repro -- faults`),
//! [`degrade_exp`] the capability-probe fallback chain and memory-safety
//! guards (`repro -- degrade`), [`perf_exp`] epoch dispatch and the
//! matching-depth sweep (`repro -- perf`, writes `BENCH_perf.json`),
//! [`cow_exp`] the COWglobals dedup/startup sweep (`repro -- cow`,
//! merged into the same JSON), [`elastic_exp`] the elastic rescale
//! sweep (`repro -- elastic`, also merged there), and [`overlap_exp`]
//! the Isend/Irecv latency-hiding sweep (`repro -- overlap`, also
//! merged there).

pub mod ckpt_exp;
pub mod cow_exp;
pub mod degrade_exp;
pub mod elastic_exp;
pub mod faults_exp;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod icache_exp;
pub mod overlap_exp;
pub mod parallel_exp;
pub mod perf_exp;
pub mod scaling;
pub mod tables;
pub mod tracing_exp;

/// One row of `BENCH_perf.json`. `unit` documents what `before`/`after`
/// measure (e.g. `"ns/rank"`, `"bytes/rank"`, `"ranks/GB"`); `ratio` is
/// in the row's better-is-bigger direction, supplied by the caller.
pub struct JsonRow {
    pub section: &'static str,
    pub name: String,
    pub ranks: usize,
    pub method: String,
    pub unit: &'static str,
    pub quick: bool,
    pub before: f64,
    pub after: f64,
    pub ratio: f64,
}

/// `v` with four significant digits (all of them when it has more
/// before the decimal point): a 0.2915 sim-ms row must not read `0.3`.
fn sig4(v: f64) -> String {
    let magnitude = if v == 0.0 { 0 } else { v.abs().log10().floor() as i32 };
    let decimals = (3 - magnitude).max(0) as usize;
    format!("{v:.decimals$}")
}

impl JsonRow {
    fn render(&self) -> String {
        format!(
            "{{\"section\": \"{}\", \"name\": \"{}\", \"ranks\": {}, \"method\": \"{}\", \
             \"unit\": \"{}\", \"quick\": {}, \"before\": {}, \"after\": {}, \
             \"ratio\": {:.2}}}",
            self.section,
            self.name,
            self.ranks,
            self.method,
            self.unit,
            self.quick,
            sig4(self.before),
            sig4(self.after),
            self.ratio,
        )
    }
}

/// Merge `rows` into the JSON file at `path`, replacing only the rows
/// owned by `section` and preserving every other experiment's rows.
/// `repro -- perf` and `repro -- cow` both write `BENCH_perf.json`;
/// regenerating one must not discard the other's numbers. Rows from the
/// pre-section file format (no `"section"` key) are adopted by `perf`.
pub fn merge_bench_json(path: &str, section: &str, rows: &[JsonRow]) -> std::io::Result<()> {
    fn row_section(line: &str) -> Option<String> {
        let t = line.trim();
        if !t.starts_with('{') || !t.contains("\"name\"") {
            return None;
        }
        let sect = t
            .split("\"section\": \"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or("perf");
        Some(sect.to_string())
    }
    let mut kept: Vec<String> = Vec::new();
    if let Ok(old) = std::fs::read_to_string(path) {
        for line in old.lines() {
            if let Some(owner) = row_section(line) {
                if owner != section {
                    kept.push(line.trim().trim_end_matches(',').to_string());
                }
            }
        }
    }
    let mut all = kept;
    all.extend(rows.iter().map(|r| r.render()));
    let mut s = String::new();
    s.push_str("{\n  \"generated_by\": \"repro -- perf | cow\",\n  \"benches\": [\n");
    for (i, line) in all.iter().enumerate() {
        s.push_str("    ");
        s.push_str(line);
        s.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

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

#[cfg(test)]
mod tests {
    use super::sig4;

    #[test]
    fn rows_keep_four_significant_digits() {
        for (v, text) in [
            (0.29152, "0.2915"),
            (0.0501, "0.05010"),
            (40.44, "40.44"),
            (2063.9, "2064"),
            (432660.4, "432660"),
            (0.0, "0.000"),
            (-1.5, "-1.500"),
        ] {
            assert_eq!(sig4(v), text);
        }
    }
}
