//! The harness parent: spawns the child processes, pools what they print,
//! derives the metrics, renders them, and compares result documents.

use crate::host;
use crate::json::Json;
use crate::metrics::{driver_end_to_end, driver_per_layer, Better, MetricDef, END_TO_END};
use crate::stats::{median, summarize, Summary};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Fresh processes a workload's repetitions are pooled over.
pub const CHILDREN: usize = 3;

pub struct RunArgs {
    pub seed: u64,
    /// Measuring time of one workload; each child process gets a third.
    pub seconds: f64,
    pub traced: bool,
    pub reps: Option<usize>,
}

/// Everything the children of one workload printed, pooled.
#[derive(Default, Debug)]
pub struct Pool {
    samples: BTreeMap<String, Vec<f64>>,
    /// One entry per child that reported the value.
    values: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, Vec<u64>>,
    /// Layer probes: run by one child of an invocation, shared by all.
    pub probes: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Pool {
    /// Parse one child's standard output into the pool.
    pub fn absorb(&mut self, stdout: &str) -> Result<(), String> {
        let mut saw_ops = false;
        for line in stdout.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let name_value = || -> Result<(String, &str), String> {
                rest.split_once(' ')
                    .map(|(n, v)| (n.to_string(), v))
                    .ok_or_else(|| format!("malformed child line: {line}"))
            };
            let num = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| format!("bad number in child line: {line}"))
            };
            match kind {
                "S" => {
                    let (n, v) = name_value()?;
                    self.samples.entry(n).or_default().push(num(v)?);
                }
                "V" => {
                    let (n, v) = name_value()?;
                    self.values.entry(n).or_default().push(num(v)?);
                }
                "P" => {
                    let (n, v) = name_value()?;
                    self.probes.insert(n, num(v)?);
                }
                "C" => {
                    let (n, v) = name_value()?;
                    let c = v
                        .parse::<u64>()
                        .map_err(|_| format!("bad count in child line: {line}"))?;
                    self.counts.entry(n).or_default().push(c);
                }
                "O" => {
                    let (a, f) = name_value()?;
                    self.attempted += a.parse::<u64>().map_err(|e| e.to_string())?;
                    self.failed += f.parse::<u64>().map_err(|e| e.to_string())?;
                    saw_ops = true;
                }
                "F" => self.failures.push(rest.to_string()),
                "N" => self.notes.push(rest.to_string()),
                _ => return Err(format!("unknown child line: {line}")),
            }
        }
        if saw_ops {
            Ok(())
        } else {
            Err("child ended without reporting its operations".into())
        }
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    fn sample_median(&self, name: &str) -> f64 {
        let s = self.samples(name);
        if s.is_empty() {
            0.0
        } else {
            median(s)
        }
    }

    /// The reported value (see [`reported`]) of the end-to-end metric
    /// `name`; 0 without samples.
    fn end_to_end_value(&self, name: &str) -> f64 {
        let samples = self.end_to_end_samples(name);
        match END_TO_END.iter().find(|m| m.def.name == name) {
            Some(m) if !samples.is_empty() => reported(&m.def, &summarize(&samples)),
            _ => 0.0,
        }
    }

    /// Median over the children that reported `name`; 0 if none did.
    fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| median(v))
    }

    /// The count every child must agree on; disagreement is a failure.
    fn count(&mut self, name: &str, exact: bool) -> u64 {
        let Some(c) = self.counts.get(name) else {
            return 0;
        };
        if exact && c.iter().any(|&x| x != c[0]) {
            self.failures
                .push(format!("{name} differs between processes: {c:?}"));
        }
        c[0]
    }

    /// The samples behind an end-to-end metric.
    fn end_to_end_samples(&self, name: &str) -> Vec<f64> {
        match name {
            "peak_rss_mb" => self.values.get(name).cloned().unwrap_or_default(),
            "sim_makespan_ms" => self
                .counts
                .get("sim_makespan_ns")
                .map(|c| c.iter().map(|&ns| ns as f64 / 1e6).collect())
                .unwrap_or_default(),
            _ => self.samples(name).to_vec(),
        }
    }
}

/// The value a metric is reported and compared by: the quartile of the
/// pooled samples on the metric's better side (the lower quartile of a
/// time). What a shared host does to a repetition only ever adds time, in
/// spells that come and go within a run, so a run's samples are a mixture
/// of a fast and one or more slow populations in proportions that differ
/// from run to run. The median jumps from one population to the other when
/// the slow one passes half of the run; the quartile on the better side
/// stays in the fast one until three quarters of the run are disturbed.
/// README.md, "Steadiness", has the two-set trial this was chosen on. The
/// median and the other quartile are printed beside it.
pub fn reported(d: &MetricDef, s: &Summary) -> f64 {
    match d.better {
        Better::Lower => s.q1,
        Better::Higher => s.q3,
    }
}

/// One workload's result.
pub struct WorkloadResult {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub traced: bool,
    /// The end-to-end metrics this workload reports, with their
    /// distribution and the pooled samples behind it (untraced runs only).
    pub end_to_end: Vec<(MetricDef, Summary, Vec<f64>)>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<(MetricDef, f64)>,
    /// Exact counts of one repetition, as every process reported them.
    pub counts: Vec<(String, u64)>,
    /// Which percentile `ampi.rtt_us_hi` is.
    pub rtt_hi_pct: f64,
}

fn spawn_child(w: Workload, args: &RunArgs, index: usize, probes: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / CHILDREN as f64).to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if let Some(r) = args.reps {
        cmd.args(["--reps", &r.to_string()]);
    }
    if index == 0 {
        cmd.arg("--cross-check");
    }
    if probes {
        cmd.arg("--probes");
    }
    // glibc raises its mmap threshold when a large block is freed, after
    // which repeated builds recycle heap memory instead of faulting fresh
    // pages in: a build then costs 1.6 ms or 6 ms depending on allocation
    // history and thread timing. Naming the threshold (at its initial
    // value) switches that adaptation off, so every repetition gets its
    // memory the way a fresh process does.
    cmd.env("MALLOC_MMAP_THRESHOLD_", "131072");
    // the parent only waits: output() blocks until the child has ended
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("child of {} ended with {}", w.name(), out.status));
    }
    Ok(stdout)
}

/// Run one child of `w` and pool its output.
fn run_child_into(pool: &mut Pool, w: Workload, args: &RunArgs, index: usize, probes: bool) {
    let absorbed = spawn_child(w, args, index, probes).and_then(|out| pool.absorb(&out));
    if let Err(e) = absorbed {
        pool.attempted += 1;
        pool.failed += 1;
        pool.failures.push(e);
    }
}

/// Number of child processes a run uses: the traced run needs one traced
/// repetition, so one process (with one process's share of the time) does.
fn children_for(args: &RunArgs) -> usize {
    if args.traced {
        1
    } else {
        CHILDREN
    }
}

/// Derive every metric of `w` from its pool and the invocation's probes.
pub fn derive(
    w: Workload,
    mut pool: Pool,
    traced: bool,
    probes: &BTreeMap<String, f64>,
) -> WorkloadResult {
    let exact = w.virtual_time();
    // the processes of a virtual-time workload must agree on every count
    let names: Vec<String> = pool.counts.keys().cloned().collect();
    let counts: Vec<(String, u64)> = names
        .into_iter()
        .map(|n| {
            let c = pool.count(&n, exact);
            (n, c)
        })
        .collect();
    let count = |name: &str| -> f64 {
        counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, c)| *c as f64)
    };

    // `host.calib_ns` reports the host: a drift is flagged beside the
    // workload it happened in, never folded into a timing
    let calib = pool.samples("host.calib_ns");
    let (lo, hi) = calib
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &c| (l.min(c), h.max(c)));
    let calib_drift = if calib.is_empty() {
        0.0
    } else {
        (hi - lo) / lo
    };
    if calib_drift > 0.10 {
        pool.notes.push(format!(
            "host.calib_ns moved {:.0} % while {} ran ({lo:.0} to {hi:.0} ns): the host changed speed under these timings",
            calib_drift * 100.0,
            w.name()
        ));
    }

    let steal = pool
        .samples("host.steal_share")
        .iter()
        .fold(0.0, |a: f64, &b| a.max(b));
    if steal > 0.05 {
        pool.notes.push(format!(
            "the hypervisor withheld {:.0} % of the CPU time the guest asked for while {} ran (host.steal_share)",
            steal * 100.0,
            w.name()
        ));
    }

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if !traced {
        for m in END_TO_END.iter().filter(|m| m.applies_to(w)) {
            let samples = pool.end_to_end_samples(m.def.name);
            if samples.is_empty() {
                pool.failures.push(format!("no samples of {}", m.def.name));
            } else {
                end_to_end.push((m.def, summarize(&samples), samples));
            }
        }
    } else {
        let msgs = count("rts.msgs_delivered");
        let threads = count("rts.threads").max(1.0);
        let (hits, misses) = (count("rts.pool_hits"), count("rts.pool_misses"));
        let run_s = pool.end_to_end_value("run_wall_s");
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let probe = |name: &str| probes.get(name).copied().unwrap_or(0.0);
        // Computed, not measured: the share of (threads x run span) the
        // workers were busy, less the messages (priced at `msg_window`'s
        // cost per message, measured in this process) and the halo
        // encode/decode (priced by the codec probe).
        let kernel_share = if w.point_updates() == 0 || run_s == 0.0 {
            0.0
        } else {
            let other_ns = msgs * pool.value("window_ns_per_msg")
                + w.halo_kib(msgs as u64) * probe("ampi.f64_codec_ns_per_kb");
            pool.value("rts.worker_busy_share") - other_ns / (threads * run_s * 1e9)
        };
        for def in driver_per_layer() {
            if let Some(m) = END_TO_END.iter().find(|m| m.def.name == def.name) {
                let v = if m.applies_to(w) {
                    pool.end_to_end_value(def.name)
                } else {
                    0.0
                };
                per_layer.push((*def, v));
                continue;
            }
            let v = match def.name {
                "privatize.cow_shared_page_share" => {
                    ratio(count("cow.shared_pages"), count("cow.total_pages"))
                }
                "rts.build_us_per_rank" => {
                    pool.end_to_end_value("setup_s") * 1e6 / w.n_ranks() as f64
                }
                "rts.ns_per_msg" => ratio(run_s * 1e9, msgs),
                "rts.ctx_per_msg" => ratio(count("rts.ctx_switches"), msgs),
                "rts.pool_hit_share" => ratio(hits, hits + misses),
                "rts.wait_block_share" => {
                    ratio(count("rts.req_wait_blocks"), count("rts.req_recv_posts"))
                }
                "rts.ns_per_epoch" => ratio(run_s * 1e9, count("rts.epochs")),
                "rts.ckpt_pause_share" => pool.sample_median("rts.ckpt_pause_share"),
                "trace.overhead_share" => {
                    let traced_s = pool.value("traced_run_s");
                    if run_s == 0.0 || traced_s == 0.0 {
                        0.0
                    } else {
                        (traced_s - run_s) / run_s
                    }
                }
                "apps.run_ns_per_point" => ratio(run_s * 1e9, w.point_updates() as f64),
                "apps.kernel_share" => kernel_share,
                "host.calib_ns" | "host.steal_share" => pool.sample_median(def.name),
                "host.calib_drift" => calib_drift,
                name if def.unit == "count" && name.starts_with("rts.") => count(name),
                name if probes.contains_key(name) => probe(name),
                name => pool.value(name),
            };
            per_layer.push((*def, v));
        }
    }
    let rtt_hi_pct = pool.value("ampi.rtt_us_hi_pct");
    let failed = pool.failed.max(pool.failures.len() as u64);
    WorkloadResult {
        workload: w,
        correct: failed == 0,
        attempted: pool.attempted.max(1),
        failed,
        failures: pool.failures,
        notes: pool.notes,
        traced,
        end_to_end,
        per_layer,
        counts,
        rtt_hi_pct,
    }
}

/// Run `workloads` round-robin (every workload's first process, then every
/// workload's second, ...) so that host drift hits all alike. The first
/// process of a traced invocation also runs the layer probes, whose values
/// every workload's per-layer metrics then carry.
pub fn run_workloads(workloads: &[Workload], args: &RunArgs) -> Vec<WorkloadResult> {
    let children = children_for(args);
    let mut pools: Vec<Pool> = workloads.iter().map(|_| Pool::default()).collect();
    for index in 0..children {
        for (i, (w, pool)) in workloads.iter().zip(&mut pools).enumerate() {
            eprintln!(
                "[benchmark] {} process {}/{}",
                w.name(),
                index + 1,
                children
            );
            run_child_into(pool, *w, args, index, args.traced && index == 0 && i == 0);
        }
    }
    let probes = pools.first().map(|p| p.probes.clone()).unwrap_or_default();
    workloads
        .iter()
        .zip(pools)
        .map(|(w, pool)| derive(*w, pool, args.traced, &probes))
        .collect()
}

impl WorkloadResult {
    /// The driver's result object: untraced, the end-to-end metrics every
    /// workload reports; traced, every per-layer metric.
    pub fn result_line(&self) -> Json {
        let metrics: Vec<(String, Json)> = if !self.traced {
            self.end_to_end
                .iter()
                .filter(|(d, _, _)| driver_end_to_end().any(|m| m.def.name == d.name))
                .map(|(d, s, _)| (d.name.to_string(), metric_json(d, reported(d, s))))
                .collect()
        } else {
            self.per_layer
                .iter()
                .map(|(d, v)| (d.name.to_string(), metric_json(d, *v)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The full record kept in `--out` files.
    pub fn document(&self) -> Json {
        let e2e: Vec<(String, Json)> = self
            .end_to_end
            .iter()
            .map(|(d, s, samples)| {
                let mut m = vec![
                    ("value".to_string(), Json::Num(reported(d, s))),
                    ("unit".to_string(), Json::str(d.unit)),
                    ("better".to_string(), Json::str(d.better.as_str())),
                    ("n".to_string(), Json::Num(s.n as f64)),
                    ("q1".to_string(), Json::Num(s.q1)),
                    ("median".to_string(), Json::Num(s.median)),
                    ("q3".to_string(), Json::Num(s.q3)),
                ];
                if let Some((pct, v)) = s.high {
                    m.push(("high_pct".to_string(), Json::Num(pct)));
                    m.push(("high".to_string(), Json::Num(v)));
                }
                m.push((
                    "samples".to_string(),
                    Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
                ));
                (d.name.to_string(), Json::Obj(m))
            })
            .collect();
        let layer: Vec<(String, Json)> = self
            .per_layer
            .iter()
            .map(|(d, v)| (d.name.to_string(), metric_json(d, *v)))
            .collect();
        // bit patterns do not fit a JSON number
        let counts: Vec<(String, Json)> = self
            .counts
            .iter()
            .map(|(n, c)| {
                let v = if n == "answer_bits" {
                    Json::str(format!("{c:016x}"))
                } else {
                    Json::Num(*c as f64)
                };
                (n.clone(), v)
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("failures", strings(&self.failures)),
            ("notes", strings(&self.notes)),
            ("end_to_end", Json::Obj(e2e)),
            ("counts", Json::Obj(counts)),
            ("per_layer", Json::Obj(layer)),
        ])
    }

    /// Human-readable rendering: every metric by name with its unit.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {}: ops_attempted {} ops_failed {} {}",
            self.workload.name(),
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for (d, s, _) in &self.end_to_end {
            let high = s
                .high
                .map_or(String::new(), |(p, v)| format!("  p{p} {v:.6}"));
            let _ = writeln!(
                out,
                "  {:<16} {:>14.6} {:<4} ({} is better)  q1 {:.6}  median {:.6}  q3 {:.6}  n {}{high}",
                d.name,
                reported(d, s),
                d.unit,
                d.better.as_str(),
                s.q1,
                s.median,
                s.q3,
                s.n
            );
        }
        for (d, v) in &self.per_layer {
            let note = if d.name == "ampi.rtt_us_hi" && self.rtt_hi_pct > 0.0 {
                format!("  (p{} of the round trips)", self.rtt_hi_pct)
            } else {
                String::new()
            };
            let _ = writeln!(out, "  {:<44} {:>16.4} {}{note}", d.name, v, d.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        let mut distinct: Vec<(&String, usize)> = Vec::new();
        for f in &self.failures {
            match distinct.iter_mut().find(|(d, _)| *d == f) {
                Some((_, n)) => *n += 1,
                None => distinct.push((f, 1)),
            }
        }
        for (f, n) in distinct {
            let _ = writeln!(out, "  FAILED ({n}x): {f}");
        }
        out
    }
}

fn metric_json(d: &MetricDef, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))])
}

/// The `--out` document of a set of results. `claim` is always null: the
/// benchmark is a yardstick and claims no gain.
pub fn document(results: &[WorkloadResult], args: &RunArgs) -> Json {
    Json::obj([
        ("fingerprint", host::fingerprint()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.traced)),
        ("claim", Json::Null),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.workload.name().to_string(), r.document()))
                    .collect(),
            ),
        ),
    ])
}

/// Compare two result documents of one host. Returns the lines of the
/// comparison and whether `b` agrees with `a`: every end-to-end metric
/// within its bound (worse by at most the bound; with `two_sided`, as for
/// two sets of one build, different by at most the bound; exactly equal
/// where the bound is 0), and every count of a virtual-time workload
/// identical. Refuses to compare across host fingerprints.
pub fn compare(a: &Json, b: &Json, two_sided: bool) -> Result<(Vec<String>, bool), String> {
    let fp = |d: &Json| {
        d.get("fingerprint")
            .cloned()
            .ok_or("document without fingerprint")
    };
    host::comparable(&fp(a)?, &fp(b)?)?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("document without workloads")?;
    let mut lines = Vec::new();
    let mut ok = true;
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            return Err(format!("second document lacks workload {name}"));
        };
        let value = |w: &Json, m: &str| -> Option<f64> {
            w.get("end_to_end")?.get(m)?.get("value")?.as_f64()
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (value(wa, m.def.name), value(wb, m.def.name)) else {
                continue;
            };
            let worse = match m.def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let within = if two_sided || m.bound == 0.0 {
                worse.abs() <= m.bound
            } else {
                worse <= m.bound
            };
            ok &= within;
            lines.push(format!(
                "{name:<12} {:<18} {va:>14.6} -> {vb:>14.6} {:<4} worse by {:>+7.2} % (bound {:.0} %) {}",
                m.def.name,
                m.def.unit,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            ));
        }
        if !Workload::parse(name).is_some_and(|w| w.virtual_time()) {
            continue;
        }
        let counts = |w: &Json| w.get("counts").and_then(Json::as_obj).map(<[_]>::to_vec);
        for (count, va) in counts(wa).unwrap_or_default() {
            let vb = wb.get("counts").and_then(|c| c.get(&count));
            if vb.is_some_and(|vb| *vb != va) {
                ok = false;
                lines.push(format!(
                    "{name:<12} {count:<18} {} != {} NOT IDENTICAL",
                    va.render(),
                    vb.map_or(String::new(), Json::render)
                ));
            }
        }
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(run_wall: f64, ctx: f64, nproc: f64) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([
            (
                "fingerprint",
                Json::obj([
                    ("nproc", Json::Num(nproc)),
                    ("rustc", Json::str("r")),
                    ("profile", Json::str("p")),
                    ("git", Json::str("g")),
                    ("kernel", Json::str("k")),
                ]),
            ),
            (
                "workloads",
                Json::obj([(
                    "msg_window",
                    Json::obj([
                        (
                            "end_to_end",
                            Json::obj([
                                ("run_wall_s", value(run_wall)),
                                ("sim_makespan_ms", value(7.25)),
                            ]),
                        ),
                        ("counts", Json::obj([("rts.ctx_switches", Json::Num(ctx))])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_applies_bounds_and_exact_counts_and_refuses_other_hosts() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.def.name == "run_wall_s")
            .expect("declared")
            .bound;
        let (inside, outside) = (1.0 + 0.9 * bound, 1.0 + 1.1 * bound);
        let a = doc(1.0, 5.0, 2.0);
        let (_, ok) = compare(&a, &doc(inside, 5.0, 2.0), false).expect("same host");
        assert!(ok, "worse by less than the bound");
        let (lines, ok) = compare(&a, &doc(outside, 5.0, 2.0), false).expect("same host");
        assert!(!ok && lines.iter().any(|l| l.contains("OUT OF BOUND")));
        // two revisions: better is fine; two sets of one build: it is not
        let better = 1.0 - 1.1 * bound;
        let (_, ok) = compare(&a, &doc(better, 5.0, 2.0), false).expect("same host");
        assert!(ok);
        let (_, ok) = compare(&a, &doc(better, 5.0, 2.0), true).expect("same host");
        assert!(!ok);
        let (lines, ok) = compare(&a, &doc(1.0, 6.0, 2.0), false).expect("same host");
        assert!(!ok && lines.iter().any(|l| l.contains("NOT IDENTICAL")));
        let refused = compare(&a, &doc(1.0, 5.0, 4.0), false);
        assert!(refused.unwrap_err().contains("nproc"));
    }

    #[test]
    fn a_metric_is_reported_by_the_quartile_on_its_better_side() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&samples);
        let def = |name: &str| {
            END_TO_END
                .iter()
                .find(|m| m.def.name == name)
                .expect(name)
                .def
        };
        assert_eq!(reported(&def("run_wall_s"), &s), 2.75);
        assert_eq!(reported(&def("msgs_per_s"), &s), 8.25);
        let mut pool = Pool::default();
        pool.absorb("S run_wall_s 3\nS run_wall_s 1\nS run_wall_s 2\nO 3 0\n")
            .expect("well formed");
        assert_eq!(pool.end_to_end_value("run_wall_s"), 1.0);
        assert_eq!(pool.end_to_end_value("setup_s"), 0.0, "no samples");
    }

    #[test]
    fn a_metric_with_bound_zero_must_repeat_exactly() {
        let a = doc(1.0, 5.0, 2.0);
        let mut b = doc(1.0, 5.0, 2.0).render();
        assert!(
            compare(&a, &Json::parse(&b).expect("json"), false)
                .expect("same host")
                .1
        );
        b = b.replace("7.25", "7.250001");
        let (lines, ok) = compare(&a, &Json::parse(&b).expect("json"), false).expect("same host");
        assert!(!ok && lines.iter().any(|l| l.contains("sim_makespan_ms")));
    }

    #[test]
    fn pool_absorbs_child_lines_and_flags_disagreeing_counts() {
        let mut pool = Pool::default();
        pool.absorb("S run_wall_s 0.5\nV peak_rss_mb 10\nC rts.ctx_switches 7\nN a note\nP ult.switch_ns 30\nO 3 0\n")
            .expect("well formed");
        pool.absorb("S run_wall_s 0.7\nC rts.ctx_switches 8\nF check: bad\nO 2 1\n")
            .expect("well formed");
        assert_eq!(pool.samples("run_wall_s"), &[0.5, 0.7]);
        assert_eq!(pool.probes.get("ult.switch_ns"), Some(&30.0));
        assert_eq!((pool.attempted, pool.failed), (5, 1));
        assert_eq!(pool.count("rts.ctx_switches", true), 7);
        assert!(pool
            .failures
            .iter()
            .any(|f| f.contains("differs between processes")));
        assert!(
            Pool::default().absorb("S run_wall_s 0.5\n").is_err(),
            "no O line"
        );
        assert!(Pool::default().absorb("S run_wall_s NaN\nO 1 0\n").is_err());
    }

    #[test]
    fn calibration_drift_is_flagged_beside_the_workload_not_folded_in() {
        let mut pool = Pool::default();
        pool.absorb("S host.calib_ns 100\nS run_wall_s 0.5\nS host.calib_ns 115\nO 1 0\n")
            .expect("well formed");
        let r = derive(Workload::MatchDeep, pool, true, &BTreeMap::new());
        assert!(r
            .notes
            .iter()
            .any(|n| n.contains("host.calib_ns moved 15 %")));
        let get = |name: &str| {
            r.per_layer
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(
            get("run_wall_s"),
            None,
            "an end-to-end metric of every workload"
        );
        assert!((get("host.calib_drift").expect("listed") - 0.15).abs() < 1e-12);
    }
}
