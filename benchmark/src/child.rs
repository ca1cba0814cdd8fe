//! One workload in one fresh process: warm-up, checks, timed repetitions
//! (each followed by a ping-pong phase on `msg_window`) and, when asked,
//! the traced reruns and the probes.
//!
//! The child prints one line per fact on standard output; the parent
//! pools them (see `report.rs`):
//!
//! ```text
//! S <metric> <value>     one pooled sample
//! V <name> <value>       a single value of this process
//! P <name> <value>       a probe's value (does not depend on the workload)
//! C <name> <count>       an exact count of one repetition
//! O <attempted> <failed> operations
//! F <text>               a failed check
//! N <text>               a note
//! ```

use crate::host::{calib_ns, cpu_jiffies, nproc, peak_rss_mb};
use crate::metrics::reports;
use crate::probes;
use crate::span::{Acc, Recorder, HARNESS_TRACK, NO_SPAN};
use crate::stats::{median, summarize};
use crate::workloads::{
    answer, build_only, check, pingpong, repetition, Inputs, Reference, Rep, RunOpts, Workload,
    PINGPONG_TRIPS,
};
use pvr_rts::RunReport;
use pvr_trace::Tracer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Budget of the timed loop in seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Cap on timed repetitions (`--reps`, for smoke tests).
    pub reps: Option<usize>,
    /// Run the cross-engine and reference checks (first child only).
    pub cross_check: bool,
    /// Run the layer probes (one child per invocation).
    pub probes: bool,
    /// Where the traced run writes its span file.
    pub span_file: Option<PathBuf>,
}

/// Build-only set-ups timed after each repetition, so that a run pools
/// well over thirty set-up samples.
const EXTRA_BUILDS: usize = 2;
/// Per-PE ring capacity of the traced run, about three times what the
/// busiest PE of any workload records (`msg_window`: 2.7 M events on four
/// PEs). Reserved, not touched, until events arrive.
const TRACE_RING: usize = 1 << 21;
const SPAN_CAPACITY: usize = 4096;
/// Traced repetitions per traced run: one sample of a 0.3 s run is within
/// +-30 % of the untraced median on this host, too coarse for an overhead.
const TRACED_REPS: u32 = 3;

/// The lines this process reports, and its operation counts.
#[derive(Default)]
struct Log {
    out: String,
    attempted: u64,
    failed: u64,
}

/// Append one protocol line to a [`Log`].
macro_rules! say {
    ($log:expr, $($arg:tt)*) => {{
        use std::fmt::Write;
        let _ = writeln!($log.out, $($arg)*);
    }};
}

impl Log {
    /// Count one operation; report and count its failures.
    fn record(&mut self, what: &str, fails: &[String]) {
        self.attempted += 1;
        if !fails.is_empty() {
            self.failed += 1;
            for f in fails {
                say!(self, "F {what}: {f}");
            }
        }
    }

    fn finish(mut self) -> String {
        say!(self, "O {} {}", self.attempted, self.failed);
        self.out
    }
}

/// Run one repetition as one operation; `None` when it failed outright.
fn run_op(
    w: Workload,
    inp: &Arc<Inputs>,
    opts: &RunOpts,
    first: Option<Reference>,
    what: &str,
    log: &mut Log,
) -> Option<Rep> {
    match repetition(w, inp, opts) {
        Ok(rep) => {
            log.record(what, &check(w, &rep, first));
            Some(rep)
        }
        Err(e) => {
            log.record(what, &[e]);
            None
        }
    }
}

fn counts(r: &RunReport) -> Vec<(&'static str, u64)> {
    vec![
        ("rts.ctx_switches", r.context_switches),
        ("rts.msgs_delivered", r.messages_delivered),
        ("rts.epochs", r.engine.epochs),
        ("rts.barriers", r.engine.barriers),
        ("rts.lb_steps", r.lb_steps as u64),
        ("rts.migrations", r.migrations.len() as u64),
        ("rts.migrated_bytes", r.total_migration_bytes() as u64),
        ("rts.ckpt_bases", r.faults.checkpoints as u64),
        ("rts.ckpt_deltas", r.ckpt.deltas as u64),
        ("rts.ckpt_delta_bytes", r.ckpt.delta_bytes),
        ("rts.recoveries", r.faults.recoveries as u64),
        ("rts.req_recv_posts", r.req.recv_posts),
        ("rts.req_wait_blocks", r.req.wait_blocks),
        ("rts.pool_hits", r.engine.pool_hits),
        ("rts.pool_misses", r.engine.pool_misses),
        ("rts.threads", r.engine.threads as u64),
        ("cow.shared_pages", r.cow.shared_pages),
        ("cow.total_pages", r.cow.total_pages),
        ("sim_makespan_ns", r.sim_elapsed.nanos()),
    ]
}

/// Serial <-> Threads(2) digest equality, and for `surge_ft` the
/// no-failure, no-checkpoint reference answer.
fn cross_checks(w: Workload, inp: &Arc<Inputs>, first: &Rep, log: &mut Log) {
    if w.virtual_time() {
        let opts = RunOpts {
            parallelism: w.other_engine(),
            ..RunOpts::timed(w)
        };
        let reference = Reference::of(first);
        if let Some(other) = run_op(w, inp, &opts, Some(reference), "other engine", log) {
            if other.report.sim_elapsed != first.report.sim_elapsed {
                log.record("other engine", &["sim_makespan differs".into()]);
            }
        }
    }
    if w == Workload::SurgeFt {
        let opts = RunOpts {
            plain_surge: true,
            ..RunOpts::timed(w)
        };
        // its digest legitimately differs (no LB, no checkpoints)
        if let Some(plain) = run_op(w, inp, &opts, None, "plain surge", log) {
            let (a, b) = (answer(first), answer(&plain));
            let fails = if a.is_some() && a == b {
                vec![]
            } else {
                vec![format!(
                    "max_eta {a:?} differs from the undisturbed run's {b:?}"
                )]
            };
            log.record("surge answer", &fails);
        }
    }
}

/// One traced repetition: the repo's tracer through
/// `MachineBuilder::tracer` plus the benchmark's span recorder. Every value
/// it reports is reported once per traced repetition; the parent takes the
/// median. The last repetition's spans are the ones written out.
fn traced_run(a: &ChildArgs, inp: &Arc<Inputs>, first: Reference, rep_id: u32, log: &mut Log) {
    let w = a.workload;
    let tracer = Tracer::with_capacity(w.n_pes(), TRACE_RING);
    tracer.enable();
    let rec = Arc::new(Recorder::new(w.name(), rep_id, w.n_ranks(), SPAN_CAPACITY));
    let rep_span = rec.open("repetition", NO_SPAN, HARNESS_TRACK);
    rec.set_scope(rep_span);
    let opts = RunOpts {
        tracer: Some(tracer.clone()),
        recorder: Some(rec.clone()),
        ..RunOpts::timed(w)
    };
    let rep = run_op(w, inp, &opts, Some(first), "traced", log);
    rec.close(rep_span);
    tracer.disable();
    let Some(rep) = rep else { return };

    // the PR-1 convention: every tally with an event kind reconciles
    let c = tracer.counts();
    let r = &rep.report;
    let mut fails = Vec::new();
    for (name, traced, tallied) in [
        ("ctx_switches", c.ctx_switches, r.context_switches),
        ("msgs_recv", c.msgs_recv, r.messages_delivered),
        ("migrations", c.migrations, r.migrations.len() as u64),
        ("lb_steps", c.lb_steps, r.lb_steps as u64),
        ("checkpoints", c.checkpoints, r.faults.checkpoints as u64),
        ("recoveries", c.recoveries, r.faults.recoveries as u64),
        ("ckpt_deltas", c.ckpt_deltas, r.ckpt.deltas as u64),
        (
            "req_posts",
            c.req_posts,
            r.req.send_posts + r.req.recv_posts,
        ),
        (
            "req_completes",
            c.req_completes,
            r.req.send_completes + r.req.recv_completes,
        ),
        ("req_wait_blocks", c.req_wait_blocks, r.req.wait_blocks),
        ("pool_hits", c.pool_hits, r.engine.pool_hits),
    ] {
        if traced != tallied {
            fails.push(format!("trace {name} {traced} != RunReport {tallied}"));
        }
    }
    if tracer.dropped() != 0 {
        fails.push(format!("tracer dropped {} events", tracer.dropped()));
    }
    if rec.dropped() != 0 {
        fails.push(format!("span recorder dropped {} spans", rec.dropped()));
    }
    log.record("trace reconciliation", &fails);

    say!(log, "V trace.events {}", c.total_events());
    say!(log, "V trace.dropped {}", tracer.dropped());
    say!(log, "V traced_run_s {}", rep.run.as_secs_f64());
    let per_call = |acc: Acc| {
        let t = rec.acc_total(acc);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    };
    for (name, acc) in [
        ("ampi.post_ns_per_call", Acc::Post),
        ("ampi.wait_ns_per_msg", Acc::Wait),
        ("ampi.recv_posted_ns_per_msg", Acc::RecvPosted),
        ("ampi.recv_unexpected_ns_per_msg", Acc::RecvUnexpected),
    ] {
        say!(log, "V {name} {}", per_call(acc));
    }
    let spans = rec.spans();
    say!(log, "V span.recorded {}", spans.len());
    say!(log, "V span.dropped {}", rec.dropped());
    say!(
        log,
        "V span.repetition_self_ns {}",
        Recorder::self_ns(&spans, rep_span)
    );
    if let Some(run) = spans.iter().position(|s| s.name == "rts.run") {
        say!(
            log,
            "V span.rts_run_self_ns {}",
            Recorder::self_ns(&spans, run as u32)
        );
    }
    if let Some(path) = a.span_file.as_ref().filter(|_| rep_id + 1 == TRACED_REPS) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, rec.to_chrome_json()) {
            Ok(()) => say!(log, "N span file {}", path.display()),
            Err(e) => log.record("span file", &[format!("{}: {e}", path.display())]),
        }
    }
}

/// One ping-pong phase as one operation; reports its median round trip
/// and appends its trips to `trips`.
fn pingpong_op(a: &ChildArgs, trips: &mut Vec<f64>, log: &mut Log) {
    let n = a
        .reps
        .map_or(PINGPONG_TRIPS, |r| PINGPONG_TRIPS.min(1000 * r));
    match pingpong(a.workload, n) {
        Ok(rtt) => {
            log.record("pingpong", &[]);
            let us: Vec<f64> = rtt.iter().map(|&ns| ns as f64 / 1e3).collect();
            say!(log, "S pingpong_rtt_us {}", median(&us));
            trips.extend(us);
        }
        Err(e) => log.record("pingpong", &[e]),
    }
}

/// Run the child's whole programme; returns the lines to print.
pub fn run(a: &ChildArgs) -> String {
    let w = a.workload;
    let inp = Arc::new(Inputs::generate(a.seed));
    let mut log = Log::default();
    let jiffies = cpu_jiffies();
    say!(log, "S host.calib_ns {}", calib_ns());
    say!(log, "V host.nproc {}", nproc());

    // untimed warm-up; its outputs are the reference for the rest
    let Some(first) = run_op(w, &inp, &RunOpts::timed(w), None, "warm-up", &mut log) else {
        return log.finish();
    };
    // Peak memory is read here, after exactly one repetition in a fresh
    // process: later repetitions overlap the teardown of their predecessor
    // by a varying amount, which moves the high-water mark in steps.
    if let Some(mb) = peak_rss_mb() {
        say!(log, "V peak_rss_mb {mb}");
    }
    let reference = Reference::of(&first);
    for (name, v) in counts(&first.report) {
        say!(log, "C {name} {v}");
    }
    say!(log, "C answer_bits {}", reference.answer_bits);
    say!(log, "V rts.pe_util {}", first.report.mean_utilization());
    if a.cross_check {
        cross_checks(w, &inp, &first, &mut log);
    }
    drop(first);

    // Timed repetitions. Each is followed by two more set-ups, so that a
    // run pools well over thirty, and on `msg_window` by a ping-pong phase,
    // so that the round trips are spread over the run as the repetitions
    // are.
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let cap = a.reps.unwrap_or(usize::MAX);
    let min_reps = cap.min(2);
    let mut reps = 0usize;
    let mut busy_share = Vec::new();
    let mut trips: Vec<f64> = Vec::new();
    while reps < min_reps || (reps < cap && Instant::now() < deadline) {
        reps += 1;
        let rep = run_op(
            w,
            &inp,
            &RunOpts::timed(w),
            Some(reference),
            "repetition",
            &mut log,
        );
        if let Some(rep) = rep {
            let run_s = rep.run.as_secs_f64();
            say!(log, "S setup_s {}", rep.build.as_secs_f64());
            say!(log, "S run_wall_s {run_s}");
            if reports(w, "msgs_per_s") {
                say!(
                    log,
                    "S msgs_per_s {}",
                    rep.report.messages_delivered as f64 / run_s
                );
            }
            let captures = rep.report.faults.checkpoints as u64 + rep.report.ckpt.deltas as u64;
            if captures > 0 {
                let pause_s = rep.report.ckpt.pause_ns as f64 / 1e9;
                say!(log, "S ckpt_pause_ms {}", pause_s * 1e3 / captures as f64);
                say!(log, "S rts.ckpt_pause_share {}", pause_s / run_s);
            }
            let e = &rep.report.engine;
            if !e.worker_wall.is_empty() {
                let busy: f64 = e.worker_wall.iter().map(Duration::as_secs_f64).sum();
                busy_share.push(busy / (e.worker_wall.len() as f64 * run_s));
            }
        }
        for _ in 0..EXTRA_BUILDS {
            match build_only(w) {
                Ok(d) => say!(log, "S setup_s {}", d.as_secs_f64()),
                Err(e) => log.record("build", &[e]),
            }
        }
        if reports(w, "pingpong_rtt_us") {
            pingpong_op(a, &mut trips, &mut log);
        }
    }
    if !busy_share.is_empty() {
        say!(log, "V rts.worker_busy_share {}", median(&busy_share));
    }
    if let Some((pct, v)) = (!trips.is_empty())
        .then(|| summarize(&trips).high)
        .flatten()
    {
        say!(log, "V ampi.rtt_us_hi {v}");
        say!(log, "V ampi.rtt_us_hi_pct {pct}");
    }

    if a.traced {
        for rep_id in 0..TRACED_REPS {
            traced_run(a, &inp, reference, rep_id, &mut log);
        }
        // `apps.kernel_share` prices the stencil workloads' messages at
        // `msg_window`'s cost per message: one repetition of it, here
        if w.point_updates() > 0 {
            let mw = Workload::MsgWindow;
            if let Some(rep) = run_op(
                mw,
                &inp,
                &RunOpts::timed(mw),
                None,
                "message price",
                &mut log,
            ) {
                say!(
                    log,
                    "V window_ns_per_msg {}",
                    rep.run.as_nanos() as f64 / rep.report.messages_delivered as f64
                );
            }
        }
    }
    if a.probes {
        for (name, v) in probes::run_all() {
            say!(log, "P {name} {v}");
        }
    }
    say!(log, "S host.calib_ns {}", calib_ns());
    if let (Some((s0, w0)), Some((s1, w1))) = (jiffies, cpu_jiffies()) {
        if w1 > w0 {
            say!(
                log,
                "S host.steal_share {}",
                (s1 - s0) as f64 / (w1 - w0) as f64
            );
        }
    }
    log.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{driver_per_layer, END_TO_END};
    use crate::report::{derive, Pool};

    fn smoke(w: Workload, traced: bool) -> crate::report::WorkloadResult {
        let lines = run(&ChildArgs {
            workload: w,
            seed: 1,
            seconds: 0.01,
            traced,
            reps: Some(1),
            cross_check: true,
            probes: traced,
            span_file: traced.then(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("trace-out")
                    .join(format!("smoke-{}.trace.json", w.name()))
            }),
        });
        let mut pool = Pool::default();
        pool.absorb(&lines).expect("child output parses");
        let probes = pool.probes.clone();
        derive(w, pool, traced, &probes)
    }

    /// `--reps 1` of every workload: every check passes and every
    /// end-to-end metric the workload reports is measured and non-zero.
    #[test]
    fn every_workload_runs_one_repetition_correctly() {
        for w in Workload::ALL {
            let r = smoke(w, false);
            assert!(r.correct, "{}: {:?}", w.name(), r.failures);
            assert!(r.attempted >= 2, "{}: {} operations", w.name(), r.attempted);
            let expected: Vec<&str> = END_TO_END
                .iter()
                .filter(|m| m.applies_to(w))
                .map(|m| m.def.name)
                .collect();
            let got: Vec<&str> = r.end_to_end.iter().map(|(d, _, _)| d.name).collect();
            assert_eq!(got, expected, "{}", w.name());
            for (d, s, _) in &r.end_to_end {
                assert!(s.n > 0 && s.median > 0.0, "{} {} = {s:?}", w.name(), d.name);
            }
            let line = r.result_line().render();
            for m in crate::metrics::driver_end_to_end() {
                assert!(line.contains(m.def.name), "{} lacks {}", line, m.def.name);
            }
        }
    }

    /// The traced path: reconciliation holds, the span file is written and
    /// every per-layer metric is printed.
    #[test]
    fn traced_path_reports_every_per_layer_metric() {
        let w = Workload::MatchDeep;
        let r = smoke(w, true);
        assert!(r.correct, "{:?}", r.failures);
        assert_eq!(r.per_layer.len(), driver_per_layer().count());
        let get = |name: &str| {
            r.per_layer
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, v)| *v)
                .expect(name)
        };
        assert_eq!(
            get("rts.msgs_delivered"),
            w.expected_messages().expect("known") as f64
        );
        assert_eq!(get("trace.dropped"), 0.0);
        for name in [
            "ult.switch_ns",
            "des.schedule_ns",
            "ampi.recv_posted_ns_per_msg",
            "ampi.recv_unexpected_ns_per_msg",
            "trace.events",
            "span.recorded",
            "sim_makespan_ms",
        ] {
            assert!(get(name) > 0.0, "{name} = {}", get(name));
        }
        let span_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("trace-out")
            .join("smoke-match_deep.trace.json");
        let text = std::fs::read_to_string(span_file).expect("span file written");
        let doc = crate::json::Json::parse(&text).expect("span file is JSON");
        let events = doc.get("traceEvents").and_then(crate::json::Json::as_arr);
        assert!(
            events.is_some_and(|e| e.len() >= 3),
            "repetition, rts.build, rts.run"
        );
    }
}
