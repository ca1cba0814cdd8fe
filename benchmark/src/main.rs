//! `pvr-benchmark` — the repo's yardstick. See README.md.
//!
//! ```text
//! pvr-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--out PATH] [--reps N]
//! pvr-benchmark repeat-check [--seed N] [--seconds S]
//! pvr-benchmark compare A.json B.json
//! ```

mod child;
mod host;
mod json;
mod matcher;
mod metrics;
mod probes;
mod report;
mod rng;
mod span;
mod stats;
mod workloads;

use json::Json;
use report::{RunArgs, WorkloadResult};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// `run_seconds` of BENCHMARK.json; the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Cli {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    reps: Option<usize>,
    cross_check: bool,
    probes: bool,
    files: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        reps: None,
        cross_check: false,
        probes: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    if let Some(first) = args.first().filter(|a| !a.starts_with("--")) {
        cli.command = first.clone();
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => cli.out = Some(value()?),
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                cli.reps = Some(n.max(1));
            }
            "--cross-check" => cli.cross_check = true,
            "--probes" => cli.probes = true,
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            file => cli.files.push(file.to_string()),
        }
    }
    Ok(cli)
}

fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_args(cli: &Cli, traced: bool) -> RunArgs {
    RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        traced,
        reps: cli.reps,
    }
}

fn cmd_run(cli: &Cli) -> Result<bool, String> {
    let workloads: Vec<Workload> = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let args = run_args(cli, cli.traced);
    let results = report::run_workloads(&workloads, &args);
    println!("host fingerprint: {}", host::fingerprint().render());
    for r in &results {
        print!("{}", r.render());
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, report::document(&results, &args).render() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    // the result line is the last line of standard output
    let line = match results.as_slice() {
        [one] if cli.workload.is_some() => one.result_line(),
        all => Json::obj([
            ("correct", Json::Bool(all.iter().all(|r| r.correct))),
            (
                "attempted",
                Json::Num(all.iter().map(|r| r.attempted).sum::<u64>() as f64),
            ),
            (
                "failed",
                Json::Num(all.iter().map(|r| r.failed).sum::<u64>() as f64),
            ),
            (
                "workloads",
                Json::Obj(
                    all.iter()
                        .map(|r| (r.workload.name().to_string(), r.result_line()))
                        .collect(),
                ),
            ),
        ]),
    };
    println!("{}", line.render());
    Ok(results.iter().all(|r| r.correct))
}

/// One full set: every workload untraced, then every workload traced,
/// merged into one document.
fn full_set(cli: &Cli) -> (Json, bool) {
    let untraced = report::run_workloads(&Workload::ALL, &run_args(cli, false));
    let traced = report::run_workloads(&Workload::ALL, &run_args(cli, true));
    let correct = untraced.iter().chain(&traced).all(|r| r.correct);
    let merged: Vec<WorkloadResult> = untraced
        .into_iter()
        .zip(traced)
        .map(|(mut u, t)| {
            u.per_layer = t.per_layer;
            u.failures.extend(t.failures);
            u.notes
                .extend(t.notes.into_iter().map(|n| format!("traced set: {n}")));
            u
        })
        .collect();
    for r in &merged {
        for f in &r.failures {
            eprintln!("[benchmark] {} FAILED: {f}", r.workload.name());
        }
    }
    (report::document(&merged, &run_args(cli, false)), correct)
}

fn cmd_repeat_check(cli: &Cli) -> Result<bool, String> {
    let (a, a_ok) = full_set(cli);
    let (b, b_ok) = full_set(cli);
    let (lines, within) = report::compare(&a, &b, true)?;
    for l in &lines {
        println!("{l}");
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, b.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    let ok = a_ok && b_ok && within;
    println!(
        "repeat-check: {}",
        if ok {
            "two sets of the same build agree within the bounds"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn cmd_compare(cli: &Cli) -> Result<bool, String> {
    let [a, b] = cli.files.as_slice() else {
        return Err("compare takes two result files written with --out".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
    };
    let (lines, ok) = report::compare(&load(a)?, &load(b)?, false)?;
    for l in &lines {
        println!("{l}");
    }
    Ok(ok)
}

fn cmd_child(cli: &Cli) -> Result<bool, String> {
    let workload = cli.workload.ok_or("child needs --workload")?;
    let lines = child::run(&child::ChildArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        reps: cli.reps,
        cross_check: cli.cross_check,
        probes: cli.probes,
        span_file: cli.traced.then(|| {
            benchmark_dir()
                .join("trace-out")
                .join(format!("{}.trace.json", workload.name()))
        }),
    });
    print!("{lines}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli.command.as_str() {
        "run" => cmd_run(&cli),
        "child" => cmd_child(&cli),
        "repeat-check" => cmd_repeat_check(&cli),
        "compare" => cmd_compare(&cli),
        other => Err(format!(
            "unknown command `{other}` (run, repeat-check, compare)"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pvr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
