//! `seu-benchmark`: the repository's benchmark. See README.md.
//!
//! ```text
//! seu-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload in this process; the last line of
//!     standard output is the result object BENCHMARK.json's contract
//!     describes
//! seu-benchmark run [--seed N] [--seconds S] [--workload W] [--traced]
//!                   [--repeat R] [--smoke] [--out FILE]
//!     every workload (or W), each run in a child process of its own;
//!     prints every metric and writes the JSON report
//! seu-benchmark compare A.json B.json
//!     judges report B against baseline A; exits 1 if a metric is worse
//! ```

// `is_multiple_of` would raise the toolchain floor above the root
// workspace's `rust-version`.
#![allow(clippy::manual_is_multiple_of)]

mod checks;
mod deploy;
mod http;
mod inputs;
mod load;
mod report;
mod run;
mod stats;
mod sys;
mod trace;

use deploy::Workload;
use inputs::Size;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 12.0;

/// Where runs leave their files (trace dumps, the store, reports):
/// `benchmark/out/`, ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("creating benchmark/out");
    dir
}

/// Parsed command-line flags, shared by the one-workload mode and `run`.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => flags.traced = value()? != "0",
            "--traced" => flags.traced = true,
            "--smoke" => flags.smoke = true,
            "--repeat" => flags.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if flags.seconds.is_nan() || flags.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(flags)
}

/// One workload in this process; prints the metrics, then the result
/// line, and also leaves the detailed JSON in `out/` for `run`.
fn one(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload.ok_or("--workload is required")?;
    let size = if flags.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    println!("# {}: {}", workload.name(), workload.why());
    let outcome = run::run_workload(workload, flags.seed, flags.seconds, flags.traced, size);
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    print!("{}", outcome.to_text());
    std::fs::write(detail_path(workload, flags.traced), outcome.to_json())
        .map_err(|e| format!("writing the run's detail: {e}"))?;
    println!("{}", outcome.to_result_line());
    Ok(outcome.correct())
}

fn detail_path(workload: Workload, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "last_{}_{}.json",
        workload.name(),
        if traced { "traced" } else { "timed" }
    ))
}

/// Every workload, one child process per run, so memory high-water
/// marks, seu-obs counters, TIME_WAIT debris and leftover server threads
/// never leak from one workload into the next.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let workloads: Vec<Workload> = match flags.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let passes: &[bool] = if flags.traced {
        &[false, true]
    } else {
        &[false]
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for _ in 0..flags.repeat.max(1) {
        for &workload in &workloads {
            for &traced in passes {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload.name()])
                    .args(["--seed", &flags.seed.to_string()])
                    .args(["--seconds", &flags.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stdin(Stdio::null());
                if flags.smoke {
                    child.arg("--smoke");
                }
                let output = child
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning the {} run: {e}", workload.name()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                // Everything but the result line is the metric listing.
                let listing = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .map_or("", |(head, _)| head);
                println!("{listing}");
                all_correct &= output.status.success();
                let detail = std::fs::read_to_string(detail_path(workload, traced))
                    .map_err(|e| format!("reading the {} run's detail: {e}", workload.name()))?;
                runs.push(detail);
            }
        }
    }
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("report.json"));
    std::fs::write(&path, report::report_json(&runs))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("report: {}", path.display());
    Ok(all_correct)
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: seu-benchmark compare A.json B.json".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, any_worse) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_all(&f)),
        Some("compare") => compare(&args[1..]),
        _ => parse_flags(&args).and_then(|f| one(&f)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("seu-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
