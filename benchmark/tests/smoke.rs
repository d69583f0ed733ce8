//! Every workload, timed and traced, at `--smoke` size through the real
//! binary: the run passes its own checks, finishes in time, reports every
//! declared metric with its unit, and `compare` reads what `run` wrote.

use seu_obs::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_seu-benchmark"))
}

#[test]
fn smoke_run_reports_every_declared_metric_in_time() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_report.json");
    let start = Instant::now();
    let run = benchmark()
        .args([
            "run",
            "--smoke",
            "--traced",
            "--seconds",
            "1",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("running the benchmark");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // Four workloads, each timed (2 slices and more) and traced.
    assert!(
        elapsed < Duration::from_secs(120),
        "smoke run took {elapsed:?}"
    );

    let declared = json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        declared
            .get(key)
            .and_then(Json::as_arr)
            .expect("declared list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let report = json::parse(&std::fs::read_to_string(&out).expect("report file"))
        .expect("report parses with seu_obs::json");
    let runs = report.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 8, "four workloads, timed and traced");
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        assert_eq!(
            run.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            run.get("failed").and_then(Json::as_num),
            Some(0.0),
            "{workload}"
        );
        let traced = run.get("traced").and_then(Json::as_bool).expect("traced");
        let metrics = run.get("metrics").and_then(Json::as_obj).expect("metrics");
        let expected = names(if traced { "per_layer" } else { "end_to_end" });
        assert_eq!(metrics.len(), expected.len(), "{workload}");
        for (name, unit) in expected {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            let value = m.get("value").and_then(Json::as_num);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} {name}: {value:?}"
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            assert!(
                stdout.contains(&format!("{workload} {name} ")),
                "{workload} {name} is not in the listing"
            );
        }
        if !traced {
            let slices = run
                .get("detail")
                .and_then(|d| d.get("slices"))
                .and_then(Json::as_arr)
                .and_then(|v| v.first())
                .and_then(Json::as_num)
                .expect("slice count");
            assert!(slices >= 2.0, "{workload}: {slices} slices");
        }
    }

    // A report compared with itself has nothing worse.
    let compare = benchmark()
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("running compare");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        table.contains("registry_10k") && table.contains("latency_p95_ms"),
        "{table}"
    );
    assert!(!table.contains("worse"), "{table}");
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["compare", "only-one.json"][..],
        &["--bogus"][..],
    ] {
        let out = benchmark()
            .args(args)
            .output()
            .expect("running the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
