//! The metrics the benchmark declares, the JSON it writes, and the
//! `compare` subcommand that judges two reports against the bounds.

use crate::stats::{median, spread};
use seu_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, CPU, memory).
    Lower,
    /// Larger values are better (throughput, hit shares).
    Higher,
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user or operator of the broker sees, per workload. Measured
/// with tracing off; `BENCHMARK.json` lists the same names and bounds.
/// The bounds are what the sandbox's run-to-run noise supports (see
/// README.md, "Noise rule"), not what one would wish for.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("rps", "req/s", Higher, 0.25),
    gated("latency_p50_ms", "ms", Lower, 0.25),
    gated("latency_p95_ms", "ms", Lower, 0.25),
    gated("cpu_ms_per_req", "ms", Lower, 0.25),
    gated("peak_rss_mb", "MiB", Lower, 0.2),
];

/// One or more numbers per module of the repository, from the traced
/// run. None is gated; README.md says which end-to-end metric each
/// should move.
pub const PER_LAYER: &[Metric] = &[
    // seu-net::http
    layer("http.overhead_us_p50", "us", Lower),
    layer("http.response_bytes_p50", "bytes", Lower),
    layer("http.latency_p99_ms", "ms", Lower),
    layer("http.requests", "count", Higher),
    // seu-text
    layer("text.analyze_us_p50", "us", Lower),
    // seu-metasearch: plan
    layer("broker.plan_us_p50", "us", Lower),
    layer("broker.plan_unattributed_us_p50", "us", Lower),
    layer("broker.engines_considered_per_req", "count", Lower),
    layer("broker.engines_selected_per_req", "count", Lower),
    layer("broker.stale_plans", "count", Lower),
    // seu-core / seu-poly
    layer("core.estimate_us_per_req_p50", "us", Lower),
    layer("core.estimate_us_per_engine_p50", "us", Lower),
    layer("poly.product_us_p50", "us", Lower),
    layer("poly.terms_raw_per_req", "count", Lower),
    layer("poly.terms_expanded_per_req", "count", Lower),
    layer("poly.terms_pruned_per_req", "count", Higher),
    // selection
    layer("selection.select_us_p50", "us", Lower),
    // seu-repr
    layer("repr.build_ms_per_engine_p50", "ms", Lower),
    layer("repr.bytes_resident_per_engine", "bytes", Lower),
    // registry
    layer("registry.register_ms_p50", "ms", Lower),
    layer("registry.write_ms_p50", "ms", Lower),
    layer("registry.replace_ms_p95", "ms", Lower),
    layer("registry.epoch_bumps", "count", Lower),
    // pool / dispatch
    layer("broker.dispatch_us_p50", "us", Lower),
    layer("broker.dispatch_unattributed_us_p50", "us", Lower),
    layer("pool.queue_wait_us_p50", "us", Lower),
    layer("pool.job_us_p50", "us", Lower),
    layer("pool.jobs_per_req", "count", Lower),
    // seu-engine
    layer("engine.search_us_p50", "us", Lower),
    layer("engine.index_build_ms_p50", "ms", Lower),
    layer("engine.postings_per_req", "count", Lower),
    layer("engine.docs_scored_per_req", "count", Lower),
    // merge
    layer("merge.us_p50", "us", Lower),
    layer("merge.hits_per_req", "count", Lower),
    // cache
    layer("cache.hit_share", "share", Higher),
    layer("cache.hit_us_p50", "us", Lower),
    layer("cache.miss_us_p50", "us", Lower),
    layer("cache.stale_evictions", "count", Lower),
    layer("cache.bytes_resident", "bytes", Lower),
    // seu-net: wire / frame
    layer("wire.encode_us_p50", "us", Lower),
    layer("wire.decode_us_p50", "us", Lower),
    layer("wire.bytes_per_req", "bytes", Lower),
    layer("wire.frames_per_req", "count", Lower),
    // seu-net: engine RPC
    layer("engine_rpc.us_p50", "us", Lower),
    layer("engine_rpc.overhead_us_p50", "us", Lower),
    layer("net.idle_cpu_ms_per_s", "ms/s", Lower),
    layer("net.client_connects", "count", Lower),
    layer("net.client_retries", "count", Lower),
    layer("net.client_timeouts", "count", Lower),
    layer("net.deadline_drops", "count", Lower),
    // federation
    layer("replica_rpc.estimate_us_p50", "us", Lower),
    layer("replica_rpc.search_us_p50", "us", Lower),
    layer("router.overhead_us_p50", "us", Lower),
    layer("federation.replica_calls_per_req", "count", Lower),
    layer("federation.failovers", "count", Lower),
    layer("federation.replica_failures", "count", Lower),
    // seu-store
    layer("store.rebuild_s", "s", Lower),
    layer("store.restore_s", "s", Lower),
    layer("store.attach_s", "s", Lower),
    layer("store.hydrate_s", "s", Lower),
    layer("store.get_us_p50", "us", Lower),
    layer("store.codec_decode_us_p50", "us", Lower),
    layer("store.bytes_on_disk_per_engine", "bytes", Lower),
    layer("store.hot_hit_share", "share", Higher),
    // seu-obs: the cost of measuring
    layer("trace.overhead_pct", "%", Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Correctness comparisons plus timed requests.
    pub attempted: usize,
    pub failed: usize,
    /// Failed correctness comparisons, one line each.
    pub failures: Vec<String>,
    pub values: Values,
    /// Noise evidence: slice count, per-slice values, steal share, ….
    pub detail: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn declared(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// One line per metric: `workload metric value unit`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in self.declared() {
            let v = self.values.get(m.name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "{} {} {} {}",
                self.workload,
                m.name,
                fmt_num(v),
                m.unit
            );
        }
        out
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        );
        out.retain(|c| c != '\n');
        out
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.declared().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.values.get(m.name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": ",
                m.name,
                fmt_num(v)
            );
            json::write_escaped(&mut out, m.unit);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The run as a JSON object: the result line's fields plus the seed
    /// and the noise evidence.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"failures\": [",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_escaped(&mut out, f);
        }
        let _ = write!(
            out,
            "], \"metrics\": {}, \"detail\": {{",
            self.metrics_json()
        );
        for (i, (name, values)) in self.detail.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let list: Vec<String> = values.iter().map(|v| fmt_num(*v)).collect();
            let _ = write!(out, "\"{name}\": [{}]", list.join(", "));
        }
        out.push_str("}}");
        out
    }
}

/// A number as JSON: every digit Rust's shortest round-trip formatting
/// gives, `null` for a value that was never measured.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A report file: `{"runs": [outcome, …]}`, as `run` writes it.
pub fn report_json(runs: &[String]) -> String {
    format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"))
}

/// `workload → metric → values over the report's untraced runs`.
fn end_to_end_values(
    report: &Json,
) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let runs = report
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("report has no \"runs\" array")?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        if run.get("traced").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run has no \"workload\"")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run has no \"metrics\"")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_num) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound: the runs
    /// cannot tell.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges medians `a → b` of one metric given both sides' spreads.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    if worsening(median(a), median(b), metric.better) > bound {
        Verdict::Worse
    } else if a.len() > 1 && b.len() > 1 && spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares report `b` against baseline `a`. Returns the table and
/// whether any metric got worse.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let a = end_to_end_values(&json::parse(a)?)?;
    let b = end_to_end_values(&json::parse(b)?)?;
    let mut out = format!(
        "{:<17} {:<15} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    let mut any_worse = false;
    for (workload, metrics) in &a {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics.get(m.name),
                b.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                continue;
            };
            let verdict = judge(m, va, vb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<17} {:<15} {:>12.4} {:>12.4} {:>8.3} {:>7.3} {:>7.2}  {}",
                workload,
                m.name,
                median(va),
                median(vb),
                median(vb) / median(va),
                spread(va).max(spread(vb)),
                m.bound.unwrap_or(f64::NAN),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(traced: bool) -> Outcome {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        Outcome {
            workload: "local_cold",
            seed: 42,
            traced,
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            values: declared
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, 1.5 + i as f64))
                .collect(),
            detail: [("rps_per_slice", vec![1.0, 2.0])].into_iter().collect(),
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in crate::deploy::Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn outcome_json_parses_and_names_every_declared_metric() {
        for traced in [false, true] {
            let o = outcome(traced);
            for text in [o.to_result_line(), o.to_json()] {
                let doc = json::parse(&text).expect("outcome JSON parses");
                let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
                assert_eq!(metrics.len(), o.declared().len());
                for m in o.declared() {
                    let entry = &metrics[m.name];
                    assert!(entry.get("value").and_then(Json::as_num).is_some());
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                }
            }
            let line = json::parse(&o.to_result_line()).unwrap();
            let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_code_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let declared = |ms: &[Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), declared(END_TO_END));
        assert_eq!(names("per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = crate::deploy::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names("workloads"), workloads);
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_num), m.bound);
        }
    }

    #[test]
    fn compare_flags_worse_and_unresolved() {
        let rps = &gated("rps", "req/s", Higher, 0.10);
        let steady = [100.0, 101.0, 100.5, 99.5, 100.0];
        assert_eq!(
            judge(rps, &steady, &[95.0, 96.0, 95.5, 94.5, 95.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(rps, &steady, &[85.0, 86.0, 85.5, 84.5, 85.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(rps, &steady, &[100.0, 130.0, 80.0, 120.0, 90.0]),
            Verdict::Unresolved
        );
        let report = |v: f64| {
            let mut o = outcome(false);
            o.values.insert("rps", v);
            report_json(&[o.to_json()])
        };
        let (table, worse) = compare(&report(100.0), &report(60.0)).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        let (_, worse) = compare(&report(100.0), &report(99.0)).unwrap();
        assert!(!worse);
    }
}
