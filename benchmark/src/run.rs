//! One run of one workload in this process: make the inputs, stand the
//! deployment up (timed, [`SETUPS`] times), check its answers, measure.

use crate::deploy::{deploy, Deployment, Door, Fixture, SetupTimes, SeuBroker, Workload, Writer};
use crate::inputs::{self, Size};
use crate::load::Timings;
use crate::report::{Outcome, Values};
use crate::stats::{median, percentile};
use crate::{checks, load, sys, trace};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Set-ups per timed run; `setup_s` is their median, and the last one
/// serves. (The traced run sets up once: it reports no `setup_s`.)
const SETUPS: usize = 3;
/// A timed window never ends before this many measured slices.
const MIN_SLICES: usize = 2;
/// Writes the traced run times after its window on workloads that do
/// not write during it, spread over [`QUIET_WRITE_SPAN`]. A front-door
/// write stands a whole engine server up beforehand, so it gets fewer.
const QUIET_WRITES: usize = 96;
const QUIET_PLACEMENTS: usize = 24;
const QUIET_WRITE_SPAN: Duration = Duration::from_millis(2500);
const WRITE_ROUND: usize = 8;
/// Writes prepared for `zipf_churn`'s window (client 0 writes once per
/// 250 of its requests — about 45 in 12 s; a window that needs more
/// stops writing).
const CHURN_WRITES: usize = 96;

/// A deployment that passed its checks, with what set-up measured.
pub struct Ready {
    pub fx: Fixture,
    pub deployment: Deployment,
    pub setups: Vec<SetupTimes>,
    /// `registry_10k` only: seconds of the cold boot that filled the
    /// store.
    pub cold_boot_s: Option<f64>,
    /// `remote_federated` only: a flat broker over the cluster's engine
    /// servers — the reference the two-tier answers must equal.
    pub control: Option<Arc<SeuBroker>>,
    pub checked: checks::Checked,
}

/// Inputs → deployment → checks. Shared by the timed and the traced run.
pub fn prepare(workload: Workload, seed: u64, size: Size, n_setups: usize) -> Ready {
    let fx = Fixture::generate(workload, seed, size);
    let cold: Option<(SeuBroker, f64)> =
        (workload == Workload::Registry10k).then(|| fx.cold_boot());
    let mut setups = Vec::with_capacity(n_setups);
    let mut deployment = None;
    for _ in 0..n_setups.max(1) {
        // Tear the previous deployment down first: two would share the
        // cores (and, for registry_10k, the store).
        drop(deployment.take());
        let (d, times) = deploy(&fx);
        setups.push(times);
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one set-up");
    let control = match &deployment.door {
        Door::Federated(cluster) => Some(Arc::new(checks::control_broker(cluster))),
        Door::Broker(_) => None,
    };
    let reference = control.as_deref().or(cold.as_ref().map(|(b, _)| b));
    let checked = checks::run(&fx, &deployment, reference);
    Ready {
        fx,
        deployment,
        setups,
        cold_boot_s: cold.map(|(_, s)| s),
        control,
        checked,
    }
}

/// Times the write door with no readers: rounds of [`WRITE_ROUND`]
/// back-to-back writes (one per target database), a pause after each
/// round so that the rounds spread over [`QUIET_WRITE_SPAN`] instead of
/// all falling into one burst of steal; latencies in ms.
fn quiet_writes(fx: &Fixture, deployment: &Deployment) -> (Vec<f64>, Writer) {
    let n = match deployment.door {
        Door::Broker(_) => QUIET_WRITES,
        Door::Federated(_) => QUIET_PLACEMENTS,
    };
    let mut writer = Writer::prepare(fx, &deployment.door, n);
    let pause = QUIET_WRITE_SPAN / (n / WRITE_ROUND) as u32;
    let mut ms = Vec::with_capacity(n);
    while let Some(latency) = writer.write(&deployment.door) {
        ms.push(latency);
        if ms.len() % WRITE_ROUND == 0 {
            std::thread::sleep(pause);
        }
    }
    (ms, writer)
}

/// The workload's traffic for `seconds`. On `zipf_churn` client 0 writes
/// during it (the latencies are the window's `write_ms`), and the writer
/// that did is returned.
fn traffic(
    fx: &Fixture,
    deployment: &Deployment,
    seconds: f64,
    min_slices: usize,
) -> (load::Window, Option<Writer>) {
    if fx.workload == Workload::ZipfChurn {
        let mut writer = Writer::prepare(fx, &deployment.door, CHURN_WRITES);
        let window = load::run_window(fx, deployment, seconds, min_slices, Some(&mut writer));
        (window, Some(writer))
    } else {
        let window = load::run_window(fx, deployment, seconds, min_slices, None);
        (window, None)
    }
}

/// The traced run's traffic and writes: during the window on
/// `zipf_churn`, after it elsewhere. Returns the window, every write's
/// latency in ms, and the writer, which must outlive the deployment's
/// last request (it owns the engine servers it placed).
pub fn traffic_and_writes(
    fx: &Fixture,
    deployment: &Deployment,
    seconds: f64,
    min_slices: usize,
) -> (load::Window, Vec<f64>, Writer) {
    match traffic(fx, deployment, seconds, min_slices) {
        (window, Some(writer)) => {
            let write_ms = window.write_ms.clone();
            (window, write_ms, writer)
        }
        (window, None) => {
            let (write_ms, writer) = quiet_writes(fx, deployment);
            (window, write_ms, writer)
        }
    }
}

/// Runs `workload` once and returns what it measured: the end-to-end
/// metrics, or with `traced` the per-layer ones.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Outcome {
    let _awake = sys::KeepAwake::start();
    let mut ready = prepare(workload, seed, size, if traced { 1 } else { SETUPS });
    if !traced {
        // Only the traced run probes through the control broker; idle
        // connections of it must not sit on the timed cluster.
        ready.control = None;
    }
    let mut values = Values::new();
    let mut detail: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    detail.insert("nproc", vec![sys::nproc() as f64]);
    // The request stream's hash, as two exactly representable halves:
    // equal seeds must show equal inputs.
    let hash = inputs::stream_hash(ready.fx.requests.iter().map(String::as_str));
    detail.insert(
        "request_stream_hash",
        vec![(hash >> 32) as f64, (hash & 0xffff_ffff) as f64],
    );
    let timed_requests;
    let timed_failures;

    if traced {
        let traced = trace::run(&ready, seconds);
        timed_requests = traced.attempted;
        timed_failures = traced.failed;
        values = traced.values;
        detail.extend(traced.detail);
    } else {
        let Ready {
            fx,
            deployment,
            setups,
            ..
        } = &ready;
        let (window, _writer) = traffic(fx, deployment, seconds, MIN_SLICES);
        timed_requests = window.attempted;
        timed_failures = window.failed;

        let setup_s: Vec<f64> = setups.iter().map(|s| s.total).collect();
        values.insert("setup_s", median(&setup_s));
        let timings = window.timings();
        values.insert("rps", timings.rps);
        values.insert("latency_p50_ms", timings.latency_p50_ms);
        values.insert("latency_p95_ms", timings.latency_p95_ms);
        values.insert("cpu_ms_per_req", timings.cpu_ms_per_req);
        values.insert("peak_rss_mb", sys::peak_rss_mib());

        detail.insert("setup_s_each", setup_s);
        detail.insert("slices", vec![window.slices.len() as f64]);
        let raw: Vec<Timings> = window.slices.iter().map(|s| s.raw()).collect();
        let per_slice =
            |value: fn(&Timings) -> f64| -> Vec<f64> { raw.iter().map(value).collect() };
        detail.insert(
            "requests_per_slice",
            vec![fx.workload.slice_requests(size) as f64],
        );
        detail.insert("rps_per_slice", per_slice(|t| t.rps));
        detail.insert("latency_p50_ms_per_slice", per_slice(|t| t.latency_p50_ms));
        detail.insert("latency_p95_ms_per_slice", per_slice(|t| t.latency_p95_ms));
        detail.insert("cpu_ms_per_req_per_slice", per_slice(|t| t.cpu_ms_per_req));
        detail.insert(
            "steal_share_per_slice",
            window.slices.iter().map(|s| s.steal_share).collect(),
        );
        detail.insert(
            "seconds_per_slice",
            window.slices.iter().map(|s| s.seconds).collect(),
        );
        detail.insert(
            "latency_p99_ms_window",
            vec![percentile(&window.latencies_ms(), 0.99)],
        );
        detail.insert(
            "failed_per_slice",
            window.slices.iter().map(|s| s.failed as f64).collect(),
        );
        detail.insert("write_ms_each", window.write_ms.clone());
        detail.insert(
            "time_wait_before_window",
            vec![window.time_wait_before as f64],
        );
        detail.insert(
            "failed_share",
            vec![window.failed as f64 / window.attempted.max(1) as f64],
        );
    }

    let Ready {
        fx,
        deployment,
        checked,
        ..
    } = ready;
    // The store's files go once the broker holding them open is gone.
    drop(deployment);
    if let Some(dir) = &fx.store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Outcome {
        workload: workload.name(),
        seed,
        traced,
        attempted: checked.attempted + timed_requests,
        failed: checked.failures.len() + timed_failures,
        failures: checked.failures,
        values,
        detail,
    }
}
