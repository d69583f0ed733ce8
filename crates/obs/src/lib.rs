//! `seu-obs`: lightweight observability for the seu workspace.
//!
//! Zero heavy dependencies: counters and histograms (fixed-bucket, with
//! p50/p95/p99 readout) keep eight cache-line-aligned stripes of
//! atomics, a thread writing the one it was handed round-robin, and sum
//! the stripes on read; gauges are single atomics; [`SpanTimer`] borrows
//! its histogram and measures wall-clock spans RAII-style. Metrics live
//! in a [`MetricsRegistry`] — either the process-wide [`global`] one the
//! seu crates instrument by default, or a caller-owned instance for
//! isolation. A [`Snapshot`] freezes the registry and renders as
//! Prometheus text ([`Snapshot::to_prometheus`]), JSON
//! ([`Snapshot::to_json`], machine-readable and parsed back by
//! [`Snapshot::from_json`]), or aligned text for terminals
//! ([`Snapshot::to_text`]).
//!
//! Naming follows Prometheus conventions: `<subsystem>_<what>_<unit>`
//! with `_total` for counters, e.g. `broker_query_latency_seconds`,
//! `estimator_poly_terms_pruned_total`.
//!
//! Hot-path discipline: instruments are `Arc`s — look them up once
//! outside a loop (`let c = obs::counter("x"); ... c.add(n)`), and
//! accumulate per-call tallies locally so each operation costs a few
//! relaxed atomic adds on lines no other core writes, not a registry
//! lookup per document.

#![forbid(unsafe_code)]

pub mod json;
mod metrics;
mod registry;
mod snapshot;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, SpanTimer, DEFAULT_BUCKETS};
pub use registry::{counter, gauge, global, histogram, histogram_with_buckets, MetricsRegistry};
pub use snapshot::{sanitize_label_name, sanitize_metric_name, HistogramSnapshot, Snapshot};
pub use trace::{
    new_span_id, tracer, unix_now_ns, ActiveTrace, FinishedTrace, SpanGuard, SpanId, SpanRecord,
    TraceContext, TraceHandle, TraceId, TraceStore, Tracer,
};

/// Bucket bounds for size-like histograms (result-set sizes, polynomial
/// term counts): powers of two from 1 to 65536.
pub const SIZE_BUCKETS: [f64; 17] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_snapshot_round_trip() {
        counter("obs_selftest_total").add(3);
        histogram("obs_selftest_seconds").observe(0.002);
        let snap = global().snapshot();
        assert!(snap.counters["obs_selftest_total"] >= 3);
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(
            parsed.counters["obs_selftest_total"],
            snap.counters["obs_selftest_total"]
        );
        assert!(parsed.histograms["obs_selftest_seconds"].count >= 1);
    }

    #[test]
    fn size_buckets_are_ascending() {
        assert!(SIZE_BUCKETS.windows(2).all(|w| w[0] < w[1]));
        let h = Histogram::with_buckets(&SIZE_BUCKETS);
        h.observe(100.0);
        assert_eq!(h.bucket_counts()[7], 1);
    }
}
