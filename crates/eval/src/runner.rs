//! The experiment runner: sweeps a query workload over one database for a
//! set of estimation methods, in parallel.

use crate::metrics::{MethodResult, ThresholdRow};
use seu_core::UsefulnessEstimator;
use seu_engine::{Collection, Query, SearchEngine};
use seu_repr::Representative;
use std::sync::{Arc, OnceLock};

/// Instrument handles cached once per process. The drift instruments
/// compare each method's estimate against the exact ground truth the
/// runner computes anyway, so estimator regressions show up in `--stats`
/// output without rerunning a table.
struct EvalMetrics {
    queries: Arc<seu_obs::Counter>,
    estimates: Arc<seu_obs::Counter>,
    nodoc_over: Arc<seu_obs::Counter>,
    nodoc_under: Arc<seu_obs::Counter>,
    nodoc_exact: Arc<seu_obs::Counter>,
    nodoc_drift: Arc<seu_obs::Histogram>,
    avg_sim_drift: Arc<seu_obs::Histogram>,
}

fn metrics() -> &'static EvalMetrics {
    static METRICS: OnceLock<EvalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EvalMetrics {
        queries: seu_obs::counter("eval_queries_total"),
        estimates: seu_obs::counter("eval_estimates_total"),
        nodoc_over: seu_obs::counter("eval_nodoc_overestimates_total"),
        nodoc_under: seu_obs::counter("eval_nodoc_underestimates_total"),
        nodoc_exact: seu_obs::counter("eval_nodoc_exact_total"),
        nodoc_drift: seu_obs::histogram_with_buckets(
            "eval_nodoc_drift_docs",
            &seu_obs::SIZE_BUCKETS,
        ),
        avg_sim_drift: seu_obs::histogram("eval_avg_sim_drift"),
    })
}

/// `estimator_invocations_<name>_total`, with the method name made
/// Prometheus-safe.
fn method_counter(name: &str) -> Arc<seu_obs::Counter> {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    seu_obs::counter(&format!("estimator_invocations_{safe}_total"))
}

/// Configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Thresholds to sweep (the paper uses 0.1 … 0.6).
    pub thresholds: Vec<f64>,
    /// Number of worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            thresholds: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            threads: 0,
        }
    }
}

impl EvalConfig {
    fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Evaluates `methods` against ground truth on `collection` for a query
/// workload given as token lists.
///
/// The representative `repr` is what the estimators see; it can be the
/// full-precision build of `collection` (Tables 1–6), a quantized
/// round-trip (Tables 7–9), or anything else — the divergence between
/// `repr` and the collection is exactly what is being measured.
///
/// Returns one [`MethodResult`] per method, rows matching
/// `config.thresholds`.
pub fn evaluate(
    collection: &Collection,
    repr: &Representative,
    queries: &[Vec<String>],
    methods: &[&(dyn UsefulnessEstimator + Sync)],
    config: &EvalConfig,
) -> Vec<MethodResult> {
    let engine = SearchEngine::new(collection.clone());
    let thresholds = &config.thresholds;
    let workers = config.worker_count().max(1);
    let chunk = queries.len().div_ceil(workers).max(1);
    let method_counters: Vec<Arc<seu_obs::Counter>> =
        methods.iter().map(|m| method_counter(m.name())).collect();
    let method_counters = &method_counters;

    // partials[worker][method][threshold]
    let partials: Vec<Vec<Vec<ThresholdRow>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qchunk| {
                let engine = &engine;
                scope.spawn(move || {
                    let m = metrics();
                    // Tallies accumulate locally; one atomic add per chunk.
                    let mut n_queries = 0u64;
                    let mut n_estimates = 0u64;
                    let mut n_over = 0u64;
                    let mut n_under = 0u64;
                    let mut n_exact = 0u64;
                    let mut per_method = vec![0u64; methods.len()];
                    let mut acc: Vec<Vec<ThresholdRow>> = methods
                        .iter()
                        .map(|_| {
                            thresholds
                                .iter()
                                .map(|&t| ThresholdRow {
                                    threshold: t,
                                    ..Default::default()
                                })
                                .collect()
                        })
                        .collect();
                    for tokens in qchunk {
                        let query = query_from_tokens(engine.collection(), tokens);
                        if query.is_empty() {
                            // A query with no terms known to this engine:
                            // truth is 0 everywhere and every sane
                            // estimate is 0; skip (no U, no mismatch).
                            continue;
                        }
                        // Ground truth once: all positive similarities,
                        // descending; prefix sums give every threshold's
                        // NoDoc / AvgSim in O(log n).
                        let sims: Vec<f64> = engine
                            .search_threshold(&query, 0.0)
                            .into_iter()
                            .map(|h| h.sim)
                            .collect();
                        let mut prefix = Vec::with_capacity(sims.len() + 1);
                        prefix.push(0.0);
                        for &s in &sims {
                            prefix.push(prefix.last().unwrap() + s);
                        }
                        let truth: Vec<(u64, f64)> = thresholds
                            .iter()
                            .map(|&t| {
                                let count = sims.partition_point(|&s| s > t);
                                let avg = if count > 0 {
                                    prefix[count] / count as f64
                                } else {
                                    0.0
                                };
                                (count as u64, avg)
                            })
                            .collect();
                        n_queries += 1;
                        for (mi, method) in methods.iter().enumerate() {
                            let ests = method.estimate_sweep(repr, &query, thresholds);
                            per_method[mi] += 1;
                            for (ti, est) in ests.iter().enumerate() {
                                let (tn, ta) = truth[ti];
                                let en = est.no_doc_rounded();
                                n_estimates += 1;
                                match en.cmp(&tn) {
                                    std::cmp::Ordering::Greater => n_over += 1,
                                    std::cmp::Ordering::Less => n_under += 1,
                                    std::cmp::Ordering::Equal => n_exact += 1,
                                }
                                m.nodoc_drift.observe(en.abs_diff(tn) as f64);
                                m.avg_sim_drift.observe((est.avg_sim - ta).abs());
                                acc[mi][ti].record(tn, ta, en, est.avg_sim);
                            }
                        }
                    }
                    m.queries.add(n_queries);
                    m.estimates.add(n_estimates);
                    m.nodoc_over.add(n_over);
                    m.nodoc_under.add(n_under);
                    m.nodoc_exact.add(n_exact);
                    for (mi, n) in per_method.iter().enumerate() {
                        method_counters[mi].add(*n);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    reduce(methods, thresholds, partials)
}

fn reduce(
    methods: &[&(dyn UsefulnessEstimator + Sync)],
    thresholds: &[f64],
    partials: Vec<Vec<Vec<ThresholdRow>>>,
) -> Vec<MethodResult> {
    let mut out: Vec<MethodResult> = methods
        .iter()
        .map(|m| MethodResult {
            method: m.name().to_string(),
            rows: thresholds
                .iter()
                .map(|&t| ThresholdRow {
                    threshold: t,
                    ..Default::default()
                })
                .collect(),
        })
        .collect();
    for worker in partials {
        for (mi, rows) in worker.into_iter().enumerate() {
            for (ti, row) in rows.into_iter().enumerate() {
                out[mi].rows[ti].merge(&row);
            }
        }
    }
    out
}

/// Builds a per-collection query vector from query tokens (terms unknown
/// to the collection are dropped, as a real engine would).
pub fn query_from_tokens(collection: &Collection, tokens: &[String]) -> Query {
    collection.query_from_tf(seu_engine::shared::term_counts(collection.vocab(), tokens))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_core::{BasicEstimator, SubrangeEstimator};
    use seu_engine::{CollectionBuilder, WeightingScheme};
    use seu_text::Analyzer;

    fn collection() -> Collection {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "alpha beta alpha gamma");
        b.add_document("d1", "beta gamma delta");
        b.add_document("d2", "alpha delta delta");
        b.add_document("d3", "epsilon zeta");
        b.build()
    }

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn oracle_estimator_scores_perfectly() {
        // Evaluating the true usefulness against itself must yield
        // match == U, mismatch == 0, d-N == d-S == 0. Build an "oracle"
        // by evaluating with an estimator that sees... the real engine.
        struct Oracle(SearchEngine);
        impl UsefulnessEstimator for Oracle {
            fn estimate(
                &self,
                _repr: &Representative,
                query: &Query,
                threshold: f64,
            ) -> seu_core::Usefulness {
                let t = self.0.true_usefulness(query, threshold);
                seu_core::Usefulness {
                    no_doc: t.no_doc as f64,
                    avg_sim: t.avg_sim,
                }
            }
            fn name(&self) -> &'static str {
                "oracle"
            }
        }
        let c = collection();
        let repr = Representative::build(&c);
        let oracle = Oracle(SearchEngine::new(c.clone()));
        let queries = vec![
            toks(&["alpha"]),
            toks(&["beta", "gamma"]),
            toks(&["delta", "alpha", "zeta"]),
            toks(&["unknownterm"]),
        ];
        let res = evaluate(
            &c,
            &repr,
            &queries,
            &[&oracle],
            &EvalConfig {
                thresholds: vec![0.1, 0.3, 0.5],
                threads: 2,
            },
        );
        for row in &res[0].rows {
            assert_eq!(row.matches, row.u, "t={}", row.threshold);
            assert_eq!(row.mismatches, 0);
            assert_eq!(row.d_n(), 0.0);
            assert!(row.d_s() < 1e-12);
        }
        // At T=0.1 every non-empty query matches something here.
        assert_eq!(res[0].rows[0].u, 3);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let c = collection();
        let repr = Representative::build(&c);
        let est = SubrangeEstimator::paper_six_subrange();
        let basic = BasicEstimator::new();
        let queries: Vec<Vec<String>> = (0..40)
            .map(|i| match i % 4 {
                0 => toks(&["alpha"]),
                1 => toks(&["beta", "delta"]),
                2 => toks(&["gamma", "alpha", "epsilon"]),
                _ => toks(&["zeta"]),
            })
            .collect();
        let run = |threads| {
            evaluate(
                &c,
                &repr,
                &queries,
                &[&est, &basic],
                &EvalConfig {
                    thresholds: vec![0.1, 0.2, 0.4],
                    threads,
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.method, b.method);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.u, rb.u);
                assert_eq!(ra.matches, rb.matches);
                assert_eq!(ra.mismatches, rb.mismatches);
                assert!((ra.sum_dn - rb.sum_dn).abs() < 1e-9);
                assert!((ra.sum_ds - rb.sum_ds).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn unknown_query_contributes_nothing() {
        let c = collection();
        let repr = Representative::build(&c);
        let est = BasicEstimator::new();
        let res = evaluate(
            &c,
            &repr,
            &[toks(&["nosuchterm"])],
            &[&est],
            &EvalConfig::default(),
        );
        for row in &res[0].rows {
            assert_eq!(row.u, 0);
            assert_eq!(row.mismatches, 0);
        }
    }

    #[test]
    fn query_from_tokens_counts_duplicates() {
        let c = collection();
        let q = query_from_tokens(&c, &toks(&["alpha", "alpha", "beta"]));
        assert_eq!(q.len(), 2);
        let alpha = c.vocab().get("alpha").unwrap();
        let beta = c.vocab().get("beta").unwrap();
        assert!(q.weight(alpha) > q.weight(beta));

        // The collection, its record and a broker's plan row count the
        // same tokens alike: repeated, unknown, and one over-long token.
        let engine = seu_engine::SearchEngine::new(c.clone());
        let record =
            seu_metasearch::EngineRecord::of_engine("e", &engine, Representative::build(&c));
        let broker = seu_metasearch::Broker::new(SubrangeEstimator::paper_six_subrange());
        broker.register("e", engine);
        let bits = |q: &Query| -> Vec<(seu_text::TermId, u64)> {
            q.terms().iter().map(|&(t, w)| (t, w.to_bits())).collect()
        };
        let long = "x".repeat(70_000);
        for tokens in [
            toks(&["beta", "alpha", "beta", "beta"]),
            toks(&["nosuchterm", "gamma", "quokka"]),
            toks(&["delta", &long]),
        ] {
            let q = bits(&query_from_tokens(&c, &tokens));
            let text = tokens.join(" ");
            assert_eq!(bits(&record.query_from_text(&text)), q);
            let plan = broker.plan(&seu_metasearch::SearchRequest::new(text), None);
            assert_eq!(plan.engines().len(), 1);
            assert_eq!(bits(plan.engines()[0].query()), q);
        }
    }
}
