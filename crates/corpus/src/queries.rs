//! SIFT-style query-log generation.
//!
//! The paper's 6 234 queries are real SIFT Netnews subscriptions: short
//! (no more than 6 terms, ≈ 30 % single-term), topic-focused. The
//! generator reproduces those marginals: each query picks a topic of the
//! universe, a length from the paper's distribution, and draws terms from
//! the topic's Zipfian vocabulary with background admixture.

use crate::generator::SyntheticCorpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a synthetic query log.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogSpec {
    /// Number of queries (the paper uses 6 234).
    pub n_queries: usize,
    /// Fraction of single-term queries (the paper reports ≈ 30 %,
    /// 1 941 / 6 234).
    pub single_term_fraction: f64,
    /// Maximum query length (the paper keeps only queries with ≤ 6 terms).
    pub max_terms: usize,
    /// Probability that each query term is topical rather than background.
    pub on_topic_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl QueryLogSpec {
    /// The paper's workload: 6 234 queries, 30 % single-term, ≤ 6 terms.
    pub fn paper_default(seed: u64) -> Self {
        QueryLogSpec {
            n_queries: 6234,
            single_term_fraction: 0.3,
            max_terms: 6,
            on_topic_prob: 0.65,
            seed,
        }
    }
}

impl SyntheticCorpus {
    /// Generates a query log as token lists (queries are *texts*; they are
    /// turned into per-collection vectors by
    /// [`seu_engine::Collection::query_from_text`], which drops terms the
    /// collection has never seen — as a real engine would).
    pub fn generate_query_log(&self, spec: &QueryLogSpec) -> Vec<Vec<String>> {
        assert!(spec.max_terms >= 1, "queries need at least one term");
        assert!(
            (0.0..=1.0).contains(&spec.single_term_fraction),
            "single_term_fraction out of range"
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let n_topics = self.universe().config().n_topics;
        (0..spec.n_queries)
            .map(|_| {
                let topic = rng.gen_range(0..n_topics);
                // The query's sub-subject: its terms co-occur in documents
                // featuring the same cluster.
                let cluster = self.universe().draw_cluster(&mut rng);
                let len = if rng.gen::<f64>() < spec.single_term_fraction {
                    1
                } else {
                    rng.gen_range(2..=spec.max_terms.max(2))
                };
                let mut terms: Vec<String> = Vec::with_capacity(len);
                // Queries are term sets (SIFT profiles): resample duplicates.
                let mut guard = 0;
                while terms.len() < len && guard < 100 {
                    guard += 1;
                    let t = self.universe().draw_query_token(
                        &mut rng,
                        topic,
                        cluster,
                        spec.on_topic_prob,
                    );
                    if !terms.contains(&t) {
                        terms.push(t);
                    }
                }
                terms
            })
            .collect()
    }
}

/// Joins a token-list query into text (the form users type).
pub fn query_text(tokens: &[String]) -> String {
    tokens.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Universe, UniverseConfig};

    fn corpus() -> SyntheticCorpus {
        SyntheticCorpus::new(Universe::new(UniverseConfig {
            n_topics: 6,
            topic_vocab: 300,
            background_vocab: 400,
            ..UniverseConfig::default()
        }))
    }

    #[test]
    fn marginals_match_spec() {
        let spec = QueryLogSpec {
            n_queries: 5000,
            single_term_fraction: 0.3,
            max_terms: 6,
            on_topic_prob: 0.65,
            seed: 99,
        };
        let log = corpus().generate_query_log(&spec);
        assert_eq!(log.len(), 5000);
        let single = log.iter().filter(|q| q.len() == 1).count();
        let frac = single as f64 / 5000.0;
        assert!((frac - 0.3).abs() < 0.03, "single-term fraction {frac}");
        assert!(log.iter().all(|q| (1..=6).contains(&q.len())));
    }

    #[test]
    fn queries_have_distinct_terms() {
        let spec = QueryLogSpec::paper_default(3);
        let log = corpus().generate_query_log(&spec);
        for q in &log {
            let mut sorted = q.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), q.len(), "duplicate in {q:?}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = QueryLogSpec::paper_default(7);
        let a = corpus().generate_query_log(&spec);
        let b = corpus().generate_query_log(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn mixes_topical_and_background() {
        let spec = QueryLogSpec {
            n_queries: 2000,
            single_term_fraction: 0.3,
            max_terms: 6,
            on_topic_prob: 0.65,
            seed: 5,
        };
        let log = corpus().generate_query_log(&spec);
        let all: Vec<&String> = log.iter().flatten().collect();
        let topical = all.iter().filter(|t| t.starts_with("tp")).count();
        let background = all.iter().filter(|t| t.starts_with("bg")).count();
        assert_eq!(topical + background, all.len());
        let frac = topical as f64 / all.len() as f64;
        assert!((frac - 0.65).abs() < 0.05, "topical fraction {frac}");
    }

    #[test]
    fn query_text_joins() {
        assert_eq!(query_text(&["ab".into(), "cd".into()]), "ab cd");
    }
}
