//! The basic generating-function method (Proposition 1).
//!
//! Each query term `t_i` with representative statistics `(p_i, w_i)`
//! contributes the factor `p_i * X^{u_i * w_i} + (1 - p_i)` (Expression
//! (7)); the expanded product's tail above `T` gives NoDoc and AvgSim
//! (Equation (6) and the AvgSim formula below it). This assumes every
//! document containing a term carries the term's *average* weight — the
//! assumption the subrange method removes.

use crate::{with_factors, Usefulness, UsefulnessEstimator};
use seu_engine::Query;
use seu_repr::Representative;

/// Proposition 1 estimator (uniform average weight per term).
#[derive(Debug, Clone, Copy, Default)]
pub struct BasicEstimator;

impl BasicEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        BasicEstimator
    }
}

impl UsefulnessEstimator for BasicEstimator {
    fn estimate(&self, repr: &Representative, query: &Query, threshold: f64) -> Usefulness {
        with_factors(|g| {
            for &(term, u) in query.terms() {
                if let Some(s) = repr.get(term) {
                    g.push_factor([(s.p, u * s.mean)]);
                }
            }
            Usefulness::above(g, repr.n_docs(), threshold)
        })
    }

    fn name(&self) -> &'static str {
        "basic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_repr::TermStats;
    use seu_text::TermId;

    /// Builds the Example 3.1 representative directly (unnormalized
    /// weights, exactly as in the paper's exposition).
    fn example_repr() -> Representative {
        let stats = vec![
            TermStats {
                p: 0.6,
                mean: 2.0,
                std_dev: 0.816,
                max: 3.0,
            },
            TermStats {
                p: 0.2,
                mean: 1.0,
                std_dev: 0.0,
                max: 1.0,
            },
            TermStats {
                p: 0.4,
                mean: 2.0,
                std_dev: 0.0,
                max: 2.0,
            },
        ];
        Representative::from_parts(5, stats, 0)
    }

    fn example_query() -> Query {
        Query::new([(TermId(0), 1.0), (TermId(1), 1.0), (TermId(2), 1.0)])
    }

    #[test]
    fn example_3_2_no_doc_and_avg_sim() {
        let est = BasicEstimator::new();
        let u = est.estimate(&example_repr(), &example_query(), 3.0);
        assert!((u.no_doc - 1.2).abs() < 1e-9, "no_doc={}", u.no_doc);
        assert!((u.avg_sim - 4.2).abs() < 1e-9, "avg_sim={}", u.avg_sim);
    }

    #[test]
    fn zero_threshold_counts_docs_with_any_term() {
        // P(at least one term) = 1 - (1-p1)(1-p2)(1-p3)
        //                      = 1 - 0.4*0.8*0.6 = 0.808.
        let est = BasicEstimator::new();
        let u = est.estimate(&example_repr(), &example_query(), 0.0);
        assert!((u.no_doc - 5.0 * 0.808).abs() < 1e-9);
    }

    #[test]
    fn unknown_terms_are_ignored() {
        let est = BasicEstimator::new();
        let q = Query::new([(TermId(0), 1.0), (TermId(99), 1.0)]);
        let u = est.estimate(&example_repr(), &q, 0.0);
        // Only term 0 contributes: 5 * 0.6 documents.
        assert!((u.no_doc - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_query_estimates_nothing() {
        let est = BasicEstimator::new();
        let u = est.estimate(&example_repr(), &Query::new([]), 0.0);
        assert_eq!(u.no_doc, 0.0);
        assert_eq!(u.avg_sim, 0.0);
    }

    #[test]
    fn threshold_above_max_sim_estimates_zero() {
        let est = BasicEstimator::new();
        // Max possible exponent: 2 + 1 + 2 = 5.
        let u = est.estimate(&example_repr(), &example_query(), 5.0);
        assert_eq!(u.no_doc, 0.0);
        assert_eq!(u.avg_sim, 0.0);
    }
}
