//! Subrange estimation with *exact* stored medians — the expensive
//! variant the paper's normal approximation stands in for.
//!
//! Identical to [`SubrangeEstimator`](crate::SubrangeEstimator) except each non-top subrange's
//! weight is the term's true empirical percentile (from a
//! [`PercentileRepresentative`]) rather than `w + z(q) * sigma`.
//! Experiment E20 compares the two to price the normal assumption.

use crate::{with_factors, Usefulness, UsefulnessEstimator};
use seu_engine::Query;
use seu_repr::{PercentileRepresentative, Representative};

/// Subrange estimator over stored exact percentile medians.
#[derive(Debug, Clone)]
pub struct EmpiricalSubrangeEstimator {
    percentiles: PercentileRepresentative,
}

impl EmpiricalSubrangeEstimator {
    /// Wraps a percentile table (which fixes the subrange scheme).
    pub fn new(percentiles: PercentileRepresentative) -> Self {
        EmpiricalSubrangeEstimator { percentiles }
    }
}

impl UsefulnessEstimator for EmpiricalSubrangeEstimator {
    fn estimate(&self, repr: &Representative, query: &Query, threshold: f64) -> Usefulness {
        self.estimate_sweep(repr, query, &[threshold])[0]
    }

    fn estimate_sweep(
        &self,
        repr: &Representative,
        query: &Query,
        thresholds: &[f64],
    ) -> Vec<Usefulness> {
        with_factors(|g| {
            for &(term, u) in query.terms() {
                let spikes = self.percentiles.decompose(repr, term);
                g.push_factor(spikes.into_iter().map(|(p, w)| (p, u * w)));
            }
            thresholds
                .iter()
                .map(|&t| Usefulness::above(g, repr.n_docs(), t))
                .collect()
        })
    }

    fn name(&self) -> &'static str {
        "subrange-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
    use seu_repr::SubrangeScheme;
    use seu_text::Analyzer;

    fn fixture() -> (
        seu_engine::Collection,
        Representative,
        EmpiricalSubrangeEstimator,
    ) {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        // Heavily right-skewed weights for "hot": mostly minor mentions,
        // one document all about it.
        b.add_document("d0", "hot");
        for i in 1..12 {
            b.add_document(
                &format!("d{i}"),
                "hot filler1 filler2 filler3 filler4 filler5 filler6 filler7",
            );
        }
        let c = b.build();
        let r = Representative::build(&c);
        let est = EmpiricalSubrangeEstimator::new(PercentileRepresentative::build(
            &c,
            SubrangeScheme::paper_six(),
        ));
        (c, r, est)
    }

    #[test]
    fn single_term_guarantee_still_holds() {
        let (c, r, est) = fixture();
        let engine = SearchEngine::new(c.clone());
        let q = c.query_from_text("hot");
        for t in [0.1, 0.3, 0.5, 0.9, 0.99] {
            let predicted = est.estimate(&r, &q, t).no_doc > 0.0;
            let truly = engine.true_usefulness(&q, t).no_doc >= 1;
            assert_eq!(predicted, truly, "t={t}");
        }
    }

    #[test]
    fn estimates_bounded_and_monotone() {
        let (c, r, est) = fixture();
        let q = c.query_from_text("hot filler1");
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let u = est.estimate(&r, &q, t);
            assert!(u.no_doc >= 0.0 && u.no_doc <= c.len() as f64 + 1e-9);
            assert!(u.no_doc <= prev + 1e-9);
            prev = u.no_doc;
        }
    }

    #[test]
    fn sweep_matches_pointwise() {
        let (c, r, est) = fixture();
        let q = c.query_from_text("hot filler2");
        let ts = [0.05, 0.2, 0.4];
        let sweep = est.estimate_sweep(&r, &q, &ts);
        for (i, &t) in ts.iter().enumerate() {
            let single = est.estimate(&r, &q, t);
            assert!((sweep[i].no_doc - single.no_doc).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_medians_beat_normal_on_skewed_weights() {
        // On this skewed fixture, the exact-percentile estimator should be
        // at least as accurate as the normal approximation at a mid
        // threshold where the skew matters.
        let (c, r, exact) = fixture();
        let normal = crate::SubrangeEstimator::paper_six_subrange();
        let engine = SearchEngine::new(c.clone());
        let q = c.query_from_text("hot");
        // The minor-mention weight is 1/sqrt(1 + 7) ~ 0.35; pick the
        // threshold just below it: truth counts all 12 docs.
        let t = 0.3;
        let truth = engine.true_usefulness(&q, t).no_doc as f64;
        let e_exact = (exact.estimate(&r, &q, t).no_doc - truth).abs();
        let e_normal = (normal.estimate(&r, &q, t).no_doc - truth).abs();
        assert!(
            e_exact <= e_normal + 1e-9,
            "exact {e_exact} vs normal {e_normal} (truth {truth})"
        );
    }

    #[test]
    fn empty_query() {
        let (_, r, est) = fixture();
        let u = est.estimate(&r, &seu_engine::Query::new([]), 0.2);
        assert_eq!(u.no_doc, 0.0);
        assert_eq!(est.name(), "subrange-exact");
    }
}
