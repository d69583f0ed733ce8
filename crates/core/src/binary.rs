//! The binary-and-independent baseline (Yu, Luk & Siu — reference \[18\]
//! of the paper).
//!
//! Section 2: "each document d is represented as a binary vector … the
//! occurrences of terms in different documents are assumed to be
//! independent. … A substantial amount of information will be lost when
//! documents are represented by binary vectors. As a result, it is
//! seldom used in practice." This estimator implements that model so the
//! information-loss claim can be *measured* (experiment `binary`):
//!
//! * a document is its set of distinct terms; cosine-normalizing the
//!   binary vector gives every present term the same weight
//!   `1 / sqrt(D)`, `D` = distinct terms in the document;
//! * the representative cannot know each document's `D`, so the model
//!   uses the collection average — derivable from the representative
//!   itself: `avg_D = Σ_t p_t` (each term contributes `p_t * n`
//!   presences over `n` documents);
//! * the generating function is Proposition 1's with the uniform binary
//!   weight.
//!
//! Estimates are still compared against the *true* (weighted cosine)
//! usefulness, so the gap to [`crate::BasicEstimator`] — identical
//! machinery, real average weights — isolates exactly what binarization
//! throws away.

use crate::{with_factors, Usefulness, UsefulnessEstimator};
use seu_engine::Query;
use seu_repr::Representative;

/// Proposition 1 over cosine-normalized *binary* document vectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryIndependentEstimator;

impl BinaryIndependentEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        BinaryIndependentEstimator
    }

    /// The model's uniform normalized weight: `1 / sqrt(avg_D)` with
    /// `avg_D = Σ_t p_t` (average distinct terms per document).
    pub fn binary_weight(repr: &Representative) -> f64 {
        let avg_d: f64 = repr.iter().map(|(_, s)| s.p).sum();
        if avg_d > 0.0 {
            1.0 / avg_d.sqrt()
        } else {
            0.0
        }
    }
}

impl UsefulnessEstimator for BinaryIndependentEstimator {
    fn estimate(&self, repr: &Representative, query: &Query, threshold: f64) -> Usefulness {
        let w_bin = Self::binary_weight(repr);
        with_factors(|g| {
            for &(term, u) in query.terms() {
                if let Some(s) = repr.get(term) {
                    g.push_factor([(s.p, u * w_bin)]);
                }
            }
            Usefulness::above(g, repr.n_docs(), threshold)
        })
    }

    fn name(&self) -> &'static str {
        "binary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_repr::TermStats;
    use seu_text::TermId;

    fn repr() -> Representative {
        // avg_D = 0.5 + 0.3 + 0.2 = 1.0 -> binary weight 1.0 (tiny docs).
        let mk = |p, mean, max| TermStats {
            p,
            mean,
            std_dev: 0.1,
            max,
        };
        Representative::from_parts(
            100,
            vec![mk(0.5, 0.4, 0.9), mk(0.3, 0.2, 0.5), mk(0.2, 0.6, 0.8)],
            0,
        )
    }

    #[test]
    fn binary_weight_from_presence_mass() {
        let r = repr();
        assert!((BinaryIndependentEstimator::binary_weight(&r) - 1.0).abs() < 1e-12);
        // A richer vocabulary lowers the uniform weight.
        let mk = |p| TermStats {
            p,
            mean: 0.1,
            std_dev: 0.0,
            max: 0.1,
        };
        let wide = Representative::from_parts(10, (0..100).map(|_| mk(0.25)).collect(), 0);
        let w = BinaryIndependentEstimator::binary_weight(&wide);
        assert!((w - 1.0 / 25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ignores_stored_weights_entirely() {
        // Two representatives differing only in weight statistics give
        // identical binary estimates — that IS the information loss.
        let r1 = repr();
        let mut stats: Vec<TermStats> = r1.iter().map(|(_, s)| *s).collect();
        for s in &mut stats {
            s.mean *= 2.0;
            s.max = 1.0;
            s.std_dev = 0.0;
        }
        let r2 = Representative::from_parts(100, stats, 0);
        let est = BinaryIndependentEstimator::new();
        let q = Query::new([(TermId(0), 1.0), (TermId(1), 1.0)]);
        for t in [0.0, 0.2, 0.5] {
            let a = est.estimate(&r1, &q, t);
            let b = est.estimate(&r2, &q, t);
            assert!((a.no_doc - b.no_doc).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn all_or_nothing_thresholding() {
        // Uniform weights mean every single-term estimate is either
        // p * n (threshold below the weight) or 0 (above).
        let r = repr();
        let est = BinaryIndependentEstimator::new();
        let q = Query::new([(TermId(0), 1.0)]);
        let below = est.estimate(&r, &q, 0.5);
        assert!((below.no_doc - 50.0).abs() < 1e-9);
        let above = est.estimate(&r, &q, 1.0);
        assert_eq!(above.no_doc, 0.0);
    }

    #[test]
    fn empty_and_unknown() {
        let r = repr();
        let est = BinaryIndependentEstimator::new();
        assert_eq!(est.estimate(&r, &Query::new([]), 0.1).no_doc, 0.0);
        let q = Query::new([(TermId(42), 1.0)]);
        assert_eq!(est.estimate(&r, &q, 0.1).no_doc, 0.0);
        assert_eq!(est.name(), "binary");
    }
}
