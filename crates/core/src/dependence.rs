//! Dependence-adjusted subrange estimation.
//!
//! Proposition 1's term-independence assumption is the subrange method's
//! remaining approximation: when query terms co-occur (they describe one
//! subject, so they do), the independent product *under*-estimates the
//! probability that one document carries several query terms — the main
//! source of multi-term misses. The paper's related work (\[14\], Lam &
//! Yu 1982) incorporates "arbitrary term dependencies" in the binary
//! model; this estimator carries the idea into the subrange framework:
//!
//! 1. query terms are greedily matched into pairs with stored joint
//!    document frequencies ([`CooccurrenceStats`]), most-correlated pair
//!    first;
//! 2. each matched pair contributes one *joint* factor built from the
//!    exact 2×2 presence table — `P(both) = p12`,
//!    `P(only t1) = p1 − p12`, `P(only t2) = p2 − p12`,
//!    `P(neither) = 1 − p1 − p2 + p12` — with each presence case
//!    expanded through the terms' subrange spikes (weight magnitudes are
//!    assumed independent of co-presence);
//! 3. unmatched terms contribute the ordinary independent subrange
//!    factors.
//!
//! With no stored pair statistics this reduces exactly to
//! [`SubrangeEstimator`].

use crate::subrange::SubrangeEstimator;
use crate::{with_factors, Usefulness, UsefulnessEstimator};
use seu_engine::Query;
use seu_repr::{CooccurrenceStats, Representative};

/// Subrange estimation with pairwise presence dependence.
#[derive(Debug, Clone)]
pub struct DependenceAdjustedEstimator {
    base: SubrangeEstimator,
    cooccur: CooccurrenceStats,
}

impl DependenceAdjustedEstimator {
    /// Wraps a subrange estimator with co-occurrence statistics.
    pub fn new(base: SubrangeEstimator, cooccur: CooccurrenceStats) -> Self {
        DependenceAdjustedEstimator { base, cooccur }
    }

    /// The underlying subrange estimator.
    pub fn base(&self) -> &SubrangeEstimator {
        &self.base
    }

    /// Greedy pairing of query-term indices by largest stored joint
    /// probability; returns (pairs, leftovers).
    fn pair_terms(&self, query: &Query) -> (Vec<(usize, usize, f64)>, Vec<usize>) {
        let terms = query.terms();
        let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..terms.len() {
            for j in i + 1..terms.len() {
                if let Some(p12) = self.cooccur.joint_p(terms[i].0, terms[j].0) {
                    candidates.push((i, j, p12));
                }
            }
        }
        candidates.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut used = vec![false; terms.len()];
        let mut pairs = Vec::new();
        for (i, j, p12) in candidates {
            if !used[i] && !used[j] {
                used[i] = true;
                used[j] = true;
                pairs.push((i, j, p12));
            }
        }
        let leftovers = (0..terms.len()).filter(|&i| !used[i]).collect();
        (pairs, leftovers)
    }

    /// Joint factor for a matched pair, as its spikes: the 2×2 presence
    /// table expanded through both terms' conditional subrange spikes.
    fn joint_factor(
        &self,
        repr: &Representative,
        query: &Query,
        i: usize,
        j: usize,
        p12_raw: f64,
    ) -> Option<Vec<(f64, f64)>> {
        let (term_i, _) = query.terms()[i];
        let (term_j, _) = query.terms()[j];
        let si = repr.get(term_i)?;
        let sj = repr.get(term_j)?;
        let (p1, p2) = (si.p, sj.p);
        // Fréchet bounds keep the table a probability distribution even
        // with quantized/merged statistics.
        let p12 = p12_raw.clamp((p1 + p2 - 1.0).max(0.0), p1.min(p2));

        // Conditional spike lists (probabilities normalized by p).
        let spikes_of =
            |idx: usize| -> Vec<(f64, f64)> { self.base.factors_for_term(repr, query, idx) };
        let a = spikes_of(i);
        let b = spikes_of(j);
        let norm = |spikes: &[(f64, f64)], p: f64| -> Vec<(f64, f64)> {
            if p <= 0.0 {
                return Vec::new();
            }
            spikes.iter().map(|&(q, e)| (q / p, e)).collect()
        };
        let ca = norm(&a, p1);
        let cb = norm(&b, p2);

        let mut terms: Vec<(f64, f64)> =
            Vec::with_capacity(ca.len() * cb.len() + ca.len() + cb.len());
        // Both present: product of conditional spike distributions.
        for &(qa, ea) in &ca {
            for &(qb, eb) in &cb {
                terms.push((p12 * qa * qb, ea + eb));
            }
        }
        // Only one present.
        for &(qa, ea) in &ca {
            terms.push(((p1 - p12) * qa, ea));
        }
        for &(qb, eb) in &cb {
            terms.push(((p2 - p12) * qb, eb));
        }
        Some(terms)
    }
}

impl UsefulnessEstimator for DependenceAdjustedEstimator {
    fn estimate(&self, repr: &Representative, query: &Query, threshold: f64) -> Usefulness {
        let (pairs, leftovers) = self.pair_terms(query);
        if pairs.is_empty() {
            return self.base.estimate(repr, query, threshold);
        }
        with_factors(|g| {
            for &(i, j, p12) in &pairs {
                match self.joint_factor(repr, query, i, j, p12) {
                    Some(joint) => g.push_factor(joint),
                    // One side unknown to the representative: fall back to
                    // the independent factors for whichever sides exist.
                    None => {
                        for idx in [i, j] {
                            g.push_factor(self.base.factors_for_term(repr, query, idx));
                        }
                    }
                }
            }
            for idx in leftovers {
                g.push_factor(self.base.factors_for_term(repr, query, idx));
            }
            Usefulness::above(g, repr.n_docs(), threshold)
        })
    }

    fn name(&self) -> &'static str {
        "subrange+dep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
    use seu_repr::SubrangeScheme;
    use seu_text::Analyzer;

    fn fixture() -> (seu_engine::Collection, Representative, CooccurrenceStats) {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        // "alpha beta" always co-occur; "gamma" floats freely.
        for i in 0..6 {
            b.add_document(&format!("ab{i}"), "alpha beta filler1 filler2");
        }
        for i in 0..6 {
            b.add_document(&format!("g{i}"), "gamma filler3 filler4");
        }
        let c = b.build();
        let r = Representative::build(&c);
        let stats = CooccurrenceStats::build(&c, 1000, 32);
        (c, r, stats)
    }

    #[test]
    fn reduces_to_base_without_pairs() {
        let (c, r, _) = fixture();
        let base = SubrangeEstimator::paper_six_subrange();
        let est = DependenceAdjustedEstimator::new(base.clone(), CooccurrenceStats::default());
        let q = c.query_from_text("alpha beta");
        for t in [0.1, 0.3, 0.5] {
            let a = est.estimate(&r, &q, t);
            let b = base.estimate(&r, &q, t);
            assert!((a.no_doc - b.no_doc).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn dependence_raises_conjunction_estimates() {
        let (c, r, stats) = fixture();
        let base = SubrangeEstimator::paper_six_subrange();
        let dep = DependenceAdjustedEstimator::new(base.clone(), stats);
        let q = c.query_from_text("alpha beta");
        let engine = SearchEngine::new(c.clone());
        // Pick a threshold only reachable by docs with BOTH terms.
        let t = 0.55;
        let truth = engine.true_usefulness(&q, t);
        assert!(truth.no_doc > 0, "fixture: both-term docs clear t");
        let independent = base.estimate(&r, &q, t);
        let adjusted = dep.estimate(&r, &q, t);
        // Independence multiplies p=0.5 twice (0.25); the stored joint
        // is 0.5 — the adjusted estimate must be larger and closer.
        assert!(
            adjusted.no_doc > independent.no_doc,
            "{adjusted:?} vs {independent:?}"
        );
        let err_ind = (independent.no_doc - truth.no_doc as f64).abs();
        let err_dep = (adjusted.no_doc - truth.no_doc as f64).abs();
        assert!(err_dep < err_ind, "dep {err_dep} !< ind {err_ind}");
    }

    #[test]
    fn mass_is_conserved() {
        let (c, r, stats) = fixture();
        let dep = DependenceAdjustedEstimator::new(SubrangeEstimator::paper_six_subrange(), stats);
        let q = c.query_from_text("alpha beta gamma");
        // NoDoc at threshold 0 cannot exceed n (total mass 1).
        let u = dep.estimate(&r, &q, 0.0);
        assert!(u.no_doc <= r.n_docs() as f64 + 1e-9);
        assert!(u.no_doc > 0.0);
    }

    #[test]
    fn unknown_terms_fall_back_gracefully() {
        let (c, r, stats) = fixture();
        let dep = DependenceAdjustedEstimator::new(SubrangeEstimator::paper_six_subrange(), stats);
        let q = c.query_from_text("alpha zebra");
        let u = dep.estimate(&r, &q, 0.1);
        assert!(u.no_doc > 0.0);
        assert_eq!(dep.name(), "subrange+dep");
    }

    #[test]
    fn single_subrange_joint_matches_exact_probability() {
        // With the degenerate single-subrange scheme the joint factor's
        // mass above a both-terms-only threshold is exactly p12.
        let (c, r, stats) = fixture();
        let dep = DependenceAdjustedEstimator::new(
            SubrangeEstimator::new(
                SubrangeScheme::single(),
                seu_repr::MaxWeightMode::Stored,
                crate::Expansion::Exact,
            ),
            stats,
        );
        let q = c.query_from_text("alpha beta");
        // Single-subrange: each term's spike sits at its mean weight
        // (0.5 for both, n=12, p=0.5 each, p12=0.5). The only mass above
        // the single-term level is the "both" case: 12 * 0.5 = 6 docs.
        let single_level = {
            let alpha = c.vocab().get("alpha").unwrap();
            let u_w = q.weight(alpha) * r.get(alpha).unwrap().mean;
            u_w + 1e-9
        };
        let u = dep.estimate(&r, &q, single_level);
        assert!((u.no_doc - 6.0).abs() < 1e-6, "{u:?}");
    }
}
