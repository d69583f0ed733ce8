//! Usefulness estimators — the paper's contribution and every baseline it
//! is compared against.
//!
//! Given only a database [`Representative`]
//! (never the documents), each estimator predicts the usefulness pair for
//! a query `q` and threshold `T`:
//!
//! * `NoDoc(T, q, D)` — how many documents of `D` have `sim(q, d) > T`;
//! * `AvgSim(T, q, D)` — the average similarity of those documents.
//!
//! Implementations:
//!
//! * [`SubrangeEstimator`] — the paper's subrange-based statistical method
//!   (Section 3.1): per-term subrange spike factors multiplied into a
//!   probability generating function, with the singleton max-weight top
//!   subrange that makes single-term selection exact.
//! * [`BasicEstimator`] — the Proposition 1 method: one `(p, w)` spike per
//!   term (uniform-weight assumption).
//! * [`PrevMethodEstimator`] — a reconstruction of the authors' earlier
//!   VLDB'98 method: the basic factor with `(p, w)` dynamically adjusted
//!   by the threshold using the weight standard deviation.
//! * [`HighCorrelationEstimator`] / [`DisjointEstimator`] — the gGlOSS
//!   estimators under the high-correlation and disjoint assumptions.
//!
//! All estimators share the [`UsefulnessEstimator`] trait so the
//! evaluation harness and the metasearch broker are generic over them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod binary;
pub mod cori;
pub mod curve;
pub mod dependence;
pub mod empirical;
pub mod gloss;
pub mod guarantee;
pub mod prev;
pub mod subrange;

pub use basic::BasicEstimator;
pub use binary::BinaryIndependentEstimator;
pub use cori::{CoriCandidate, CoriRanker};
pub use curve::UsefulnessCurve;
pub use dependence::DependenceAdjustedEstimator;
pub use empirical::EmpiricalSubrangeEstimator;
pub use gloss::{DisjointEstimator, HighCorrelationEstimator};
pub use prev::PrevMethodEstimator;
pub use subrange::{Expansion, SubrangeEstimator};

use serde::{Deserialize, Serialize};
use seu_engine::Query;
use seu_poly::{SpikeFactors, TailStats};
use seu_repr::Representative;
use std::cell::RefCell;

/// Runs `f` on this thread's factor scratch, emptied: the buffers an
/// estimate loads its generating function's factors into and walks
/// ([`SpikeFactors::tail_above`]). They are cleared, never freed, so an
/// estimate allocates nothing once they have grown to the thread's
/// longest query. Not re-entrant: `f` must not estimate.
pub(crate) fn with_factors<R>(f: impl FnOnce(&mut SpikeFactors) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<SpikeFactors> = RefCell::default();
    }
    SCRATCH.with(|scratch| {
        let mut factors = scratch.borrow_mut();
        factors.clear();
        f(&mut factors)
    })
}

/// An estimated usefulness pair.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Usefulness {
    /// Estimated `NoDoc(T, q, D)` (expected number of documents above the
    /// threshold; fractional before rounding).
    pub no_doc: f64,
    /// Estimated `AvgSim(T, q, D)`; 0 when `no_doc` is 0.
    pub avg_sim: f64,
}

impl Usefulness {
    /// Equation (6) and the AvgSim formula below it: the tail's mass
    /// scaled by the database size, and its average exponent.
    pub(crate) fn from_tail(n_docs: u64, tail: TailStats) -> Self {
        Usefulness {
            no_doc: n_docs as f64 * tail.mass,
            avg_sim: tail.avg_exponent(),
        }
    }

    /// The usefulness above `threshold` of the database whose generating
    /// function has these factors; exactly `(0, 0)` when it has none.
    pub(crate) fn above(factors: &mut SpikeFactors, n_docs: u64, threshold: f64) -> Self {
        if factors.is_empty() {
            return Usefulness::default();
        }
        Self::from_tail(n_docs, factors.tail_above(threshold).tail)
    }

    /// The paper rounds estimated NoDoc to integers before computing
    /// match/mismatch; negative estimates clamp to 0.
    pub fn no_doc_rounded(&self) -> u64 {
        self.no_doc.max(0.0).round() as u64
    }

    /// Whether the estimate identifies the database as useful (rounded
    /// NoDoc at least 1).
    pub fn identifies_useful(&self) -> bool {
        self.no_doc_rounded() >= 1
    }
}

/// A method that estimates usefulness from a representative alone.
///
/// # Contract: no shared term, no usefulness
///
/// For the empty query, and for a query none of whose terms occurs in
/// the database `repr` summarizes (no row, or a row with `p == 0`),
/// [`estimate`](UsefulnessEstimator::estimate) returns exactly
/// [`Usefulness::default()`] — `(+0.0, +0.0)`, bit for bit — at every
/// threshold, and [`estimate_sweep`](UsefulnessEstimator::estimate_sweep)
/// one such pair per threshold. Such a database's generating function is
/// the constant 1 (paper Prop. 1): no document has a positive similarity.
/// The metasearch broker relies on it: it writes that pair for every
/// engine its term postings do not reach, without consulting the
/// estimator. Every estimator in this crate is held to it by the
/// `no_shared_term_estimates_exactly_nothing` test.
pub trait UsefulnessEstimator {
    /// Estimates `(NoDoc, AvgSim)` for `query` against the database
    /// summarized by `repr`, at similarity threshold `threshold`.
    fn estimate(&self, repr: &Representative, query: &Query, threshold: f64) -> Usefulness;

    /// Estimates at several thresholds at once. The default delegates to
    /// [`UsefulnessEstimator::estimate`]; methods whose expensive work
    /// (e.g. the generating-function expansion) is threshold-independent
    /// override this to do it once — the evaluation harness sweeps six
    /// thresholds over thousands of queries.
    fn estimate_sweep(
        &self,
        repr: &Representative,
        query: &Query,
        thresholds: &[f64],
    ) -> Vec<Usefulness> {
        thresholds
            .iter()
            .map(|&t| self.estimate(repr, query, t))
            .collect()
    }

    /// Short stable name for tables and logs.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, WeightingScheme};
    use seu_repr::{
        CooccurrenceStats, MaxWeightMode, PercentileRepresentative, SubrangeScheme, TermStats,
    };
    use seu_text::{Analyzer, TermId};

    /// The contract the broker's skip rests on (see the trait's docs),
    /// over every estimator of the crate.
    #[test]
    fn no_shared_term_estimates_exactly_nothing() {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "mushroom soup with cream");
        b.add_document("d1", "mushroom risotto");
        b.add_document("d2", "cream of tomato soup");
        let collection = b.build();
        let built = Representative::build(&collection);
        let rows = built.table_len() as u32;
        // The same database with a term that occurs nowhere: a row of
        // zeros, as a quantized round-trip can leave behind.
        let hole = TermStats {
            p: 0.0,
            mean: 0.0,
            std_dev: 0.0,
            max: 0.0,
        };
        let mut stats: Vec<TermStats> = (0..rows)
            .map(|t| *built.get(TermId(t)).expect("built rows are all present"))
            .collect();
        stats.push(hole);
        let holed = Representative::from_parts(built.n_docs(), stats, built.collection_bytes());
        let empty_db = Representative::from_parts(0, Vec::new(), 0);

        let six = SubrangeEstimator::paper_six_subrange;
        let grid = Expansion::Grid { cells: 256 };
        let estimators: Vec<(&str, Box<dyn UsefulnessEstimator>)> = vec![
            ("subrange, exact expansion", Box::new(six())),
            (
                "subrange, grid expansion",
                Box::new(SubrangeEstimator::new(
                    SubrangeScheme::paper_six(),
                    MaxWeightMode::Stored,
                    grid,
                )),
            ),
            (
                "subrange, triplet",
                Box::new(SubrangeEstimator::paper_triplet()),
            ),
            (
                "empirical subrange",
                Box::new(EmpiricalSubrangeEstimator::new(
                    PercentileRepresentative::build(&collection, SubrangeScheme::paper_six()),
                )),
            ),
            ("basic", Box::new(BasicEstimator::new())),
            (
                "binary independent",
                Box::new(BinaryIndependentEstimator::new()),
            ),
            ("previous method", Box::new(PrevMethodEstimator::new())),
            (
                "high correlation",
                Box::new(HighCorrelationEstimator::new()),
            ),
            ("disjoint", Box::new(DisjointEstimator::new())),
            (
                "dependence adjusted",
                Box::new(DependenceAdjustedEstimator::new(
                    six(),
                    CooccurrenceStats::build(&collection, 64, 16),
                )),
            ),
        ];
        let queries = [
            ("the empty query", Query::default()),
            ("one unknown term", Query::new([(TermId(rows + 7), 1.0)])),
            (
                "two unknown terms",
                Query::new([(TermId(rows + 1), 0.6), (TermId(rows + 40), 0.8)]),
            ),
            ("a term with a zero row", Query::new([(TermId(rows), 1.0)])),
            (
                "a zero row and an unknown term",
                Query::new([(TermId(rows), 0.6), (TermId(rows + 3), 0.8)]),
            ),
        ];
        let thresholds = [0.0, 0.1, 0.5, 0.99];
        let bits = |u: Usefulness| (u.no_doc.to_bits(), u.avg_sim.to_bits());
        let nothing = bits(Usefulness::default());
        assert_eq!(nothing, (0, 0), "the default is (+0.0, +0.0)");
        for (name, estimator) in &estimators {
            for (database, repr) in [("built", &built), ("holed", &holed), ("empty", &empty_db)] {
                for (what, query) in &queries {
                    for threshold in thresholds {
                        assert_eq!(
                            bits(estimator.estimate(repr, query, threshold)),
                            nothing,
                            "{name}: {what} against the {database} database at {threshold}"
                        );
                    }
                    let sweep = estimator.estimate_sweep(repr, query, &thresholds);
                    assert_eq!(sweep.len(), thresholds.len(), "{name}: {what}");
                    for u in sweep {
                        assert_eq!(bits(u), nothing, "{name}: {what}, swept, {database}");
                    }
                }
            }
        }
    }

    #[test]
    fn rounding_convention() {
        let u = Usefulness {
            no_doc: 1.2,
            avg_sim: 0.5,
        };
        assert_eq!(u.no_doc_rounded(), 1);
        assert!(u.identifies_useful());
        let v = Usefulness {
            no_doc: 0.49,
            avg_sim: 0.5,
        };
        assert_eq!(v.no_doc_rounded(), 0);
        assert!(!v.identifies_useful());
        let w = Usefulness {
            no_doc: 0.5,
            avg_sim: 0.5,
        };
        assert_eq!(w.no_doc_rounded(), 1);
        let neg = Usefulness {
            no_doc: -0.2,
            avg_sim: 0.0,
        };
        assert_eq!(neg.no_doc_rounded(), 0);
    }
}
