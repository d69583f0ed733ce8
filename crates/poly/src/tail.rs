//! Tail statistics of a generating function, and the walk that reads
//! them off the factors without expanding the product.
//!
//! The paper asks the generating function for two numbers — `Σ a_i` and
//! `Σ a_i b_i` over the terms with `b_i > T` (Expressions (3)–(6)).
//! [`SpikeFactors::tail_above`] computes them by branch and bound over
//! spike choices: every factor (its spikes plus the remainder `1 − Σp`
//! at `X^0`) sums to 1, so a partial choice whose exponent already
//! exceeds `T` stands for a whole subtree of mass `prob` and mean
//! exponent `exponent + Σ remaining means`, and one that cannot reach `T`
//! with every remaining maximum stands for nothing. Memory is the
//! factors; time is still exponential in the worst case (many factors, a
//! middling threshold), which is what [`crate::GridPoly`] is for.
//!
//! **Against [`SparsePoly::tail_above`](crate::SparsePoly::tail_above).**
//! The expansion merges exponents closer than
//! [`DEFAULT_MERGE_EPS`](crate::DEFAULT_MERGE_EPS) into the lowest of the
//! run, so a threshold that close *below* a leaf's exponent can exclude
//! the leaf there; the walk compares the leaf's own un-merged sum and
//! counts it. The walk's side is the faithful one (`sim > T`, strictly);
//! away from that window the two agree to rounding.

use serde::{Deserialize, Serialize};

/// `Σ a_i` and `Σ a_i * b_i` over the terms with exponent above a
/// threshold — everything Equations (6)–(7) of the paper need.
///
/// Scaled by the database size `n`, `mass` becomes the estimated NoDoc and
/// `weighted_mass / mass` the estimated AvgSim.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TailStats {
    /// `Σ_{b_i > T} a_i` — probability a random document clears the
    /// threshold.
    pub mass: f64,
    /// `Σ_{b_i > T} a_i * b_i` — expected similarity contribution of the
    /// clearing documents.
    pub weighted_mass: f64,
}

impl TailStats {
    /// Average exponent of the tail, `Σ a_i b_i / Σ a_i`; 0 when the tail
    /// is empty (the estimator's convention for "no useful documents").
    pub fn avg_exponent(&self) -> f64 {
        if self.mass > 0.0 {
            self.weighted_mass / self.mass
        } else {
            0.0
        }
    }

    /// Adds another tail (used when combining disjoint document buckets,
    /// e.g. in the gGlOSS baselines).
    pub fn add(&mut self, other: TailStats) {
        self.mass += other.mass;
        self.weighted_mass += other.weighted_mass;
    }
}

/// Share of the largest reachable exponent by which the cut stays clear
/// of the threshold: the bound adds the remaining maxima right to left, a
/// leaf its own choices left to right, and the two may differ by ulps —
/// the cut must never drop a leaf the uncut walk would count.
const CUT_SLACK: f64 = 1e-12;

#[derive(Debug, Clone, Copy)]
struct Factor {
    /// Its choices are `spikes[start..end]`, the remainder last.
    start: usize,
    end: usize,
    /// Largest exponent, and `Σ p_j e_j`.
    max: f64,
    mean: f64,
}

/// What one [`SpikeFactors::tail_above`] did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Walk {
    /// The tail above the threshold.
    pub tail: TailStats,
    /// Partial choices looked at, the root included.
    pub visited: u64,
    /// Subtrees closed as passing whole: `exponent > T` already.
    pub closed: u64,
    /// Subtrees (or single leaves) cut: no choice below reaches `T`.
    pub cut: u64,
}

/// The factors of a generating function, `Π_i (Σ_j p_ij X^{e_ij} + rest_i)`,
/// kept as flat spike lists in buffers that [`SpikeFactors::clear`]
/// empties without freeing — a caller that keeps one around allocates
/// nothing once the buffers have grown to its longest query.
#[derive(Debug, Clone, Default)]
pub struct SpikeFactors {
    spikes: Vec<(f64, f64)>,
    /// Descending by `max`, ties in push order.
    factors: Vec<Factor>,
    /// `(Σ max, Σ mean)` over `factors[i..]`; one entry past the end.
    suffix: Vec<(f64, f64)>,
}

impl SpikeFactors {
    /// Forgets the factors, keeps the buffers.
    pub fn clear(&mut self) {
        self.spikes.clear();
        self.factors.clear();
    }

    /// Whether no factor was pushed — the product is the constant 1.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Adds a factor of `(probability, exponent)` spikes plus the
    /// remainder `1 − Σp` at exponent 0 (Expression (8)). Spikes of
    /// probability zero are dropped, and so is a factor left with none.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities sum to more than `1 + 1e-9` or an
    /// exponent is negative or not finite (the walk closes a subtree on
    /// the grounds that no remaining choice lowers the exponent).
    pub fn push_factor(&mut self, spikes: impl IntoIterator<Item = (f64, f64)>) {
        let start = self.spikes.len();
        let (mut total, mut max, mut mean) = (0.0, 0.0f64, 0.0);
        for (p, e) in spikes {
            assert!(e >= 0.0 && e.is_finite(), "exponent {e} of a spike");
            total += p;
            if p != 0.0 {
                self.spikes.push((p, e));
                max = max.max(e);
                mean += p * e;
            }
        }
        assert!(
            total <= 1.0 + 1e-9,
            "spike probabilities sum to {total} > 1"
        );
        if self.spikes.len() > start {
            if total < 1.0 {
                self.spikes.push((1.0 - total, 0.0));
            }
            // Largest maxima first, so a choice clears the threshold as
            // high in the tree as it can; after its equals, so that the
            // order — and with it every sum below — is a function of
            // the push order alone.
            let at = self.factors.partition_point(|f| f.max >= max);
            let end = self.spikes.len();
            let factor = Factor {
                start,
                end,
                max,
                mean,
            };
            self.factors.insert(at, factor);
        }
    }

    /// `Σ a_i` and `Σ a_i b_i` over the terms of the product with
    /// `b_i > t` (strictly, the paper's `sim > T`), without forming the
    /// product: a depth-first walk over spike choices that closes a
    /// subtree once its exponent exceeds `t` and cuts one that cannot.
    pub fn tail_above(&mut self, t: f64) -> Walk {
        let floor = t - CUT_SLACK * self.sum_suffixes();
        let mut walk = Walk::default();
        self.visit(0, 1.0, 0.0, t, floor, &mut walk);
        walk
    }

    /// Fills `suffix`; returns the largest reachable exponent.
    fn sum_suffixes(&mut self) -> f64 {
        self.suffix.clear();
        self.suffix.resize(self.factors.len() + 1, (0.0, 0.0));
        for (i, f) in self.factors.iter().enumerate().rev() {
            let (max, mean) = self.suffix[i + 1];
            self.suffix[i] = (f.max + max, f.mean + mean);
        }
        self.suffix[0].0
    }

    /// One partial choice: `factors[..i]` chosen, with probability `prob`
    /// and exponent `exp`; cut only if it cannot exceed `floor` (≤ `t`).
    fn visit(&self, i: usize, prob: f64, exp: f64, t: f64, floor: f64, walk: &mut Walk) {
        walk.visited += 1;
        let (max, mean) = self.suffix[i];
        if exp > t {
            // The rest sums to 1 and may all pick X^0: everything below
            // passes, with the remaining factors' means on top.
            walk.closed += 1;
            walk.tail.mass += prob;
            walk.tail.weighted_mass += prob * (exp + mean);
            return;
        }
        let Some(f) = self.factors.get(i).filter(|_| exp + max > floor) else {
            walk.cut += 1;
            return;
        };
        for &(p, e) in &self.spikes[f.start..f.end] {
            self.visit(i + 1, prob * p, exp + e, t, floor, walk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_of_empty_tail_is_zero() {
        assert_eq!(TailStats::default().avg_exponent(), 0.0);
    }

    #[test]
    fn avg_exponent_weighted() {
        let t = TailStats {
            mass: 0.24,
            weighted_mass: 0.048 * 5.0 + 0.192 * 4.0,
        };
        assert!((t.avg_exponent() - 4.2).abs() < 1e-12);
    }

    #[test]
    fn add_accumulates() {
        let mut a = TailStats {
            mass: 1.0,
            weighted_mass: 2.0,
        };
        a.add(TailStats {
            mass: 3.0,
            weighted_mass: 4.0,
        });
        assert_eq!(a.mass, 4.0);
        assert_eq!(a.weighted_mass, 6.0);
    }

    fn factors(of: &[&[(f64, f64)]]) -> SpikeFactors {
        let mut g = SpikeFactors::default();
        for spikes in of {
            g.push_factor(spikes.iter().copied());
        }
        g
    }

    #[test]
    fn walk_reads_the_paper_example_without_expanding() {
        // Example 3.1/3.2: q = (1,1,1), (p, w) = (0.6, 2), (0.2, 1),
        // (0.4, 2); est_NoDoc(3) = 5 * 0.24, est_AvgSim(3) = 4.2.
        let mut g = factors(&[&[(0.6, 2.0)], &[(0.2, 1.0)], &[(0.4, 2.0)]]);
        let walk = g.tail_above(3.0);
        assert!((walk.tail.mass - 0.24).abs() < 1e-15);
        assert!((walk.tail.avg_exponent() - 4.2).abs() < 1e-12);
        // 2^3 leaves; the walk looked at fewer nodes than that tree has.
        assert!(walk.visited < 15, "{walk:?}");
        assert!(walk.visited >= walk.closed + walk.cut);
        // Everything is above a negative threshold: closed at the root.
        let all = g.tail_above(-1.0);
        assert_eq!((all.visited, all.closed, all.cut), (1, 1, 0));
        assert_eq!(all.tail.mass, 1.0);
        assert!((all.tail.weighted_mass - (1.2 + 0.2 + 0.8)).abs() < 1e-15);
        // Nothing is above the largest reachable exponent, 5: at it the
        // cut's margin makes the walk look (and find nothing), clear of
        // it the root is cut.
        assert_eq!(g.tail_above(5.0).tail, TailStats::default());
        let none = g.tail_above(5.1);
        assert_eq!((none.visited, none.closed, none.cut), (1, 0, 1));
        assert_eq!(none.tail, TailStats::default());
    }

    #[test]
    fn no_factors_is_the_constant_one() {
        let mut g = SpikeFactors::default();
        assert!(g.is_empty());
        assert_eq!(g.tail_above(0.0).tail, TailStats::default());
        assert_eq!(g.tail_above(-1.0).tail.mass, 1.0);
        // Zero-probability spikes leave no factor behind either.
        g.push_factor([(0.0, 0.7)]);
        g.push_factor([]);
        assert!(g.is_empty());
        g.push_factor([(0.5, 0.7)]);
        assert!(!g.is_empty());
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn the_tail_is_strictly_above() {
        let mut g = factors(&[&[(0.25, 0.3), (0.5, 0.5)]]);
        assert_eq!(g.tail_above(0.5).tail.mass, 0.0);
        assert_eq!(g.tail_above(0.3).tail.mass, 0.5);
        assert_eq!(g.tail_above(0.29).tail.mass, 0.75);
    }

    /// Where the walk and the epsilon-merged expansion part ways, and
    /// which of them is right: two spikes half a nanounit apart are one
    /// term at the *lower* exponent once expanded, so a threshold between
    /// them loses the upper one there; the walk compares the upper
    /// spike's own exponent and keeps it.
    #[test]
    fn inside_the_merge_window_the_unmerged_exponent_decides() {
        let (low, high) = (0.5, 0.5 + 5e-10);
        assert!(high - low < crate::DEFAULT_MERGE_EPS);
        let spikes = [(0.3, low), (0.3, high)];
        let between = 0.5 + 2e-10;
        let expanded = crate::SparsePoly::spike_factor(spikes);
        assert_eq!(expanded.tail_above(between).mass, 0.0);
        let mut g = factors(&[&spikes]);
        assert_eq!(g.tail_above(between).tail.mass, 0.3);
        // Outside the window they agree.
        assert_eq!(g.tail_above(0.4).tail.mass, expanded.tail_above(0.4).mass);
        assert_eq!(g.tail_above(0.6).tail.mass, 0.0);
    }

    #[test]
    #[should_panic(expected = "> 1")]
    fn overfull_factor_is_rejected() {
        SpikeFactors::default().push_factor([(0.7, 1.0), (0.6, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_is_rejected() {
        SpikeFactors::default().push_factor([(0.5, -0.1)]);
    }

    mod cut {
        use super::*;
        use proptest::prelude::*;

        fn arb_factors() -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
            let factor = prop::collection::vec((0.0f64..1.0, 0.0f64..0.8), 1..7).prop_map(|raw| {
                let total: f64 = raw.iter().map(|&(p, _)| p).sum();
                let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
                raw.into_iter()
                    .map(|(p, e)| (p * scale, e))
                    .collect::<Vec<_>>()
            });
            prop::collection::vec(factor, 1..7)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The cut is an optimisation only: with it disabled the walk
            /// returns the same bits, at thresholds drawn anywhere and at
            /// thresholds placed on, and one ulp either side of, a leaf's
            /// own exponent — where a bound summed in another order
            /// could differ from the leaf by rounding.
            #[test]
            fn never_changes_the_answer(
                of in arb_factors(),
                anywhere in 0.0f64..3.0,
                pick in prop::collection::vec(0usize..7, 6),
            ) {
                let mut g = SpikeFactors::default();
                for spikes in &of {
                    g.push_factor(spikes.iter().copied());
                }
                // A leaf exponent exactly as the walk adds it up.
                let leaf = g.factors.iter().zip(&pick).fold(0.0, |exp, (f, &j)| {
                    match g.spikes[f.start..f.end].get(j) {
                        Some(&(_, e)) => exp + e,
                        None => exp,
                    }
                });
                let ulp = |x: f64, by: i64| f64::from_bits((x.to_bits() as i64 + by) as u64);
                for t in [anywhere, leaf, ulp(leaf.max(1e-300), 1), ulp(leaf.max(1e-300), -1)] {
                    let cutting = g.tail_above(t);
                    let mut uncut = Walk::default();
                    g.visit(0, 1.0, 0.0, t, f64::NEG_INFINITY, &mut uncut);
                    prop_assert_eq!(cutting.tail.mass.to_bits(), uncut.tail.mass.to_bits());
                    prop_assert_eq!(
                        cutting.tail.weighted_mass.to_bits(),
                        uncut.tail.weighted_mass.to_bits()
                    );
                    prop_assert_eq!(cutting.closed, uncut.closed);
                    prop_assert!(cutting.visited <= uncut.visited);
                    prop_assert!(cutting.visited >= cutting.closed + cutting.cut);
                }
            }
        }
    }
}
