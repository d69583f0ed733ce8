//! The estimator's tail walk against the expansion it replaced.
//!
//! `SubrangeEstimator::estimate` no longer multiplies its factors out;
//! this holds it to what multiplying them out gives. Two references:
//!
//! * the **expansion** — `SparsePoly::product(..).tail_above(T)` over the
//!   estimator's own `factors()`, the parent commit's computation. It
//!   merges exponents closer than `DEFAULT_MERGE_EPS` into the lowest of
//!   the run (once per multiplication), so where a leaf's exponent lies
//!   within that window of `T` it may put the leaf on the other side, and
//!   it adds up to half a million coefficients one after another, so it
//!   is held to `1e-10` relative (measured: it is the noisy side — the
//!   walk sits within `1e-12` of the compensated sum where it does not);
//! * the **leaves** — every spike choice enumerated, exponents added in
//!   the walk's own order (largest-maximum factor first, left to right),
//!   masses added with compensation. No merging, no window: the walk must
//!   agree with it at every threshold, including one placed exactly on,
//!   or one ulp either side of, a leaf's exponent. That is the
//!   documented side inside the window (`seu_poly::tail`).
//!
//! Query lengths run 1–8 terms, capped per scheme so the reference
//! expansion stays under half a million terms (four-equal reaches 8 terms,
//! the paper's six-subrange scheme 6, `equal(8, true)` 5).

use proptest::prelude::*;
use seu_core::{Expansion, SubrangeEstimator, UsefulnessEstimator};
use seu_engine::Query;
use seu_poly::{SparsePoly, DEFAULT_MERGE_EPS};
use seu_repr::{MaxWeightMode, Representative, SubrangeScheme, TermStats};
use seu_text::TermId;

const MAX_LEAVES: usize = 500_000;
/// The walk agrees with the leaves to this (relative, or 1e-15
/// absolute), and with the expansion to `EXPANSION_REL`.
const REL: f64 = 1e-12;
const EXPANSION_REL: f64 = 1e-10;

fn schemes() -> Vec<SubrangeScheme> {
    vec![
        SubrangeScheme::paper_six(),
        SubrangeScheme::four_equal(),
        SubrangeScheme::equal(8, true),
        SubrangeScheme::single(),
    ]
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= 1e-15 + rel * a.abs().max(b.abs())
}

/// Neumaier's compensated sum: the reference adds up to 500 000 leaf
/// masses and must not be the noisier side of the comparison.
#[derive(Default)]
struct Sum {
    sum: f64,
    lost: f64,
}

impl Sum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.lost += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    fn get(&self) -> f64 {
        self.sum + self.lost
    }
}

/// Every leaf `(exponent, probability)` of the product of `factors`
/// (spikes plus the remainder at `X^0`), in the walk's factor order.
fn leaves(factors: &[Vec<(f64, f64)>]) -> Vec<(f64, f64)> {
    let max = |f: &Vec<(f64, f64)>| f.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
    let mut ordered: Vec<&Vec<(f64, f64)>> = factors.iter().filter(|f| !f.is_empty()).collect();
    // Stable, descending: what `SpikeFactors::push_factor` keeps.
    ordered.sort_by(|a, b| max(b).partial_cmp(&max(a)).unwrap());
    let mut out = vec![(0.0, 1.0)];
    for f in ordered {
        let rest = (1.0 - f.iter().map(|&(p, _)| p).sum::<f64>()).max(0.0);
        let mut next = Vec::with_capacity(out.len() * (f.len() + 1));
        for &(exp, prob) in &out {
            for &(p, e) in f.iter().filter(|&&(p, _)| p != 0.0) {
                next.push((exp + e, prob * p));
            }
            if rest != 0.0 {
                next.push((exp, prob * rest));
            }
        }
        out = next;
    }
    out
}

fn ulps(x: f64, by: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + by) as u64)
}

#[derive(Debug)]
struct Case {
    estimator: SubrangeEstimator,
    repr: Representative,
    query: Query,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let term = (
        (0.0f64..1.0, 0.0f64..1.0),
        (0.0f64..0.6, 0.0f64..0.3, 0.0f64..0.5),
        0.05f64..1.0,
    );
    (
        0usize..4,
        any::<bool>(),
        2u64..2000,
        prop::collection::vec(term, 1..9),
    )
        .prop_map(|(scheme, stored, n_docs, terms)| {
            let scheme = schemes().swap_remove(scheme);
            let choices = scheme.subranges.len() + 1 + usize::from(scheme.max_subrange);
            let longest = (1..=8)
                .take_while(|&k| choices.pow(k) <= MAX_LEAVES)
                .last()
                .expect("one term always fits");
            let max_mode = if stored {
                MaxWeightMode::Stored
            } else {
                MaxWeightMode::estimated_999()
            };
            let stats: Vec<TermStats> = terms
                .iter()
                .take(longest as usize)
                // A quarter of the terms are in every document (p = 1),
                // the rest anywhere in (0, 1).
                .map(|&((p, full), (mean, std_dev, above), _)| TermStats {
                    p: if full < 0.25 { 1.0 } else { p.max(1e-4) },
                    mean,
                    std_dev,
                    max: (mean + above).min(1.0),
                })
                .collect();
            let query = Query::new(
                terms
                    .iter()
                    .take(stats.len())
                    .enumerate()
                    .map(|(i, &(_, _, u))| (TermId(i as u32), u)),
            );
            Case {
                estimator: SubrangeEstimator::new(scheme, max_mode, Expansion::Exact),
                repr: Representative::from_parts(n_docs, stats, 0),
                query,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn walk_agrees_with_the_expansion_and_with_the_leaves(
        case in arb_case(),
        uniform in prop::collection::vec(0.0f64..1.0, 4),
        on_leaf in prop::collection::vec(0.0f64..1.0, 3),
    ) {
        let Case { estimator, repr, query } = &case;
        let n = repr.n_docs() as f64;
        let factors = estimator.factors(repr, query);
        let all = leaves(&factors);
        let reach = all.iter().map(|&(e, _)| e).fold(0.0f64, f64::max);
        let polys: Vec<SparsePoly> = factors.iter().cloned().map(SparsePoly::spike_factor).collect();
        let expansion = SparsePoly::product(&polys);

        let mut thresholds: Vec<f64> = uniform.iter().map(|&x| x * reach * 1.05).collect();
        for &x in &on_leaf {
            let e = all[((x * all.len() as f64) as usize).min(all.len() - 1)].0.max(1e-300);
            thresholds.extend([e, ulps(e, 1), ulps(e, -1)]);
        }
        let swept = estimator.estimate_sweep(repr, query, &thresholds);
        for (&t, swept) in thresholds.iter().zip(swept) {
            let got = estimator.estimate(repr, query, t);
            prop_assert_eq!(
                (got.no_doc.to_bits(), got.avg_sim.to_bits()),
                (swept.no_doc.to_bits(), swept.avg_sim.to_bits()),
                "estimate and estimate_sweep part ways at T={}", t
            );
            let (mut mass, mut weighted) = (Sum::default(), Sum::default());
            for &(e, p) in all.iter().filter(|&&(e, _)| e > t) {
                mass.add(p);
                weighted.add(p * e);
            }
            let (mass, weighted) = (mass.get(), weighted.get());
            let avg = if mass > 0.0 { weighted / mass } else { 0.0 };
            // The leaves: everywhere, the merge window included.
            prop_assert!(close(got.no_doc, n * mass, REL), "T={}: NoDoc {} vs leaves {}", t, got.no_doc, n * mass);
            prop_assert!(close(got.avg_sim, avg, REL), "T={}: AvgSim {} vs leaves {}", t, got.avg_sim, avg);
            prop_assert_eq!(got.no_doc == 0.0, mass == 0.0, "T={}", t);
            // The expansion: away from the window (one merge per
            // multiplication can move an exponent by the epsilon).
            let window = DEFAULT_MERGE_EPS * (factors.len() + 1) as f64;
            if all.iter().all(|&(e, _)| (e - t).abs() > window) {
                let tail = expansion.tail_above(t);
                prop_assert!(close(got.no_doc, n * tail.mass, EXPANSION_REL), "T={}: NoDoc {} vs expansion {}", t, got.no_doc, n * tail.mass);
                prop_assert!(close(got.avg_sim, tail.avg_exponent(), EXPANSION_REL), "T={}: AvgSim {} vs expansion {}", t, got.avg_sim, tail.avg_exponent());
            }
        }
    }

    /// §3.1, both directions, to the ulp: a single-term query's estimate
    /// is positive exactly when the threshold is below the term's largest
    /// exponent (`u · mw` under the paper's scheme).
    #[test]
    fn single_term_estimates_are_positive_exactly_below_the_largest_exponent(
        case in arb_case(),
    ) {
        let Case { estimator, repr, query } = &case;
        let single = Query::new([query.terms()[0]]);
        let spikes = &estimator.factors(repr, &single)[0];
        let largest = spikes.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
        prop_assume!(largest > 1e-300);
        if estimator.scheme().max_subrange && estimator.max_mode() == MaxWeightMode::Stored {
            let (term, u) = single.terms()[0];
            prop_assert_eq!(largest, u * repr.get(term).unwrap().max);
        }
        for (t, positive) in [(ulps(largest, -1), true), (largest, false), (ulps(largest, 1), false)] {
            let got = estimator.estimate(repr, &single, t);
            prop_assert_eq!(got.no_doc > 0.0, positive, "T={} against {}", t, largest);
            if positive {
                prop_assert!(got.avg_sim >= t);
            } else {
                prop_assert_eq!(got.avg_sim, 0.0);
            }
        }
    }
}
