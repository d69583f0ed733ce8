//! Subrange decomposition of a term's weight distribution.
//!
//! The basic method assumes every document containing term `t` carries the
//! same weight `w`. The subrange method (Section 3.1) instead partitions
//! the weight distribution into subranges and represents each subrange by
//! its median weight, approximated by a normal quantile
//! `w_mj = w + z(percentile_j) * sigma`.
//!
//! A [`SubrangeScheme`] is a list of [`Subrange`]s — `(median percentile,
//! probability-mass fraction)` — plus an optional *singleton top subrange*
//! holding only the maximum normalized weight with probability `1/n`
//! (Section 4: "the probability for the highest subrange is set to be 1
//! divided by the number of documents in the database").

use crate::representative::TermStats;
use seu_stats::phi_inv;

/// One subrange of the weight distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subrange {
    /// Percentile (from the bottom, in `[0, 1]`) of the subrange median.
    pub median_percentile: f64,
    /// Fraction of the term's probability mass assigned to this subrange.
    pub mass_fraction: f64,
}

/// Where the top subrange's weight comes from (quadruplet vs triplet
/// representatives — Tables 1–6 vs Tables 10–12).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MaxWeightMode {
    /// Use the stored maximum normalized weight `mw` (quadruplets).
    #[default]
    Stored,
    /// Estimate the maximum as a normal percentile `w + z(q) * sigma`
    /// (triplets; the paper uses `q = 0.999`).
    Estimated {
        /// The percentile used for the estimate.
        percentile: f64,
    },
}

impl MaxWeightMode {
    /// The paper's triplet-mode estimate: the 99.9 percentile.
    pub fn estimated_999() -> Self {
        MaxWeightMode::Estimated { percentile: 0.999 }
    }

    /// The z-score of the estimated-maximum percentile; `None` when the
    /// maximum is stored.
    fn z(&self) -> Option<f64> {
        match *self {
            MaxWeightMode::Stored => None,
            MaxWeightMode::Estimated { percentile } => Some(phi_inv(percentile)),
        }
    }

    /// Resolves the maximum weight for a term.
    pub fn max_weight(&self, stats: &TermStats) -> f64 {
        max_weight_at(stats, self.z())
    }
}

/// [`MaxWeightMode::max_weight`] with the mode's z-score already evaluated.
fn max_weight_at(stats: &TermStats, z: Option<f64>) -> f64 {
    match z {
        None => stats.max,
        Some(z) => (stats.mean + z * stats.std_dev).max(0.0),
    }
}

/// The normal quantiles a scheme and a [`MaxWeightMode`] decompose with:
/// `phi_inv` of each subrange's median percentile and of the
/// estimated-maximum percentile. They are constants of the pair, so an
/// estimator evaluates them once ([`SubrangeScheme::quantiles`]) instead
/// of once per query term.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeQuantiles {
    medians: Vec<f64>,
    max: Option<f64>,
}

/// A full subrange decomposition scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SubrangeScheme {
    /// Whether the highest subrange is the singleton `{max weight}` with
    /// probability `min(1/n, p)`.
    pub max_subrange: bool,
    /// Whether subrange median weights are clamped to the resolved
    /// maximum weight. Section 3.1's single-term argument ("the estimated
    /// numbers of documents with similarities greater than `T` in
    /// database `D2` and other databases are zero") implicitly requires
    /// no generating-function exponent to exceed the maximum normalized
    /// weight, so the default is `true`; set `false` to use the raw
    /// normal quantiles (ablation).
    pub clamp_to_max: bool,
    /// Remaining subranges; mass fractions must sum to 1 (they partition
    /// the term's probability mass after the top subrange's cut).
    pub subranges: Vec<Subrange>,
}

impl SubrangeScheme {
    /// The paper's experimental scheme (Section 4): a singleton max
    /// subrange plus five subranges with medians at the 98, 93.1, 70, 37.5
    /// and 12.5 percentiles.
    ///
    /// The mass fractions follow from the medians being the midpoints of
    /// the weight-rank intervals \[96,100\], \[90.2,96\], \[50,90.2\], \[25,50\]
    /// and \[0,25\] (in percent of the `k` documents containing the term):
    /// 4 %, 5.8 %, 40.2 %, 25 % and 25 %. "Narrower subranges are used for
    /// weights that are large because those weights are often more
    /// important … especially when the threshold is large."
    pub fn paper_six() -> Self {
        SubrangeScheme {
            max_subrange: true,
            clamp_to_max: true,
            subranges: vec![
                Subrange {
                    median_percentile: 0.98,
                    mass_fraction: 0.04,
                },
                Subrange {
                    median_percentile: 0.931,
                    mass_fraction: 0.058,
                },
                Subrange {
                    median_percentile: 0.70,
                    mass_fraction: 0.402,
                },
                Subrange {
                    median_percentile: 0.375,
                    mass_fraction: 0.25,
                },
                Subrange {
                    median_percentile: 0.125,
                    mass_fraction: 0.25,
                },
            ],
        }
    }

    /// The four-equal-subrange exposition scheme of Section 3.1 (medians at
    /// the 87.5, 62.5, 37.5 and 12.5 percentiles, no max subrange).
    pub fn four_equal() -> Self {
        Self::equal(4, false)
    }

    /// `k` equal-mass subranges; medians at the interval midpoints.
    /// Optionally adds the singleton max subrange on top.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn equal(k: usize, max_subrange: bool) -> Self {
        assert!(k > 0, "need at least one subrange");
        let frac = 1.0 / k as f64;
        let subranges = (0..k)
            .map(|i| Subrange {
                // i-th subrange from the top: midpoint of
                // [1-(i+1)/k, 1-i/k].
                median_percentile: 1.0 - (i as f64 + 0.5) * frac,
                mass_fraction: frac,
            })
            .collect();
        SubrangeScheme {
            max_subrange,
            clamp_to_max: true,
            subranges,
        }
    }

    /// Degenerate single-subrange scheme — reduces the estimator to the
    /// basic method of Proposition 1 (every containing document carries the
    /// mean weight). Useful as an ablation anchor.
    pub fn single() -> Self {
        SubrangeScheme {
            max_subrange: false,
            clamp_to_max: true,
            subranges: vec![Subrange {
                median_percentile: 0.5,
                mass_fraction: 1.0,
            }],
        }
    }

    /// Decomposes one term's statistics into `(probability, weight)`
    /// spikes for the generating function (Expression (8) generalized).
    ///
    /// * the singleton max subrange (if enabled) gets
    ///   `p_top = min(1/n, p)` at the resolved max weight;
    /// * the remaining mass `p - p_top` is split by `mass_fraction` at
    ///   weights `w + z(percentile) * sigma`, clamped below at 0 (a
    ///   negative normalized weight is impossible) and — when
    ///   `clamp_to_max` is set, the default — above at the resolved
    ///   maximum weight, which is what makes the single-term
    ///   identification guarantee exact in both directions.
    ///
    /// Weights are *not* yet multiplied by the query term weight `u`; the
    /// estimator does that when forming exponents.
    pub fn decompose(
        &self,
        stats: &TermStats,
        n_docs: u64,
        max_mode: MaxWeightMode,
    ) -> Vec<(f64, f64)> {
        self.spikes(stats, n_docs, &self.quantiles(max_mode))
            .collect()
    }

    /// The z-scores [`SubrangeScheme::spikes`] needs for this scheme
    /// under `max_mode`.
    pub fn quantiles(&self, max_mode: MaxWeightMode) -> SchemeQuantiles {
        SchemeQuantiles {
            medians: self
                .subranges
                .iter()
                .map(|sr| phi_inv(sr.median_percentile))
                .collect(),
            max: max_mode.z(),
        }
    }

    /// [`SubrangeScheme::decompose`] as an iterator over quantiles
    /// evaluated beforehand — the one copy of the decomposition; `z` must
    /// come from this scheme's [`SubrangeScheme::quantiles`].
    pub fn spikes<'a>(
        &'a self,
        stats: &TermStats,
        n_docs: u64,
        z: &'a SchemeQuantiles,
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        debug_assert_eq!(z.medians.len(), self.subranges.len());
        let TermStats {
            p, mean, std_dev, ..
        } = *stats;
        let present = p > 0.0 && n_docs > 0;
        let max_w = max_weight_at(stats, z.max);
        let p_top = if self.max_subrange {
            (1.0 / n_docs as f64).min(p)
        } else {
            0.0
        };
        let remaining = p - p_top;
        let top = (present && self.max_subrange).then_some((p_top, max_w));
        let medians = (present && remaining > 0.0)
            .then(|| self.subranges.iter().zip(&z.medians))
            .into_iter()
            .flatten();
        top.into_iter().chain(medians.map(move |(sr, &zq)| {
            let mut w = (mean + zq * std_dev).max(0.0);
            if self.clamp_to_max {
                w = w.min(max_w.max(0.0));
            }
            (remaining * sr.mass_fraction, w)
        }))
    }

    /// Total mass fraction of the non-top subranges (should be 1).
    pub fn total_fraction(&self) -> f64 {
        self.subranges.iter().map(|s| s.mass_fraction).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(p: f64, mean: f64, sd: f64, max: f64) -> TermStats {
        TermStats {
            p,
            mean,
            std_dev: sd,
            max,
        }
    }

    #[test]
    fn schemes_have_unit_fraction() {
        for s in [
            SubrangeScheme::paper_six(),
            SubrangeScheme::four_equal(),
            SubrangeScheme::equal(2, true),
            SubrangeScheme::equal(8, false),
            SubrangeScheme::single(),
        ] {
            assert!((s.total_fraction() - 1.0).abs() < 1e-9, "{s:?}");
        }
    }

    #[test]
    fn paper_example_3_3_four_subrange() {
        // w = 2.8, sigma = 1.3, p = 0.32, four equal subranges.
        // Expected medians: 4.295, 3.2134, 2.3866, 1.305; probs 0.08 each.
        let scheme = SubrangeScheme::four_equal();
        let st = stats(0.32, 2.8, 1.3, 10.0);
        let spikes = scheme.decompose(&st, 1000, MaxWeightMode::Stored);
        assert_eq!(spikes.len(), 4);
        let expect_w = [4.295, 3.2134, 2.3866, 1.305];
        for (i, &(p, w)) in spikes.iter().enumerate() {
            assert!((p - 0.08).abs() < 1e-12, "prob {i}");
            assert!((w - expect_w[i]).abs() < 2e-3, "weight {i}: {w}");
        }
    }

    #[test]
    fn mass_is_conserved() {
        let st = stats(0.4, 0.3, 0.1, 0.9);
        for scheme in [
            SubrangeScheme::paper_six(),
            SubrangeScheme::four_equal(),
            SubrangeScheme::equal(6, true),
        ] {
            let spikes = scheme.decompose(&st, 500, MaxWeightMode::Stored);
            let total: f64 = spikes.iter().map(|&(p, _)| p).sum();
            assert!((total - 0.4).abs() < 1e-12, "{scheme:?}");
        }
    }

    #[test]
    fn top_subrange_is_singleton_max() {
        let st = stats(0.4, 0.3, 0.1, 0.9);
        let n = 500;
        let spikes = SubrangeScheme::paper_six().decompose(&st, n, MaxWeightMode::Stored);
        assert!((spikes[0].0 - 1.0 / n as f64).abs() < 1e-15);
        assert_eq!(spikes[0].1, 0.9);
    }

    #[test]
    fn top_probability_caps_at_p() {
        // Rare term: p < 1/n.
        let st = stats(0.0005, 0.3, 0.0, 0.3);
        let spikes = SubrangeScheme::paper_six().decompose(&st, 1000, MaxWeightMode::Stored);
        assert!((spikes[0].0 - 0.0005).abs() < 1e-15);
        // Everything is in the top subrange; remainder spikes are zero.
        let rest: f64 = spikes[1..].iter().map(|&(p, _)| p).sum();
        assert!(rest.abs() < 1e-15);
    }

    #[test]
    fn clamping_modes() {
        // Large sigma pushes naive quantile weights negative and above
        // the stored max.
        let st = stats(0.5, 0.2, 1.0, 0.6);
        let clamped = SubrangeScheme::paper_six().decompose(&st, 100, MaxWeightMode::Stored);
        for &(_, w) in &clamped {
            assert!((0.0..=0.6 + 1e-12).contains(&w), "w={w}");
        }
        assert!(clamped.iter().any(|&(_, w)| w == 0.0), "lower clamp");

        let mut scheme = SubrangeScheme::paper_six();
        scheme.clamp_to_max = false;
        let raw = scheme.decompose(&st, 100, MaxWeightMode::Stored);
        assert!(
            raw.iter().any(|&(_, w)| w > 0.6),
            "unclamped 98-percentile median should exceed the max here"
        );
        for &(_, w) in &raw {
            assert!(w >= 0.0, "lower clamp always applies");
        }
    }

    #[test]
    fn zero_sigma_collapses_to_mean() {
        let st = stats(0.3, 0.25, 0.0, 0.25);
        let spikes = SubrangeScheme::four_equal().decompose(&st, 100, MaxWeightMode::Stored);
        for &(_, w) in &spikes {
            assert_eq!(w, 0.25);
        }
    }

    #[test]
    fn estimated_max_mode_uses_999_percentile() {
        let st = stats(0.3, 0.2, 0.05, 0.9);
        let m = MaxWeightMode::estimated_999().max_weight(&st);
        // 0.2 + 3.0902 * 0.05 = 0.3545 — ignores the stored max.
        assert!((m - 0.3545).abs() < 1e-3, "m={m}");
        assert_eq!(MaxWeightMode::Stored.max_weight(&st), 0.9);
    }

    #[test]
    fn absent_term_decomposes_to_nothing() {
        let st = stats(0.0, 0.0, 0.0, 0.0);
        assert!(SubrangeScheme::paper_six()
            .decompose(&st, 100, MaxWeightMode::Stored)
            .is_empty());
    }

    #[test]
    fn single_scheme_is_basic_method() {
        let st = stats(0.6, 0.45, 0.2, 0.9);
        let spikes = SubrangeScheme::single().decompose(&st, 100, MaxWeightMode::Stored);
        assert_eq!(spikes.len(), 1);
        assert!((spikes[0].0 - 0.6).abs() < 1e-15);
        // z(0.5) = 0 (up to the quantile approximation error) -> the mean.
        assert!((spikes[0].1 - 0.45).abs() < 1e-6);
    }
}
