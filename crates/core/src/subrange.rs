//! The subrange-based estimator — the paper's primary contribution.
//!
//! For each query term, the term's `(p, w, sigma, mw)` statistics are
//! decomposed by a [`SubrangeScheme`] into probability spikes at subrange
//! median weights (Expression (8)); the spikes become a factor polynomial
//! whose exponents are the weights scaled by the query term weight `u`.
//! The product of the factors is the generating function; its tail above
//! the threshold yields `est_NoDoc` and `est_AvgSim`, and that tail is
//! all an estimate computes ([`seu_poly::SpikeFactors::tail_above`]) —
//! the product itself is only expanded for a [`UsefulnessCurve`](crate::curve::UsefulnessCurve).
//!
//! With the paper's six-subrange scheme the highest subrange holds only
//! the maximum normalized weight with probability `1/n`, which guarantees
//! correct engine identification for single-term queries (see the
//! [`crate::guarantee`] module).

use crate::{with_factors, Usefulness, UsefulnessEstimator};
use seu_engine::Query;
use seu_poly::{GridPoly, SparsePoly, SpikeFactors, TailStats};
use seu_repr::{MaxWeightMode, Representative, SchemeQuantiles, SubrangeScheme, TermStats};
use std::sync::{Arc, OnceLock};

/// Instrument handles cached once per process. The `terms` counts are the
/// tail walk's: `raw` the partial spike choices it visited, `expanded` the
/// subtrees it closed as passing the threshold whole, `pruned` the ones it
/// cut as unable to reach it (`raw ≥ expanded + pruned`).
struct EstimatorMetrics {
    invocations: Arc<seu_obs::Counter>,
    sweeps: Arc<seu_obs::Counter>,
    expansions: Arc<seu_obs::Counter>,
    terms_raw: Arc<seu_obs::Counter>,
    terms_expanded: Arc<seu_obs::Counter>,
    terms_pruned: Arc<seu_obs::Counter>,
    expansion_size: Arc<seu_obs::Histogram>,
    expansion_seconds: Arc<seu_obs::Histogram>,
    grid_cells: Arc<seu_obs::Counter>,
}

fn metrics() -> &'static EstimatorMetrics {
    static METRICS: OnceLock<EstimatorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EstimatorMetrics {
        invocations: seu_obs::counter("estimator_subrange_invocations_total"),
        sweeps: seu_obs::counter("estimator_subrange_sweeps_total"),
        expansions: seu_obs::counter("estimator_poly_expansions_total"),
        terms_raw: seu_obs::counter("estimator_poly_terms_raw_total"),
        terms_expanded: seu_obs::counter("estimator_poly_terms_expanded_total"),
        terms_pruned: seu_obs::counter("estimator_poly_terms_pruned_total"),
        expansion_size: seu_obs::histogram_with_buckets(
            "estimator_poly_expansion_terms",
            &seu_obs::SIZE_BUCKETS,
        ),
        expansion_seconds: seu_obs::histogram("estimator_expansion_seconds"),
        grid_cells: seu_obs::counter("estimator_grid_cells_convolved_total"),
    })
}

/// Forces creation of the estimator's instruments so snapshots and
/// expositions include the whole `estimator_*` family — zero-valued if
/// the process never estimated — instead of a family that appears only
/// after the first call touches it.
pub fn register_metrics() {
    let _ = metrics();
}

/// How the generating function is expanded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Expansion {
    /// The exact tail, by a depth-first walk over spike choices that never
    /// forms the product: memory is the factors, time exponential in query
    /// length at worst — fine for the paper's short (<= 6 term) queries.
    #[default]
    Exact,
    /// Dense grid convolution with the given number of cells over
    /// `[0, max exponent]` — `O(r * k * cells)` for any query length,
    /// with tail mass rounded conservatively down.
    Grid {
        /// Number of grid cells.
        cells: usize,
    },
}

/// The subrange-based usefulness estimator.
///
/// # Examples
///
/// ```
/// use seu_core::{SubrangeEstimator, UsefulnessEstimator};
/// use seu_engine::Query;
/// use seu_repr::{Representative, TermStats};
/// use seu_text::TermId;
///
/// // A 100-document database where one term appears in 30 % of
/// // documents with mean normalized weight 0.3 (sd 0.1, max 0.9).
/// let repr = Representative::from_parts(
///     100,
///     vec![TermStats { p: 0.3, mean: 0.3, std_dev: 0.1, max: 0.9 }],
///     0,
/// );
/// let est = SubrangeEstimator::paper_six_subrange();
/// let query = Query::new([(TermId(0), 1.0)]);
///
/// // Plenty of documents above a low threshold...
/// assert!(est.estimate(&repr, &query, 0.1).no_doc > 10.0);
/// // ...only the max-weight document above a high one (the singleton
/// // top subrange at probability 1/n)...
/// let high = est.estimate(&repr, &query, 0.8);
/// assert!((high.no_doc - 1.0).abs() < 1e-9);
/// // ...and nothing above the maximum normalized weight.
/// assert_eq!(est.estimate(&repr, &query, 0.95).no_doc, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SubrangeEstimator {
    scheme: SubrangeScheme,
    max_mode: MaxWeightMode,
    expansion: Expansion,
    /// The z-scores of `scheme` under `max_mode`, evaluated once.
    quantiles: SchemeQuantiles,
}

impl SubrangeEstimator {
    /// Full configuration.
    pub fn new(scheme: SubrangeScheme, max_mode: MaxWeightMode, expansion: Expansion) -> Self {
        SubrangeEstimator {
            quantiles: scheme.quantiles(max_mode),
            scheme,
            max_mode,
            expansion,
        }
    }

    /// The paper's experimental configuration: six subranges with the
    /// stored maximum normalized weight as singleton top subrange, exact
    /// expansion (Tables 1–6).
    pub fn paper_six_subrange() -> Self {
        Self::new(
            SubrangeScheme::paper_six(),
            MaxWeightMode::Stored,
            Expansion::Exact,
        )
    }

    /// The Tables 10–12 configuration: max weight not stored but estimated
    /// as the 99.9 percentile from `(w, sigma)` (triplet representative).
    pub fn paper_triplet() -> Self {
        Self::new(
            SubrangeScheme::paper_six(),
            MaxWeightMode::estimated_999(),
            Expansion::Exact,
        )
    }

    /// The subrange scheme in use.
    pub fn scheme(&self) -> &SubrangeScheme {
        &self.scheme
    }

    /// The max-weight mode in use.
    pub fn max_mode(&self) -> MaxWeightMode {
        self.max_mode
    }

    /// One term's spikes `(probability, exponent)`: the scheme's
    /// decomposition with the weights scaled by the query term weight.
    fn spikes<'a>(
        &'a self,
        stats: &TermStats,
        n_docs: u64,
        u: f64,
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.scheme
            .spikes(stats, n_docs, &self.quantiles)
            .map(move |(p, w)| (p, u * w))
    }

    /// Per-term spike factors `(probability, exponent)` for a query —
    /// exposed for the guarantee analysis and for tests.
    pub fn factors(&self, repr: &Representative, query: &Query) -> Vec<Vec<(f64, f64)>> {
        let n_docs = repr.n_docs();
        query
            .terms()
            .iter()
            .filter_map(|&(term, u)| Some(self.spikes(repr.get(term)?, n_docs, u).collect()))
            .collect()
    }

    /// The spike factor `(probability, exponent)` list for the `idx`-th
    /// query term alone (empty if the term is unknown to the
    /// representative). Used by the dependence-adjusted estimator to
    /// build joint pair factors from the same subrange decomposition.
    pub fn factors_for_term(
        &self,
        repr: &Representative,
        query: &Query,
        idx: usize,
    ) -> Vec<(f64, f64)> {
        let (term, u) = query.terms()[idx];
        repr.get(term)
            .map(|s| self.spikes(s, repr.n_docs(), u).collect())
            .unwrap_or_default()
    }

    /// Computes the full [`UsefulnessCurve`](crate::curve::UsefulnessCurve)
    /// for a query with one exact expansion — every threshold and the
    /// count→threshold inversion come for free afterwards (the paper's
    /// point that its measure adapts to "the number of documents desired
    /// by the user"). The one caller that multiplies the factors out.
    pub fn curve(&self, repr: &Representative, query: &Query) -> crate::curve::UsefulnessCurve {
        let polys: Vec<SparsePoly> = self
            .factors(repr, query)
            .into_iter()
            .map(SparsePoly::spike_factor)
            .collect();
        crate::curve::UsefulnessCurve::from_expansion(&SparsePoly::product(&polys), repr.n_docs())
    }

    /// The grid's tail above `threshold`; `factors` is not empty.
    fn grid_tail(&self, factors: &[Vec<(f64, f64)>], cells: usize, threshold: f64) -> TailStats {
        let max_exp: f64 = factors
            .iter()
            .map(|spikes| spikes.iter().map(|&(_, e)| e).fold(0.0f64, f64::max))
            .sum();
        if max_exp <= 0.0 {
            return TailStats::default();
        }
        let m = metrics();
        let timer = m.expansion_seconds.start_timer();
        let mut g = GridPoly::identity(max_exp, cells);
        for spikes in factors {
            g.convolve_spikes(spikes);
        }
        let tail = g.tail_above(threshold);
        timer.stop();
        m.expansions.inc();
        m.grid_cells
            .add((cells as u64).saturating_mul(factors.len() as u64));
        tail
    }

    /// The exact tail of the loaded factors above `threshold`: one walk,
    /// timed and counted.
    fn walk_tail(&self, g: &mut SpikeFactors, threshold: f64) -> TailStats {
        let m = metrics();
        let timer = m.expansion_seconds.start_timer();
        let walk = g.tail_above(threshold);
        timer.stop();
        m.expansions.inc();
        m.terms_raw.add(walk.visited);
        m.terms_expanded.add(walk.closed);
        m.terms_pruned.add(walk.cut);
        m.expansion_size.observe(walk.closed as f64);
        walk.tail
    }

    /// One usefulness per threshold, in order: the factors are formed
    /// once, the tail taken per threshold. A query sharing no term with
    /// the representative gets exactly `(0, 0)` without a walk.
    fn sweep(
        &self,
        repr: &Representative,
        query: &Query,
        thresholds: &[f64],
        mut emit: impl FnMut(Usefulness),
    ) {
        let n_docs = repr.n_docs();
        // (No factor, no tail: `from_tail` of nothing is exactly `(0, 0)`.)
        let mut emit =
            |tail: Option<TailStats>| emit(Usefulness::from_tail(n_docs, tail.unwrap_or_default()));
        match self.expansion {
            Expansion::Exact => with_factors(|g| {
                for &(term, u) in query.terms() {
                    if let Some(s) = repr.get(term) {
                        g.push_factor(self.spikes(s, n_docs, u));
                    }
                }
                for &t in thresholds {
                    emit((!g.is_empty()).then(|| self.walk_tail(g, t)));
                }
            }),
            Expansion::Grid { cells } => {
                let factors = self.factors(repr, query);
                for &t in thresholds {
                    emit((!factors.is_empty()).then(|| self.grid_tail(&factors, cells, t)));
                }
            }
        }
    }
}

impl UsefulnessEstimator for SubrangeEstimator {
    fn estimate(&self, repr: &Representative, query: &Query, threshold: f64) -> Usefulness {
        metrics().invocations.inc();
        let mut out = Usefulness::default();
        self.sweep(repr, query, &[threshold], |u| out = u);
        out
    }

    fn estimate_sweep(
        &self,
        repr: &Representative,
        query: &Query,
        thresholds: &[f64],
    ) -> Vec<Usefulness> {
        metrics().sweeps.inc();
        let mut out = Vec::with_capacity(thresholds.len());
        self.sweep(repr, query, thresholds, |u| out.push(u));
        out
    }

    fn name(&self) -> &'static str {
        match self.max_mode {
            MaxWeightMode::Stored => "subrange",
            MaxWeightMode::Estimated { .. } => "subrange-triplet",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_repr::TermStats;
    use seu_text::TermId;

    fn repr_one_term(n: u64, p: f64, mean: f64, sd: f64, max: f64) -> Representative {
        Representative::from_parts(
            n,
            vec![TermStats {
                p,
                mean,
                std_dev: sd,
                max,
            }],
            0,
        )
    }

    fn single_query() -> Query {
        Query::new([(TermId(0), 1.0)])
    }

    #[test]
    fn single_term_max_weight_selection() {
        // Section 3.1's argument: threshold between a database's max
        // weight and everything else selects exactly that database.
        let est = SubrangeEstimator::paper_six_subrange();
        let d1 = repr_one_term(100, 0.3, 0.4, 0.1, 0.9);
        let d2 = repr_one_term(100, 0.3, 0.4, 0.1, 0.7);
        let t = 0.8; // mw1 > t > mw2
        let u1 = est.estimate(&d1, &single_query(), t);
        let u2 = est.estimate(&d2, &single_query(), t);
        // D1's top subrange clears the threshold: at least p_top * n = 1.
        assert!(u1.no_doc >= 1.0 - 1e-9, "u1={:?}", u1);
        assert_eq!(u2.no_doc_rounded(), 0, "u2={:?}", u2);
    }

    #[test]
    fn mass_conservation_no_doc_at_most_n() {
        let est = SubrangeEstimator::paper_six_subrange();
        let r = repr_one_term(50, 0.8, 0.3, 0.2, 0.95);
        for t in [0.0, 0.1, 0.3, 0.5, 0.9] {
            let u = est.estimate(&r, &single_query(), t);
            assert!(u.no_doc <= 50.0 + 1e-9, "t={t}");
            assert!(u.no_doc >= 0.0);
        }
    }

    #[test]
    fn no_doc_monotone_decreasing_in_threshold() {
        let est = SubrangeEstimator::paper_six_subrange();
        let r = repr_one_term(50, 0.8, 0.3, 0.2, 0.95);
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let t = i as f64 * 0.05;
            let u = est.estimate(&r, &single_query(), t);
            assert!(u.no_doc <= prev + 1e-12, "t={t}");
            prev = u.no_doc;
        }
    }

    #[test]
    fn avg_sim_above_threshold_when_nonzero() {
        let est = SubrangeEstimator::paper_six_subrange();
        let r = repr_one_term(50, 0.8, 0.3, 0.2, 0.95);
        for t in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let u = est.estimate(&r, &single_query(), t);
            if u.no_doc > 0.0 {
                assert!(u.avg_sim > t, "t={t} avg={}", u.avg_sim);
                assert!(u.avg_sim <= 0.95 + 1e-9);
            }
        }
    }

    #[test]
    fn grid_expansion_close_to_exact() {
        let exact = SubrangeEstimator::paper_six_subrange();
        let grid = SubrangeEstimator::new(
            SubrangeScheme::paper_six(),
            MaxWeightMode::Stored,
            Expansion::Grid { cells: 4096 },
        );
        let stats: Vec<TermStats> = (0..4)
            .map(|i| TermStats {
                p: 0.2 + 0.1 * i as f64,
                mean: 0.15 + 0.05 * i as f64,
                std_dev: 0.05,
                max: 0.5 + 0.1 * i as f64,
            })
            .collect();
        let r = Representative::from_parts(200, stats, 0);
        let q = Query::new((0..4).map(|i| (TermId(i), 0.5)));
        for t in [0.1, 0.2, 0.3] {
            let a = exact.estimate(&r, &q, t);
            let b = grid.estimate(&r, &q, t);
            // Grid rounds down, so b <= a; the gap shrinks with cells.
            assert!(b.no_doc <= a.no_doc + 1e-9, "t={t}");
            assert!((a.no_doc - b.no_doc) < 0.05 * a.no_doc.max(1.0), "t={t}");
        }
    }

    #[test]
    fn triplet_mode_ignores_stored_max() {
        let est = SubrangeEstimator::paper_triplet();
        // Stored max is huge but (mean, sigma) are small: the triplet
        // estimate should not see the stored max.
        let r = repr_one_term(100, 0.3, 0.2, 0.01, 0.99);
        let u = est.estimate(&r, &single_query(), 0.5);
        assert_eq!(u.no_doc_rounded(), 0);
        // The stored-max estimator does see it.
        let est2 = SubrangeEstimator::paper_six_subrange();
        let u2 = est2.estimate(&r, &single_query(), 0.5);
        assert!(u2.no_doc > 0.9);
    }

    #[test]
    fn empty_query_or_unknown_terms() {
        let est = SubrangeEstimator::paper_six_subrange();
        let r = repr_one_term(100, 0.3, 0.2, 0.01, 0.9);
        assert_eq!(est.estimate(&r, &Query::new([]), 0.1).no_doc, 0.0);
        let q = Query::new([(TermId(7), 1.0)]);
        assert_eq!(est.estimate(&r, &q, 0.1).no_doc, 0.0);
    }

    #[test]
    fn curve_agrees_with_estimate() {
        let est = SubrangeEstimator::paper_six_subrange();
        let r = repr_one_term(100, 0.4, 0.3, 0.1, 0.85);
        let q = single_query();
        let curve = est.curve(&r, &q);
        for t in [0.0, 0.1, 0.25, 0.4, 0.6, 0.8, 0.9] {
            let u = est.estimate(&r, &q, t);
            assert!(
                (curve.no_doc_above(t) - u.no_doc).abs() < 1e-9,
                "t={t}: {} vs {}",
                curve.no_doc_above(t),
                u.no_doc
            );
            assert!((curve.avg_sim_above(t) - u.avg_sim).abs() < 1e-9, "t={t}");
        }
        // Inversion round-trips: the level for k docs yields >= k just
        // below it.
        let k = 5.0;
        if let Some(s) = curve.similarity_for_count(k) {
            assert!(est.estimate(&r, &q, s - 1e-9).no_doc >= k - 1e-9);
        }
    }

    #[test]
    fn names() {
        assert_eq!(SubrangeEstimator::paper_six_subrange().name(), "subrange");
        assert_eq!(
            SubrangeEstimator::paper_triplet().name(),
            "subrange-triplet"
        );
    }
}
