//! Sparse polynomials with real exponents, the exact expansion engine.

use crate::tail::TailStats;

/// Exponents closer than this are merged into one term during
/// normalization. Similarities live in `[0, 1]`-ish ranges, so `1e-9` is far
/// below any meaningful distinction while absorbing floating-point noise
/// from summing identical products in different orders.
pub const DEFAULT_MERGE_EPS: f64 = 1e-9;

/// A polynomial `Σ a_i * X^{b_i}` with real exponents `b_i`, stored sorted
/// by ascending exponent with epsilon-distinct exponents.
///
/// For generating-function use the coefficients are probabilities (each
/// factor's coefficients sum to 1, hence so does any product's — see
/// [`SparsePoly::total_mass`]), but the type does not enforce
/// non-negativity so it can also host signed intermediate results in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsePoly {
    /// `(exponent, coefficient)`, ascending by exponent, exponents pairwise
    /// more than `eps` apart, no zero coefficients.
    terms: Vec<(f64, f64)>,
    eps: f64,
}

impl SparsePoly {
    /// The constant polynomial `1` (`1 * X^0`), identity of multiplication.
    pub fn one() -> Self {
        SparsePoly {
            terms: vec![(0.0, 1.0)],
            eps: DEFAULT_MERGE_EPS,
        }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        SparsePoly {
            terms: Vec::new(),
            eps: DEFAULT_MERGE_EPS,
        }
    }

    /// Builds a polynomial from arbitrary `(exponent, coefficient)` pairs,
    /// sorting and merging exponents within [`DEFAULT_MERGE_EPS`].
    ///
    /// # Panics
    ///
    /// Panics if any exponent or coefficient is non-finite.
    pub fn from_terms(terms: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Self::from_terms_with_eps(terms, DEFAULT_MERGE_EPS)
    }

    /// [`SparsePoly::from_terms`] with an explicit merge epsilon.
    pub fn from_terms_with_eps(terms: impl IntoIterator<Item = (f64, f64)>, eps: f64) -> Self {
        let mut v: Vec<(f64, f64)> = terms.into_iter().collect();
        for &(e, c) in &v {
            assert!(e.is_finite() && c.is_finite(), "non-finite term ({e}, {c})");
        }
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite exponents"));
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
        for (e, c) in v {
            match out.last_mut() {
                Some(last) if e - last.0 <= eps => last.1 += c,
                _ => out.push((e, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        SparsePoly { terms: out, eps }
    }

    /// The factor polynomial of the basic method, Expression (7):
    /// `p * X^{u*w} + (1 - p)`.
    pub fn basic_factor(p: f64, exponent: f64) -> Self {
        Self::from_terms([(exponent, p), (0.0, 1.0 - p)])
    }

    /// A factor from `(probability, exponent)` spikes plus a remainder
    /// `1 - Σ p_j` at exponent 0 — Expression (8) generalized to any
    /// subrange decomposition.
    ///
    /// # Panics
    ///
    /// Panics if the spike probabilities sum to more than `1 + 1e-9`.
    pub fn spike_factor(spikes: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let spikes: Vec<(f64, f64)> = spikes.into_iter().collect();
        let total: f64 = spikes.iter().map(|&(p, _)| p).sum();
        assert!(
            total <= 1.0 + 1e-9,
            "spike probabilities sum to {total} > 1"
        );
        let remainder = (1.0 - total).max(0.0);
        SparsePoly::from_terms(
            spikes
                .into_iter()
                .map(|(p, e)| (e, p))
                .chain(std::iter::once((0.0, remainder))),
        )
    }

    /// Number of stored terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether this is the zero polynomial.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The `(exponent, coefficient)` terms, ascending by exponent.
    pub fn terms(&self) -> &[(f64, f64)] {
        &self.terms
    }

    /// Sum of all coefficients — the value at `X = 1`. For a generating
    /// function this is the total probability mass, 1 up to rounding.
    pub fn total_mass(&self) -> f64 {
        self.terms.iter().map(|&(_, c)| c).sum()
    }

    /// Expected exponent `Σ a_i * b_i` — for a generating function, the
    /// expected similarity of a random document.
    pub fn mean_exponent(&self) -> f64 {
        self.terms.iter().map(|&(e, c)| e * c).sum()
    }

    /// Largest exponent with a nonzero coefficient, if any.
    pub fn max_exponent(&self) -> Option<f64> {
        self.terms.last().map(|&(e, _)| e)
    }

    /// Multiplies two polynomials (distribution convolution), merging
    /// exponents within this polynomial's epsilon.
    pub fn mul(&self, other: &SparsePoly) -> SparsePoly {
        if self.is_empty() || other.is_empty() {
            return SparsePoly::zero();
        }
        let mut products = Vec::with_capacity(self.terms.len() * other.terms.len());
        for &(e1, c1) in &self.terms {
            for &(e2, c2) in &other.terms {
                products.push((e1 + e2, c1 * c2));
            }
        }
        SparsePoly::from_terms_with_eps(products, self.eps)
    }

    /// Multiplies a sequence of factors together, smallest-first to keep
    /// intermediate sizes down.
    ///
    /// Returns [`SparsePoly::one`] for an empty factor list (empty query:
    /// every document has similarity 0 with certainty).
    pub fn product(factors: &[SparsePoly]) -> SparsePoly {
        let mut sorted: Vec<&SparsePoly> = factors.iter().collect();
        sorted.sort_by_key(|f| f.len());
        let mut acc = SparsePoly::one();
        for f in sorted {
            acc = acc.mul(f);
        }
        acc
    }

    /// Tail statistics strictly above threshold `t`: `Σ_{b_i > t} a_i` and
    /// `Σ_{b_i > t} a_i * b_i`.
    ///
    /// The paper's Equation (6) uses the largest `C` with `b_C > T`, i.e. a
    /// strict inequality, matching `sim(q, d) > T` in the definitions of
    /// NoDoc/AvgSim.
    pub fn tail_above(&self, t: f64) -> TailStats {
        let start = self.terms.partition_point(|&(e, _)| e <= t);
        let mut mass = 0.0;
        let mut weighted = 0.0;
        for &(e, c) in &self.terms[start..] {
            mass += c;
            weighted += e * c;
        }
        TailStats {
            mass,
            weighted_mass: weighted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_3_1_expansion() {
        // q = (1,1,1); (p1,w1)=(0.6,2), (p2,w2)=(0.2,1), (p3,w3)=(0.4,2).
        let f1 = SparsePoly::basic_factor(0.6, 2.0);
        let f2 = SparsePoly::basic_factor(0.2, 1.0);
        let f3 = SparsePoly::basic_factor(0.4, 2.0);
        let g = SparsePoly::product(&[f1, f2, f3]);
        // Expected: 0.048 X^5 + 0.192 X^4 + 0.104 X^3 + 0.416 X^2
        //           + 0.048 X + 0.192
        let expect = [
            (0.0, 0.192),
            (1.0, 0.048),
            (2.0, 0.416),
            (3.0, 0.104),
            (4.0, 0.192),
            (5.0, 0.048),
        ];
        assert_eq!(g.len(), expect.len());
        for (got, want) in g.terms().iter().zip(expect.iter()) {
            assert!(
                (got.0 - want.0).abs() < 1e-12,
                "exponent {got:?} vs {want:?}"
            );
            assert!((got.1 - want.1).abs() < 1e-12, "coeff {got:?} vs {want:?}");
        }
        assert!((g.total_mass() - 1.0).abs() < 1e-12);

        // est_NoDoc(3, q, D) = 5 * (0.048 + 0.192) = 1.2
        let tail = g.tail_above(3.0);
        assert!((5.0 * tail.mass - 1.2).abs() < 1e-9);
        // est_AvgSim(3, q, D) = (0.048*5 + 0.192*4)/(0.048+0.192) = 4.2
        assert!((tail.avg_exponent() - 4.2).abs() < 1e-9);
    }

    #[test]
    fn coefficient_of_x2_matches_paper_derivation() {
        // The paper: coefficient of X^2 = p1(1-p2)(1-p3) + (1-p1)(1-p2)p3
        //           = 0.6*0.8*0.6 + 0.4*0.8*0.4 = 0.416.
        let g = SparsePoly::product(&[
            SparsePoly::basic_factor(0.6, 2.0),
            SparsePoly::basic_factor(0.2, 1.0),
            SparsePoly::basic_factor(0.4, 2.0),
        ]);
        let c2 = g
            .terms()
            .iter()
            .find(|&&(e, _)| (e - 2.0).abs() < 1e-12)
            .map(|&(_, c)| c)
            .unwrap();
        assert!((c2 - 0.416).abs() < 1e-12);
    }

    #[test]
    fn one_is_multiplicative_identity() {
        let p = SparsePoly::from_terms([(0.5, 0.3), (1.0, 0.7)]);
        let q = p.mul(&SparsePoly::one());
        assert_eq!(p, q);
    }

    #[test]
    fn zero_annihilates() {
        let p = SparsePoly::from_terms([(0.5, 0.3)]);
        assert!(p.mul(&SparsePoly::zero()).is_empty());
    }

    #[test]
    fn empty_product_is_one() {
        let g = SparsePoly::product(&[]);
        assert_eq!(g, SparsePoly::one());
        assert_eq!(g.tail_above(-1.0).mass, 1.0);
        assert_eq!(g.tail_above(0.0).mass, 0.0);
    }

    #[test]
    fn merging_identical_exponents() {
        let p = SparsePoly::from_terms([(1.0, 0.25), (1.0, 0.25), (2.0, 0.5)]);
        assert_eq!(p.len(), 2);
        assert!((p.terms()[0].1 - 0.5).abs() < 1e-15);
    }

    #[test]
    fn tail_is_strictly_above() {
        let p = SparsePoly::from_terms([(0.3, 0.5), (0.5, 0.5)]);
        // Threshold exactly at an exponent: that term is excluded.
        assert!((p.tail_above(0.3).mass - 0.5).abs() < 1e-15);
        assert!((p.tail_above(0.29).mass - 1.0).abs() < 1e-15);
        assert_eq!(p.tail_above(0.5).mass, 0.0);
    }

    #[test]
    fn spike_factor_mass_and_remainder() {
        let f = SparsePoly::spike_factor([(0.1, 0.9), (0.2, 0.5), (0.1, 0.3)]);
        assert!((f.total_mass() - 1.0).abs() < 1e-12);
        // Remainder at exponent 0 is 1 - 0.4 = 0.6.
        assert!((f.terms()[0].1 - 0.6).abs() < 1e-12);
        assert_eq!(f.terms()[0].0, 0.0);
    }

    #[test]
    #[should_panic(expected = "> 1")]
    fn spike_factor_rejects_overfull() {
        SparsePoly::spike_factor([(0.7, 1.0), (0.6, 2.0)]);
    }

    #[test]
    fn product_mass_is_product_of_masses() {
        let a = SparsePoly::from_terms([(0.0, 0.4), (1.0, 0.6)]);
        let b = SparsePoly::from_terms([(0.0, 0.9), (2.0, 0.1)]);
        let g = a.mul(&b);
        assert!((g.total_mass() - 1.0).abs() < 1e-12);
        assert!((g.max_exponent().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_exponent_is_additive_over_factors() {
        // E[X+Y] = E[X] + E[Y] for independent contributions.
        let a = SparsePoly::basic_factor(0.5, 2.0); // mean 1.0
        let b = SparsePoly::basic_factor(0.25, 4.0); // mean 1.0
        let g = a.mul(&b);
        assert!((g.mean_exponent() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let p = SparsePoly::from_terms([(1.0, 0.0), (2.0, 1.0)]);
        assert_eq!(p.len(), 1);
    }
}
