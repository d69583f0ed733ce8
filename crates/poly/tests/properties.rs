//! Property-based tests for the generating-function machinery.

use proptest::prelude::*;
use seu_poly::{GridPoly, SparsePoly};

/// Strategy: a valid probability spike factor (spikes sum to <= 1).
fn arb_factor() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.01f64..1.0, 0.01f64..0.8), 1..6).prop_map(|raw| {
        let total: f64 = raw.iter().map(|&(p, _)| p).sum();
        let scale = if total > 0.95 { 0.95 / total } else { 1.0 };
        raw.into_iter().map(|(p, e)| (p * scale, e)).collect()
    })
}

fn arb_factors() -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
    prop::collection::vec(arb_factor(), 1..5)
}

fn polys(factors: &[Vec<(f64, f64)>]) -> Vec<SparsePoly> {
    factors
        .iter()
        .map(|f| SparsePoly::spike_factor(f.iter().copied()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The product of probability factors has total mass 1.
    #[test]
    fn product_mass_is_one(factors in arb_factors()) {
        let g = SparsePoly::product(&polys(&factors));
        prop_assert!((g.total_mass() - 1.0).abs() < 1e-9);
        // All coefficients are non-negative probabilities.
        for &(_, c) in g.terms() {
            prop_assert!(c >= -1e-12);
        }
    }

    /// Multiplication is commutative.
    #[test]
    fn mul_commutes(a in arb_factor(), b in arb_factor()) {
        let (pa, pb) = (
            SparsePoly::spike_factor(a.iter().copied()),
            SparsePoly::spike_factor(b.iter().copied()),
        );
        let ab = pa.mul(&pb);
        let ba = pb.mul(&pa);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.terms().iter().zip(ba.terms()) {
            prop_assert!((x.0 - y.0).abs() < 1e-9);
            prop_assert!((x.1 - y.1).abs() < 1e-9);
        }
    }

    /// The mean exponent of a product is the sum of factor means
    /// (linearity of expectation over independent contributions).
    #[test]
    fn mean_exponent_is_additive(factors in arb_factors()) {
        let ps = polys(&factors);
        let expect: f64 = ps.iter().map(SparsePoly::mean_exponent).sum();
        let g = SparsePoly::product(&ps);
        prop_assert!((g.mean_exponent() - expect).abs() < 1e-9);
    }

    /// Tail mass is monotone non-increasing in the threshold and bounded
    /// by the total mass.
    #[test]
    fn tail_monotone(factors in arb_factors()) {
        let g = SparsePoly::product(&polys(&factors));
        let mut prev = f64::INFINITY;
        for i in 0..=40 {
            let t = i as f64 * 0.1;
            let tail = g.tail_above(t);
            prop_assert!(tail.mass <= prev + 1e-12);
            prop_assert!(tail.mass <= g.total_mass() + 1e-12);
            prop_assert!(tail.mass >= 0.0);
            prev = tail.mass;
        }
    }

    /// Grid convolution conserves mass and never over-counts any tail
    /// relative to the exact expansion.
    #[test]
    fn grid_conservative(factors in arb_factors(), cells in 16usize..512) {
        let max_exp: f64 = factors
            .iter()
            .map(|f| f.iter().map(|&(_, e)| e).fold(0.0f64, f64::max))
            .sum::<f64>()
            .max(0.1);
        let mut grid = GridPoly::identity(max_exp, cells);
        for f in &factors {
            grid.convolve_spikes(f);
        }
        prop_assert!((grid.total_mass() - 1.0).abs() < 1e-9);
        let exact = SparsePoly::product(&polys(&factors));
        for i in 0..20 {
            let t = max_exp * i as f64 / 20.0;
            prop_assert!(
                grid.tail_above(t).mass <= exact.tail_above(t).mass + 1e-9,
                "t={t}"
            );
        }
    }

    /// The grid's weighted mass over the whole range is exact (it tracks
    /// true exponents per deposit).
    #[test]
    fn grid_mean_is_exact(factors in arb_factors()) {
        let max_exp: f64 = factors
            .iter()
            .map(|f| f.iter().map(|&(_, e)| e).fold(0.0f64, f64::max))
            .sum::<f64>()
            .max(0.1);
        let mut grid = GridPoly::identity(max_exp, 256);
        for f in &factors {
            grid.convolve_spikes(f);
        }
        let exact = SparsePoly::product(&polys(&factors));
        let g_mean = grid.tail_above(-1.0).weighted_mass;
        prop_assert!((g_mean - exact.mean_exponent()).abs() < 1e-9);
    }
}
