//! Term weighting schemes.
//!
//! The paper transforms documents and queries "into a vector of terms with
//! weights [Salton & McGill]" and normalizes with the Cosine function. The
//! classic vector-space choices are provided; the reproduction's default is
//! raw term frequency with cosine normalization, and the estimators are
//! exercised under the other schemes in the test suite to show they are
//! weighting-agnostic.

/// How raw term frequencies become pre-normalization weights.
///
/// The cosine schemes divide each document vector by its Euclidean norm;
/// the pivoted scheme divides by the *pivoted* norm
/// `(1 - slope) * pivot + slope * |d|` (Singhal, Buckley & Mitra, SIGIR
/// 1996 — reference \[16\] of the paper, which notes its single-term
/// identification argument "applies to other similarity functions such
/// as \[16\]"), where `pivot` is the collection's mean document norm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightingScheme {
    /// `w = tf` — raw term frequency (the reproduction default).
    #[default]
    CosineTf,
    /// `w = 1 + ln(tf)` — dampened term frequency.
    CosineLogTf,
    /// `w = tf * ln(n / df)` — tf–idf; `df` is the collection document
    /// frequency, `n` the collection size.
    CosineTfIdf,
    /// `w = 1 + ln(tf)`, normalized by the pivoted document norm with the
    /// given slope (0 = every document normalized by the collection mean
    /// norm, 1 = plain cosine). Singhal et al. recommend slopes around
    /// 0.2–0.75 depending on the collection.
    PivotedLogTf {
        /// Interpolation between pivot (0) and the own norm (1).
        slope: f64,
    },
}

impl WeightingScheme {
    /// Pre-normalization weight for a term with frequency `tf` (> 0) in a
    /// vector, given the collection statistics `df` (document frequency of
    /// the term) and `n` (number of documents).
    pub fn weight(&self, tf: u32, df: u32, n: u32) -> f64 {
        debug_assert!(tf > 0, "weight of absent term");
        match self {
            WeightingScheme::CosineTf => tf as f64,
            WeightingScheme::CosineLogTf | WeightingScheme::PivotedLogTf { .. } => {
                1.0 + (tf as f64).ln()
            }
            WeightingScheme::CosineTfIdf => {
                if df == 0 || n == 0 {
                    0.0
                } else {
                    tf as f64 * (n as f64 / df as f64).ln()
                }
            }
        }
    }

    /// Whether the scheme needs collection-wide statistics (`df`, `n`, or
    /// the mean document norm).
    pub fn needs_collection_stats(&self) -> bool {
        matches!(
            self,
            WeightingScheme::CosineTfIdf | WeightingScheme::PivotedLogTf { .. }
        )
    }

    /// The divisor used to normalize a document whose Euclidean norm is
    /// `norm`, given the collection's mean document norm `pivot`.
    ///
    /// Cosine schemes return `norm`; the pivoted scheme returns
    /// `(1 - slope) * pivot + slope * norm`. Returns 0 for an empty
    /// vector under cosine schemes (callers leave such vectors at zero).
    pub fn norm_divisor(&self, norm: f64, pivot: f64) -> f64 {
        match *self {
            WeightingScheme::PivotedLogTf { slope } => (1.0 - slope) * pivot + slope * norm,
            _ => norm,
        }
    }
}

/// Normalizes a weight vector in place by its Euclidean norm; returns the
/// norm. A zero vector is left untouched and 0 returned.
pub fn normalize(weights: &mut [(u32, f64)]) -> f64 {
    let norm = weights.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    if norm > 0.0 {
        for (_, w) in weights.iter_mut() {
            *w /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tf_is_identity() {
        assert_eq!(WeightingScheme::CosineTf.weight(3, 10, 100), 3.0);
    }

    #[test]
    fn logtf_dampens() {
        let s = WeightingScheme::CosineLogTf;
        assert_eq!(s.weight(1, 1, 1), 1.0);
        assert!((s.weight(10, 1, 1) - (1.0 + 10f64.ln())).abs() < 1e-12);
        assert!(s.weight(100, 1, 1) < 100.0);
    }

    #[test]
    fn tfidf_zero_for_universal_terms() {
        let s = WeightingScheme::CosineTfIdf;
        assert_eq!(s.weight(5, 100, 100), 0.0);
        assert!(s.weight(5, 1, 100) > s.weight(5, 50, 100));
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![(0u32, 3.0), (1, 4.0)];
        let norm = normalize(&mut v);
        assert_eq!(norm, 5.0);
        assert!((v[0].1 - 0.6).abs() < 1e-12);
        assert!((v[1].1 - 0.8).abs() < 1e-12);
        let check: f64 = v.iter().map(|&(_, w)| w * w).sum();
        assert!((check - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector() {
        let mut v = vec![(0u32, 0.0)];
        assert_eq!(normalize(&mut v), 0.0);
        assert_eq!(v[0].1, 0.0);
    }

    #[test]
    fn pivoted_divisor_interpolates() {
        let s = WeightingScheme::PivotedLogTf { slope: 0.25 };
        // (1 - 0.25) * 10 + 0.25 * 2 = 8.
        assert!((s.norm_divisor(2.0, 10.0) - 8.0).abs() < 1e-12);
        // slope 1 degenerates to cosine.
        let cos = WeightingScheme::PivotedLogTf { slope: 1.0 };
        assert_eq!(cos.norm_divisor(2.0, 10.0), 2.0);
        // slope 0 normalizes everything by the pivot.
        let flat = WeightingScheme::PivotedLogTf { slope: 0.0 };
        assert_eq!(flat.norm_divisor(2.0, 10.0), 10.0);
        // Cosine schemes ignore the pivot.
        assert_eq!(WeightingScheme::CosineTf.norm_divisor(3.0, 10.0), 3.0);
    }

    #[test]
    fn pivoted_weight_is_log_tf() {
        let s = WeightingScheme::PivotedLogTf { slope: 0.3 };
        assert_eq!(s.weight(1, 5, 100), 1.0);
        assert!((s.weight(8, 5, 100) - (1.0 + 8f64.ln())).abs() < 1e-12);
        assert!(s.needs_collection_stats());
    }
}
