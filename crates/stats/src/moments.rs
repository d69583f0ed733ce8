//! Single-pass accumulation of mean, variance, min and max.
//!
//! Building a database representative requires, for every distinct term, the
//! mean `w`, standard deviation `sigma` and maximum `mw` of the normalized
//! weights of the term over the documents containing it. Collections can be
//! large, so these are accumulated in one pass with Welford's numerically
//! stable recurrence.

/// Streaming accumulator for count / mean / variance / skewness / min /
/// max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Self::new()
    }
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the accumulator (Welford/Pébay update).
    pub fn push(&mut self, x: f64) {
        let n0 = self.count as f64;
        self.count += 1;
        let n = self.count as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term = delta * delta_n * n0;
        self.mean += delta_n;
        self.m3 += term * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel reduction,
    /// Pébay's pairwise formulas).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.m3 += other.m3
            + delta * delta * delta * n1 * n2 * (n1 - n2) / (total * total)
            + 3.0 * delta * (n1 * other.m2 - n2 * self.m2) / total;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`m2 / n`); 0 when fewer than one observation.
    ///
    /// The paper's `sigma` is the standard deviation over the documents
    /// containing the term — the full population, not a sample — so the
    /// population form is the right one.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Population skewness `m3 / (n * sigma^3)`; 0 for degenerate or
    /// near-constant data.
    ///
    /// The subrange method models per-term weights as normal (skewness
    /// 0); this statistic quantifies how far a real weight distribution
    /// departs from that — the `repro diagnostics` experiment reports its
    /// distribution over the vocabulary.
    pub fn skewness(&self) -> f64 {
        let sd = self.std_dev();
        if self.count == 0 || sd < 1e-12 {
            return 0.0;
        }
        (self.m3 / self.count as f64) / (sd * sd * sd)
    }

    /// Smallest observation; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = Moments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), 0.0);
        assert_eq!(m.max(), 0.0);
    }

    #[test]
    fn single_value() {
        let m: Moments = [5.0].into_iter().collect();
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 5.0);
        assert_eq!(m.std_dev(), 0.0);
        assert_eq!(m.min(), 5.0);
        assert_eq!(m.max(), 5.0);
    }

    #[test]
    fn matches_paper_example_3_1_term_1() {
        // Term 1 appears with weights 3, 1, 2 -> mean 2.
        let m: Moments = [3.0, 1.0, 2.0].into_iter().collect();
        assert!((m.mean() - 2.0).abs() < 1e-12);
        // Population variance of {3,1,2} = 2/3.
        assert!((m.variance() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.max(), 3.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let seq: Moments = xs.iter().copied().collect();
        let mut a: Moments = xs[..37].iter().copied().collect();
        let b: Moments = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn skewness_signs() {
        // Symmetric data: zero skewness.
        let sym: Moments = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert!(sym.skewness().abs() < 1e-12);
        // Right-skewed data: positive.
        let right: Moments = [1.0, 1.0, 1.0, 1.0, 10.0].into_iter().collect();
        assert!(right.skewness() > 1.0, "{}", right.skewness());
        // Left-skewed: negative.
        let left: Moments = [10.0, 10.0, 10.0, 10.0, 1.0].into_iter().collect();
        assert!(left.skewness() < -1.0);
        // Constant data: defined as 0.
        let flat: Moments = [2.0, 2.0, 2.0].into_iter().collect();
        assert_eq!(flat.skewness(), 0.0);
    }

    #[test]
    fn skewness_merge_matches_sequential() {
        let xs: Vec<f64> = (0..200)
            .map(|i| ((i as f64) * 0.7).sin().powi(3) * 4.0 + 1.0)
            .collect();
        let seq: Moments = xs.iter().copied().collect();
        let mut a: Moments = xs[..71].iter().copied().collect();
        let b: Moments = xs[71..].iter().copied().collect();
        a.merge(&b);
        assert!((a.skewness() - seq.skewness()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs: Moments = [1.0, 2.0, 3.0].into_iter().collect();
        let mut a = xs;
        a.merge(&Moments::new());
        assert_eq!(a, xs);
        let mut b = Moments::new();
        b.merge(&xs);
        assert_eq!(b, xs);
    }
}
