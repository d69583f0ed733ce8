//! Fixed-bin histograms for diagnostics and ablation reporting.

/// Equal-width histogram over `[lo, hi)` with values outside the range
/// clamped into the edge bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len() as f64;
        let idx = ((x - self.lo) / (self.hi - self.lo) * bins).floor();
        let idx = idx.clamp(0.0, bins - 1.0) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `[lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Fraction of observations at or above `x` (by whole bins; `x` is
    /// rounded down to its bin edge).
    pub fn fraction_at_or_above(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let bins = self.counts.len() as f64;
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins)
            .floor()
            .clamp(0.0, bins) as usize;
        let above: u64 = self.counts[idx.min(self.counts.len())..].iter().sum();
        above as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_right_bins() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(0.05);
        h.record(0.15);
        h.record(0.95);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn tail_fraction() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..10 {
            h.record(i as f64 / 10.0 + 0.05);
        }
        assert!((h.fraction_at_or_above(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(h.fraction_at_or_above(0.0), 1.0);
    }

    #[test]
    fn bin_edges_cover_range() {
        let h = Histogram::new(2.0, 4.0, 4);
        assert_eq!(h.bin_edges(0), (2.0, 2.5));
        assert_eq!(h.bin_edges(3), (3.5, 4.0));
    }
}
