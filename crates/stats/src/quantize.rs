//! One-byte quantization of representative numbers (Section 3.2).
//!
//! To shrink a database representative from 20 to 8 bytes per distinct term,
//! the paper replaces each 4-byte float by one byte: the value range is
//! partitioned into 256 equal-length intervals, the *average of the values
//! falling into each interval* is computed, and each original value is
//! mapped to the average of its interval. Tables 7–9 show this loses
//! essentially nothing.

/// The fixed `[0, 1]` range used for probabilities.
pub const UNIT_RANGE: (f64, f64) = (0.0, 1.0);

/// A 256-level scalar quantizer with per-interval reconstruction averages.
#[derive(Debug, Clone, PartialEq)]
pub struct ByteQuantizer {
    lo: f64,
    hi: f64,
    /// Reconstruction value for each of the 256 codes: the mean of the
    /// training values that fell in the interval, or the interval midpoint
    /// for intervals that received no training value.
    levels: Vec<f64>,
}

impl ByteQuantizer {
    /// Trains a quantizer on `values` over the range they actually span.
    ///
    /// Returns a degenerate (single-level) quantizer if `values` is empty or
    /// spans a single point.
    pub fn train(values: impl IntoIterator<Item = f64> + Clone) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values.clone() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if !lo.is_finite() || !hi.is_finite() {
            lo = 0.0;
            hi = 0.0;
        }
        Self::train_with_range(values, lo, hi)
    }

    /// Trains a quantizer on `values` with a fixed `[lo, hi]` range
    /// (e.g. [`UNIT_RANGE`] for probabilities).
    pub fn train_with_range(values: impl IntoIterator<Item = f64>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        let width = hi - lo;
        let mut sums = vec![0.0f64; 256];
        let mut counts = vec![0u64; 256];
        if width > 0.0 {
            for v in values {
                let code = Self::code_for(v, lo, width);
                sums[code as usize] += v;
                counts[code as usize] += 1;
            }
        }
        let levels = (0..256)
            .map(|i| {
                if counts[i] > 0 {
                    sums[i] / counts[i] as f64
                } else if width > 0.0 {
                    lo + width * (i as f64 + 0.5) / 256.0
                } else {
                    lo
                }
            })
            .collect();
        ByteQuantizer { lo, hi, levels }
    }

    fn code_for(v: f64, lo: f64, width: f64) -> u8 {
        let t = ((v - lo) / width * 256.0).floor();
        t.clamp(0.0, 255.0) as u8
    }

    /// Encodes a value to its one-byte code. Values outside the trained
    /// range clamp to the extreme codes.
    pub fn encode(&self, v: f64) -> u8 {
        let width = self.hi - self.lo;
        if width <= 0.0 {
            0
        } else {
            Self::code_for(v, self.lo, width)
        }
    }

    /// Decodes a one-byte code back to its reconstruction value.
    pub fn decode(&self, code: u8) -> f64 {
        self.levels[code as usize]
    }

    /// Round-trips a value through the quantizer.
    pub fn quantize(&self, v: f64) -> f64 {
        self.decode(self.encode(v))
    }

    /// The trained range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Worst-case quantization error: half an interval width (the
    /// reconstruction average always lies inside the value's interval).
    pub fn max_error_bound(&self) -> f64 {
        (self.hi - self.lo) / 256.0
    }

    /// Reconstruction levels for all 256 codes, in code order.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The level an *untrained* quantizer over `[lo, hi]` reconstructs
    /// for `code`: the interval midpoint, or `lo` for a degenerate
    /// range. Persistence formats store only the levels that differ
    /// from this default (typically the few intervals that received
    /// training mass), rebuilding the rest at load time.
    pub fn default_level(lo: f64, hi: f64, code: u8) -> f64 {
        let width = hi - lo;
        if width > 0.0 {
            lo + width * (f64::from(code) + 0.5) / 256.0
        } else {
            lo
        }
    }

    /// Reassembles a quantizer from persisted parts. Returns `None`
    /// unless `levels` has exactly 256 entries and `lo <= hi` (which
    /// also rejects NaN bounds), so corrupted inputs cannot build a
    /// quantizer whose `decode` would panic.
    pub fn from_parts(lo: f64, hi: f64, levels: Vec<f64>) -> Option<Self> {
        (levels.len() == 256 && lo <= hi).then_some(ByteQuantizer { lo, hi, levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let q = ByteQuantizer::train(values.iter().copied());
        let bound = q.max_error_bound();
        for &v in &values {
            assert!(
                (q.quantize(v) - v).abs() <= bound + 1e-12,
                "v={v} got {}",
                q.quantize(v)
            );
        }
    }

    #[test]
    fn unit_range_probabilities() {
        let probs = [0.0, 0.1, 0.5, 0.999, 1.0];
        let q = ByteQuantizer::train_with_range(probs.iter().copied(), 0.0, 1.0);
        for &p in &probs {
            let r = q.quantize(p);
            assert!((r - p).abs() <= 1.0 / 256.0, "p={p} r={r}");
            assert!((0.0..=1.0).contains(&r));
        }
        // Out-of-range values clamp rather than panic.
        assert_eq!(q.encode(2.0), 255);
        assert_eq!(q.encode(-1.0), 0);
    }

    #[test]
    fn degenerate_inputs() {
        let q = ByteQuantizer::train(std::iter::empty());
        assert_eq!(q.quantize(5.0), 0.0);
        let q1 = ByteQuantizer::train([3.0, 3.0, 3.0]);
        assert_eq!(q1.quantize(3.0), 3.0);
    }

    #[test]
    fn reconstruction_is_interval_mean_not_midpoint() {
        // All training mass at the low end of the first interval: the
        // reconstruction must follow the data, as in the paper's scheme.
        let vals = [0.0, 0.001, 0.002, 100.0];
        let q = ByteQuantizer::train(vals.iter().copied());
        let first = q.quantize(0.001);
        assert!((first - 0.001).abs() < 0.001, "first={first}");
    }

    #[test]
    fn encode_is_monotone() {
        let vals: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let q = ByteQuantizer::train(vals.iter().copied());
        let mut prev = 0u8;
        for &v in &vals {
            let c = q.encode(v);
            assert!(c >= prev);
            prev = c;
        }
    }
}
