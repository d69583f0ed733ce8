//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! histograms with quantile readout, plus the RAII `SpanTimer`.
//!
//! Counters and histograms are striped: each keeps [`STRIPES`]
//! cache-line-aligned copies of its state, and a thread writes the stripe
//! it was handed at its first write, so threads recording into one
//! instrument do not bounce its cache lines between cores. Reads sum (or,
//! for a maximum, fold) every stripe, so each count stays exact.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Stripes per counter and per histogram.
const STRIPES: usize = 8;

/// Eight atomics on one cache line of their own.
#[repr(align(64))]
#[derive(Default)]
struct Line([AtomicU64; 8]);

thread_local! {
    /// The stripe this thread writes, `usize::MAX` until its first write.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe, handed out round-robin at first use.
#[inline]
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    STRIPE.with(|cell| {
        let mut stripe = cell.get();
        if stripe == usize::MAX {
            stripe = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            cell.set(stripe);
        }
        stripe
    })
}

/// Monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    /// Slot 0 of line `i` is stripe `i`'s share of the count.
    stripes: [Line; STRIPES],
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        self.stripes[stripe()].0[0].fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|line| line.0[0].load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Address of the slot the calling thread writes.
    #[cfg(test)]
    fn stripe_addr(&self) -> usize {
        &self.stripes[stripe()].0[0] as *const AtomicU64 as usize
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

/// A value that can move in both directions, stored as `f64` bits.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        self.bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            })
            .expect("fetch_update closure never returns None");
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default histogram bucket upper bounds, in seconds: a 1-2.5-5 ladder
/// from 1µs to 10s. Suits both query latencies and dimensionless sizes
/// when callers pass their own bounds instead.
pub const DEFAULT_BUCKETS: [f64; 22] = [
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
];

/// A stripe's slots: its sum and max (as `f64` bits), then its bucket
/// counts. The count is the buckets' total.
const SUM: usize = 0;
const MAX: usize = 1;
const BUCKETS: usize = 2;

/// Fixed-bucket histogram. Observations are cumulative-bucketed on read,
/// not on write: each `observe` adds one to a bucket of the caller's
/// stripe, adds to that stripe's sum, and raises its max only when the
/// value exceeds it, so the hot path is two or three uncontended relaxed
/// atomics on lines no other core writes.
pub struct Histogram {
    /// Upper bounds (inclusive) of the finite buckets, ascending.
    bounds: Vec<f64>,
    /// `STRIPES` runs of `lines_per_stripe` lines, one run per stripe:
    /// `BUCKETS + bounds.len() + 1` slots each (the last bucket is the
    /// overflow, +Inf, one).
    lines: Box<[Line]>,
    lines_per_stripe: usize,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::with_buckets(&DEFAULT_BUCKETS)
    }

    /// `bounds` must be finite, positive, and strictly ascending.
    pub fn with_buckets(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite and strictly ascending"
        );
        // Every slot starts at zero, which is also `0.0f64`'s bits.
        let lines_per_stripe = (BUCKETS + bounds.len() + 1).div_ceil(8);
        Histogram {
            bounds: bounds.to_vec(),
            lines: (0..STRIPES * lines_per_stripe)
                .map(|_| Line::default())
                .collect(),
            lines_per_stripe,
        }
    }

    /// Slot `slot` of stripe `stripe`.
    fn slot(&self, stripe: usize, slot: usize) -> &AtomicU64 {
        &self.lines[stripe * self.lines_per_stripe + slot / 8].0[slot % 8]
    }

    /// Slot `slot` of every stripe, read.
    fn slots(&self, slot: usize) -> impl Iterator<Item = u64> + '_ {
        (0..STRIPES).map(move |s| self.slot(s, slot).load(Ordering::Relaxed))
    }

    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        let stripe = stripe();
        self.slot(stripe, BUCKETS + idx)
            .fetch_add(1, Ordering::Relaxed);
        self.slot(stripe, SUM)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            })
            .expect("fetch_update closure never returns None");
        self.slot(stripe, MAX)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (value > f64::from_bits(bits)).then(|| value.to_bits())
            })
            .ok();
    }

    pub fn count(&self) -> u64 {
        (0..=self.bounds.len())
            .flat_map(|idx| self.slots(BUCKETS + idx))
            .fold(0, u64::wrapping_add)
    }

    /// The stripes' sums, added in stripe order: one writing thread's
    /// sum comes back bit for bit.
    pub fn sum(&self) -> f64 {
        self.slots(SUM).map(f64::from_bits).fold(0.0, |a, b| a + b)
    }

    pub fn max(&self) -> f64 {
        self.slots(MAX).map(f64::from_bits).fold(0.0, f64::max)
    }

    /// Bucket upper bounds (the final +Inf bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        (0..=self.bounds.len())
            .map(|idx| self.slots(BUCKETS + idx).fold(0, u64::wrapping_add))
            .collect()
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket holding the target rank. Returns `None` while
    /// empty. The overflow bucket interpolates toward the observed max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cumulative = 0u64;
        for (idx, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cumulative + n;
            if (next as f64) >= target {
                let lower = if idx == 0 { 0.0 } else { self.bounds[idx - 1] };
                let upper = if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max().max(lower)
                };
                let fraction = (target - cumulative as f64) / n as f64;
                return Some(lower + (upper - lower) * fraction);
            }
            cumulative = next;
        }
        Some(self.max())
    }

    /// Starts a timer that observes its elapsed seconds into `self` when
    /// dropped.
    #[inline]
    pub fn start_timer(&self) -> SpanTimer<'_> {
        SpanTimer {
            histogram: self,
            start: Instant::now(),
            recorded: false,
        }
    }

    /// Address range `[first, last]` of the bytes the calling thread's
    /// stripe occupies.
    #[cfg(test)]
    fn stripe_addrs(&self) -> (usize, usize) {
        let stripe = stripe();
        let first = self.slot(stripe, 0) as *const AtomicU64 as usize;
        let last = self.slot(stripe, BUCKETS + self.bounds.len()) as *const AtomicU64 as usize;
        (first, last + std::mem::size_of::<AtomicU64>() - 1)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.bounds)
            .field("counts", &self.bucket_counts())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// RAII span guard: records wall-clock seconds into the histogram it
/// borrows on drop (or earlier via [`SpanTimer::stop`]).
#[derive(Debug)]
pub struct SpanTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
    recorded: bool,
}

impl SpanTimer<'_> {
    /// Records now and returns the elapsed seconds; the drop is then a
    /// no-op.
    pub fn stop(mut self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.histogram.observe(elapsed);
        self.recorded = true;
        elapsed
    }

    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        self.recorded = true;
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if !self.recorded {
            self.histogram.observe(self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn observations_land_in_correct_buckets() {
        let h = Histogram::with_buckets(&[1.0, 10.0, 100.0]);
        // Bucket bounds are inclusive: 1.0 goes to the first bucket.
        for v in [0.5, 1.0, 5.0, 100.0, 1e6] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 1_000_106.5).abs() < 1e-6);
        assert!((h.max() - 1e6).abs() < 1e-6);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..50 {
            h.observe(1.5);
        }
        // Median sits exactly at the edge of the first bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.9..=1.0).contains(&p50), "{p50}");
        // p99 falls inside the (1, 2] bucket.
        let p99 = h.quantile(0.99).unwrap();
        assert!((1.9..=2.0).contains(&p99), "{p99}");
        assert!(h.quantile(0.0).unwrap() <= p50);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn overflow_bucket_uses_observed_max() {
        let h = Histogram::with_buckets(&[1.0]);
        h.observe(50.0);
        h.observe(90.0);
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= 90.0 && p99 > 1.0, "{p99}");
    }

    #[test]
    fn span_timer_records_on_drop_and_stop() {
        let h = Arc::new(Histogram::new());
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        let elapsed = h.start_timer().stop();
        assert!(elapsed >= 0.0);
        assert_eq!(h.count(), 2);
        h.start_timer().cancel();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe((t * 1000 + i) as f64 * 1e-6);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 8000);
    }

    #[test]
    fn striped_reads_are_exact_after_eight_threads() {
        let c = Counter::new();
        let h = Histogram::new();
        let value = |t: u64, i: u64| (t * 10_000 + i) as f64 * 1e-6;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (c, h) = (&c, &h);
                scope.spawn(move || {
                    for i in 0..10_000 {
                        c.add(t + 1);
                        h.observe(value(t, i));
                    }
                });
            }
        });
        let mut buckets = vec![0u64; DEFAULT_BUCKETS.len() + 1];
        let mut max = 0.0f64;
        for t in 0..8 {
            for i in 0..10_000 {
                let v = value(t, i);
                let idx = DEFAULT_BUCKETS
                    .iter()
                    .position(|&b| v <= b)
                    .unwrap_or(DEFAULT_BUCKETS.len());
                buckets[idx] += 1;
                max = max.max(v);
            }
        }
        assert_eq!(c.get(), 10_000 * (1..=8).sum::<u64>());
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.bucket_counts(), buckets);
        assert_eq!(h.max().to_bits(), max.to_bits());
    }

    #[test]
    fn one_threads_sum_is_the_sequential_sum() {
        let h = Histogram::new();
        let mut sum = 0.0f64;
        let mut x = 0.1f64;
        for i in 0..10_000 {
            x = (x * 3.7 + 0.123_456_789).fract();
            let v = if i % 7 == 0 {
                -x * 1e-3
            } else {
                x * 10f64.powi(i % 9 - 6)
            };
            h.observe(v);
            sum += v;
        }
        assert_eq!(h.sum().to_bits(), sum.to_bits());
    }

    #[test]
    fn two_threads_write_different_cache_lines() {
        let c = Counter::new();
        let h = Histogram::new();
        let here = |c: &Counter, h: &Histogram| {
            c.inc();
            h.observe(1e-3);
            (c.stripe_addr(), h.stripe_addrs())
        };
        let line = |addr: usize| addr / 64;
        let (c_a, h_a) = std::thread::scope(|s| s.spawn(|| here(&c, &h)).join().unwrap());
        // Stripes are handed out round-robin across every thread of the
        // process, so a concurrently running test can push the next
        // thread onto the same stripe; try a few threads.
        let (c_b, h_b) = (0..64)
            .map(|_| std::thread::scope(|s| s.spawn(|| here(&c, &h)).join().unwrap()))
            .find(|(c_b, _)| *c_b != c_a)
            .expect("a second stripe");
        assert_eq!(c_a % 64, 0);
        assert_eq!(c_b % 64, 0);
        assert_ne!(line(c_a), line(c_b));
        assert_eq!(h_a.0 % 64, 0);
        assert_eq!(h_b.0 % 64, 0);
        assert!(
            line(h_a.1) < line(h_b.0) || line(h_b.1) < line(h_a.0),
            "{h_a:?} and {h_b:?} share a line"
        );
    }
}
