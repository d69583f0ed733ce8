//! A hashed timer wheel for the server's readiness event loop.
//!
//! The event loop needs two kinds of deadlines — per-connection idle
//! timeouts and per-request compute deadlines — without a sorted
//! structure or one OS timer per entry. A classic timer wheel gives
//! O(1) insert and cancel: time is quantized into ticks, each tick
//! hashes to one of `slots.len()` buckets, and [`TimerWheel::advance`]
//! only touches the buckets the cursor passes over. Entries whose
//! absolute deadline tick lies a full revolution (or more) ahead stay
//! in their bucket until the cursor has wrapped far enough — the
//! absolute tick comparison stands in for the usual "rounds remaining"
//! counter.
//!
//! The wheel is deliberately coarse: a deadline may fire up to one tick
//! late (and never early, because insertion rounds the deadline up).
//! For 25 ms ticks against multi-second timeouts that slack is noise.
//!
//! The wheel is also the loop's only clock: [`TimerWheel::next_wake`]
//! says how long `poll` may block before a deadline can be due, so a
//! loop with nothing armed sleeps without a timeout and nothing ticks
//! in between.

use std::time::{Duration, Instant};

struct Entry<T> {
    id: u64,
    deadline_tick: u64,
    value: T,
}

/// Handle returned by [`TimerWheel::insert`]; lets the owner cancel the
/// timer in O(bucket) when the awaited event happens first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerKey {
    id: u64,
    slot: usize,
}

pub(crate) struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    tick: Duration,
    origin: Instant,
    /// Next tick index [`advance`] will process.
    cursor: u64,
    next_id: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    pub fn new(tick: Duration, slots: usize) -> Self {
        assert!(tick > Duration::ZERO && slots > 0);
        let origin = Instant::now();
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            origin,
            cursor: 0,
            next_id: 0,
            len: 0,
        }
    }

    fn tick_index(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.origin);
        (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Arms a timer `after` from `now`. The deadline is rounded **up**
    /// to the next tick boundary so it can never fire early.
    pub fn insert(&mut self, now: Instant, after: Duration, value: T) -> TimerKey {
        let deadline_tick = self.tick_index(now + after) + 1;
        let slot = (deadline_tick % self.slots.len() as u64) as usize;
        let id = self.next_id;
        self.next_id += 1;
        self.slots[slot].push(Entry {
            id,
            deadline_tick,
            value,
        });
        self.len += 1;
        TimerKey { id, slot }
    }

    /// Disarms a timer, returning its value if it had not fired yet.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let bucket = &mut self.slots[key.slot];
        let at = bucket.iter().position(|e| e.id == key.id)?;
        self.len -= 1;
        Some(bucket.swap_remove(at).value)
    }

    /// Collects every timer whose deadline is at or before `now` into
    /// `expired`, sweeping only the buckets between the last call and
    /// `now` (capped at one full revolution — beyond that every bucket
    /// has been visited once already).
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<T>) {
        let target = self.tick_index(now);
        if target < self.cursor {
            return;
        }
        let nslots = self.slots.len() as u64;
        let steps = (target - self.cursor + 1).min(nslots);
        let mut tick = target + 1 - steps;
        while tick <= target {
            let bucket = &mut self.slots[(tick % nslots) as usize];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline_tick <= target {
                    expired.push(bucket.swap_remove(i).value);
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            tick += 1;
        }
        self.cursor = target + 1;
    }

    /// How long the owner may sleep before [`advance`] can have work:
    /// `None` when the wheel is empty, otherwise the time from `now` to
    /// the first non-empty bucket at or after the cursor (zero if that
    /// tick has already begun). Never later than the earliest deadline;
    /// it may be earlier, when that bucket's entries lie a revolution or
    /// more ahead — `advance` then fires nothing and the next call looks
    /// past the bucket.
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn next_wake(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let nslots = self.slots.len() as u64;
        let tick = (self.cursor..self.cursor + nslots)
            .find(|tick| !self.slots[(tick % nslots) as usize].is_empty())
            .expect("a wheel with entries has a non-empty bucket");
        let starts = self.tick.as_nanos() * u128::from(tick);
        let elapsed = now.saturating_duration_since(self.origin).as_nanos();
        let wait = starts.saturating_sub(elapsed);
        Some(Duration::from_nanos(
            u64::try_from(wait).unwrap_or(u64::MAX),
        ))
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let mut wheel: TimerWheel<&str> = TimerWheel::new(ms(10), 8);
        let t0 = Instant::now();
        wheel.insert(t0, ms(35), "a");
        let mut out = Vec::new();
        wheel.advance(t0 + ms(30), &mut out);
        assert!(out.is_empty(), "fired {out:?} before the deadline");
        wheel.advance(t0 + ms(60), &mut out);
        assert_eq!(out, ["a"]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(ms(10), 8);
        let t0 = Instant::now();
        let keep = wheel.insert(t0, ms(20), 1);
        let drop = wheel.insert(t0, ms(20), 2);
        assert_eq!(wheel.cancel(drop), Some(2));
        assert_eq!(wheel.cancel(drop), None, "double cancel");
        let mut out = Vec::new();
        wheel.advance(t0 + ms(200), &mut out);
        assert_eq!(out, [1]);
        assert_eq!(wheel.cancel(keep), None, "already fired");
    }

    #[test]
    fn deadlines_beyond_one_revolution_wait_for_the_wrap() {
        // 8 slots x 10ms = 80ms per revolution; a 250ms timer hashes to
        // a bucket the cursor passes three times before it matures.
        let mut wheel: TimerWheel<&str> = TimerWheel::new(ms(10), 8);
        let t0 = Instant::now();
        wheel.insert(t0, ms(250), "slow");
        let mut out = Vec::new();
        for step in 1..=24 {
            wheel.advance(t0 + ms(step * 10), &mut out);
            assert!(out.is_empty(), "fired after only {}ms", step * 10);
        }
        wheel.advance(t0 + ms(270), &mut out);
        assert_eq!(out, ["slow"]);
    }

    #[test]
    fn next_wake_is_none_when_empty_and_never_past_the_earliest_deadline() {
        let mut wheel: TimerWheel<&str> = TimerWheel::new(ms(10), 8);
        let t0 = Instant::now();
        assert_eq!(wheel.next_wake(t0), None, "empty wheel");

        let late = wheel.insert(t0, ms(55), "late");
        let early = wheel.insert(t0, ms(25), "early");
        // Sleeping exactly as long as told, `advance` finds the earliest
        // entry due; sleeping a tick less, it does not.
        let wake = wheel.next_wake(t0).expect("two entries");
        assert!(
            wake <= ms(25) + ms(10),
            "{wake:?} is past the deadline's tick"
        );
        let mut out = Vec::new();
        wheel.advance(t0 + wake - ms(10), &mut out);
        assert!(out.is_empty(), "fired {out:?} a tick early");
        wheel.advance(t0 + wake, &mut out);
        assert_eq!(out, ["early"]);

        // With the cursor moved on, the wait is to the next entry, and
        // it shrinks as `now` approaches it.
        let now = t0 + wake;
        let next = wheel.next_wake(now).expect("one entry left");
        assert!(now + next >= t0 + ms(55) && next <= ms(55), "{next:?}");
        assert_eq!(wheel.next_wake(now + next + ms(500)), Some(Duration::ZERO));

        assert_eq!(wheel.cancel(late), Some("late"));
        assert_eq!(wheel.cancel(early), None, "already fired");
        assert_eq!(wheel.next_wake(now), None, "the only entry was cancelled");
    }

    #[test]
    fn next_wake_may_be_early_for_a_wrapped_entry_but_advance_is_not() {
        // 8 slots x 10ms: a 250ms timer sits in a bucket the cursor
        // reaches three times before the entry matures.
        let mut wheel: TimerWheel<&str> = TimerWheel::new(ms(10), 8);
        let t0 = Instant::now();
        wheel.insert(t0, ms(250), "slow");
        let mut now = t0;
        let mut out = Vec::new();
        let mut wakes = 0;
        while out.is_empty() {
            let wake = wheel.next_wake(now).expect("the entry is still armed");
            assert!(wake <= ms(80), "{wake:?} skips a whole revolution");
            now += wake.max(ms(1));
            wheel.advance(now, &mut out);
            assert!(out.is_empty() || now >= t0 + ms(250), "fired early");
            wakes += 1;
            assert!(wakes <= 8, "one wake a revolution, not one a tick");
        }
        assert_eq!(out, ["slow"]);
        assert!(now <= t0 + ms(250) + ms(20), "fired {:?} late", now - t0);
        assert_eq!(wheel.next_wake(now), None);
    }

    #[test]
    fn large_gap_sweeps_every_bucket_once() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(ms(1), 4);
        let t0 = Instant::now();
        for i in 0..32 {
            wheel.insert(t0, ms(i), i as u32);
        }
        // One advance far past every deadline must drain all 32 even
        // though the cursor skipped thousands of ticks.
        let mut out = Vec::new();
        wheel.advance(t0 + ms(10_000), &mut out);
        out.sort_unstable();
        assert_eq!(out, (0..32).collect::<Vec<u32>>());
        assert_eq!(wheel.len(), 0);
    }
}
