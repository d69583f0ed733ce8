//! Replica health: a deterministic clock abstraction and per-replica
//! circuit breakers.
//!
//! Every replica the front-door dispatches to sits behind a
//! [`CircuitBreaker`] with the classic three states:
//!
//! - **Closed** — requests flow; consecutive failures are counted.
//! - **Open** — after [`BREAKER_FAILURE_THRESHOLD`] consecutive
//!   failures the breaker trips: requests are refused locally (no
//!   connection is even attempted) until [`BREAKER_COOLDOWN_MS`] has
//!   passed.
//! - **Half-open** — after the cooldown, exactly one trial request is
//!   let through. Success closes the breaker; failure re-opens it and
//!   restarts the cooldown.
//!
//! Both are constants: every breaker trips and recovers alike. Time
//! comes from a [`Clock`] so tests drive the whole state machine with a
//! [`ManualClock`] — no sleeps, no wall-clock flakiness. The production
//! [`SystemClock`] reads a monotonic instant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic millisecond clock the breaker reads through.
pub trait Clock: Send + Sync {
    /// Milliseconds since an arbitrary (but fixed) origin.
    fn now_ms(&self) -> u64;
}

/// The production clock: milliseconds since the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> SystemClock {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A hand-cranked clock for deterministic breaker tests.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Arc<ManualClock> {
        Arc::new(ManualClock(AtomicU64::new(0)))
    }

    /// Advances the clock by `ms`.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Consecutive failures that trip a breaker open.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// How long an open breaker refuses requests before it lets one trial
/// through.
pub const BREAKER_COOLDOWN_MS: u64 = 5_000;

/// The observable breaker state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    #[default]
    Closed,
    /// Requests are refused locally until the cooldown passes.
    Open,
    /// One trial request is in flight (or permitted); its outcome
    /// decides the next state.
    HalfOpen,
}

#[derive(Debug, Default)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
    trial_in_flight: bool,
}

/// A three-state circuit breaker guarding one replica.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    inner: parking_lot::Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker::default()
    }

    /// The current state, transitioning Open → HalfOpen if the cooldown
    /// has passed (observing the breaker at its due time is what moves
    /// it, exactly like [`CircuitBreaker::allow`]).
    pub fn state(&self, now_ms: u64) -> BreakerState {
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::Open
            && now_ms.saturating_sub(inner.opened_at_ms) >= BREAKER_COOLDOWN_MS
        {
            inner.state = BreakerState::HalfOpen;
            inner.trial_in_flight = false;
        }
        inner.state
    }

    /// Whether a request may be dispatched now. An open breaker past
    /// its cooldown becomes half-open and admits exactly one trial; a
    /// half-open breaker with a trial already out admits nothing.
    pub fn allow(&self, now_ms: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_ms.saturating_sub(inner.opened_at_ms) >= BREAKER_COOLDOWN_MS {
                    inner.state = BreakerState::HalfOpen;
                    inner.trial_in_flight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.trial_in_flight {
                    false
                } else {
                    inner.trial_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records a successful dispatch: closes the breaker and clears the
    /// failure count.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.trial_in_flight = false;
    }

    /// Records a failed dispatch. Returns `true` when this failure
    /// tripped the breaker open (closed → open on the Kth consecutive
    /// failure, or a failed half-open trial re-opening it).
    pub fn record_failure(&self, now_ms: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= BREAKER_FAILURE_THRESHOLD {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ms = now_ms;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at_ms = now_ms;
                inner.trial_in_flight = false;
                true
            }
            BreakerState::Open => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: u32 = BREAKER_FAILURE_THRESHOLD;
    const COOLDOWN: u64 = BREAKER_COOLDOWN_MS;

    /// A breaker `k` consecutive failures in, the last at `at`.
    fn failed(k: u32, at: u64) -> CircuitBreaker {
        let b = CircuitBreaker::new();
        for _ in 0..k {
            b.record_failure(at);
        }
        b
    }

    #[test]
    fn opens_after_k_consecutive_failures() {
        let b = failed(K - 1, 0);
        assert_eq!(b.state(1), BreakerState::Closed);
        assert!(b.record_failure(2));
        assert_eq!(b.state(2), BreakerState::Open);
        assert!(!b.allow(COOLDOWN / 2));
        assert!(!b.record_failure(3), "an open breaker trips once");
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = failed(K - 1, 0);
        b.record_success();
        for _ in 1..K {
            assert!(!b.record_failure(1));
        }
        assert_eq!(b.state(1), BreakerState::Closed);
    }

    #[test]
    fn half_opens_after_cooldown_and_admits_one_trial() {
        let clock = ManualClock::new();
        let b = failed(K, clock.now_ms());
        assert!(!b.allow(clock.now_ms()));
        clock.advance(COOLDOWN - 1);
        assert!(!b.allow(clock.now_ms()));
        clock.advance(1);
        // The cooldown elapsed: exactly one trial goes through.
        assert!(b.allow(clock.now_ms()));
        assert_eq!(b.state(clock.now_ms()), BreakerState::HalfOpen);
        assert!(!b.allow(clock.now_ms()));
        b.record_success();
        assert_eq!(b.state(clock.now_ms()), BreakerState::Closed);
        assert!(b.allow(clock.now_ms()));
    }

    #[test]
    fn failed_trial_reopens_and_restarts_the_cooldown() {
        let b = failed(K, 0);
        assert!(b.allow(COOLDOWN));
        assert!(b.record_failure(COOLDOWN + 20));
        assert_eq!(b.state(COOLDOWN + 50), BreakerState::Open);
        assert!(!b.allow(2 * COOLDOWN + 19));
        assert!(b.allow(2 * COOLDOWN + 20));
    }
}
