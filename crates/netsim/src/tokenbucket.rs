//! Token buckets, as used by both guard rate limiters.

use crate::time::SimTime;

/// A token bucket with a fill rate and a burst capacity.
///
/// Tokens accrue continuously at `rate` per second up to `burst`; each
/// admitted event consumes one token.
///
/// Degenerate parameters have explicit meanings rather than being rejected
/// (rate limits often arrive from config arithmetic, where `0`, `NaN` and
/// `∞` are all reachable):
///
/// * an **infinite** rate or burst admits everything ("unlimited");
/// * otherwise a rate or burst that is zero, negative or `NaN` admits
///   nothing ("deny all").
///
/// # Examples
///
/// ```
/// use netsim::time::SimTime;
/// use netsim::tokenbucket::TokenBucket;
///
/// let mut tb = TokenBucket::new(10.0, 2.0); // 10/s, burst 2
/// let t0 = SimTime::ZERO;
/// assert!(tb.try_take(t0));
/// assert!(tb.try_take(t0));
/// assert!(!tb.try_take(t0), "burst exhausted");
/// assert!(tb.try_take(t0 + SimTime::from_millis(100)), "one token refilled");
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket. Degenerate `rate_per_sec`/`burst` values make
    /// the bucket unlimited or deny-all (see the type-level docs); no
    /// parameter combination panics.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        let tokens = if burst.is_finite() && burst > 0.0 {
            burst
        } else {
            0.0
        };
        TokenBucket {
            rate_per_sec,
            burst,
            tokens,
            last: SimTime::ZERO,
        }
    }

    /// The configured rate, events per second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Whether the bucket admits everything (infinite rate or burst).
    pub fn is_unlimited(&self) -> bool {
        self.rate_per_sec == f64::INFINITY || self.burst == f64::INFINITY
    }

    /// Whether the bucket admits nothing (zero, negative or `NaN` rate or
    /// burst, and not unlimited).
    pub fn is_deny_all(&self) -> bool {
        !(self.is_unlimited() || (self.rate_per_sec > 0.0 && self.burst > 0.0))
    }

    /// Attempts to take one token at time `now`. Returns whether the event
    /// is admitted.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        if self.is_unlimited() {
            return true;
        }
        if self.is_deny_all() {
            return false;
        }
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current token count (after refilling to `now`). Unlimited buckets
    /// report `∞`; deny-all buckets report `0`.
    pub fn available(&mut self, now: SimTime) -> f64 {
        if self.is_unlimited() {
            return f64::INFINITY;
        }
        if self.is_deny_all() {
            return 0.0;
        }
        self.refill(now);
        self.tokens
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            // Saturate instead of propagating a non-finite product: a bucket
            // resumed after an arbitrarily long pause (crash-restart can
            // replay any sim-time gap) must land on a full bucket, never on
            // `inf`/`NaN` tokens that would poison every later comparison.
            let refilled = self.tokens + dt * self.rate_per_sec;
            self.tokens = if refilled.is_finite() {
                refilled.min(self.burst)
            } else {
                self.burst
            };
            self.last = now;
        }
    }

    /// Serializable state snapshot, for guard checkpointing.
    pub fn checkpoint(&self) -> TokenBucketState {
        TokenBucketState {
            rate_per_sec: self.rate_per_sec,
            burst: self.burst,
            tokens: self.tokens,
            last_nanos: self.last.as_nanos(),
        }
    }

    /// Rebuilds a bucket from a checkpointed state. Token counts are clamped
    /// into `[0, burst]` (a corrupted or hand-edited snapshot cannot mint an
    /// unbounded burst), and non-finite token counts fall back to a full
    /// bucket.
    pub fn restore(state: &TokenBucketState) -> Self {
        let mut tb = TokenBucket::new(state.rate_per_sec, state.burst);
        if !tb.is_unlimited() && !tb.is_deny_all() {
            tb.tokens = if state.tokens.is_finite() {
                state.tokens.clamp(0.0, tb.burst)
            } else {
                tb.burst
            };
        }
        tb.last = SimTime::from_nanos(state.last_nanos);
        tb
    }
}

/// The serializable face of a [`TokenBucket`], as captured by
/// [`TokenBucket::checkpoint`] and replayed by [`TokenBucket::restore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketState {
    /// Configured fill rate, tokens per second.
    pub rate_per_sec: f64,
    /// Configured burst capacity.
    pub burst: f64,
    /// Tokens available at `last_nanos`.
    pub tokens: f64,
    /// Sim time of the last refill, in nanoseconds.
    pub last_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_at_configured_rate() {
        let mut tb = TokenBucket::new(100.0, 1.0);
        let mut admitted = 0;
        // Offer 10 000 events over 10 simulated seconds. With burst 1 the
        // admitted rate is the configured 100/s, within the drift caused by
        // fractional token accumulation (~10%).
        for i in 0..10_000u64 {
            let t = SimTime::from_micros(i * 1_000);
            if tb.try_take(t) {
                admitted += 1;
            }
        }
        assert!((900..=1_010).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn burst_allows_initial_spike() {
        let mut tb = TokenBucket::new(1.0, 50.0);
        let t0 = SimTime::ZERO;
        let spike = (0..100).filter(|_| tb.try_take(t0)).count();
        assert_eq!(spike, 50);
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut tb = TokenBucket::new(1000.0, 5.0);
        assert!((tb.available(SimTime::from_secs(100)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn time_not_monotonic_is_tolerated() {
        let mut tb = TokenBucket::new(10.0, 1.0);
        assert!(tb.try_take(SimTime::from_secs(1)));
        // Earlier timestamp: no refill, no panic.
        assert!(!tb.try_take(SimTime::from_millis(500)));
    }

    #[test]
    fn zero_rate_denies_all() {
        let mut tb = TokenBucket::new(0.0, 1.0);
        assert!(tb.is_deny_all());
        for s in 0..100 {
            assert!(!tb.try_take(SimTime::from_secs(s)));
        }
        assert_eq!(tb.available(SimTime::from_secs(1_000)), 0.0);
    }

    #[test]
    fn nan_and_negative_rates_deny_all() {
        for rate in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let mut tb = TokenBucket::new(rate, 5.0);
            assert!(tb.is_deny_all(), "rate {rate} must deny");
            assert!(!tb.try_take(SimTime::from_secs(10)));
        }
        let mut tb = TokenBucket::new(10.0, f64::NAN);
        assert!(tb.is_deny_all(), "NaN burst must deny");
        assert!(!tb.try_take(SimTime::from_secs(10)));
    }

    #[test]
    fn zero_burst_denies_all() {
        let mut tb = TokenBucket::new(1_000.0, 0.0);
        assert!(tb.is_deny_all());
        assert!(!tb.try_take(SimTime::from_secs(60)));
    }

    #[test]
    fn huge_time_gap_saturates_to_full_bucket() {
        // A bucket resumed after an enormous pause (e.g. crash-restart far in
        // the sim future) must refill to exactly `burst` and stay finite,
        // even when `dt * rate` overflows f64.
        let mut tb = TokenBucket::new(1e300, 5.0);
        assert!(tb.try_take(SimTime::ZERO));
        let far = SimTime::MAX;
        let avail = tb.available(far);
        assert!(avail.is_finite(), "tokens went non-finite: {avail}");
        assert!((avail - 5.0).abs() < 1e-9, "refilled to burst, got {avail}");
        assert!(tb.try_take(far));
    }

    #[test]
    fn checkpoint_restore_round_trip_preserves_admission() {
        let mut a = TokenBucket::new(10.0, 4.0);
        let t = SimTime::from_millis(1_234);
        assert!(a.try_take(t));
        assert!(a.try_take(t));
        let mut b = TokenBucket::restore(&a.checkpoint());
        // Identical admission decisions from the restored twin.
        for i in 0..50u64 {
            let now = t + SimTime::from_millis(i * 37);
            assert_eq!(a.try_take(now), b.try_take(now), "diverged at step {i}");
        }
    }

    #[test]
    fn restore_clamps_corrupt_token_counts() {
        let base = TokenBucket::new(10.0, 4.0).checkpoint();
        for bad in [f64::INFINITY, f64::NAN, 1e9, -7.0] {
            let state = TokenBucketState { tokens: bad, ..base };
            let mut tb = TokenBucket::restore(&state);
            let avail = tb.available(SimTime::from_nanos(state.last_nanos));
            assert!(avail.is_finite(), "tokens {bad} produced {avail}");
            assert!((0.0..=4.0).contains(&avail), "tokens {bad} produced {avail}");
        }
    }

    #[test]
    fn restore_preserves_degenerate_semantics() {
        let deny = TokenBucket::restore(&TokenBucket::new(0.0, 1.0).checkpoint());
        assert!(deny.is_deny_all());
        let open = TokenBucket::restore(&TokenBucket::new(f64::INFINITY, 1.0).checkpoint());
        assert!(open.is_unlimited());
    }

    #[test]
    fn infinite_rate_is_unlimited() {
        let mut tb = TokenBucket::new(f64::INFINITY, 1.0);
        assert!(tb.is_unlimited());
        let t0 = SimTime::ZERO;
        for _ in 0..10_000 {
            assert!(tb.try_take(t0));
        }
        assert_eq!(tb.available(t0), f64::INFINITY);
    }

    #[test]
    fn infinite_burst_is_unlimited() {
        let mut tb = TokenBucket::new(1.0, f64::INFINITY);
        assert!(tb.is_unlimited());
        let t0 = SimTime::ZERO;
        for _ in 0..10_000 {
            assert!(tb.try_take(t0));
        }
    }
}
