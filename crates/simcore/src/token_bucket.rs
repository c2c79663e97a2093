//! A lazily refilled token bucket.
//!
//! Two admission points use it: a node's accept path (rate = sustainable
//! accepts/s, so SYN bursts are absorbed but the steady-state ceiling the
//! paper attributes to "the ability to create new TCP ports and new
//! threads" holds) and the load balancer's admission control.

use crate::time::SimTime;

/// A deterministic token bucket: `rate` tokens/s refilled lazily on
/// access, holding at most `burst`. One admission takes one token.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket holding at most `burst` tokens, floored at one.
    /// `rate <= 0` disables the bucket (it always admits).
    pub fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        TokenBucket { rate, burst, tokens: burst, last: SimTime::ZERO }
    }

    /// Refill for the time elapsed since the last call, then take one
    /// token at `now`; `false` means refuse.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        if self.rate <= 0.0 {
            return true;
        }
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn starts_full_and_drains() {
        let mut b = TokenBucket::new(10.0, 5.0);
        for _ in 0..5 {
            assert!(b.try_take(t(0.0)));
        }
        assert!(!b.try_take(t(0.0)));
    }

    #[test]
    fn refills_at_rate() {
        let mut b = TokenBucket::new(10.0, 5.0);
        while b.try_take(t(0.0)) {}
        // after 0.35 s, 3.5 tokens accumulated
        for _ in 0..3 {
            assert!(b.try_take(t(0.35)));
        }
        assert!(!b.try_take(t(0.35)));
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut b = TokenBucket::new(10.0, 5.0);
        while b.try_take(t(0.0)) {}
        // 100 s at 10/s would be 1000 tokens; the bucket holds 5
        for _ in 0..5 {
            assert!(b.try_take(t(100.0)));
        }
        assert!(!b.try_take(t(100.0)));
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut b = TokenBucket::new(60.0, 60.0);
        // offer 100 SYNs/s for 10 s → ~60/s accepted after the initial burst
        let mut accepted = 0;
        for i in 0..1000 {
            let now = t(f64::from(i) * 0.01);
            if b.try_take(now) {
                accepted += 1;
            }
        }
        assert!((600..=700).contains(&accepted), "accepted {accepted}");
    }
}
