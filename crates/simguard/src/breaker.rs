//! Per-backend circuit breaker: closed → open → half-open → closed.
//!
//! All transitions happen on explicit calls with an explicit `now` —
//! there are no timer events, so an idle breaker costs the hosting
//! world nothing and guards-off runs schedule exactly the same events
//! as before the breaker existed. The open→half-open transition is
//! evaluated lazily on the next [`CircuitBreaker::check`].

use edison_simcore::time::{SimDuration, SimTime};

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive failures are counted.
    Closed,
    /// Tripped: all traffic rejected until the cooldown elapses.
    Open,
    /// Cooling down finished: a bounded number of probe connections may
    /// test the backend; one success closes, one failure reopens.
    HalfOpen,
}

/// What [`CircuitBreaker::check`] allows for one routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerVerdict {
    /// Closed: route normally.
    Pass,
    /// Half-open with a free probe slot: route only probe-eligible
    /// connections (the caller then claims the slot with
    /// [`CircuitBreaker::begin_probe`]).
    Probe,
    /// Open (or half-open with all probe slots busy): skip this backend.
    Reject,
}

/// A closed/open/half-open circuit breaker over one backend.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: SimDuration,
    probes_max: u32,
    state: BreakerState,
    failures: u32,
    open_until: SimTime,
    probes_inflight: u32,
    /// When the current half-open phase began (window reporting).
    half_open_since: Option<SimTime>,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures,
    /// rejecting for `cooldown`, then admitting up to `probes_max`
    /// concurrent probes.
    pub fn new(threshold: u32, cooldown: SimDuration, probes_max: u32) -> Self {
        CircuitBreaker {
            threshold,
            cooldown,
            probes_max: probes_max.max(1),
            state: BreakerState::Closed,
            failures: 0,
            open_until: SimTime::ZERO,
            probes_inflight: 0,
            half_open_since: None,
            trips: 0,
        }
    }

    /// Current state *without* advancing the open→half-open transition.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How often this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// One routing decision at `now`. Advances open→half-open when the
    /// cooldown has elapsed (lazy: no timer event needed).
    pub fn check(&mut self, now: SimTime) -> BreakerVerdict {
        if self.threshold == 0 {
            return BreakerVerdict::Pass;
        }
        if self.state == BreakerState::Open && now >= self.open_until {
            self.state = BreakerState::HalfOpen;
            self.probes_inflight = 0;
            self.half_open_since = Some(now);
        }
        match self.state {
            BreakerState::Closed => BreakerVerdict::Pass,
            BreakerState::Open => BreakerVerdict::Reject,
            BreakerState::HalfOpen => {
                if self.probes_inflight < self.probes_max {
                    BreakerVerdict::Probe
                } else {
                    BreakerVerdict::Reject
                }
            }
        }
    }

    /// Claim a half-open probe slot (after a [`BreakerVerdict::Probe`]).
    pub fn begin_probe(&mut self) {
        self.probes_inflight = self.probes_inflight.saturating_add(1);
    }

    /// Release a probe slot without a verdict (the probing connection
    /// went away for unrelated reasons).
    pub fn end_probe(&mut self) {
        self.probes_inflight = self.probes_inflight.saturating_sub(1);
    }

    /// Record a backend failure. Returns `true` when this call tripped
    /// the breaker open (closed past threshold, or a failed half-open
    /// probe).
    pub fn record_failure(&mut self, now: SimTime) -> bool {
        if self.threshold == 0 {
            return false;
        }
        match self.state {
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.open_until = now + self.cooldown;
                    self.trips += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                // one failed probe reopens for a full cooldown
                self.state = BreakerState::Open;
                self.open_until = now + self.cooldown;
                self.half_open_since = None;
                self.probes_inflight = 0;
                self.failures = self.threshold;
                self.trips += 1;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Record a backend success. Returns the start of the half-open
    /// phase this success just closed, if it did — the caller reports
    /// that interval as the breaker's recovery window.
    pub fn record_success(&mut self) -> Option<SimTime> {
        if self.threshold == 0 {
            return None;
        }
        self.failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.probes_inflight = 0;
            return self.half_open_since.take();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_breaker_always_passes() {
        let mut b = CircuitBreaker::new(0, SimDuration::from_secs(1), 1);
        assert!(!b.record_failure(t(0)));
        assert_eq!(b.check(t(0)), BreakerVerdict::Pass);
        assert_eq!(b.record_success(), None);
    }

    #[test]
    fn trips_after_threshold_and_cools_to_half_open() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_secs(2), 1);
        assert!(!b.record_failure(t(1)));
        assert!(!b.record_failure(t(1)));
        assert!(b.record_failure(t(1)), "third consecutive failure trips");
        assert_eq!(b.trips(), 1);
        assert_eq!(b.check(t(2)), BreakerVerdict::Reject, "inside cooldown");
        assert_eq!(b.check(t(3)), BreakerVerdict::Probe, "cooldown elapsed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.record_success(), Some(t(3)), "a success closes the window opened at t=3");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_slots_are_bounded() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(1), 2);
        b.record_failure(t(0));
        assert_eq!(b.check(t(1)), BreakerVerdict::Probe);
        b.begin_probe();
        assert_eq!(b.check(t(1)), BreakerVerdict::Probe);
        b.begin_probe();
        assert_eq!(b.check(t(1)), BreakerVerdict::Reject, "both slots busy");
        b.end_probe();
        assert_eq!(b.check(t(1)), BreakerVerdict::Probe);
    }

    #[test]
    fn probe_success_closes_and_reports_the_window() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(1), 1);
        b.record_failure(t(0));
        assert_eq!(b.check(t(4)), BreakerVerdict::Probe);
        b.begin_probe();
        assert_eq!(b.record_success(), Some(t(4)), "window start reported");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.record_success(), None, "already closed: no window");
    }

    #[test]
    fn probe_failure_reopens_for_a_full_cooldown() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_secs(2), 1);
        b.record_failure(t(0));
        b.record_failure(t(0));
        assert_eq!(b.check(t(3)), BreakerVerdict::Probe);
        b.begin_probe();
        assert!(b.record_failure(t(3)), "failed probe re-trips");
        assert_eq!(b.trips(), 2);
        assert_eq!(b.check(t(4)), BreakerVerdict::Reject);
        assert_eq!(b.check(t(5)), BreakerVerdict::Probe);
    }

    #[test]
    fn successes_reset_the_failure_count() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_secs(1), 1);
        b.record_failure(t(0));
        b.record_success();
        assert!(!b.record_failure(t(0)), "count was reset");
    }
}
