//! Load-balancer admission control: the CoDel-style queue gate. The rate
//! bucket in front of it is [`edison_simcore::token_bucket::TokenBucket`]
//! (one connection = one token).

use crate::config::Priority;
use edison_simcore::time::{SimDuration, SimTime};

/// What the queue gate wants done with an arriving connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// Under target (or gate off): admit.
    Admit,
    /// Dropping state: shed [`Priority::Bulk`] connections.
    ShedBulk,
    /// Sojourn far past target (≥ 2× while dropping): shed everything.
    ShedAll,
}

/// A CoDel-style queue-delay gate.
///
/// The hosting tier feeds it every observed PHP-backlog sojourn (zero
/// when a request was admitted straight to a worker). When the *minimum*
/// sojourn over an interval stays above `target`, the gate enters a
/// dropping state and sheds arriving connections at a
/// `interval/√drop_count` cadence — CoDel's control law, applied at
/// admission instead of dequeue. One below-target observation exits.
#[derive(Debug, Clone)]
pub struct QueueGate {
    target: SimDuration,
    interval: SimDuration,
    /// Smallest sojourn seen in the current above-target episode.
    min_sojourn: SimDuration,
    /// When the current above-target episode started.
    above_since: Option<SimTime>,
    dropping: bool,
    drop_next: SimTime,
    drop_count: u32,
    /// EWMA of the sojourn in seconds (the brownout signal).
    ewma_s: f64,
}

impl QueueGate {
    /// An idle gate. A zero `target` disables it (always admits).
    pub fn new(target: SimDuration, interval: SimDuration) -> Self {
        let interval =
            if interval.is_zero() { SimDuration::from_millis(500) } else { interval };
        QueueGate {
            target,
            interval,
            min_sojourn: SimDuration::MAX,
            above_since: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            drop_count: 0,
            ewma_s: 0.0,
        }
    }

    /// Smoothed sojourn, seconds (drives [`crate::Brownout`]).
    pub fn smoothed_sojourn_s(&self) -> f64 {
        self.ewma_s
    }

    /// True while the gate is in its dropping state.
    pub fn dropping(&self) -> bool {
        self.dropping
    }

    /// Record one observed queue sojourn at `now`.
    pub fn observe(&mut self, sojourn: SimDuration, now: SimTime) {
        if self.target.is_zero() {
            return;
        }
        self.ewma_s = 0.875 * self.ewma_s + 0.125 * sojourn.as_secs_f64();
        if sojourn < self.target {
            // one good observation resets the episode and stops dropping
            self.min_sojourn = SimDuration::MAX;
            self.above_since = None;
            self.dropping = false;
            self.drop_count = 0;
            return;
        }
        self.min_sojourn = self.min_sojourn.min(sojourn);
        let since = *self.above_since.get_or_insert(now);
        if !self.dropping && now.saturating_since(since) >= self.interval {
            // min sojourn stayed above target for a whole interval
            self.dropping = true;
            self.drop_count = 1;
            self.drop_next = now;
        }
    }

    /// Gate one arriving connection of class `class` at `now`.
    pub fn verdict(&mut self, now: SimTime, class: Priority) -> GateVerdict {
        if self.target.is_zero() || !self.dropping {
            return GateVerdict::Admit;
        }
        let severe = self.ewma_s >= 2.0 * self.target.as_secs_f64();
        if now >= self.drop_next {
            // CoDel control law: next drop interval/√count later
            self.drop_count += 1;
            let step = self.interval.as_secs_f64() / (f64::from(self.drop_count)).sqrt();
            self.drop_next = now + SimDuration::from_secs_f64(step);
            if severe {
                GateVerdict::ShedAll
            } else {
                GateVerdict::ShedBulk
            }
        } else if severe && class == Priority::Bulk {
            // between drop instants a severely late queue still refuses
            // bulk work
            GateVerdict::ShedBulk
        } else {
            GateVerdict::Admit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_simcore::token_bucket::TokenBucket;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn disabled_bucket_and_gate_always_admit() {
        let mut b = TokenBucket::new(0.0, 0.0);
        for i in 0..100 {
            assert!(b.try_take(at(i)));
        }
        let mut g = QueueGate::new(SimDuration::ZERO, SimDuration::ZERO);
        g.observe(SimDuration::from_secs(9), at(0));
        assert_eq!(g.verdict(at(1), Priority::Bulk), GateVerdict::Admit);
    }

    #[test]
    fn bucket_limits_rate_but_allows_burst() {
        let mut b = TokenBucket::new(10.0, 5.0);
        // the full burst passes instantly
        for _ in 0..5 {
            assert!(b.try_take(at(0)));
        }
        assert!(!b.try_take(at(0)), "burst exhausted");
        // 100 ms refills one token at 10/s
        assert!(b.try_take(at(100)));
        assert!(!b.try_take(at(100)));
    }

    #[test]
    fn gate_enters_dropping_after_a_sustained_episode() {
        let mut g = QueueGate::new(SimDuration::from_millis(100), SimDuration::from_millis(500));
        let high = SimDuration::from_millis(150);
        g.observe(high, at(0));
        assert_eq!(g.verdict(at(10), Priority::Bulk), GateVerdict::Admit, "episode too young");
        g.observe(high, at(600));
        assert!(g.dropping());
        assert_eq!(g.verdict(at(610), Priority::Bulk), GateVerdict::ShedBulk);
        // a below-target sojourn exits immediately
        g.observe(SimDuration::from_millis(10), at(700));
        assert!(!g.dropping());
        assert_eq!(g.verdict(at(710), Priority::Bulk), GateVerdict::Admit);
    }

    #[test]
    fn severe_overload_sheds_everything_at_drop_instants() {
        let mut g = QueueGate::new(SimDuration::from_millis(100), SimDuration::from_millis(500));
        let huge = SimDuration::from_secs(5);
        for i in 0..20 {
            g.observe(huge, at(i * 200));
        }
        assert!(g.smoothed_sojourn_s() > 0.2);
        assert_eq!(g.verdict(at(4100), Priority::Interactive), GateVerdict::ShedAll);
    }
}
