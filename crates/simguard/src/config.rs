//! Guard configuration and priority classing.

use crate::units::Budget;
use edison_simcore::rng::SimRng;
use edison_simcore::time::SimDuration;
use edison_simrun::derive_seed;

/// Priority class of a connection. Drawn once per connection from a
/// derived seed ([`class_of`]) so classing never perturbs the workload
/// RNG stream: a guarded run with shedding disabled stays byte-identical
/// to an unguarded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive foreground traffic: shed last, degraded only
    /// when its own deadline is at risk.
    Interactive,
    /// Background/bulk traffic: first to shed, always degraded during a
    /// brownout.
    Bulk,
}

/// Full overload-protection configuration of one tier.
///
/// Every feature is individually zero-disabled; [`GuardConfig::off`]
/// (the default) disables them all, and the hosting world must treat
/// that as a byte-identical no-op — no counters, no telemetry, no state.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Per-request end-to-end deadline budget (`Budget::ZERO` = off).
    /// Propagates from the first SYN through every lifecycle stage.
    pub deadline: Budget,
    /// Reserved time a MySQL leg is assumed to need: a request whose
    /// remaining budget is below this degrades instead of querying.
    pub db_reserve: SimDuration,
    /// Circuit breaker: consecutive failures before a backend's breaker
    /// opens (0 = breakers off).
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before probing half-open.
    pub breaker_cooldown: SimDuration,
    /// Concurrent half-open probe connections per backend.
    pub breaker_probes: u32,
    /// Fraction of connections eligible as half-open probes
    /// (derived-seed draw, see [`probe_eligible`]).
    pub probe_ratio: f64,
    /// LB admission token-bucket rate, connections/s (0 = bucket off).
    pub admit_rate: f64,
    /// Token-bucket burst capacity, connections.
    pub admit_burst: f64,
    /// CoDel-style queue-delay target: sojourn above this for a full
    /// interval starts shedding (`ZERO` = gate off).
    pub queue_target: SimDuration,
    /// CoDel interval (how long above-target sojourn is tolerated).
    pub queue_interval: SimDuration,
    /// Brownout enter threshold on the smoothed queue delay
    /// (`ZERO` = brownout off).
    pub brownout_enter: SimDuration,
    /// Brownout exit threshold (hysteresis; must be < enter).
    pub brownout_exit: SimDuration,
    /// Fraction of connections classed [`Priority::Bulk`].
    pub shed_ratio: f64,
}

impl GuardConfig {
    /// Everything off: the hosting world must be byte-identical to a
    /// world with no guard at all.
    pub fn off() -> Self {
        GuardConfig {
            deadline: Budget::ZERO,
            db_reserve: SimDuration::ZERO,
            breaker_threshold: 0,
            breaker_cooldown: SimDuration::ZERO,
            breaker_probes: 0,
            probe_ratio: 0.0,
            admit_rate: 0.0,
            admit_burst: 0.0,
            queue_target: SimDuration::ZERO,
            queue_interval: SimDuration::ZERO,
            brownout_enter: SimDuration::ZERO,
            brownout_exit: SimDuration::ZERO,
            shed_ratio: 0.0,
        }
    }

    /// The web tier's reference guard: 1.5 s deadlines (mid Figure-10
    /// axis), 50 ms reserved for the MySQL leg, 5-failure breakers with
    /// 3 s cooldowns and 2 probe slots, a 100 ms CoDel gate, and a
    /// 250/50 ms brownout band shedding half the traffic as bulk.
    /// `admit_rate` is left off — callers size it to scenario capacity.
    pub fn web_defaults() -> Self {
        GuardConfig {
            deadline: Budget::from_millis(1500),
            db_reserve: SimDuration::from_millis(50),
            breaker_threshold: 5,
            breaker_cooldown: SimDuration::from_secs(3),
            breaker_probes: 2,
            probe_ratio: 0.25,
            admit_rate: 0.0,
            admit_burst: 0.0,
            queue_target: SimDuration::from_millis(100),
            queue_interval: SimDuration::from_millis(500),
            brownout_enter: SimDuration::from_millis(250),
            brownout_exit: SimDuration::from_millis(50),
            shed_ratio: 0.5,
        }
    }

    /// True when any guard feature is enabled. Behaviour needs no gate:
    /// every part is inert at its zero value, so the hosting world runs
    /// one path. Gate on this only the guard accounting and telemetry,
    /// so `off()` runs export no guard series and stay byte-identical.
    pub fn is_active(&self) -> bool {
        !self.deadline.is_zero()
            || self.breaker_threshold > 0
            || self.admit_rate > 0.0
            || !self.queue_target.is_zero()
            || !self.brownout_enter.is_zero()
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig::off()
    }
}

/// Priority class of connection `conn` — a pure function of the run
/// seed, the connection id and the configured bulk fraction.
pub fn class_of(seed: u64, conn: u64, shed_ratio: f64) -> Priority {
    if shed_ratio <= 0.0 {
        return Priority::Interactive;
    }
    let mut rng = SimRng::new(derive_seed(seed, "guard:class", conn));
    if rng.chance(shed_ratio) {
        Priority::Bulk
    } else {
        Priority::Interactive
    }
}

/// Whether connection `conn` may serve as a half-open breaker probe —
/// a pure function of the run seed and the connection id, so probe
/// selection is independent of event-arrival order.
pub fn probe_eligible(seed: u64, conn: u64, probe_ratio: f64) -> bool {
    if probe_ratio <= 0.0 {
        return false;
    }
    let mut rng = SimRng::new(derive_seed(seed, "guard:probe", conn));
    rng.chance(probe_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inactive_and_defaults_active() {
        assert!(!GuardConfig::off().is_active());
        assert!(!GuardConfig::default().is_active());
        assert!(GuardConfig::web_defaults().is_active());
    }

    #[test]
    fn each_feature_alone_activates() {
        let mut g = GuardConfig::off();
        g.deadline = Budget::from_millis(100);
        assert!(g.is_active());
        let mut g = GuardConfig::off();
        g.breaker_threshold = 1;
        assert!(g.is_active());
        let mut g = GuardConfig::off();
        g.admit_rate = 10.0;
        assert!(g.is_active());
        let mut g = GuardConfig::off();
        g.queue_target = SimDuration::from_millis(10);
        assert!(g.is_active());
        let mut g = GuardConfig::off();
        g.brownout_enter = SimDuration::from_millis(10);
        assert!(g.is_active());
    }

    #[test]
    fn classing_is_deterministic_and_ratio_bounded() {
        let a = class_of(42, 7, 0.5);
        assert_eq!(a, class_of(42, 7, 0.5), "same seed/conn ⇒ same class");
        assert_eq!(class_of(42, 7, 0.0), Priority::Interactive);
        let bulk =
            (0..1000).filter(|&c| class_of(42, c, 0.5) == Priority::Bulk).count();
        assert!((350..650).contains(&bulk), "≈half bulk, got {bulk}");
        assert!(!probe_eligible(42, 7, 0.0));
        assert_eq!(probe_eligible(42, 7, 0.25), probe_eligible(42, 7, 0.25));
    }
}
