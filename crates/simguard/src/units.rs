//! Unit newtypes for deadline arithmetic.
//!
//! A [`Budget`] is a relative duration and a [`Deadline`] an absolute
//! instant, both over the simulator's native [`SimTime`]/[`SimDuration`],
//! so a budget cannot be compared with an instant by mistake. Budgets are
//! configured and reported in milliseconds (the paper's Table 7 /
//! Figure 10 axis); read one with `budget.get().as_millis_f64()`.
//! simlint's R8 dimensional pass treats both types as seconds.

use edison_simcore::time::{SimDuration, SimTime};

/// A per-request deadline *budget*: how much wall (sim) time the request
/// may spend end to end. `Budget::ZERO` means "no deadline" — guard
/// logic treats it as a byte-identical no-op, never as "already late".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Budget(SimDuration);

impl Budget {
    /// The disabled budget: no deadline is ever derived from it.
    pub const ZERO: Budget = Budget(SimDuration::ZERO);

    /// Wrap a duration as a budget.
    pub const fn new(d: SimDuration) -> Self {
        Budget(d)
    }

    /// A budget of whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Budget(SimDuration::from_millis(ms))
    }

    /// True when deadlines are disabled.
    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// The underlying duration.
    pub fn get(self) -> SimDuration {
        self.0
    }

    /// The absolute deadline for a request sent at `start`, or `None`
    /// when the budget is disabled.
    pub fn deadline_from(self, start: SimTime) -> Option<Deadline> {
        if self.is_zero() {
            None
        } else {
            Some(Deadline(start + self.0))
        }
    }
}

/// An absolute per-request deadline instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(SimTime);

impl Deadline {
    /// The deadline instant itself.
    pub fn at(self) -> SimTime {
        self.0
    }

    /// True once `now` is past the deadline.
    pub fn passed(self, now: SimTime) -> bool {
        now > self.0
    }

    /// Time left before the deadline (zero once passed).
    pub fn remaining(self, now: SimTime) -> SimDuration {
        self.0.saturating_since(now)
    }

    /// True when less than `reserve` is left — the request cannot afford
    /// a leg estimated to cost `reserve` and should degrade instead.
    pub fn cannot_afford(self, now: SimTime, reserve: SimDuration) -> bool {
        self.remaining(now) < reserve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_never_becomes_a_deadline() {
        assert!(Budget::ZERO.deadline_from(SimTime::from_secs(5)).is_none());
        assert!(Budget::default().is_zero());
    }

    #[test]
    fn deadline_arithmetic() {
        let b = Budget::from_millis(1500);
        let d = b.deadline_from(SimTime::from_secs(10)).unwrap();
        assert!(!d.passed(SimTime::from_secs(11)));
        assert!(d.passed(SimTime::from_secs(12)));
        assert_eq!(d.remaining(SimTime::from_secs(11)), SimDuration::from_millis(500));
        assert!(d.cannot_afford(SimTime::from_secs(11), SimDuration::from_secs(1)));
        assert!(!d.cannot_afford(SimTime::from_secs(11), SimDuration::from_millis(400)));
        // passed ⇒ remaining saturates to zero, never negative
        assert_eq!(d.remaining(SimTime::from_secs(20)), SimDuration::ZERO);
    }

    #[test]
    fn scale_conversions_round_trip() {
        let b = Budget::from_millis(250);
        assert_eq!(b.get(), SimDuration::from_millis(250));
        assert!((b.get().as_millis_f64() - 250.0).abs() < 1e-9);
        assert!((b.get().as_secs_f64() - 0.25).abs() < 1e-12);
    }
}
