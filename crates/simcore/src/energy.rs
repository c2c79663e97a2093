//! Exact integration of piecewise-constant signals over simulated time.
//!
//! The paper's headline metric is *work-done-per-joule*; every cluster
//! experiment integrates each node's power draw (a piecewise-constant
//! function of utilisation) into joules. [`StepIntegrator`] does this
//! exactly: the caller calls [`set`](StepIntegrator::set) whenever the value
//! changes, and reads the running integral at any instant.

use crate::time::SimTime;

/// Integrates a piecewise-constant signal v(t).
///
/// Its one use is power: `v` is a node's draw in watts and the integral
/// is its energy in joules (`cluster::node`).
#[derive(Debug, Clone)]
pub struct StepIntegrator {
    last_t: SimTime,
    value: f64,
    integral: f64,
    /// When `Some`, every *change* of the signal is appended as a step point
    /// `(t, new_value)` — the raw material for the Figure 12–17 power
    /// timelines and the telemetry power timeseries. `None` (the default)
    /// costs one branch per `set`.
    trace: Option<Vec<(SimTime, f64)>>,
}

impl StepIntegrator {
    /// Start at time `t0` with initial value `v0`.
    ///
    /// Panics in debug builds if `v0` is not finite — a NaN/∞ integrand
    /// would silently poison every joule figure downstream.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        debug_assert!(v0.is_finite(), "non-finite integrand {v0}");
        StepIntegrator { last_t: t0, value: v0, integral: 0.0, trace: None }
    }

    /// Start recording the step trace; the current `(t, value)` becomes the
    /// first point. Idempotent.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(vec![(self.last_t, self.value)]);
        }
    }

    /// The recorded step points `(t, value)`; empty unless
    /// [`enable_trace`](Self::enable_trace) was called. Consecutive points
    /// always differ in value (redundant `set`s are collapsed).
    pub fn trace(&self) -> &[(SimTime, f64)] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Update the signal to `v` at time `now`, accumulating the segment
    /// since the previous change.
    ///
    /// Panics in debug builds if time runs backwards or `v` is not finite.
    #[inline]
    pub fn set(&mut self, now: SimTime, v: f64) {
        debug_assert!(
            now >= self.last_t,
            "integrator time went backwards: {now} < {}",
            self.last_t
        );
        debug_assert!(v.is_finite(), "non-finite integrand {v}");
        self.integral += self.value * now.saturating_since(self.last_t).as_secs_f64();
        if v != self.value {
            if let Some(tr) = &mut self.trace {
                // Same-instant re-set: the later value supersedes the step.
                if tr.last().is_some_and(|&(lt, _)| lt == now) {
                    let i = tr.len() - 1;
                    tr[i].1 = v;
                    // If the rewrite restored the previous value, the step
                    // vanished entirely; drop it to keep neighbours distinct.
                    if i > 0 && tr[i - 1].1 == v {
                        tr.pop();
                    }
                } else {
                    tr.push((now, v));
                }
            }
        }
        self.last_t = now;
        self.value = v;
    }

    /// The integral up to `now`, without changing the signal.
    pub fn integral_at(&self, now: SimTime) -> f64 {
        debug_assert!(now >= self.last_t);
        self.integral + self.value * now.saturating_since(self.last_t).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn constant_signal_integrates_linearly() {
        let p = StepIntegrator::new(t(0.0), 52.0); // Dell idle watts
        assert!((p.integral_at(t(10.0)) - 520.0).abs() < 1e-9);
    }

    #[test]
    fn steps_accumulate() {
        // idle 1s at 52 W, busy 2s at 109 W, idle 1s at 52 W (Dell endpoints)
        let mut p = StepIntegrator::new(t(0.0), 52.0);
        p.set(t(1.0), 109.0);
        p.set(t(3.0), 52.0);
        let j = p.integral_at(t(4.0));
        assert!((j - (52.0 + 218.0 + 52.0)).abs() < 1e-9);
    }

    #[test]
    fn redundant_sets_are_harmless() {
        let mut p = StepIntegrator::new(t(0.0), 5.0);
        p.set(t(1.0), 5.0);
        p.set(t(1.0), 5.0);
        assert!((p.integral_at(t(2.0)) - 10.0).abs() < 1e-12);
    }

    /// The determinism/unit-safety contract: a backwards `set` is a bug in
    /// the caller's event ordering and must be caught loudly in debug
    /// builds (release builds saturate to a zero-length segment).
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "integrator time went backwards"))]
    fn backwards_time_is_caught_in_debug() {
        let mut p = StepIntegrator::new(t(5.0), 1.0);
        p.set(t(4.0), 2.0);
        // Release builds fall through: the backwards segment contributes 0 J.
        assert_eq!(p.integral_at(t(5.0)), 0.0 + 2.0 * 1.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite integrand"))]
    fn non_finite_integrand_is_caught_in_debug() {
        let mut p = StepIntegrator::new(t(0.0), 1.0);
        p.set(t(1.0), f64::NAN);
        assert!(p.integral_at(t(2.0)).is_nan());
    }

    #[test]
    fn trace_records_value_changes_only() {
        let mut p = StepIntegrator::new(t(0.0), 5.0);
        p.enable_trace();
        p.enable_trace(); // idempotent
        p.set(t(1.0), 5.0); // redundant, collapsed
        p.set(t(2.0), 9.0);
        p.set(t(2.0), 11.0); // same-instant re-set supersedes
        p.set(t(3.0), 11.0); // redundant
        p.set(t(4.0), 5.0);
        assert_eq!(
            p.trace(),
            &[(t(0.0), 5.0), (t(2.0), 11.0), (t(4.0), 5.0)]
        );
        // Integral unaffected by tracing: 2s@5 + 2s@11 = 32 up to t=4.
        assert!((p.integral_at(t(4.0)) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn trace_same_instant_revert_drops_step() {
        let mut p = StepIntegrator::new(t(0.0), 5.0);
        p.enable_trace();
        p.set(t(1.0), 9.0);
        p.set(t(1.0), 5.0); // reverted within the same instant
        assert_eq!(p.trace(), &[(t(0.0), 5.0)]);
    }

    #[test]
    fn trace_disabled_is_empty() {
        let mut p = StepIntegrator::new(t(0.0), 1.0);
        p.set(t(1.0), 2.0);
        assert!(p.trace().is_empty());
    }

    /// Mean value of the signal over `[t0, now]`; the current value when
    /// no time has elapsed.
    fn mean_over(p: &StepIntegrator, t0: SimTime, now: SimTime) -> f64 {
        let span = now.saturating_since(t0).as_secs_f64();
        if span <= 0.0 {
            p.value
        } else {
            p.integral_at(now) / span
        }
    }

    #[test]
    fn mean_over_window() {
        let mut p = StepIntegrator::new(t(0.0), 0.0);
        p.set(t(5.0), 10.0);
        // 5s at 0 + 5s at 10 → mean 5 over [0,10]
        assert!((mean_over(&p, t(0.0), t(10.0)) - 5.0).abs() < 1e-9);
        // zero-width window returns current value
        assert_eq!(mean_over(&p, t(10.0), t(10.0)), 10.0);
    }
}
