//! Worst-case search over the candidate schedules and cliff shrinking.

use std::cmp::Ordering;

use edison_simfault::FaultPlan;
use edison_simrun::{Executor, RunError, SimError};
use edison_simtel::Telemetry;

use crate::metrics;
use crate::space::{candidates, PerturbSpace};

/// How much searching to do and how to derive the randomized tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreBudget {
    /// Total candidate schedules to evaluate, including the base. The
    /// exhaustive phases fill this first; seed-derived randomized
    /// schedules top it up.
    pub schedules: usize,
    /// Root seed for the randomized fill (`simexplore:rand` stream).
    pub seed: u64,
    /// Availability drop below the base schedule that counts as a cliff
    /// and triggers shrinking.
    pub cliff_drop: f64,
}

impl ExploreBudget {
    /// A budget with the default cliff threshold (5 points of
    /// availability below the base).
    pub fn new(schedules: usize, seed: u64) -> Self {
        ExploreBudget { schedules, seed, cliff_drop: 0.05 }
    }

    /// Override the cliff threshold.
    pub fn with_cliff_drop(mut self, drop: f64) -> Self {
        self.cliff_drop = drop;
        self
    }
}

/// What one schedule run scored: the two quantities the explorer
/// minimizes/maximizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleScore {
    /// Fraction of requests (or work units) that completed successfully.
    pub availability: f64,
    /// Worst single recovery time observed during the run, in seconds.
    pub worst_recovery_s: f64,
}

impl ScheduleScore {
    /// Strict "worse than" ordering: lower availability, ties broken
    /// toward longer worst recovery. `total_cmp` keeps the scan total
    /// (and deterministic) even if a runner produces NaN.
    pub fn worse_than(&self, other: &ScheduleScore) -> bool {
        match self.availability.total_cmp(&other.availability) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => {
                self.worst_recovery_s.total_cmp(&other.worst_recovery_s) == Ordering::Greater
            }
        }
    }
}

/// An availability cliff, shrunk to a minimal reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct Cliff {
    /// Availability drop of the worst schedule below the base.
    pub depth: f64,
    /// Minimal fault plan that still reproduces the cliff: no single
    /// fault can be removed without the drop disappearing.
    pub reproducer: FaultPlan,
    /// The reproducer as a `--fault-plan` spec string.
    pub spec: String,
    /// Removal probes the shrinker ran to reach the fixpoint.
    pub probes: usize,
}

/// The result of [`explore`]: base and worst scores, the worst schedule
/// itself, and the shrunk cliff when one was found.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOutcome {
    /// Total schedule runs (candidates plus shrink probes).
    pub schedules_run: usize,
    /// Score of the unperturbed base schedule (candidate 0).
    pub base: ScheduleScore,
    /// The base schedule, normalized (candidate 0's plan).
    pub base_plan: FaultPlan,
    /// Score of the worst schedule found (the base itself when nothing
    /// did worse).
    pub worst: ScheduleScore,
    /// Enumeration index of the worst schedule (0 = base).
    pub worst_index: usize,
    /// Enumeration phase that produced the worst schedule.
    pub worst_phase: &'static str,
    /// Human label of the worst schedule's perturbation.
    pub worst_label: String,
    /// The worst schedule, normalized.
    pub worst_plan: FaultPlan,
    /// The worst schedule as a `--fault-plan` spec string.
    pub worst_spec: String,
    /// Present when the worst schedule dropped availability at least
    /// `cliff_drop` below the base.
    pub cliff: Option<Cliff>,
}

/// Search the perturbation neighbourhood of `base` for the worst
/// schedule. Candidates are enumerated by [`candidates`], scored through
/// `exec` (input-ordered at any `--jobs` width — see the crate docs for
/// the determinism argument), and scanned for the strictly-worst score.
/// A candidate whose runner errors is counted (`outcome="error"`) and
/// skipped; an error on the base schedule is fatal since every
/// comparison anchors on it. When the worst schedule drops availability
/// by at least `budget.cliff_drop`, it is shrunk to a minimal
/// reproducer: removal probes walk fault indices in descending order,
/// keeping any removal that still reproduces the drop, until a full
/// pass removes nothing.
pub fn explore<F>(
    base: &FaultPlan,
    space: &PerturbSpace,
    budget: &ExploreBudget,
    exec: &Executor,
    tel: &mut Telemetry,
    runner: F,
) -> Result<ExploreOutcome, RunError>
where
    F: Fn(&FaultPlan) -> Result<ScheduleScore, SimError> + Sync,
{
    metrics::register_help(tel);
    let cands = candidates(base, space, budget);
    let scores = exec.sweep(
        "explore",
        &cands,
        tel,
        |i, c| format!("{i}:{}:{}", c.phase, c.label),
        |_, c| runner(&c.plan),
    )?;

    let mut schedules_run = 0usize;
    let mut base_score: Option<ScheduleScore> = None;
    let mut worst: Option<(usize, ScheduleScore)> = None;
    for (i, (cand, result)) in cands.iter().zip(scores).enumerate() {
        schedules_run += 1;
        match result {
            Ok(s) => {
                tel.counter_inc(
                    metrics::SCHEDULES_TOTAL,
                    &[("phase", cand.phase), ("outcome", "ok")],
                );
                if i == 0 {
                    base_score = Some(s);
                }
                let replace = match worst {
                    None => true,
                    Some((_, w)) => s.worse_than(&w),
                };
                if replace {
                    worst = Some((i, s));
                }
            }
            Err(e) => {
                tel.counter_inc(
                    metrics::SCHEDULES_TOTAL,
                    &[("phase", cand.phase), ("outcome", "error")],
                );
                if i == 0 {
                    return Err(e.into());
                }
            }
        }
    }
    // Candidate 0 is the base and a base error returned above, so both
    // are always present; the fallbacks keep the code panic-free.
    let base_score = base_score.unwrap_or(ScheduleScore { availability: 0.0, worst_recovery_s: 0.0 });
    let (worst_index, worst_score) = worst.unwrap_or((0, base_score));

    let depth = (base_score.availability - worst_score.availability).max(0.0);
    let worst_plan = cands[worst_index].plan.normalized();
    let cliff = if worst_score.availability <= base_score.availability - budget.cliff_drop {
        let (reproducer, probes) = shrink(&worst_plan, base_score, budget, tel, &runner);
        schedules_run += probes;
        let spec = reproducer.to_spec();
        Some(Cliff { depth, reproducer, spec, probes })
    } else {
        None
    };

    tel.gauge_set(metrics::CLIFF_DEPTH, &[], depth);
    tel.gauge_set(metrics::WORST_AVAILABILITY, &[], worst_score.availability);
    tel.gauge_set(metrics::WORST_RECOVERY_SECONDS, &[], worst_score.worst_recovery_s);
    if let (Some(first), Some(last)) = (worst_plan.faults().first(), worst_plan.faults().last()) {
        let track = tel.track_id("explore", "worst-schedule");
        tel.span_on(
            track,
            "explore",
            "worst-schedule",
            first.at,
            last.at.max(first.at + edison_simcore::time::SimDuration::from_millis(1)),
            &[
                ("phase", &cands[worst_index].phase),
                ("label", &cands[worst_index].label),
                ("availability", &format_args!("{:.4}", worst_score.availability)),
            ],
        );
    }

    Ok(ExploreOutcome {
        schedules_run,
        base: base_score,
        base_plan: base.normalized(),
        worst: worst_score,
        worst_index,
        worst_phase: cands[worst_index].phase,
        worst_label: cands[worst_index].label.clone(),
        worst_spec: worst_plan.to_spec(),
        worst_plan,
        cliff,
    })
}

/// Greedy delta-debugging shrink: repeatedly probe removing one fault at
/// a time (descending index, so indices below the probe stay stable
/// within a pass), keep any removal that still reproduces the cliff, and
/// stop when a full pass removes nothing. The result is 1-minimal — no
/// single remaining fault is removable. Probe errors count as "does not
/// reproduce" so a fragile removal never shrinks away the evidence.
fn shrink<F>(
    worst: &FaultPlan,
    base: ScheduleScore,
    budget: &ExploreBudget,
    tel: &mut Telemetry,
    runner: &F,
) -> (FaultPlan, usize)
where
    F: Fn(&FaultPlan) -> Result<ScheduleScore, SimError> + Sync,
{
    let threshold = base.availability - budget.cliff_drop;
    let mut current = worst.normalized();
    let mut probes = 0usize;
    loop {
        let mut removed = false;
        let mut idx = current.len();
        while idx > 0 {
            idx -= 1;
            if current.len() <= 1 {
                break;
            }
            let probe = current.without_fault(idx);
            probes += 1;
            match runner(&probe) {
                Ok(s) => {
                    tel.counter_inc(
                        metrics::SCHEDULES_TOTAL,
                        &[("phase", "shrink"), ("outcome", "ok")],
                    );
                    if s.availability <= threshold {
                        current = probe;
                        removed = true;
                    }
                }
                Err(_) => {
                    tel.counter_inc(
                        metrics::SCHEDULES_TOTAL,
                        &[("phase", "shrink"), ("outcome", "error")],
                    );
                }
            }
        }
        if !removed {
            break;
        }
    }
    (current, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{crashes_inside, PerturbSpace};
    use edison_simcore::time::{SimDuration, SimTime};
    use edison_simfault::RecoveryWindow;

    fn base_plan() -> FaultPlan {
        FaultPlan::new().crash_restart(0, SimTime::from_secs(4), SimDuration::from_secs(2))
    }

    fn window() -> RecoveryWindow {
        RecoveryWindow { node: 0, start: SimTime::from_secs(6), end: SimTime::from_secs(8) }
    }

    /// Synthetic scorer with a planted cliff: any crash strictly inside
    /// the recovery window halves availability.
    fn planted_runner(plan: &FaultPlan) -> Result<ScheduleScore, SimError> {
        if crashes_inside(plan, &window()) {
            Ok(ScheduleScore { availability: 0.50, worst_recovery_s: 9.0 })
        } else {
            Ok(ScheduleScore { availability: 0.95, worst_recovery_s: 2.0 })
        }
    }

    fn full_space() -> PerturbSpace {
        PerturbSpace::full(SimDuration::from_secs(1), vec![window()], vec![], SimDuration::from_secs(2))
    }

    #[test]
    fn finds_planted_cliff_and_shrinks_to_minimal_reproducer() {
        let budget = ExploreBudget::new(12, 42);
        let mut tel = Telemetry::on();
        let out = explore(
            &base_plan(),
            &full_space(),
            &budget,
            &Executor::serial(),
            &mut tel,
            planted_runner,
        )
        .expect("explore");
        assert_eq!(out.base.availability, 0.95);
        assert_eq!(out.worst.availability, 0.50);
        assert_eq!(out.worst_phase, "window");
        let cliff = out.cliff.expect("cliff");
        assert!((cliff.depth - 0.45).abs() < 1e-12);
        // minimal reproducer: only the window crash survives shrinking
        assert_eq!(cliff.reproducer.len(), 1);
        assert!(crashes_inside(&cliff.reproducer, &window()));
        assert!(cliff.spec.contains("crash"), "{}", cliff.spec);
        assert_eq!(FaultPlan::parse(&cliff.spec).expect("spec parses"), cliff.reproducer);
    }

    #[test]
    fn jobs_width_does_not_change_the_outcome() {
        let budget = ExploreBudget::new(16, 7);
        let mut tel1 = Telemetry::on();
        let mut tel8 = Telemetry::on();
        let a = explore(&base_plan(), &full_space(), &budget, &Executor::new(1), &mut tel1, planted_runner)
            .expect("jobs=1");
        let b = explore(&base_plan(), &full_space(), &budget, &Executor::new(8), &mut tel8, planted_runner)
            .expect("jobs=8");
        assert_eq!(a, b);
        assert_eq!(a.worst_spec, b.worst_spec);
    }

    #[test]
    fn no_cliff_when_nothing_beats_the_base() {
        let flat = |_: &FaultPlan| Ok(ScheduleScore { availability: 0.9, worst_recovery_s: 1.0 });
        let mut tel = Telemetry::on();
        let out = explore(
            &base_plan(),
            &PerturbSpace::timing_only(SimDuration::from_secs(1), 1),
            &ExploreBudget::new(6, 3),
            &Executor::serial(),
            &mut tel,
            flat,
        )
        .expect("explore");
        // every score ties; the scan keeps the lowest index — the base
        assert_eq!(out.worst_index, 0);
        assert_eq!(out.worst_phase, "base");
        assert!(out.cliff.is_none());
        assert_eq!(out.schedules_run, 6);
    }

    #[test]
    fn candidate_errors_are_skipped_but_base_error_is_fatal() {
        let fail_late = |plan: &FaultPlan| {
            if plan.faults().iter().any(|f| f.at > SimTime::from_secs(4)) && plan.len() > 2 {
                Err(SimError::Data("boom".to_string()))
            } else {
                Ok(ScheduleScore { availability: 0.9, worst_recovery_s: 1.0 })
            }
        };
        let mut tel = Telemetry::on();
        let out = explore(
            &base_plan(),
            &full_space(),
            &ExploreBudget::new(8, 1),
            &Executor::serial(),
            &mut tel,
            fail_late,
        )
        .expect("errors on non-base candidates are skipped");
        assert_eq!(out.worst_index, 0);

        let fail_all = |_: &FaultPlan| -> Result<ScheduleScore, SimError> {
            Err(SimError::Data("boom".to_string()))
        };
        let mut tel = Telemetry::on();
        let err = explore(
            &base_plan(),
            &full_space(),
            &ExploreBudget::new(4, 1),
            &Executor::serial(),
            &mut tel,
            fail_all,
        );
        assert!(err.is_err());
    }

    #[test]
    fn ties_on_availability_break_toward_longer_recovery() {
        let a = ScheduleScore { availability: 0.9, worst_recovery_s: 2.0 };
        let b = ScheduleScore { availability: 0.9, worst_recovery_s: 3.0 };
        assert!(b.worse_than(&a));
        assert!(!a.worse_than(&b));
        assert!(!a.worse_than(&a));
        let c = ScheduleScore { availability: 0.8, worst_recovery_s: 0.0 };
        assert!(c.worse_than(&a));
    }
}
