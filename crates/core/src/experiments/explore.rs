//! `explore` — systematic fault-interleaving exploration over the web
//! tier (the simexplore tentpole as a runnable experiment).
//!
//! The hand-written `fault_sweep` schedules are polite: crash, wait,
//! restart, with everything spaced out. This experiment asks what the
//! *worst* nearby schedule looks like. It plays a base crash/restart
//! plan against the brawny Dell pair (where losing one of two nodes is
//! exactly where schedule timing bites), observes the recovery window
//! the run reports (restart applied → back in LB rotation), and hands
//! base plan + observed windows to [`edison_simexplore::explore`]: start
//! jitter, pairwise reorders, and follow-up crashes probed *inside* the
//! recovery window, up to `--explore-budget` schedules. A schedule that
//! drops availability off a cliff is delta-debugged down to a minimal
//! reproducer and emitted as a `--fault-plan` spec, so the finding is a
//! one-flag rerun, not a prose description.
//!
//! With `--guard` the whole exploration plays against a tier running the
//! reference overload guard at a load near the pair's knee: the crash
//! trips node 0's circuit breaker, the observation run reports the
//! breaker's half-open window, and the explorer gains a "halfopen" probe
//! phase — follow-up crashes landed inside that window, hunting for
//! breaker-flap / shed-storm cliffs the polite base plan misses.
//!
//! Determinism: the base observation run, candidate enumeration, sweep
//! scoring, and shrinking are all pure functions of the budget and the
//! root seed — `repro explore` prints byte-identical reports at any
//! `--jobs` width (pinned by `tests/explore_gate.rs`).

use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simexplore::{explore, ExploreBudget, ExploreOutcome, PerturbSpace, ScheduleScore};
use edison_simfault::{FaultPlan, RecoveryWindow};
use edison_simrun::{derive_seed_at, Executor, RunError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::scenario::DEFAULT_RETRY_BUDGET;
use edison_web::stack::{run, Metrics};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// The base schedule explored when no `--fault-plan` override is given:
/// one polite crash/restart of node 0 early in the window — the kind of
/// plan a person writes by hand, and exactly the kind that misses the
/// recovery-window cliff.
fn base_plan(budget: &RunBudget) -> FaultPlan {
    let warmup = budget.web_warmup_s as f64;
    let measure = budget.web_measure_s as f64;
    let at = SimTime::from_secs_f64(warmup + measure * 0.15);
    FaultPlan::new().crash_restart(0, at, SimDuration::from_secs_f64((measure / 4.0).max(3.0)))
}

/// Score one candidate schedule: availability plus the worst single
/// recovery observed.
fn score(m: &Metrics) -> ScheduleScore {
    ScheduleScore {
        availability: m.availability(),
        worst_recovery_s: if m.recovery_s.is_empty() { 0.0 } else { m.recovery_s.max() },
    }
}

/// The full exploration, returned with its observed recovery windows and
/// (for `--guard` runs) circuit-breaker half-open windows, so the gate
/// test can assert on the machinery (the experiment wrapper below only
/// renders them).
pub fn run_explore(
    budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<(ExploreOutcome, Vec<RecoveryWindow>, Vec<RecoveryWindow>), RunError> {
    // The explored platform: the Dell pair at the paper's 1024-connection
    // load. One crashed node halves the tier, so availability is sharply
    // sensitive to *when* the second fault lands — the cliff the explorer
    // is built to find. (Edison's 24-way tier shrugs off the same probe.)
    let scenario = WebScenario::table6_or_err(Platform::Dell, ClusterScale::Full)?;
    // Guarded exploration runs hotter — near the pair's saturation knee —
    // so the crash strands enough in-flight requests on the dead node to
    // trip the reference breaker; the observed half-open windows then
    // become probe targets for the explorer's "halfopen" phase below.
    let cps = if budget.guard { 1400.0 } else { 1024.0 };
    let seed = derive_seed_at(ROOT_SEED, "explore", 0);
    let mut cfg = budget.web_point(scenario, WorkloadMix::lightest(), cps, seed);
    cfg.retry_budget = DEFAULT_RETRY_BUDGET;
    if budget.guard {
        cfg.guard = crate::experiments::overload::reference_guard(budget);
    }
    let plan = match &budget.fault_plan {
        Some(custom) => custom.clone(),
        None => base_plan(budget),
    };

    // observation run: play the base schedule once and record where the
    // recovery window (restart applied -> back in rotation) and, when
    // guarded, the breaker half-open windows actually lay
    let mut obs_cfg = cfg.clone();
    obs_cfg.fault_plan = plan.clone();
    let obs = run(obs_cfg).metrics;
    let windows = obs.recovery_windows;
    let halfopen = obs.guard.breaker_windows;

    // every web node is a probe target: the cliff is a crash of a
    // *healthy* node while the window's node is still out of rotation
    let probe_nodes: Vec<usize> = (0..cfg.scenario.web_servers).collect();
    let space = PerturbSpace::full(
        SimDuration::from_secs(1),
        windows.clone(),
        probe_nodes,
        SimDuration::from_secs_f64((budget.web_measure_s as f64 / 4.0).max(3.0)),
    )
    .with_halfopen_windows(halfopen.clone());
    // cliff threshold: a full availability point below the (near-100%)
    // base. The worst interleaving blacks out dispatch for ~the RISE
    // window — a second or two of a multi-second measure window — which
    // lands at 1.5–2.5 points here; polite schedules stay at ~100%.
    let xbudget = ExploreBudget::new(budget.explore_budget, ROOT_SEED).with_cliff_drop(0.01);
    let outcome = explore(&plan, &space, &xbudget, exec, tel, |candidate| {
        let mut c = cfg.clone();
        c.fault_plan = candidate.clone();
        Ok(score(&run(c).metrics))
    })?;
    Ok((outcome, windows, halfopen))
}

/// Registry entry: run the exploration and render base vs worst, the
/// worst schedule's spec, and the shrunk reproducer when a cliff fired.
pub fn explore_experiment(
    budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<Report, RunError> {
    let (outcome, windows, halfopen) = run_explore(budget, exec, tel)?;
    let rows = vec![
        vec![
            "base".to_string(),
            format!("{:.2}%", outcome.base.availability * 100.0),
            format!("{:.2}", outcome.base.worst_recovery_s),
            "-".to_string(),
        ],
        vec![
            "worst".to_string(),
            format!("{:.2}%", outcome.worst.availability * 100.0),
            format!("{:.2}", outcome.worst.worst_recovery_s),
            format!("{} ({})", outcome.worst_phase, outcome.worst_label),
        ],
    ];
    let mut body = table(&["schedule", "avail", "wc rec s", "found by"], &rows);
    body.push_str(&format!(
        "\nschedules evaluated: {} (budget {})\n",
        outcome.schedules_run, budget.explore_budget
    ));
    for w in &windows {
        body.push_str(&format!(
            "observed recovery window: node {} [{:.2}s, {:.2}s]\n",
            w.node,
            w.start.as_secs_f64(),
            w.end.as_secs_f64()
        ));
    }
    for w in &halfopen {
        body.push_str(&format!(
            "observed breaker half-open window: node {} [{:.2}s, {:.2}s]\n",
            w.node,
            w.start.as_secs_f64(),
            w.end.as_secs_f64()
        ));
    }
    body.push_str("\nworst schedule (--fault-plan spec):\n");
    body.push_str(&outcome.worst_spec);
    match &outcome.cliff {
        Some(cliff) => {
            body.push_str(&format!(
                "\navailability cliff: {:.1} points below base ({} shrink probes)\n",
                cliff.depth * 100.0,
                cliff.probes
            ));
            body.push_str(&format!(
                "minimal reproducer ({} fault{}):\n",
                cliff.reproducer.len(),
                if cliff.reproducer.len() == 1 { "" } else { "s" }
            ));
            body.push_str(&cliff.spec);
        }
        None => body.push_str("\nno availability cliff within the explored neighbourhood\n"),
    }
    Ok(Report {
        id: "explore".into(),
        title: "Worst-case fault-schedule exploration with shrunk reproducers".into(),
        body,
        comparisons: vec![Comparison::new(
            "worst-case availability relative to base (<1 ⇒ a worse schedule exists)",
            1.0,
            outcome.worst.availability / outcome.base.availability.max(1e-9),
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_plan_is_a_polite_early_crash_restart() {
        let b = RunBudget::quick();
        let p = base_plan(&b);
        assert_eq!(p.len(), 2);
        assert_eq!(p, base_plan(&b), "pure function of the budget");
        // lands inside the window with room for recovery before the end
        let window_end = SimTime::from_secs(b.web_warmup_s + b.web_measure_s);
        assert!(p.faults()[0].at < window_end);
    }
}
