//! Fault experiments: the graceful-degradation sweep (`fault_sweep`) and
//! the deliberate-failure demonstration (`fault_demo`).
//!
//! `fault_sweep` is the quantitative form of the paper's Introduction
//! advantage 2: it plays a deterministic crash/restart schedule (or a
//! custom `--fault-plan` file) against the web tier of both platforms and
//! reports availability, p99 delay, failovers, recovery time, and
//! work-done-per-joule per fault intensity. Injected-and-recovered faults
//! are *expected* outcomes: they never surface as `RunError`, so exit
//! code 3 stays reserved for genuine harness failures.
//!
//! `fault_demo`: one sweep point panics by design. The run layer's
//! guarantees are visible end-to-end: the executor isolates the crash,
//! the sibling points still complete (their outcome counters land in
//! telemetry), and the experiment surfaces [`RunError::PointFailed`]
//! naming the point — which `repro fault_demo` renders as a readable
//! error and exit code 3 instead of an aborted process. Excluded from
//! `repro --all`.

use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simexplore::{candidates, ExploreBudget, PerturbSpace};
use edison_simfault::FaultPlan;
use edison_simrun::{derive_seed_at, Executor, RunError, SimError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::scenario::DEFAULT_RETRY_BUDGET;
use edison_web::stack::{run, run_traced, Metrics, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// One sweep point: a platform at a fault intensity (web servers crashed
/// mid-window).
type SweepPoint = (Platform, u32);

/// The built-in intensity ladder: crash web servers `0..k` staggered
/// across the measurement window, each down for a quarter window. The
/// schedule is pure function-of-inputs, so the sweep is deterministic at
/// any `--jobs` width.
fn ladder_plan(k: u32, budget: &RunBudget) -> FaultPlan {
    let warmup = budget.web_warmup_s as f64;
    let measure = budget.web_measure_s as f64;
    // long enough for the LB's 2-check FALL window to notice, early enough
    // that the RISE re-admission (the recovery sample) lands in-window
    let outage = SimDuration::from_secs_f64((measure / 4.0).max(3.0));
    let mut plan = FaultPlan::new();
    for n in 0..k {
        let at = SimTime::from_secs_f64(warmup + measure * 0.10 * f64::from(n));
        plan = plan.crash_restart(usize::try_from(n).unwrap_or(usize::MAX), at, outage);
    }
    plan
}

/// Web-tier config for one sweep point. Quick budgets run the quarter- /
/// full-scale pair (CI-sized clusters); `--full` runs both platforms at
/// Table 6 full scale under the paper's 1024-connection load.
fn sweep_cfg(
    platform: Platform,
    budget: &RunBudget,
    seed: u64,
) -> Result<StackConfig, SimError> {
    let (scale, conc) = if budget.full_scalability {
        (ClusterScale::Full, 1024.0)
    } else {
        match platform {
            // quarter cluster under a quarter of the paper's 1024-conn load
            Platform::Edison => (ClusterScale::Quarter, 256.0),
            // the Dell pair is already CI-sized; keep the full 1024-conn
            // load so losing one of two nodes actually bites (at 256 the
            // survivor absorbs the whole load and the comparison inverts)
            Platform::Dell => (ClusterScale::Full, 1024.0),
        }
    };
    let scenario = WebScenario::table6_or_err(platform, scale)?;
    let mut cfg = budget.web_point(scenario, WorkloadMix::lightest(), conc, seed);
    cfg.retry_budget = DEFAULT_RETRY_BUDGET;
    if budget.guard {
        // `repro fault_sweep --guard`: crash schedules against a guarded
        // tier — breakers trip on the dead backend and overflow retries
        // become distinguishable from dead-backend ones in the table
        cfg.guard = crate::experiments::overload::reference_guard(budget);
    }
    Ok(cfg)
}

/// The plan a point plays: intensity 0 is always fault-free; positive
/// intensities play the `--fault-plan` override when one was given, else
/// the built-in ladder.
fn point_plan(k: u32, budget: &RunBudget) -> FaultPlan {
    if k == 0 {
        return FaultPlan::new();
    }
    match &budget.fault_plan {
        Some(custom) => custom.clone(),
        None => ladder_plan(k, budget),
    }
}

/// Sweep fault intensity × platform over the web tier and report
/// availability, p99 delay, failover/recovery behaviour, and
/// work-done-per-joule. The paper's §1 claim in numbers: one crashed node
/// costs the wimpy cluster a sliver of capacity and the brawny cluster a
/// large bite.
///
/// Every faulted row additionally reports *worst-case* availability and
/// recovery next to the mean: a timing-only simexplore neighbourhood
/// (start jitter around each fault, capped at the `--explore-budget`
/// schedule count) runs through the same sweep, and the row-worst is
/// taken over the hand-written schedule plus its perturbations. The
/// flattened (row, candidate) list goes through a single `exec.sweep`
/// call, so the whole thing stays input-ordered and byte-identical at
/// any `--jobs` width.
pub fn fault_sweep(
    budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<Report, RunError> {
    let max_k = if budget.fault_plan.is_some() { 1 } else { 2 };
    let mut points: Vec<SweepPoint> = Vec::new();
    for k in 0..=max_k {
        points.push((Platform::Edison, k));
    }
    for k in 0..=max_k.min(1) {
        points.push((Platform::Dell, k));
    }
    let window = budget.web_measure_s as f64;
    // flatten (row, candidate): candidate 0 is always the row's own plan,
    // so the mean columns are untouched by the worst-case machinery
    let space = PerturbSpace::timing_only(SimDuration::from_secs(1), 1);
    let xbudget = ExploreBudget::new(budget.explore_budget, ROOT_SEED);
    let mut flat: Vec<(usize, usize, FaultPlan)> = Vec::new();
    for (i, &(_p, k)) in points.iter().enumerate() {
        let plan = point_plan(k, budget);
        if k == 0 {
            flat.push((i, 0, plan.normalized()));
        } else {
            for (ci, c) in candidates(&plan, &space, &xbudget).into_iter().enumerate() {
                flat.push((i, ci, c.plan));
            }
        }
    }
    let flat_results = exec.sweep(
        "fault_sweep",
        &flat,
        tel,
        |_, (pi, ci, _)| {
            let (p, k) = points[*pi];
            format!("{p:?}x{k}c{ci}")
        },
        |_, (pi, _ci, plan)| -> Result<Metrics, SimError> {
            // the workload seed is per-row: candidates of a row differ
            // only in their fault schedule, never in offered load
            let seed = derive_seed_at(ROOT_SEED, "fault_sweep", *pi);
            let mut cfg = sweep_cfg(points[*pi].0, budget, seed)?;
            cfg.fault_plan = plan.clone();
            Ok(run(cfg).metrics)
        },
    )?;
    // regroup by row, preserving candidate order (flat is row-major)
    let mut results: Vec<Vec<Metrics>> = (0..points.len()).map(|_| Vec::new()).collect();
    for ((pi, _, _), r) in flat.iter().zip(flat_results) {
        results[*pi].push(r?);
    }
    if tel.is_on() {
        // trace the Edison single-crash run — the row the recovery
        // histogram and failover counters in the export come from
        let idx = points
            .iter()
            .position(|&(p, k)| p == Platform::Edison && k == 1)
            .unwrap_or(0);
        let mut cfg = sweep_cfg(
            Platform::Edison,
            budget,
            derive_seed_at(ROOT_SEED, "fault_sweep", idx),
        )?;
        cfg.fault_plan = point_plan(1, budget);
        let mut world = run_traced(cfg, tel.child());
        tel.merge(world.take_telemetry());
    }

    let mut rows = Vec::new();
    let mut healthy_rps = [0.0f64; 2]; // [Edison, Dell]
    let mut one_crash_rps = [0.0f64; 2];
    for (&(platform, k), mut cand_metrics) in points.iter().zip(results) {
        // row-worst across the schedule and its timing perturbations:
        // lowest availability, longest single recovery
        let wc_avail = cand_metrics
            .iter()
            .map(Metrics::availability)
            .fold(f64::INFINITY, |a, b| if b.total_cmp(&a).is_lt() { b } else { a });
        let wc_recovery = cand_metrics
            .iter()
            .filter(|c| !c.recovery_s.is_empty())
            .map(|c| c.recovery_s.max())
            .fold(f64::NEG_INFINITY, |a, b| if b.total_cmp(&a).is_gt() { b } else { a });
        let m = &mut cand_metrics[0]; // the row's own (unperturbed) schedule
        let rps = m.completed as f64 / window;
        let pi = usize::from(platform == Platform::Dell);
        if k == 0 {
            healthy_rps[pi] = rps;
        } else if k == 1 {
            one_crash_rps[pi] = rps;
        }
        let label = match (&budget.fault_plan, k) {
            (_, 0) => "none".to_string(),
            (Some(_), _) => "custom".to_string(),
            (None, k) => format!("{k} crash"),
        };
        rows.push(vec![
            format!("{platform:?}"),
            label,
            format!("{rps:.0}"),
            format!("{:.2}%", m.availability() * 100.0),
            format!("{:.2}%", wc_avail * 100.0),
            format!("{:.1}", m.delays_ms.percentile(99.0)),
            format!("{}", m.failovers),
            format!("{}/{}", m.retry_dead_total, m.retry_overflow_total),
            if m.recovery_s.is_empty() { "-".into() } else { format!("{:.2}", m.recovery_s.mean()) },
            if wc_recovery.is_finite() { format!("{wc_recovery:.2}") } else { "-".into() },
            format!("{:.1}", m.requests_per_joule()),
        ]);
    }
    let body = table(
        &[
            "platform",
            "faults",
            "req/s",
            "avail",
            "wc avail",
            "p99 ms",
            "failovers",
            "retries d/o",
            "recovery s",
            "wc rec s",
            "req/J",
        ],
        &rows,
    );
    let edison_retention = one_crash_rps[0] / healthy_rps[0].max(1e-9);
    let dell_retention = one_crash_rps[1] / healthy_rps[1].max(1e-9);
    let edison_loss = (1.0 - edison_retention).max(1e-6);
    let dell_loss = (1.0 - dell_retention).max(1e-6);
    Ok(Report {
        id: "fault_sweep".into(),
        title: "Availability & efficiency under fault intensity × platform".into(),
        body,
        comparisons: vec![
            Comparison::new(
                "Edison 1-crash throughput retention (recovery ⇒ near 1)",
                0.95,
                edison_retention,
            ),
            // expected value is the node-share argument (§1): one crash takes
            // 1/2 of the Dell pair but only 1/24 of the full Edison tier
            Comparison::new("Dell loss / Edison loss (≫1 expected, §1)", 12.0, dell_loss / edison_loss),
        ],
    })
}

/// Run an 8-point sweep whose point 5 always panics.
pub fn fault_demo(
    _budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<Report, RunError> {
    let points: Vec<u32> = (0..8).collect();
    let vals = exec.sweep(
        "fault_demo",
        &points,
        tel,
        |i, _| format!("point{i}"),
        |_, &p| {
            #[expect(clippy::panic, reason = "the whole point of this demo is a deliberate panic")]
            if p == 5 {
                panic!("deliberate fault-injection panic (point 5)");
            }
            u64::from(p) * 2
        },
    )?;
    // Unreachable in practice — point 5 always panics — but kept total so
    // the demo stays honest if the injection above is ever edited away.
    Ok(Report {
        id: "fault_demo".into(),
        title: "DEMO: fault-isolation showcase".into(),
        body: format!("all points completed unexpectedly: {vals:?}\n"),
        comparisons: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_deterministic_and_staggered() {
        let b = RunBudget::quick();
        let p2 = ladder_plan(2, &b);
        assert_eq!(p2.len(), 4, "2 crashes + 2 restarts");
        assert_eq!(p2, ladder_plan(2, &b));
        assert!(ladder_plan(0, &b).is_empty());
        // every crash lands inside the window and recovers before its end
        let window_end = SimTime::from_secs(b.web_warmup_s + b.web_measure_s);
        for f in p2.faults() {
            assert!(f.at < window_end, "fault at {:?} past window end", f.at);
        }
    }

    #[test]
    fn custom_plan_overrides_the_ladder_but_not_the_baseline() {
        let custom = FaultPlan::new().crash(3, SimTime::from_secs(4));
        let b = RunBudget::quick().with_fault_plan(custom.clone());
        assert_eq!(point_plan(1, &b), custom);
        assert!(point_plan(0, &b).is_empty(), "intensity 0 stays fault-free");
        let plain = RunBudget::quick();
        assert_eq!(point_plan(1, &plain), ladder_plan(1, &plain));
    }

    #[test]
    fn fault_demo_isolates_and_reports() {
        let mut tel = Telemetry::on();
        let err = fault_demo(&RunBudget::quick(), &Executor::new(4), &mut tel)
            .expect_err("point 5 must fail");
        match err {
            RunError::PointFailed { point, cause } => {
                assert_eq!(point, "fault_demo/point5");
                assert!(cause.contains("deliberate"), "cause: {cause}");
            }
            other => panic!("wrong error class: {other:?}"),
        }
        // the seven sibling points still ran
        let prom = tel.prometheus_text();
        assert!(prom.contains("simrun_points_total"), "{prom}");
        assert!(prom.contains("outcome=\"ok\"") && prom.contains("7"), "{prom}");
    }
}
