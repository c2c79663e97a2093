//! The tracked benchmark workloads.
//!
//! Five fixed-seed, fixed-scale simulations whose engine profiles the
//! benchmark trajectory records: a three-point web
//! concurrency sweep, a scaled-down MapReduce wordcount (the Figure 12–17 family),
//! the web point again under a crash/restart fault plan, a small
//! simexplore candidate neighbourhood run end to end (the explore
//! experiment's hot path), and the guarded overload point (the simguard
//! hot path: sheds, brownout, breaker trips). Everything here is a pure
//! function of the constants below — no
//! wall clock, no ambient RNG — so two runs on any machine produce
//! bit-identical [`EngineProfile`]s.

use edison_mapreduce::engine::{run_job_profiled_checked, ClusterSetup};
use edison_mapreduce::jobs;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::EngineProfile;
use edison_simexplore::{candidates, ExploreBudget, PerturbSpace};
use edison_simfault::{FaultPlan, RecoveryWindow};
use edison_simguard::GuardConfig;
use edison_simrun::error::SimError;
use edison_simrun::{derive_seed, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf::CALLS_PER_CONN;
use edison_web::stack::{self, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// The tracked workload names, in the (sorted) order they appear in the
/// trajectory file.
pub const TRACKED: [&str; 5] = [
    "explore_worst",
    "fault_sweep",
    "mapreduce_wordcount",
    "overload_web",
    "web_sweep",
];

/// Concurrency points of the web sweep.
const WEB_POINTS: [f64; 3] = [32.0, 64.0, 96.0];
/// Web warmup / measurement window, seconds.
const WEB_WARMUP_S: u64 = 2;
const WEB_MEASURE_S: u64 = 6;

/// One eighth-scale Edison web point at `conc`, seeded from the named
/// stream, with an optional fault plan.
fn web_cfg(stream: &str, idx: u64, conc: f64, plan: FaultPlan) -> Result<StackConfig, SimError> {
    let scenario = WebScenario::table6_or_err(Platform::Edison, ClusterScale::Eighth)?;
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix::lightest(),
        GenMode::Httperf { connections_per_sec: conc, calls_per_conn: CALLS_PER_CONN },
        derive_seed(ROOT_SEED, stream, idx),
    );
    cfg.warmup = SimDuration::from_secs(WEB_WARMUP_S);
    cfg.measure = SimDuration::from_secs(WEB_MEASURE_S);
    cfg.fault_plan = plan;
    Ok(cfg)
}

/// The plan shared by the fault, explore and overload workloads: web
/// node 0 crashes 4 s in and returns 2 s later.
fn crash_restart_web0() -> FaultPlan {
    FaultPlan::new().crash_restart(0, SimTime::from_secs(4), SimDuration::from_secs(2))
}

/// The web sweep: three concurrency points, profiles merged in input
/// order.
pub fn web_sweep() -> Result<EngineProfile, SimError> {
    let mut merged = EngineProfile::default();
    for (i, &conc) in (0u64..).zip(WEB_POINTS.iter()) {
        let cfg = web_cfg("bench:web", i, conc, FaultPlan::new())?;
        let (_, p) = stack::run_profiled(cfg, Telemetry::profiled());
        merged.merge(&p);
    }
    Ok(merged)
}

/// Scaled-down wordcount on 8 Edison nodes — the Figure 12/17 job family
/// at an eighth of the paper's input, sized for CI.
pub fn mapreduce_wordcount() -> Result<EngineProfile, SimError> {
    let mut setup = ClusterSetup::edison(8);
    setup.seed = derive_seed(ROOT_SEED, "bench:mr", 0);
    let mut p = jobs::wordcount(setup.tune);
    p.input_bytes /= 8;
    p.map_tasks = (p.map_tasks / 8).max(4);
    let (_, _, profile) = run_job_profiled_checked(&p, &setup, Telemetry::profiled())?;
    Ok(profile)
}

/// The mid-curve web point under a crash/restart fault plan: web node 0
/// goes down 4 s in and returns 2 s later, with one retry budgeted.
pub fn fault_sweep() -> Result<EngineProfile, SimError> {
    let mut cfg = web_cfg("bench:fault", 0, 64.0, crash_restart_web0())?;
    cfg.retry_budget = 1;
    let (_, p) = stack::run_profiled(cfg, Telemetry::profiled());
    Ok(p)
}

/// A small simexplore neighbourhood, run end to end: enumerate the
/// candidate schedules around the `fault_sweep` plan (window probe on
/// the sibling node, pairwise reorders, start jitter — the explore
/// experiment's hot path), play every candidate at the mid-curve web
/// point, and fold the profiles in input order. The window is pinned
/// rather than observed so the workload stays a pure function of the
/// constants here.
pub fn explore_worst() -> Result<EngineProfile, SimError> {
    let base = crash_restart_web0();
    let window = RecoveryWindow {
        node: 0,
        start: SimTime::from_secs(6),
        end: SimTime::from_secs(7),
    };
    let space =
        PerturbSpace::full(SimDuration::from_secs(1), vec![window], vec![1], SimDuration::from_secs(2));
    let budget = ExploreBudget::new(4, ROOT_SEED);
    let mut merged = EngineProfile::default();
    for (i, cand) in (0u64..).zip(candidates(&base, &space, &budget)) {
        let mut cfg = web_cfg("bench:explore", i, 64.0, cand.plan)?;
        cfg.retry_budget = 1;
        let (_, p) = stack::run_profiled(cfg, Telemetry::profiled());
        merged.merge(&p);
    }
    Ok(merged)
}

/// The guarded overload point: a load level past the Eighth-scale knee
/// with the reference guard on and web node 0 crashing mid-run — the
/// simguard hot path (admission control, queue-gate sheds, brownout
/// degradation, breaker trips and half-open probing) under the profiler.
pub fn overload_web() -> Result<EngineProfile, SimError> {
    let mut cfg = web_cfg("bench:overload", 0, 384.0, crash_restart_web0())?;
    cfg.retry_budget = 2;
    cfg.guard = GuardConfig::web_defaults();
    let (_, p) = stack::run_profiled(cfg, Telemetry::profiled());
    Ok(p)
}

/// Run one tracked workload by trajectory name.
pub fn run_tracked(name: &str) -> Result<EngineProfile, SimError> {
    match name {
        "explore_worst" => explore_worst(),
        "fault_sweep" => fault_sweep(),
        "mapreduce_wordcount" => mapreduce_wordcount(),
        "overload_web" => overload_web(),
        "web_sweep" => web_sweep(),
        other => Err(SimError::Config(format!("unknown tracked workload '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_names_are_sorted_and_resolvable() {
        let mut sorted = TRACKED;
        sorted.sort_unstable();
        assert_eq!(sorted, TRACKED, "trajectory keys must be machine-sortable");
        for name in TRACKED {
            assert!(run_tracked(name).is_ok(), "workload {name} must run");
        }
        assert!(run_tracked("nope").is_err());
    }

    #[test]
    fn workloads_are_deterministic() {
        // the trajectory's whole premise: same constants, same profile
        assert_eq!(fault_sweep(), fault_sweep());
    }

    #[test]
    fn fault_plan_changes_the_profile() {
        let plain = web_sweep().expect("web sweep runs");
        let faulted = fault_sweep().expect("fault sweep runs");
        assert!(faulted.kinds.contains_key("fault"), "fault events dispatched");
        assert!(!plain.kinds.contains_key("fault"), "plain sweep has no fault events");
    }
}
