//! `cargo guard-gate`: the overload-protection contract. With the guard
//! layer *enabled* — deadlines, circuit breakers, admission control,
//! brownout — the breaker-fixture cliff (overload combined with a mid-run
//! crash) must really exercise every guard path and recover, results must
//! not depend on the simrun worker count, and a zero-budget guard must be
//! a byte-identical no-op. The guarded exports themselves are pinned by
//! `tests/golden_exports.rs`.

use edison_simcore::time::{SimDuration, SimTime};
use edison_simfault::FaultPlan;
use edison_simguard::{BreakerState, GuardConfig};
use edison_simrun::derive_seed;
use edison_web::stack::{run, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

fn guard_cfg(conc: f64, seed: u64) -> StackConfig {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix::lightest(),
        GenMode::Httperf { connections_per_sec: conc, calls_per_conn: 6.6 },
        seed,
    );
    cfg.warmup = SimDuration::from_secs(2);
    cfg.measure = SimDuration::from_secs(8);
    cfg.guard = GuardConfig::web_defaults();
    cfg
}

/// Overload + crash combined: a load level past the Eighth-scale knee
/// with web node 0 crashing mid-run and restarting. Exercises every
/// guard path at once — deadline sheds, queue-gate sheds, brownout
/// degradation, breaker trips on the dead backend, and half-open
/// probing through the recovery.
fn cliff_cfg(seed: u64) -> StackConfig {
    let mut c = guard_cfg(384.0, seed);
    c.measure = SimDuration::from_secs(20);
    c.retry_budget = 2;
    c.fault_plan =
        FaultPlan::new().crash_restart(0, SimTime::from_secs(6), SimDuration::from_secs(3));
    c
}

#[test]
fn cliff_fixture_actually_exercises_the_guards() {
    // guard against the fixture silently degenerating: the cliff run
    // must shed load, serve degraded responses, and trip the breaker on
    // the crashed backend for its golden exports to mean anything
    let w = run(cliff_cfg(42));
    let g = &w.metrics.guard;
    assert!(g.admitted > 0, "no requests admitted");
    assert!(g.shed + g.lb_rejected > 0, "the overload never shed anything");
    assert!(g.breaker_trips > 0, "the crash never tripped a breaker");
    assert!(
        w.metrics.faults_injected == 2,
        "crash + restart must both land (got {})",
        w.metrics.faults_injected
    );
    // conservation identity: every admitted request reached exactly one
    // terminal bucket
    assert_eq!(
        g.admitted,
        g.completed + g.degraded + g.shed + g.failed,
        "guard conservation identity violated: {g:?}"
    );
}

#[test]
fn breaker_recovers_after_restart() {
    // the half-open probe path must close the breaker again once the
    // node is healthy: recovery windows are recorded for simexplore
    let w = run(cliff_cfg(42));
    let brk = w.breaker_states();
    assert!(
        brk.iter().all(|s| *s == BreakerState::Closed),
        "breakers still open at end of run: {brk:?}"
    );
    assert!(
        !w.metrics.guard.breaker_windows.is_empty(),
        "no breaker recovery window recorded"
    );
}

#[test]
fn guarded_results_are_independent_of_simrun_worker_count() {
    let seeds: Vec<u64> = (0..6).map(|i| derive_seed(9, "guard-gate", i)).collect();
    let serial = edison_simrun::Executor::new(1)
        .run(&seeds, |_, &s| format!("{:?}", run(cliff_cfg(s)).metrics));
    let wide = edison_simrun::Executor::new(8)
        .run(&seeds, |_, &s| format!("{:?}", run(cliff_cfg(s)).metrics));
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(
            a.as_ref().expect("point ran"),
            b.as_ref().expect("point ran"),
            "jobs=1 vs jobs=8 diverged under guards"
        );
    }
}

#[test]
fn zero_budget_guard_config_is_off() {
    // GuardConfig::off() must be runtime-inert: same bytes as the
    // pre-guard code path (the guards-off identity the golden exports pin)
    let mut base = guard_cfg(48.0, 7);
    base.guard = GuardConfig::off();
    let plain = {
        let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let mut cfg = StackConfig::new(
            scenario,
            WorkloadMix::lightest(),
            GenMode::Httperf { connections_per_sec: 48.0, calls_per_conn: 6.6 },
            7,
        );
        cfg.warmup = SimDuration::from_secs(2);
        cfg.measure = SimDuration::from_secs(8);
        cfg
    };
    assert_eq!(
        format!("{:?}", run(base).metrics),
        format!("{:?}", run(plain).metrics),
        "GuardConfig::off() must be a byte-identical no-op"
    );
}
