//! Property tests for the overload-guard wiring (simguard): whatever the
//! load point, seed, or fault schedule, the guard's accounting must
//! balance, degraded/shed work must never masquerade as success, and a
//! zero-budget guard must leave the simulation untouched.

use edison_simcore::time::{SimDuration, SimTime};
use edison_simfault::FaultPlan;
use edison_simguard::{Budget, GuardConfig};
use edison_web::stack::{run, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};
use proptest::prelude::*;

fn cfg(conc: f64, seed: u64) -> StackConfig {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix::lightest(),
        GenMode::Httperf { connections_per_sec: conc, calls_per_conn: 6.6 },
        seed,
    );
    cfg.warmup = SimDuration::from_secs(1);
    cfg.measure = SimDuration::from_secs(6);
    cfg
}

fn guarded(conc: f64, seed: u64, crash: bool) -> StackConfig {
    let mut c = cfg(conc, seed);
    c.guard = GuardConfig::web_defaults();
    if crash {
        c.retry_budget = 2;
        c.fault_plan =
            FaultPlan::new().crash_restart(0, SimTime::from_secs(3), SimDuration::from_secs(2));
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation: every admitted request reaches exactly one terminal
    /// bucket — completed, degraded, shed, or failed — at any load point
    /// (under and past the knee), with or without a mid-run crash.
    #[test]
    fn admitted_requests_reach_exactly_one_terminal_bucket(
        conc in 16.0f64..448.0,
        seed in 0u64..1_000,
        crash in any::<bool>(),
    ) {
        let g = run(guarded(conc, seed, crash)).metrics.guard;
        prop_assert_eq!(
            g.admitted,
            g.completed + g.degraded + g.shed + g.failed,
            "conservation identity violated at conc={} seed={} crash={}: {:?}",
            conc, seed, crash, g
        );
    }

    /// Degraded and shed work never counts as success: every completion
    /// is exactly one of full/degraded, and the windowed success count
    /// feeding availability math holds full-fidelity responses only.
    #[test]
    fn degraded_and_shed_never_count_as_availability_successes(
        conc in 256.0f64..448.0,
        seed in 0u64..1_000,
    ) {
        // past the knee with a crash: sheds, brownout and breaker all live
        let m = run(guarded(conc, seed, true)).metrics;
        let g = &m.guard;
        prop_assert_eq!(
            m.completed_total,
            g.completed + g.degraded,
            "a completion escaped the full/degraded split: {:?}", g
        );
        // the windowed success count (the availability numerator) is a
        // subset of run-total *full* completions: no degraded response —
        // and a fortiori no shed request, which never completes — leaks in
        prop_assert!(
            m.completed <= g.completed,
            "windowed successes {} exceed full completions {} (degraded leaked in)",
            m.completed, g.completed
        );
    }

    /// A zero-budget guard is runtime-inert at any load point and seed:
    /// byte-identical metrics to a config that never mentions the guard.
    #[test]
    fn zero_budget_guard_is_byte_identical_to_no_guard(
        conc in 16.0f64..384.0,
        seed in 0u64..1_000,
    ) {
        let mut zeroed = cfg(conc, seed);
        zeroed.guard = GuardConfig::off();
        zeroed.guard.deadline = Budget::ZERO;
        prop_assert_eq!(
            format!("{:?}", run(zeroed).metrics),
            format!("{:?}", run(cfg(conc, seed)).metrics),
            "zero-budget guard perturbed the run at conc={} seed={}", conc, seed
        );
    }

    /// Breakers that never leave `Closed` do not move the LB: with only
    /// breakers enabled, light load and no fault, the breaker-aware pick
    /// keeps the plain weighted stride, so every outcome and delay sample
    /// matches the guard-off run.
    #[test]
    fn closed_breakers_keep_the_unguarded_pick(
        conc in 16.0f64..64.0,
        seed in 0u64..1_000,
        threshold in 1u32..8,
    ) {
        let mut c = cfg(conc, seed);
        c.guard.breaker_threshold = threshold;
        c.guard.breaker_cooldown = SimDuration::from_secs(3);
        c.guard.breaker_probes = 2;
        let with = run(c);
        prop_assert_eq!(with.metrics.guard.breaker_trips, 0, "a breaker tripped at light load");
        let off = run(cfg(conc, seed)).metrics;
        let on = &with.metrics;
        prop_assert_eq!(on.completed, off.completed);
        prop_assert_eq!(on.server_errors, off.server_errors);
        prop_assert_eq!(on.client_errors, off.client_errors);
        prop_assert_eq!(on.syn_drops, off.syn_drops);
        prop_assert_eq!(format!("{:?}", on.delays_ms), format!("{:?}", off.delays_ms));
    }

    /// Zero-budget *deadlines* inside an otherwise-active guard are a
    /// no-op: no request ever carries a deadline, so nothing is shed or
    /// flagged for missing one, even under overload + crash.
    #[test]
    fn zero_budget_deadlines_never_fire(
        conc in 256.0f64..448.0,
        seed in 0u64..1_000,
    ) {
        let mut c = guarded(conc, seed, true);
        c.guard.deadline = Budget::ZERO;
        c.guard.db_reserve = SimDuration::ZERO;
        let m = run(c).metrics;
        prop_assert_eq!(m.guard.deadline_miss, 0, "deadline miss with deadlines off");
    }
}
