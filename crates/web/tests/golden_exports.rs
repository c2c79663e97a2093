//! Golden exports of the web driver: nine fixtures whose [`Metrics`],
//! Prometheus text and Chrome trace are pinned byte for byte, so a
//! refactor of `stack.rs` or the `model.rs` helpers cannot move a single
//! exported byte unnoticed.
//!
//! * The Prometheus text of each fixture is committed in full under
//!   `tests/golden/<fixture>.prom`.
//! * The Chrome trace (0.9–9.8 MB) and the exhaustive `Metrics` Debug form
//!   (19–333 KB) are pinned as byte length plus FNV-1a-64.
//!
//! A mismatch panics with the fresh length/hash constants and writes the
//! fresh Prometheus text under cargo's `CARGO_TARGET_TMPDIR`, so a change
//! can be reviewed as a diff against the golden file.
//!
//! [`Metrics`]: edison_web::stack::Metrics

use std::fmt;
use std::path::PathBuf;

use edison_simcore::time::{SimDuration, SimTime};
use edison_simfault::FaultPlan;
use edison_simguard::GuardConfig;
use edison_simrun::derive_seed;
use edison_simtel::Telemetry;
use edison_web::stack::{run, run_traced, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

fn cfg(conc: f64, seed: u64) -> StackConfig {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix::lightest(),
        GenMode::Httperf { connections_per_sec: conc, calls_per_conn: 6.6 },
        seed,
    );
    cfg.warmup = SimDuration::from_secs(2);
    cfg.measure = SimDuration::from_secs(8);
    cfg
}

/// A plan that crashes web node 0 mid-run and restarts it 3 s later,
/// with enough client retry budget that both crash outcomes occur:
/// connections redispatched by the LB and connections retired as hard
/// errors with their request span unrecorded.
fn crash_cfg(conc: f64, seed: u64) -> StackConfig {
    let mut c = cfg(conc, seed);
    c.measure = SimDuration::from_secs(20);
    c.retry_budget = 2;
    c.fault_plan = FaultPlan::new()
        .crash_restart(0, SimTime::from_secs(6), SimDuration::from_secs(3));
    c
}

fn guard_cfg(conc: f64, seed: u64) -> StackConfig {
    let mut c = cfg(conc, seed);
    c.guard = GuardConfig::web_defaults();
    c
}

/// Overload + crash combined (the breaker-fixture cliff): past the
/// Eighth-scale knee with web node 0 crashing mid-run and restarting, so
/// deadline sheds, queue-gate sheds, brownout, breaker trips and
/// half-open probing all run.
fn cliff_cfg(seed: u64) -> StackConfig {
    let mut c = guard_cfg(384.0, seed);
    c.measure = SimDuration::from_secs(20);
    c.retry_budget = 2;
    c.fault_plan =
        FaultPlan::new().crash_restart(0, SimTime::from_secs(6), SimDuration::from_secs(3));
    c
}

/// FNV-1a, 64-bit: a stable fingerprint for exports too large to commit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Byte length and FNV-1a-64 of one export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint(usize, u64);

impl Fingerprint {
    fn of(s: &str) -> Self {
        Fingerprint(s.len(), fnv1a64(s.as_bytes()))
    }
}

/// Renders as the constant to paste into the test.
impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({}, {:#018x})", self.0, self.1)
    }
}

/// Run `make()` untraced and traced, then compare every export against
/// the fixture's golden values: the `Metrics` Debug form (identical with
/// and without tracing), the committed Prometheus text and the Chrome
/// trace.
fn check(name: &str, metrics: Fingerprint, trace: Fingerprint, make: impl Fn() -> StackConfig) {
    let untraced = format!("{:?}", run(make()).metrics);
    let mut traced = run_traced(make(), Telemetry::on());
    assert_eq!(untraced, format!("{:?}", traced.metrics), "{name}: tracing perturbed Metrics");
    let tel = traced.take_telemetry();
    let prom = tel.prometheus_text();
    let (metrics_now, trace_now) =
        (Fingerprint::of(&untraced), Fingerprint::of(&tel.chrome_trace_json()));

    let mut moved = Vec::new();
    if metrics_now != metrics {
        moved.push("Metrics".to_string());
    }
    if trace_now != trace {
        moved.push("Chrome trace".to_string());
    }
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.prom"));
    if std::fs::read_to_string(&golden).ok().as_deref() != Some(prom.as_str()) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&dir).expect("create fresh-export directory");
        let path = dir.join(format!("{name}.prom"));
        std::fs::write(&path, &prom).expect("write fresh Prometheus text");
        moved.push(format!("Prometheus text (fresh copy: {})", path.display()));
    }
    assert!(
        moved.is_empty(),
        "{name}: {} moved; fresh Metrics {metrics_now}, Chrome trace {trace_now}",
        moved.join(", "),
    );
}

#[test]
fn light_load_16() {
    check(
        "light_16",
        Fingerprint(19_354, 0xb63a_1dfb_3f53_4541),
        Fingerprint(924_078, 0xf8b9_6f73_d604_440c),
        || cfg(16.0, 42),
    );
}

#[test]
fn saturation_256() {
    // SYN drops + kernel retransmit ladder + 5xx backlog overflow all on
    check(
        "saturation_256",
        Fingerprint(164_479, 0xcf9a_38ec_8789_1c6f),
        Fingerprint(5_203_085, 0x5607_beff_42b7_13ec),
        || cfg(256.0, 42),
    );
}

#[test]
fn seed_7_at_48() {
    check(
        "seed7_48",
        Fingerprint(54_216, 0xc209_43cb_1582_1325),
        Fingerprint(2_844_081, 0x2dcb_65c7_9d30_d8e3),
        || cfg(48.0, 7),
    );
}

#[test]
fn seed_1234_at_48() {
    check(
        "seed1234_48",
        Fingerprint(54_374, 0x240b_e05c_7aca_0c20),
        Fingerprint(2_830_332, 0x970b_d4e1_a183_75b9),
        || cfg(48.0, 1234),
    );
}

#[test]
fn mid_request_crash_with_retry_budget() {
    check(
        "crash_budget2",
        Fingerprint(88_749, 0xcd56_1dc9_9d90_8499),
        Fingerprint(4_102_672, 0x01d6_0a08_d13f_bdc2),
        || crash_cfg(32.0, 42),
    );
}

#[test]
fn mid_request_crash_without_retry_budget() {
    // budget 0: every doomed connection dies as a hard error
    check(
        "crash_budget0",
        Fingerprint(88_645, 0x1f06_b383_7dd7_6d1f),
        Fingerprint(4_101_271, 0x2a93_5041_d40b_b72e),
        || {
            let mut c = crash_cfg(32.0, 42);
            c.retry_budget = 0;
            c
        },
    );
}

#[test]
fn guarded_light_load_16() {
    check(
        "guarded_16",
        Fingerprint(19_360, 0x9a0e_34ae_65f8_2ec3),
        Fingerprint(924_228, 0x879f_5505_b9f6_22cc),
        || guard_cfg(16.0, 42),
    );
}

#[test]
fn guarded_past_the_knee_384() {
    // saturation: the admission gate, brownout and deadline sheds all on
    check(
        "guarded_384",
        Fingerprint(154_050, 0x9bde_2557_68df_9d23),
        Fingerprint(4_965_454, 0x0de0_2f10_8bf7_87c8),
        || guard_cfg(384.0, 42),
    );
}

#[test]
fn guarded_cliff() {
    check(
        "guard_cliff",
        Fingerprint(332_852, 0x2ba8_f56b_afb4_cbdc),
        Fingerprint(9_798_840, 0x9b0b_b21a_8c3a_9796),
        || cliff_cfg(42),
    );
}

#[test]
fn crash_plan_exercises_both_cancellation_paths() {
    // guard against the fault fixture silently degenerating: the plan
    // must actually produce retries (redispatched connections) and land
    // both faults for the crash goldens to mean anything
    let w = run(crash_cfg(32.0, 42));
    assert!(w.metrics.retries > 0, "no surviving connections were redispatched");
    assert!(w.metrics.faults_injected == 2, "crash + restart must both land");
}

#[test]
fn results_are_independent_of_simrun_worker_count() {
    let seeds: Vec<u64> = (0..6).map(|i| derive_seed(9, "async-gate", i)).collect();
    let metrics = |_: usize, &s: &u64| format!("{:?}", run(cfg(32.0, s)).metrics);
    let serial = edison_simrun::Executor::new(1).run(&seeds, metrics);
    let wide = edison_simrun::Executor::new(8).run(&seeds, metrics);
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(
            a.as_ref().expect("point ran"),
            b.as_ref().expect("point ran"),
            "jobs=1 vs jobs=8 diverged"
        );
    }
}
