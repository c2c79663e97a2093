//! Golden outcomes of the MapReduce engine: five fixtures whose
//! [`JobOutcome`] is pinned byte for byte, so a change to the YARN
//! heartbeat, the task phase machine or the fault layer cannot move a
//! single result unnoticed.
//!
//! The fixtures cover the scheduler paths the Table 8 matrix never runs:
//! speculation behind a straggler, a crash and restart (liveness sweep,
//! reap, re-queue and map-output re-execution), and that crash behind a
//! straggler with telemetry on.
//!
//! * The `JobOutcome` Debug form (timelines included) is pinned as byte
//!   length plus FNV-1a-64.
//! * The telemetry-on fixture's Prometheus text is committed in full
//!   under `tests/golden/<fixture>.prom`.
//!
//! A mismatch panics with the fresh length/hash constant and writes the
//! fresh Prometheus text under cargo's `CARGO_TARGET_TMPDIR`, so a change
//! can be reviewed as a diff against the golden file.

use std::fmt;
use std::path::PathBuf;

use edison_mapreduce::engine::{run_job_checked, run_job_traced_checked};
use edison_mapreduce::jobs::Tune;
use edison_mapreduce::{jobs, ClusterSetup, JobOutcome, JobProfile};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simfault::FaultPlan;
use edison_simtel::Telemetry;

/// FNV-1a, 64-bit: a stable fingerprint for outcomes too large to commit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Byte length and FNV-1a-64 of one outcome's Debug form.
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

/// A crash of worker 1 at 60 s, restarted 20 s later: past the 5 s
/// liveness timeout, so the RM declares the node lost and re-queues its
/// containers before the restarted nodemanager re-registers.
fn crash_setup() -> ClusterSetup {
    let plan =
        FaultPlan::new().crash_restart(1, SimTime::from_secs(60), SimDuration::from_secs(20));
    ClusterSetup::edison(4).with_fault_plan(plan)
}

/// Run one fixture untraced and compare its outcome with the golden value.
fn check(name: &str, want: Fingerprint, profile: &JobProfile, setup: &ClusterSetup) -> JobOutcome {
    let outcome = run_job_checked(profile, setup).expect("fixture job completes");
    let got = Fingerprint::of(&format!("{outcome:?}"));
    assert_eq!(got, want, "{name}: JobOutcome moved; fresh {got}");
    outcome
}

#[test]
fn wordcount_on_edison_35() {
    let o = check(
        "wordcount_edison35",
        Fingerprint(54_329, 0x73f3_7546_b94d_325f),
        &jobs::wordcount(Tune::Edison),
        &ClusterSetup::edison(35),
    );
    assert!(o.data_local_fraction > 0.9, "the paper's ≈95 % locality");
}

#[test]
fn terasort_on_dell_2() {
    check(
        "terasort_dell2",
        Fingerprint(101_026, 0x60a7_0a55_5379_af03),
        &jobs::terasort(Tune::Dell),
        &ClusterSetup::dell(2),
    );
}

#[test]
fn straggler_with_speculation() {
    let setup = ClusterSetup::edison(4).with_straggler(1, 4.0);
    assert!(setup.speculation);
    let o = check(
        "straggler_speculation",
        Fingerprint(389_226, 0xf7b7_a837_fe5b_681a),
        &jobs::logcount2(Tune::Edison),
        &setup,
    );
    assert!(
        o.speculative_copies > 0,
        "the straggler's maps must be speculated"
    );
}

#[test]
fn crash_and_restart() {
    let o = check(
        "crash_restart",
        Fingerprint(247_240, 0x55c2_501b_13a4_9329),
        &jobs::logcount2(Tune::Edison),
        &crash_setup(),
    );
    assert_eq!(o.nodes_lost, 1, "the liveness sweep declares the node lost");
    assert!(
        o.task_reexecs > 0,
        "the reap re-queues the dead node's containers"
    );
    assert!(
        o.mean_recovery_s > 0.0,
        "re-localisation is observed as recovery"
    );
}

#[test]
fn telemetry_on_crash_with_straggler() {
    // the crash fixture behind a straggler, recording: the label sites
    // of the engine (grants, completions, speculation, node loss,
    // re-execution, recovery) all land in the export
    let name = "telemetry_crash_straggler";
    let profile = jobs::logcount2(Tune::Edison);
    let setup = crash_setup().with_straggler(3, 4.0);
    let untraced = check(
        name,
        Fingerprint(390_052, 0xb0d1_9fcc_d68b_c413),
        &profile,
        &setup,
    );
    let (traced, tel) =
        run_job_traced_checked(&profile, &setup, Telemetry::on()).expect("fixture job completes");
    assert_eq!(
        format!("{untraced:?}"),
        format!("{traced:?}"),
        "{name}: tracing perturbed the outcome"
    );
    assert!(untraced.speculative_copies > 0 && untraced.nodes_lost == 1);

    let prom = tel.prometheus_text();
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.prom"));
    if std::fs::read_to_string(&golden).ok().as_deref() != Some(prom.as_str()) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&dir).expect("create fresh-export directory");
        let path = dir.join(format!("{name}.prom"));
        std::fs::write(&path, &prom).expect("write fresh Prometheus text");
        panic!(
            "{name}: Prometheus text moved (fresh copy: {})",
            path.display()
        );
    }
}
