//! Bit-exact reproducibility of the two headline workloads.
//!
//! The repo's determinism claim (README §Determinism) is stronger than
//! "same statistics": two runs from the same `u64` seed must produce
//! *bit-identical* results, down to the float accumulation order. These
//! tests serialize full result structs with `{:?}` — which prints every
//! f64 exactly — and compare the strings, so any hasher-ordered map or
//! ambient-state read in the hot path shows up as a diff.

use edison_mapreduce::engine::{run_job_checked, ClusterSetup};
use edison_mapreduce::jobs;
use edison_core::registry::RunBudget;
use edison_web::httperf;
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

fn web_run(seed: u64) -> String {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Quarter).unwrap();
    let r = httperf::run_point(RunBudget::quick().web_point(sc, WorkloadMix::img20(), 96.0, seed));
    format!("{r:?}")
}

fn mapreduce_run(seed: u64) -> String {
    let mut setup = ClusterSetup::edison(8);
    setup.seed = seed;
    let mut p = jobs::wordcount(setup.tune);
    p.input_bytes /= 8;
    p.map_tasks = (p.map_tasks / 8).max(4);
    let out = run_job_checked(&p, &setup).expect("job finishes");
    format!("{out:?}")
}

/// Web stack: same seed twice → bit-identical serialized result.
#[test]
fn webservice_same_seed_is_bit_identical() {
    let a = web_run(20160509);
    let b = web_run(20160509);
    assert_eq!(a, b, "two web runs from one seed diverged");
}

/// Web stack: a different seed must actually change the result, or the
/// equality above proves nothing.
#[test]
fn webservice_different_seed_differs() {
    assert_ne!(web_run(20160509), web_run(4242), "seed has no effect on the web stack");
}

/// MapReduce: same seed twice → bit-identical serialized outcome,
/// including the full sampled timeline.
#[test]
fn mapreduce_same_seed_is_bit_identical() {
    let a = mapreduce_run(20160509);
    let b = mapreduce_run(20160509);
    assert_eq!(a, b, "two MapReduce runs from one seed diverged");
}

/// MapReduce: a different seed changes block placement and so the
/// outcome.
#[test]
fn mapreduce_different_seed_differs() {
    assert_ne!(mapreduce_run(20160509), mapreduce_run(4242), "seed has no effect on MapReduce");
}
