//! Profiling-equivalence and merge-determinism of the simprof layer.
//!
//! The profiler's contract (DESIGN.md §Performance observability): turning
//! it on must not change what the simulation computes, only record how the
//! engine spent its events — and merged profiles must not depend on the
//! sweep worker count. Serialized `{:?}` comparison pins every f64 bit.

use edison_bench::workloads;
use edison_mapreduce::engine::{run_job, run_job_profiled_checked, ClusterSetup};
use edison_mapreduce::jobs;
use edison_simcore::EngineProfile;
use edison_simrun::Executor;
use edison_simtel::Telemetry;
use edison_web::httperf::{self, RunOpts};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// Web stack: a profiled run's result is bit-identical to a plain run's.
#[test]
fn web_profiled_run_matches_plain_run() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let opts = RunOpts { seed: 20160509, warmup_s: 2, measure_s: 6, ..RunOpts::default() };
    let plain = httperf::run_point(&sc, WorkloadMix::lightest(), 64.0, opts.clone());
    let (profiled, tel) =
        httperf::run_point_traced(&sc, WorkloadMix::lightest(), 64.0, opts, Telemetry::profiled());
    assert_eq!(
        format!("{plain:?}"),
        format!("{profiled:?}"),
        "profiling perturbed the web simulation"
    );
    // and the profile actually landed in the telemetry
    assert!(tel.prometheus_text().contains("profile_events_total"));
}

/// MapReduce: same contract for the job engine.
#[test]
fn mapreduce_profiled_run_matches_plain_run() {
    let mut setup = ClusterSetup::edison(8);
    setup.seed = 20160509;
    let mut p = jobs::wordcount(setup.tune);
    p.input_bytes /= 8;
    p.map_tasks = (p.map_tasks / 8).max(4);
    let plain = run_job(&p, &setup);
    let (profiled, _, profile) =
        run_job_profiled_checked(&p, &setup, Telemetry::profiled()).expect("job healthy");
    assert_eq!(
        format!("{plain:?}"),
        format!("{profiled:?}"),
        "profiling perturbed the MapReduce simulation"
    );
    assert!(profile.events() > 0, "profile collected");
}

/// Merged profiles are bit-identical whether the per-point runs fan out
/// over 1 worker or 8 — the `--jobs` independence the run layer promises,
/// here for real workload profiles rather than a toy model.
#[test]
fn merged_profiles_identical_across_worker_counts() {
    let names = ["fault_sweep", "web_sweep", "fault_sweep", "web_sweep"];
    let merge_at = |jobs: usize| {
        let results =
            Executor::new(jobs).run(&names, |_, name| workloads::run_tracked(name).expect("runs"));
        let mut merged = EngineProfile::default();
        for r in results {
            merged.merge(&r.expect("no panics"));
        }
        merged
    };
    let serial = merge_at(1);
    let wide = merge_at(8);
    assert_eq!(serial, wide, "merged profile depends on worker count");
    assert!(serial.events() > 0);
}
