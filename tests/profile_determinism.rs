//! Profiling-equivalence and merge-determinism of the simprof layer.
//!
//! The profiler's contract (DESIGN.md §Performance observability): turning
//! it on must not change what the simulation computes, only record how the
//! engine spent its events — and merged profiles must not depend on the
//! sweep worker count. Serialized `{:?}` comparison pins every f64 bit.

use edison_bench::workloads;
use edison_mapreduce::engine::{run_job_checked, run_job_profiled_checked, ClusterSetup};
use edison_mapreduce::jobs;
use edison_simcore::EngineProfile;
use edison_simrun::Executor;
use edison_simtel::Telemetry;
use edison_core::registry::RunBudget;
use edison_web::httperf;
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// Whether `prom` carries `world`'s per-kind and per-phase `profile_*`
/// series (the untraced `sim_*` series carry a `world` label too, so the
/// check names the metric).
fn exports_profile(prom: &str, world: &str) -> bool {
    let label = format!("world=\"{world}\"");
    ["profile_events_total{", "profile_phase_advance_seconds{"]
        .iter()
        .all(|metric| prom.lines().any(|l| l.starts_with(metric) && l.contains(&label)))
}

/// Web stack: a profiled run's result is bit-identical to a plain run's.
#[test]
fn web_profiled_run_matches_plain_run() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let cfg = RunBudget::quick().web_point(sc, WorkloadMix::lightest(), 64.0, 20160509);
    let plain = httperf::run_point(cfg.clone());
    let (profiled, tel) = httperf::run_point_traced(cfg, Telemetry::profiled());
    assert_eq!(
        format!("{plain:?}"),
        format!("{profiled:?}"),
        "profiling perturbed the web simulation"
    );
    // and the profile actually landed in the telemetry
    assert!(exports_profile(&tel.prometheus_text(), "web"), "web profile exported");
}

/// MapReduce: same contract for the job engine.
#[test]
fn mapreduce_profiled_run_matches_plain_run() {
    let mut setup = ClusterSetup::edison(8);
    setup.seed = 20160509;
    let mut p = jobs::wordcount(setup.tune);
    p.input_bytes /= 8;
    p.map_tasks = (p.map_tasks / 8).max(4);
    let plain = run_job_checked(&p, &setup).expect("job finishes");
    let (profiled, tel, profile) =
        run_job_profiled_checked(&p, &setup, Telemetry::profiled()).expect("job healthy");
    assert_eq!(
        format!("{plain:?}"),
        format!("{profiled:?}"),
        "profiling perturbed the MapReduce simulation"
    );
    assert!(profile.events() > 0, "profile collected");
    assert!(exports_profile(&tel.prometheus_text(), "mapreduce"), "MapReduce profile exported");
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
