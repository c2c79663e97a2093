//! `profile_probe` — the simprof demonstration experiment.
//!
//! Runs one web point and one small MapReduce job twice each: once plain,
//! once with engine self-profiling, then (a) verifies observer
//! equivalence — the profiled run's metrics are identical to the plain
//! run's — and (b) renders the per-event-kind / per-phase breakdown the
//! profiler collected. With an enabled sink (`repro profile_probe
//! --metrics m.prom --profile`) the `profile_*` vocabulary lands in the
//! exported artefacts too.

use super::mapred;
use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_mapreduce::engine::{
    run_job_checked, run_job_profiled_checked, ClusterSetup,
};
use edison_simcore::EngineProfile;
use edison_simrun::{derive_seed, Executor, RunError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf::CALLS_PER_CONN;
use edison_web::stack::{self, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// The web point: eighth-scale Edison tier, lightest mix, mid-curve load —
/// the same shape the smoke run uses, small enough to run twice.
fn web_cfg(budget: &RunBudget) -> Result<StackConfig, RunError> {
    let scenario = WebScenario::table6_or_err(Platform::Edison, ClusterScale::Eighth)?;
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix::lightest(),
        GenMode::Httperf { connections_per_sec: 64.0, calls_per_conn: CALLS_PER_CONN },
        derive_seed(ROOT_SEED, "profile:web", 0),
    );
    cfg.warmup = edison_simcore::time::SimDuration::from_secs(budget.web_warmup_s);
    cfg.measure = edison_simcore::time::SimDuration::from_secs(budget.web_measure_s);
    Ok(cfg)
}

/// Per-kind rows for one world's profile, in the profile's (sorted) order.
fn kind_rows(world: &str, profile: &EngineProfile, phase_of: fn(&'static str) -> &'static str) -> Vec<Vec<String>> {
    profile
        .kinds
        .iter()
        .map(|(kind, s)| {
            vec![
                world.into(),
                (*kind).into(),
                phase_of(kind).into(),
                format!("{}", s.dispatched),
                format!("{}", s.scheduled),
                format!("{:.3}", s.advance.as_secs_f64()),
            ]
        })
        .collect()
}

/// One heap/engine summary row per world.
fn heap_row(world: &str, profile: &EngineProfile) -> Vec<String> {
    vec![
        world.into(),
        format!("{}", profile.events()),
        format!("{}", profile.heap_pushes),
        // every pop delivers an event
        format!("{}", profile.events()),
        format!("{}", profile.heap_depth_hwm),
        format!("{:.1}", profile.sim_seconds()),
    ]
}

/// Run the probe pair and render the breakdown.
pub fn profile_probe(
    budget: &RunBudget,
    _exec: &Executor,
    tel: &mut Telemetry,
) -> Result<Report, RunError> {
    // web: plain vs profiled, same seed — metrics must be identical
    let plain = stack::run(web_cfg(budget)?);
    let (mut web_world, web_prof) = stack::run_profiled(web_cfg(budget)?, Telemetry::profiled());
    let web_eq = plain.metrics.completed == web_world.metrics.completed
        && plain.metrics.server_errors == web_world.metrics.server_errors
        && plain.metrics.client_errors == web_world.metrics.client_errors
        && plain.metrics.energy_j.to_bits() == web_world.metrics.energy_j.to_bits();
    if tel.is_on() {
        tel.merge(web_world.take_telemetry());
    }

    // mapreduce: logcount2 on 4 Edison nodes, plain vs profiled
    let base = ClusterSetup::edison(4);
    let mut setup = mapred::setup_for("logcount2", &base);
    setup.seed = derive_seed(ROOT_SEED, "profile:mr", 0);
    let job = mapred::profile_for("logcount2", &setup)?;
    let plain_job = run_job_checked(&job, &setup)?;
    let (prof_job, jtel, mr_prof) = run_job_profiled_checked(&job, &setup, Telemetry::profiled())?;
    let mr_eq = plain_job.finish_time_s.to_bits() == prof_job.finish_time_s.to_bits()
        && plain_job.energy_j.to_bits() == prof_job.energy_j.to_bits();
    if tel.is_on() {
        tel.merge(jtel);
    }

    let mut rows = kind_rows("web", &web_prof, stack::phase_of);
    rows.extend(kind_rows("mapreduce", &mr_prof, edison_mapreduce::engine::phase_of));
    let kinds = table(&["world", "kind", "phase", "dispatched", "scheduled", "sim-advance s"], &rows);
    let heap = table(
        &["world", "events", "heap pushes", "heap pops", "depth HWM", "sim s"],
        &[heap_row("web", &web_prof), heap_row("mapreduce", &mr_prof)],
    );
    Ok(Report {
        id: "profile_probe".into(),
        title: "PROBE: engine self-profile (per-kind/per-phase breakdown)".into(),
        body: format!("{kinds}\n{heap}"),
        comparisons: vec![
            Comparison::new("web profiled run identical to plain (1 = yes)", 1.0, f64::from(web_eq)),
            Comparison::new("mapreduce profiled run identical to plain (1 = yes)", 1.0, f64::from(mr_eq)),
            Comparison::new("web events profiled (>0 expected)", 1.0, (web_prof.events() as f64).min(1.0)),
            Comparison::new("mapreduce events profiled (>0 expected)", 1.0, (mr_prof.events() as f64).min(1.0)),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_confirms_observer_equivalence() {
        let mut tel = Telemetry::off();
        let r = profile_probe(&RunBudget::quick(), &Executor::serial(), &mut tel)
            .expect("probe healthy");
        assert_eq!(r.id, "profile_probe");
        for c in &r.comparisons {
            assert!((c.measured - 1.0).abs() < 1e-12, "{}: {}", c.metric, c.measured);
        }
        // breakdown covers both worlds and the hot request path
        assert!(r.body.contains("request-path"));
        assert!(r.body.contains("task-exec"));
        // disabled parent sink stays untouched
        assert!(!tel.is_on());
    }

    #[test]
    fn probe_records_profile_metrics_when_sink_enabled() {
        let mut tel = Telemetry::on();
        profile_probe(&RunBudget::quick(), &Executor::serial(), &mut tel).expect("probe healthy");
        let prom = tel.prometheus_text();
        assert!(prom.contains("profile_events_total"), "profile vocabulary exported");
        assert!(prom.contains("profile_phase_advance_seconds"));
        assert!(prom.contains("world=\"web\""));
        assert!(prom.contains("world=\"mapreduce\""));
    }
}
