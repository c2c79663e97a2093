//! End-to-end smoke experiment: one quick web point plus one small
//! MapReduce job. This is the `repro smoke` / `cargo repro-smoke` target —
//! fast enough for CI, and it exercises every telemetry surface (request
//! spans, task-phase spans, counters, histograms, power timelines) when a
//! sink is enabled via `--trace` / `--metrics`.

use super::mapred;
use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_mapreduce::engine::{run_job_traced_checked, ClusterSetup};
use edison_simrun::{derive_seed, Executor, RunError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf;
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// Run the smoke pair. Unlike the figure experiments (which trace one
/// representative point on the side), the smoke runs ARE the traced runs:
/// whatever the sink's state, each simulation executes exactly once, in
/// order, on the caller's thread (no executor fan-out — two points are
/// not worth a pool, and serial runs keep the traced output canonical).
pub fn smoke(budget: &RunBudget, _exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    // child sinks inherit the enabled + profiling flags, so `--profile`
    // reaches the smoke runs themselves
    let proto = tel.child();
    let sink = || proto.child();

    // web: eighth-scale Edison tier at a mid-curve load
    let scenario = WebScenario::table6_or_err(Platform::Edison, ClusterScale::Eighth)?;
    let cfg = budget.web_point(scenario, WorkloadMix::lightest(), 64.0, derive_seed(ROOT_SEED, "smoke:web", 0));
    let (web, wtel) = httperf::run_point_traced(cfg, sink());
    tel.merge(wtel);

    // mapreduce: logcount2 on a 4-node Edison cluster (seconds, not minutes)
    let base = ClusterSetup::edison(4);
    let mut setup = mapred::setup_for("logcount2", &base);
    setup.seed = derive_seed(ROOT_SEED, "smoke:mr:logcount2", 0);
    let profile = mapred::profile_for("logcount2", &setup)?;
    let (job, jtel) = run_job_traced_checked(&profile, &setup, sink())?;
    tel.merge(jtel);

    let rows = vec![
        vec![
            "web (3 Edison, mix=lightest, conc=64)".into(),
            format!("{:.0} req/s", web.requests_per_sec),
            format!("{:.2} ms mean delay", web.mean_delay_ms),
            format!("{:.1} W", web.mean_power_w),
        ],
        vec![
            "mapreduce (logcount2, 4 Edison)".into(),
            format!("{:.0} s", job.finish_time_s),
            format!("{:.0} J", job.energy_j),
            format!("{:.0}% data-local", 100.0 * job.data_local_fraction),
        ],
    ];
    Ok(Report {
        id: "smoke".into(),
        title: "End-to-end smoke run (web + MapReduce, telemetry-ready)".into(),
        body: table(&["run", "throughput / time", "delay / energy", "power / locality"], &rows),
        comparisons: vec![
            Comparison::new("web point completes requests (>0 expected)", 1.0, web.requests_per_sec.min(1.0)),
            Comparison::new("MapReduce job finishes (>0 s expected)", 1.0, job.finish_time_s.min(1.0)),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_traces() {
        let mut tel = Telemetry::on();
        let r = smoke(&RunBudget::quick(), &Executor::serial(), &mut tel).expect("smoke healthy");
        assert_eq!(r.id, "smoke");
        assert!(r.body.contains("req/s"));
        // both worlds contributed telemetry
        let trace = tel.chrome_trace_json();
        assert!(trace.contains("http_request"), "web spans present");
        assert!(trace.contains("map_task"), "mapreduce spans present");
        let prom = tel.prometheus_text();
        assert!(prom.contains("web_requests_total"));
        assert!(prom.contains("mr_maps_completed_total"));
        assert!(prom.contains("node_power_watts"));
    }

    #[test]
    fn smoke_off_is_clean() {
        let mut tel = Telemetry::off();
        let r = smoke(&RunBudget::quick(), &Executor::serial(), &mut tel).expect("smoke healthy");
        assert!(!r.body.is_empty());
        assert!(tel.chrome_trace_json().contains("\"traceEvents\": []") || !tel.chrome_trace_json().contains("http_request"));
    }
}
