//! Golden determinism test for the telemetry layer: two identically-seeded
//! traced runs must export byte-identical artefacts. This is the property
//! that makes traces diffable across commits — any map-order or float-format
//! nondeterminism in the registry, tracer or exporters breaks it.

use edison_mapreduce::engine::{run_job_traced_checked, ClusterSetup};
use edison_mapreduce::jobs;
use edison_simtel::export::{validate_json, validate_prometheus};
use edison_simtel::Telemetry;
use edison_core::registry::RunBudget;
use edison_web::httperf;
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// One traced web point + one traced MapReduce job, merged — the same pair
/// the `smoke` experiment runs.
fn traced_pair() -> Telemetry {
    let mut tel = Telemetry::on();

    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let cfg = RunBudget::quick().web_point(scenario, WorkloadMix::lightest(), 64.0, 20160509);
    let (_, wtel) = httperf::run_point_traced(cfg, Telemetry::on());
    tel.merge(wtel);

    let setup = ClusterSetup::edison(4);
    let profile = jobs::logcount2(setup.tune).with_map_tasks(8);
    let (_, jtel) = run_job_traced_checked(&profile, &setup, Telemetry::on()).expect("job finishes");
    tel.merge(jtel);

    tel
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_pair();
    let b = traced_pair();

    let trace_a = a.chrome_trace_json();
    let trace_b = b.chrome_trace_json();
    assert_eq!(trace_a, trace_b, "chrome trace must be byte-identical across same-seed runs");

    let prom_a = a.prometheus_text();
    let prom_b = b.prometheus_text();
    assert_eq!(prom_a, prom_b, "prometheus text must be byte-identical across same-seed runs");

    let csv_a = edison_core::export::telemetry_csv(&a);
    let csv_b = edison_core::export::telemetry_csv(&b);
    assert_eq!(csv_a, csv_b, "telemetry csv must be byte-identical across same-seed runs");
}

#[test]
fn exports_are_well_formed_and_complete() {
    let tel = traced_pair();

    let trace = tel.chrome_trace_json();
    validate_json(&trace).expect("chrome trace is valid JSON");
    for span in ["http_request", "map_task", "reduce_task", "shuffle_fetch"] {
        assert!(trace.contains(span), "trace has {span} spans");
    }

    let prom = tel.prometheus_text();
    validate_prometheus(&prom).expect("prometheus text is valid exposition format");
    for metric in [
        "web_requests_total",
        "web_request_delay_seconds",
        "mr_maps_completed_total",
        "mr_reduces_completed_total",
        "node_power_watts",
        "sim_events_total",
    ] {
        assert!(prom.contains(metric), "prometheus text has {metric}");
    }
}
