//! Allocation budget of the telemetry-off web request path.
//!
//! Delivering an event must not touch the heap: the engine lends each
//! handle a reused follow-up buffer, the web world reuses its schedule
//! buffer and finished-task list, topology paths are inline values, and
//! telemetry labels are built only while a sink is enabled. What is left
//! is amortised growth (the event heap, the request/connection maps, the
//! metric sample sets), far below one allocation per event. This test
//! pins that at under 0.1 allocations per event on a small Edison point,
//! so a per-event allocation creeping back in fails tier-1.
//!
//! The same test pins the sink half of that contract: recording calls on
//! a disabled `Telemetry` take borrowed labels and `Display` span
//! arguments and allocate nothing at all.
//!
//! The binary installs its own counting global allocator and holds a
//! single test, so nothing else allocates while the region is measured.

use edison_bench::{alloc_counts, CountingAlloc};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simtel::Telemetry;
use edison_web::stack::{self, GenMode, StackConfig, WebWorld};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Budget: allocations per delivered event, world construction excluded.
const MAX_ALLOCS_PER_EVENT: f64 = 0.1;

fn edison_point() -> StackConfig {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).expect("table 6 row");
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix::lightest(),
        GenMode::Httperf { connections_per_sec: 64.0, calls_per_conn: 6.6 },
        20160509,
    );
    cfg.warmup = SimDuration::from_secs(2);
    cfg.measure = SimDuration::from_secs(6);
    cfg
}

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = alloc_counts().allocs;
    let out = f();
    (alloc_counts().allocs - before, out)
}

/// A batch of every recording call, each with label pairs or `Display`
/// span arguments, on `tel`.
fn record_batch(tel: &mut Telemetry, n: usize) {
    let backend = "web-3";
    for i in 0..n {
        let t = SimTime::from_secs(i as u64);
        tel.counter_inc("web_requests_total", &[("outcome", "ok"), ("backend", backend)]);
        tel.counter_add("guard_shed_total", &[("tier", "web"), ("reason", "deadline")], 2);
        tel.gauge_set("guard_breaker_state", &[("tier", "web"), ("backend", backend)], 0.5);
        tel.observe("web_request_delay_seconds", &[("tier", "web")], &[0.1, 1.0], 0.25);
        tel.series_push("node_power_watts", &[("node", backend)], t, 3.2);
        let track = tel.track_id("web", backend);
        tel.span_on(track, "rpc", "mysql_query", t, t, &[("db_node", &i), ("local", &true), ("path", &"php")]);
    }
}

#[test]
fn telemetry_off_run_stays_under_the_allocation_budget() {
    // a disabled sink: recording with labels and span args is free
    let mut off = Telemetry::off();
    let (sink_allocs, ()) = allocs_during(|| record_batch(&mut off, 1000));
    assert_eq!(sink_allocs, 0, "a disabled sink allocated while recording");
    // the same batch does record on an enabled sink
    let mut on = Telemetry::on();
    record_batch(&mut on, 2);
    assert_eq!(on.registry.counters().count(), 2);
    assert_eq!(on.tracer.spans().len(), 2);

    let cfg = edison_point();
    // the event count of exactly this configuration, from the engine's
    // own profile (profiling does not perturb the run)
    let (_, profile) = stack::run_profiled(cfg.clone(), Telemetry::profiled());
    let events = profile.events();
    assert!(events > 10_000, "point too small to measure: {events} events");

    // warm any lazily initialised process state before counting
    drop(stack::run(cfg.clone()));

    let (setup, world) = allocs_during(|| WebWorld::new(cfg.clone()));
    drop(world);
    let (total, world) = allocs_during(|| stack::run(cfg.clone()));
    assert!(world.metrics.completed > 0, "the point served requests");
    drop(world);

    let per_event = total.saturating_sub(setup) as f64 / events as f64;
    assert!(
        per_event < MAX_ALLOCS_PER_EVENT,
        "{per_event:.4} allocations per event ({total} in stack::run, {setup} in \
         WebWorld::new, {events} events); budget {MAX_ALLOCS_PER_EVENT}"
    );
}
