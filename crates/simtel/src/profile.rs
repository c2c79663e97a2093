//! Export surface for engine profiles.
//!
//! Two functions map an [`EngineProfile`] onto the ordinary metric
//! vocabulary, so engine counts ride the existing exporters with no new
//! serialization code: every metric below appears in the Prometheus text
//! exposition and the long-form telemetry CSV.
//!
//! [`record_sim_metrics`] writes the `sim_*` summary every traced run
//! exports:
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `sim_events_total` | counter | `world`, `kind` |
//! | `sim_events_scheduled_total` | counter | `world` |
//! | `sim_heap_depth_max` | gauge | `world` |
//! | `sim_end_seconds` | gauge | `world` |
//!
//! [`record_engine_profile`] writes the `profile_*` breakdown (simprof) of
//! profiled runs; the heap-depth high-water track becomes a `"C"` counter
//! track in the Chrome trace JSON (rendered as a counter lane by Perfetto):
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `profile_events_total` | counter | `world`, `kind` |
//! | `profile_scheduled_total` | counter | `world`, `kind` |
//! | `profile_advance_seconds` | gauge | `world`, `kind` |
//! | `profile_phase_events_total` | counter | `world`, `phase` |
//! | `profile_phase_advance_seconds` | gauge | `world`, `phase` |
//! | `profile_heap_pushes_total` | counter | `world` |
//! | `profile_heap_pops_total` | counter | `world` |
//! | `profile_superseded_total` | counter | `world` |
//! | `profile_heap_depth_max` | gauge | `world` |
//! | `profile_heap_depth` | series | `world` |
//! | `profile_end_seconds` | gauge | `world` |
//!
//! All values are deterministic: counts and sim-seconds only.
//!
//! *Phases* roll event kinds up into a handful of coarse buckets (load
//! generation vs request path vs control traffic vs fault machinery) via a
//! world-supplied classifier, mirroring how the paper discusses workload
//! structure rather than individual event types.

use crate::Telemetry;
use edison_simcore::profile::EngineProfile;
use std::collections::BTreeMap;

/// Record the `sim_*` summary of `profile` into `tel`, labelled with
/// `world`.
pub fn record_sim_metrics(tel: &mut Telemetry, world: &str, profile: &EngineProfile) {
    if !tel.is_on() {
        return;
    }
    tel.help("sim_events_total", "events delivered by the engine, by kind");
    tel.help("sim_events_scheduled_total", "follow-up events scheduled by handlers");
    tel.help("sim_heap_depth_max", "peak event-heap depth during the run");
    tel.help("sim_end_seconds", "sim time when the run finished");
    for (kind, stats) in &profile.kinds {
        tel.counter_add(
            "sim_events_total",
            &[("world", world), ("kind", kind)],
            stats.dispatched,
        );
    }
    let scheduled = profile.kinds.values().map(|k| k.scheduled).sum();
    tel.counter_add("sim_events_scheduled_total", &[("world", world)], scheduled);
    tel.gauge_set(
        "sim_heap_depth_max",
        &[("world", world)],
        profile.dispatch_depth_max as f64,
    );
    tel.gauge_set("sim_end_seconds", &[("world", world)], profile.sim_seconds());
}

/// Register `# HELP` texts for the `profile_*` vocabulary.
pub fn profile_help(tel: &mut Telemetry) {
    tel.help("profile_events_total", "events dispatched per kind (simprof)");
    tel.help("profile_scheduled_total", "follow-up events scheduled per kind (simprof)");
    tel.help("profile_advance_seconds", "sim-time advance attributed per kind (simprof)");
    tel.help("profile_phase_events_total", "events dispatched per phase (simprof)");
    tel.help("profile_phase_advance_seconds", "sim-time advance attributed per phase (simprof)");
    tel.help("profile_heap_pushes_total", "events pushed onto the heap (simprof)");
    tel.help("profile_heap_pops_total", "events popped off the heap (simprof)");
    tel.help(
        "profile_superseded_total",
        "keyed events replaced before delivery (simprof)",
    );
    tel.help("profile_heap_depth_max", "heap depth high-water mark (simprof)");
    tel.help("profile_heap_depth", "heap depth high-water steps over sim time (simprof)");
    tel.help("profile_end_seconds", "sim time of the last profiled event (simprof)");
}

/// Record `profile` into `tel` under the `profile_*` vocabulary, labelled
/// with `world`. `phase_of` maps each event-kind name to a coarse phase
/// bucket for the per-phase rollup.
///
/// Recording is ordinary metric traffic: deterministic given a
/// deterministic profile, byte-identical across same-seed runs, and merged
/// across worlds/runs by [`Telemetry::merge`] like any other metric.
pub fn record_engine_profile(
    tel: &mut Telemetry,
    world: &str,
    profile: &EngineProfile,
    phase_of: fn(&'static str) -> &'static str,
) {
    if !tel.is_on() {
        return;
    }
    profile_help(tel);
    let mut phases: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (kind, stats) in &profile.kinds {
        tel.counter_add(
            "profile_events_total",
            &[("world", world), ("kind", kind)],
            stats.dispatched,
        );
        tel.counter_add(
            "profile_scheduled_total",
            &[("world", world), ("kind", kind)],
            stats.scheduled,
        );
        tel.gauge_set(
            "profile_advance_seconds",
            &[("world", world), ("kind", kind)],
            stats.advance.as_secs_f64(),
        );
        let p = phases.entry(phase_of(kind)).or_insert((0, 0.0));
        p.0 += stats.dispatched;
        p.1 += stats.advance.as_secs_f64();
    }
    for (phase, (events, advance)) in phases {
        tel.counter_add(
            "profile_phase_events_total",
            &[("world", world), ("phase", phase)],
            events,
        );
        tel.gauge_set(
            "profile_phase_advance_seconds",
            &[("world", world), ("phase", phase)],
            advance,
        );
    }
    tel.counter_add("profile_heap_pushes_total", &[("world", world)], profile.heap_pushes);
    // every pop delivers an event
    tel.counter_add("profile_heap_pops_total", &[("world", world)], profile.events());
    tel.counter_add(
        "profile_superseded_total",
        &[("world", world)],
        profile.superseded,
    );
    tel.gauge_set(
        "profile_heap_depth_max",
        &[("world", world)],
        profile.heap_depth_hwm as f64,
    );
    for &(t, depth) in &profile.hwm_track {
        tel.series_push(
            "profile_heap_depth",
            &[("world", world)],
            t,
            depth as f64,
        );
    }
    tel.gauge_set("profile_end_seconds", &[("world", world)], profile.sim_seconds());
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_simcore::profile::KindStats;
    use edison_simcore::{SimDuration, SimTime};

    fn sample_profile() -> EngineProfile {
        let mut p = EngineProfile::default();
        p.kinds.insert(
            "gen_conn",
            KindStats { dispatched: 10, scheduled: 10, advance: SimDuration::from_millis(5) },
        );
        p.kinds.insert(
            "node_cpu",
            KindStats { dispatched: 30, scheduled: 25, advance: SimDuration::from_millis(20) },
        );
        p.heap_pushes = 41;
        p.superseded = 1;
        p.dispatch_depth_max = 6;
        p.heap_depth_hwm = 7;
        p.hwm_track = vec![(SimTime::from_millis(1), 3), (SimTime::from_millis(9), 7)];
        p.end = SimTime::from_millis(25);
        p
    }

    fn phase(kind: &'static str) -> &'static str {
        match kind {
            "gen_conn" => "load-gen",
            _ => "request-path",
        }
    }

    #[test]
    fn profile_lands_in_metric_vocabulary() {
        let mut tel = Telemetry::on();
        record_engine_profile(&mut tel, "web", &sample_profile(), phase);
        let prom = tel.prometheus_text();
        assert!(prom.contains("profile_events_total{kind=\"gen_conn\",world=\"web\"} 10"));
        assert!(prom.contains("profile_events_total{kind=\"node_cpu\",world=\"web\"} 30"));
        assert!(prom.contains("profile_phase_events_total{phase=\"load-gen\",world=\"web\"} 10"));
        assert!(prom.contains("profile_heap_pushes_total{world=\"web\"} 41"));
        assert!(prom.contains("profile_superseded_total{world=\"web\"} 1"));
        assert!(prom.contains("profile_heap_depth_max{world=\"web\"} 7"));
        assert!(prom.contains("# HELP profile_events_total"));
    }

    #[test]
    fn hwm_track_becomes_counter_series() {
        let mut tel = Telemetry::on();
        record_engine_profile(&mut tel, "web", &sample_profile(), phase);
        let json = tel.chrome_trace_json();
        // series export as Perfetto "C" counter events in the metrics process
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("profile_heap_depth{world=web}"));
        crate::export::validate_json(&json).unwrap();
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut tel = Telemetry::off();
        record_engine_profile(&mut tel, "web", &sample_profile(), phase);
        assert_eq!(tel.registry.counters().count(), 0);
    }

    #[test]
    fn recording_is_deterministic() {
        let once = || {
            let mut tel = Telemetry::on();
            record_engine_profile(&mut tel, "web", &sample_profile(), phase);
            (tel.prometheus_text(), tel.chrome_trace_json())
        };
        assert_eq!(once(), once());
    }
}
