//! # edison-simtel
//!
//! Deterministic telemetry for the simulator: span tracing, a metrics
//! registry, and exporters (Chrome trace-event JSON for Perfetto,
//! Prometheus text exposition, CSV via `edison-core`).
//!
//! ## Design rules
//!
//! * **Free when disabled.** Every recording call on [`Telemetry`] is an
//!   inlined test of one bool in front of an out-of-line body. Labels are
//!   borrowed `(name, value)` slices and span arguments borrowed
//!   [`Display`](std::fmt::Display) values; the owned label map and the
//!   rendered argument strings are built only inside the enabled branch,
//!   so a disabled sink allocates nothing. Worlds therefore record
//!   unconditionally and never branch on the flag themselves, except to
//!   skip work the sink cannot see: formatting an owned label value,
//!   interning tracks, or looping over recorded data. An untraced run
//!   calls `Simulation::run`, the loop with no engine hooks.
//! * **Deterministic.** All timestamps are [`SimTime`] (never wall clock),
//!   every map is a `BTreeMap`, span/track identity is assigned in first-use
//!   order, and float formatting goes through Rust's shortest-roundtrip
//!   `{}`. Two same-seed runs therefore serialize to *byte-identical*
//!   output — enforced by golden tests in the workspace root.
//! * **Static metric names.** Metric and label *names* are `&'static str`;
//!   only label *values* are stored as owned strings. Naming follows the
//!   Prometheus conventions: `<subsystem>_<noun>_<unit>` with `_total` for counters,
//!   e.g. `web_requests_total`, `web_request_delay_seconds`,
//!   `node_power_watts`, `sim_events_total`.
//!
//! ## Map of the crate
//!
//! * [`metrics`] — [`Registry`] of counters / gauges / histograms /
//!   timeseries keyed by `(name, labels)`.
//! * [`span`] — [`Tracer`]: complete-event spans on interned
//!   (process, thread) tracks.
//! * [`profile`] — [`record_sim_metrics`] and [`record_engine_profile`]
//!   render an [`edison_simcore::EngineProfile`], the engine's per-kind
//!   event counts, as the `sim_*` and `profile_*` metrics.
//! * [`export`] — the serializers, plus a dependency-free JSON validity
//!   checker used by tests.

pub mod export;
pub mod metrics;
pub mod profile;
pub mod span;

pub use metrics::{Histogram, Labels, Registry};
pub use profile::{record_engine_profile, record_sim_metrics};
pub use span::{Span, Tracer};

use edison_simcore::time::SimTime;
use std::fmt::Display;

/// The telemetry sink handed through a simulation run.
///
/// Construct with [`Telemetry::off`] (all recording calls are no-ops, one
/// branch each) or [`Telemetry::on`]. Worlds record unconditionally; the
/// flag decides whether anything sticks.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    enabled: bool,
    /// Engine self-profiling requested (see [`Telemetry::profiled`]). Worlds
    /// that support it run the event loop through a
    /// [`edison_simcore::Profiler`] and record the resulting
    /// [`edison_simcore::EngineProfile`] as `profile_*` metrics.
    profiling: bool,
    /// Counters, gauges, histograms and timeseries.
    pub registry: Registry,
    /// Span-style traces.
    pub tracer: Tracer,
}

impl Telemetry {
    /// A disabled sink: every recording call is a cheap no-op.
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// An enabled sink.
    pub fn on() -> Self {
        Telemetry { enabled: true, ..Telemetry::default() }
    }

    /// An enabled sink that also requests engine self-profiling.
    pub fn profiled() -> Self {
        Telemetry { enabled: true, profiling: true, ..Telemetry::default() }
    }

    /// Set the profiling request on an existing sink (builder-style).
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Whether recording is active. Recording calls are already gated and
    /// take borrowed labels, so callers need this only to skip work the
    /// sink cannot see: formatting an owned label value, interning tracks,
    /// or looping over recorded data.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Whether engine self-profiling was requested. Only meaningful when
    /// [`is_on`](Self::is_on); worlds check this to decide whether to
    /// export the `profile_*` metrics next to the `sim_*` ones.
    pub fn profiling(&self) -> bool {
        self.enabled && self.profiling
    }

    /// An empty sink with the same enablement and profiling flags as `self`.
    ///
    /// Sweeps hand one of these to each side-run and [`merge`](Self::merge)
    /// the results back, so per-run sinks inherit the parent's configuration
    /// instead of reconstructing it (which used to silently drop flags like
    /// the profiling request).
    pub fn child(&self) -> Telemetry {
        Telemetry {
            enabled: self.enabled,
            profiling: self.profiling,
            ..Telemetry::default()
        }
    }

    /// Register one-line help text for a metric (shown as `# HELP` in the
    /// Prometheus exposition).
    pub fn help(&mut self, name: &'static str, text: &'static str) {
        if self.enabled {
            self.registry.help(name, text);
        }
    }

    /// Add `delta` to the counter `name{labels}`.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        if self.enabled {
            self.registry.counter_add(name, labels, delta);
        }
    }

    /// Increment the counter `name{labels}` by one.
    #[inline]
    pub fn counter_inc(&mut self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Set the gauge `name{labels}` to `v`.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        if self.enabled {
            self.registry.gauge_set(name, labels, v);
        }
    }

    /// Record `v` into the histogram `name{labels}`; the histogram is
    /// created with `bounds` (strictly increasing upper bounds, `+Inf`
    /// implicit) on first use.
    #[inline]
    pub fn observe(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [f64],
        v: f64,
    ) {
        if self.enabled {
            self.registry.observe(name, labels, bounds, v);
        }
    }

    /// Append `(t, v)` to the timeseries `name{labels}`.
    #[inline]
    pub fn series_push(&mut self, name: &'static str, labels: &[(&'static str, &str)], t: SimTime, v: f64) {
        if self.enabled {
            self.registry.series_push(name, labels, t, v);
        }
    }

    /// Intern the `(process, thread)` track and return its id for use with
    /// [`span_on`](Self::span_on). Hot paths call this once per track (e.g.
    /// per node at world construction) and record every subsequent span by
    /// id, with no per-event string formatting or comparison. Returns 0 on a
    /// disabled sink (where [`span_on`](Self::span_on) is a no-op anyway).
    pub fn track_id(&mut self, process: &str, thread: &str) -> usize {
        if self.enabled {
            self.tracer.track(process, thread)
        } else {
            0
        }
    }

    /// Record a complete span `[start, end)` on a previously interned track
    /// id (see [`track_id`](Self::track_id)). `cat` is the Perfetto
    /// category; `args` become span arguments, rendered through `Display`
    /// only when the sink is enabled.
    #[inline]
    pub fn span_on(
        &mut self,
        track: usize,
        cat: &'static str,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, &dyn Display)],
    ) {
        if self.enabled {
            self.tracer.span(track, cat, name, start, end, args);
        }
    }

    /// Fold `other` into `self`: counters add, gauges take `other`'s value,
    /// histograms with equal bounds merge, timeseries concatenate in time
    /// order, spans append with tracks re-interned. Deterministic given
    /// deterministic inputs and a fixed merge order.
    pub fn merge(&mut self, other: Telemetry) {
        self.enabled = self.enabled || other.enabled;
        self.profiling = self.profiling || other.profiling;
        self.registry.merge(other.registry);
        self.tracer.merge(other.tracer);
    }

    /// Serialize all spans and timeseries as a Chrome trace-event JSON
    /// array, loadable at <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(self)
    }

    /// Serialize counters, gauges and histograms as Prometheus text
    /// exposition (timeseries appear as their final value).
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Telemetry::off();
        t.counter_inc("x_total", &[]);
        t.gauge_set("g", &[], 1.0);
        t.observe("h_seconds", &[], &[1.0], 0.5);
        t.series_push("s", &[], SimTime::ZERO, 1.0);
        let track = t.track_id("p", "t");
        t.span_on(track, "c", "n", SimTime::ZERO, SimTime::from_secs(1), &[]);
        assert!(!t.is_on());
        assert_eq!(t.registry.counters().count(), 0);
        assert_eq!(t.tracer.spans().len(), 0);
    }

    #[test]
    fn on_records_and_merges() {
        let mut a = Telemetry::on();
        a.counter_add("x_total", &[("k", "1")], 2);
        let mut b = Telemetry::on();
        b.counter_add("x_total", &[("k", "1")], 3);
        let track = b.track_id("p", "t");
        b.span_on(track, "c", "n", SimTime::ZERO, SimTime::from_secs(1), &[]);
        a.merge(b);
        let got: Vec<_> = a.registry.counters().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, 5);
        assert_eq!(a.tracer.spans().len(), 1);
    }
}
