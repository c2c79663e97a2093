//! The traced run (`--trace 1`): per-layer numbers, timed from the
//! benchmark's own code around the calls into each layer.
//!
//! A round runs every point four ways:
//!
//! 1. **off** — the untraced pass of [`measure::pass`], with allocations
//!    counted inside the entry-point calls;
//! 2. **on** — the same entry points with `Telemetry::on()`;
//! 3. **profiled** — `Telemetry::profiled()`, whose engine profile gives
//!    the event, heap-push and heap-depth counts;
//! 4. **replica** (web points) — the world driven by [`replica`], a copy of
//!    `stack::run`'s initial schedule built from public items, run under
//!    [`HostProfiler`], which reads the clock at every dispatch and
//!    handler return. That gives per-kind handler self time (including
//!    pushing follow-ups) and engine pop time.
//!
//! MapReduce's world is private, so its points get counts and the simtel
//! toggles only. Rounds repeat while another fits in the time budget.

use crate::measure::{self, summarize, Pass, Tally};
use crate::spec::{self, WEB_KIND_GROUPS};
use crate::workloads::{Outcome, Output, Point};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{EngineProfile, NoopObserver, Profiler, Simulation};
use edison_simtel::Telemetry;
use edison_web::stack::{Ev, StackConfig, WebWorld};
use std::time::{Duration, Instant};

/// Host time per web event kind and between events, read from
/// [`Instant`] at every dispatch and handler return.
#[derive(Debug, Clone)]
pub struct HostProfiler {
    kinds: Vec<&'static str>,
    /// Per kind (one extra slot for kinds not in [`spec::web_kinds`]):
    /// handler self time and events handled.
    self_time: Vec<Duration>,
    events: Vec<u64>,
    /// Host time from one handler return to the next dispatch: the heap
    /// pop and the loop around it.
    pop: Duration,
    pops: u64,
    mark: Instant,
    current: usize,
}

impl Default for HostProfiler {
    fn default() -> Self {
        let kinds: Vec<&'static str> = spec::web_kinds().collect();
        let slots = kinds.len() + 1;
        HostProfiler {
            kinds,
            self_time: vec![Duration::ZERO; slots],
            events: vec![0; slots],
            pop: Duration::ZERO,
            pops: 0,
            mark: Instant::now(),
            current: 0,
        }
    }
}

impl HostProfiler {
    /// Events whose kind is missing from [`spec::web_kinds`].
    pub fn unknown_events(&self) -> u64 {
        self.events[self.kinds.len()]
    }

    fn kind(&self, name: &str) -> (u64, Duration) {
        let i = self
            .kinds
            .iter()
            .position(|k| *k == name)
            .unwrap_or(self.kinds.len());
        (self.events[i], self.self_time[i])
    }

    fn attributed(&self) -> Duration {
        self.self_time.iter().sum::<Duration>() + self.pop
    }
}

impl Profiler<Ev> for HostProfiler {
    fn on_dispatch(&mut self, _now: SimTime, event: &Ev, _advanced: SimDuration) {
        let t = Instant::now();
        self.pop += t - self.mark;
        self.pops += 1;
        let kind = event.kind();
        self.current = self
            .kinds
            .iter()
            .position(|k| *k == kind)
            .unwrap_or(self.kinds.len());
        self.mark = t;
    }

    fn on_handled(&mut self, _now: SimTime, _newly_scheduled: usize, _heap_depth: usize) {
        let t = Instant::now();
        self.self_time[self.current] += t - self.mark;
        self.events[self.current] += 1;
        self.mark = t;
    }
}

/// Run `cfg` the way `stack::run` does, from public items: `GenConn` and
/// an idle `Sample` at t = 0, every fault of the normalised plan that
/// falls before the stop, `MeasureStart` after warm-up and `Stop` at its
/// end. Returns the world and the host time of `WebWorld::new` and of
/// the run.
pub fn replica(cfg: &StackConfig, prof: &mut HostProfiler) -> (WebWorld, Duration, Duration) {
    let measure_start = SimTime::ZERO + cfg.warmup;
    let stop = measure_start + cfg.measure;
    let mut plan = cfg.fault_plan.clone();
    if let Some((node, at)) = cfg.kill_web_at {
        plan = plan.crash(node, SimTime::ZERO + at);
    }
    let faults: Vec<SimTime> = plan.normalized().faults().iter().map(|f| f.at).collect();
    let cfg = cfg.clone();
    let t = Instant::now();
    let world = WebWorld::new(cfg);
    let setup = t.elapsed();
    let t = Instant::now();
    let mut sim = Simulation::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::GenConn);
    sim.schedule_idle_at(SimTime::ZERO, Ev::Sample);
    for (idx, at) in faults.into_iter().enumerate() {
        if at < stop {
            sim.schedule_at(at, Ev::Fault { idx });
        }
    }
    sim.schedule_at(measure_start, Ev::MeasureStart);
    sim.schedule_at(stop, Ev::Stop);
    prof.mark = Instant::now();
    sim.run_profiled(&mut NoopObserver, prof);
    let run = t.elapsed();
    (sim.into_world(), setup, run)
}

/// Host time of one round's four passes.
#[derive(Debug, Default)]
struct Round {
    off: Pass,
    off_web_run: Duration,
    on: Duration,
    profiled: Duration,
    /// Replica `WebWorld::new` plus run, and run alone.
    replica: Duration,
    replica_run: Duration,
}

/// Per-point spans of the first round, written out at the end.
#[derive(Debug, Default, Clone)]
struct PointSpans {
    label: String,
    setup: Duration,
    run: Duration,
    check: Duration,
    on: Duration,
    profiled: Duration,
    replica: Duration,
}

/// What a traced run found: per-layer metric values in
/// [`spec::per_layer`] order, report lines for standard output, and each
/// point's warm-up digest.
pub struct Traced {
    pub metrics: Vec<(String, f64)>,
    pub lines: Vec<String>,
    pub digests: Vec<Option<u64>>,
}

/// Run `p` with telemetry `tel` (on or profiled), checking the output
/// against the warm-up digest. Returns the host time of the entry-point
/// call, the spans recorded and, when profiled, the engine profile.
fn telemetry_run(
    p: &Point,
    tel: Telemetry,
    want: Option<u64>,
    tally: &mut Tally,
) -> (Duration, u64, Option<EngineProfile>) {
    let what = format!(
        "{} ({})",
        p.label(),
        if tel.profiling() {
            "profiled"
        } else {
            "telemetry on"
        }
    );
    let prep = match p.prepare() {
        Ok(prep) => prep,
        Err(e) => {
            tally.record(&what, Err(e), want);
            return (Duration::ZERO, 0, None);
        }
    };
    let t = Instant::now();
    let result = prep.run_with(tel);
    let dt = t.elapsed();
    match result {
        Ok(run) => {
            let spans = run.tel.tracer.spans().len() as u64;
            tally.record(&what, Ok(p.outcome(&run.out)), want);
            (dt, spans, run.profile)
        }
        Err(e) => {
            tally.record(&what, Err(e), want);
            (dt, 0, None)
        }
    }
}

/// The traced run over `points`, with `seconds` as its time budget.
pub fn traced(points: &[Point], seconds: f64, tally: &mut Tally) -> Traced {
    let reference = measure::warm_up(points, tally);
    let digests = measure::digests(&reference);
    let mut host = HostProfiler::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut spans: Vec<PointSpans> = Vec::new();
    let mut web_profile = EngineProfile::default();
    let mut mr_profile = EngineProfile::default();
    let mut spans_recorded = 0u64;
    let mut replica_ok = true;

    let start = Instant::now();
    loop {
        let round_start = Instant::now();
        let first = rounds.is_empty();
        let mut r = Round {
            off: measure::pass(points, &digests, tally),
            ..Round::default()
        };
        for (i, p) in points.iter().enumerate() {
            if matches!(p, Point::Web(_)) {
                r.off_web_run += r.off.points[i].run;
            }
            let (on, on_spans, _) = telemetry_run(p, Telemetry::on(), digests[i], tally);
            let (profiled, _, profile) = telemetry_run(p, Telemetry::profiled(), digests[i], tally);
            r.on += on;
            r.profiled += profiled;
            let mut replica_total = Duration::ZERO;
            if let Point::Web(cfg) = p {
                let (world, setup, run) = replica(cfg, &mut host);
                let matched = p.outcome(&Output::Web(world)).digest;
                replica_ok &= Some(matched) == digests[i];
                replica_total = setup + run;
                r.replica += replica_total;
                r.replica_run += run;
            }
            if first {
                spans_recorded += on_spans;
                if let Some(profile) = &profile {
                    let into = if matches!(p, Point::Web(_)) {
                        &mut web_profile
                    } else {
                        &mut mr_profile
                    };
                    into.merge(profile);
                }
                let t = r.off.points[i];
                spans.push(PointSpans {
                    label: p.label(),
                    setup: t.setup,
                    run: t.run,
                    check: t.check,
                    on,
                    profiled,
                    replica: replica_total,
                });
            }
        }
        rounds.push(r);
        let elapsed = start.elapsed();
        if elapsed + round_start.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }

    // ---- reduce to the per-layer metrics --------------------------------
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let median_of =
        |f: &dyn Fn(&Round) -> f64| summarize(&rounds.iter().map(f).collect::<Vec<_>>()).median;
    let events = web_profile.events() + mr_profile.events();
    let n_points = points.len().max(1) as f64;
    let off_run = median_of(&|r| r.off.run_s());
    let allocs = rounds[0].off.allocs;
    let replica_run: Duration = rounds.iter().map(|r| r.replica_run).sum();
    let outcomes: Vec<&Outcome> = reference.iter().flatten().collect();
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();

    let mut m: Vec<(String, f64)> = vec![
        (
            "setup.world_ms".into(),
            median_of(&|r| r.off.setup_s()) / n_points * 1e3,
        ),
        ("engine.events".into(), events as f64),
        (
            "engine.heap_pushes".into(),
            (web_profile.heap_pushes + mr_profile.heap_pushes) as f64,
        ),
        (
            "engine.heap_depth_hwm".into(),
            web_profile.heap_depth_hwm.max(mr_profile.heap_depth_hwm) as f64,
        ),
        ("engine.events_per_s".into(), ratio(events as f64, off_run)),
        (
            "engine.pop_ns".into(),
            ratio(host.pop.as_secs_f64() * 1e9, host.pops as f64),
        ),
        (
            "engine.share".into(),
            ratio(host.pop.as_secs_f64(), replica_run.as_secs_f64()),
        ),
        (
            "alloc.per_event".into(),
            ratio(allocs.allocs as f64, events as f64),
        ),
        (
            "alloc.bytes_per_event".into(),
            ratio(allocs.bytes as f64, events as f64),
        ),
    ];
    for kind in spec::web_kinds() {
        let counted = web_profile.kinds.get(kind).map_or(0, |k| k.dispatched);
        let (timed, self_time) = host.kind(kind);
        m.push((format!("web.{kind}.events"), counted as f64));
        m.push((
            format!("web.{kind}.self_ns"),
            ratio(self_time.as_secs_f64() * 1e9, timed as f64),
        ));
    }
    for (group, kinds) in WEB_KIND_GROUPS {
        let self_time: Duration = kinds.iter().map(|k| host.kind(k).1).sum();
        m.push((
            format!("web.{group}.share"),
            ratio(self_time.as_secs_f64(), replica_run.as_secs_f64()),
        ));
    }
    let node_cpu = web_profile
        .kinds
        .get("node_cpu")
        .map_or(0, |k| k.dispatched);
    m.extend([
        (
            "web.node_cpu.per_req".into(),
            ratio(node_cpu as f64, sum(|o| o.completed_total) as f64),
        ),
        (
            "guard.short_circuit_frac".into(),
            ratio(sum(|o| o.short_circuit) as f64, sum(|o| o.offered) as f64),
        ),
        (
            "guard.breaker_trips".into(),
            sum(|o| o.breaker_trips) as f64,
        ),
        ("fault.retries".into(), sum(|o| o.retries) as f64),
        ("fault.failovers".into(), sum(|o| o.failovers) as f64),
    ]);
    for kind in spec::MR_KINDS {
        m.push((
            format!("mr.{kind}.events"),
            mr_profile.kinds.get(kind).map_or(0, |k| k.dispatched) as f64,
        ));
    }
    m.extend([
        (
            "simtel.on_overhead".into(),
            median_of(&|r| ratio(r.on.as_secs_f64(), r.off.run_s())),
        ),
        (
            "simtel.profiled_overhead".into(),
            median_of(&|r| ratio(r.profiled.as_secs_f64(), r.off.run_s())),
        ),
        (
            "simtel.spans_per_event".into(),
            ratio(spans_recorded as f64, events as f64),
        ),
        (
            "trace.overhead".into(),
            median_of(&|r| ratio(r.replica.as_secs_f64(), r.off_web_run.as_secs_f64())),
        ),
        (
            "trace.coverage".into(),
            ratio(host.attributed().as_secs_f64(), replica_run.as_secs_f64()),
        ),
        (
            "trace.replica_ok".into(),
            if replica_ok { 1.0 } else { 0.0 },
        ),
    ]);
    if host.unknown_events() > 0 {
        tally.messages.push(format!(
            "{} web events of a kind the benchmark does not list",
            host.unknown_events()
        ));
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut lines = vec![format!(
        "traced rounds {}; per-point spans of round 1, ms: setup run check | telemetry-on profiled replica",
        rounds.len()
    )];
    for s in &spans {
        lines.push(format!(
            "  {:<34} {:>8.3} {:>9.3} {:>7.3} | {:>9.3} {:>9.3} {:>9.3}",
            s.label,
            ms(s.setup),
            ms(s.run),
            ms(s.check),
            ms(s.on),
            ms(s.profiled),
            ms(s.replica)
        ));
    }
    Traced {
        metrics: m,
        lines,
        digests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::points;
    use edison_web::stack;

    /// The first point of `workload`, shortened to keep debug-build tests
    /// quick; the crash of `web_overload` stays inside the window.
    fn short_web_point(workload: &str) -> StackConfig {
        let mut pts = points(workload, 7).expect("known workload");
        let Point::Web(mut cfg) = pts.swap_remove(0) else {
            panic!("{workload} is a web workload")
        };
        cfg.warmup = SimDuration::from_secs(1);
        cfg.measure = SimDuration::from_secs(if cfg.fault_plan.is_empty() { 2 } else { 13 });
        cfg
    }

    #[test]
    fn replica_matches_stack_run_on_every_web_workload() {
        for workload in ["web_small", "web_knee", "web_overload"] {
            let cfg = short_web_point(workload);
            let point = Point::Web(cfg.clone());
            let want = point.outcome(&Output::Web(stack::run(cfg.clone())));
            let mut prof = HostProfiler::default();
            let (world, _, run) = replica(&cfg, &mut prof);
            let got = point.outcome(&Output::Web(world));
            assert_eq!(
                got, want,
                "{workload}: replica output differs from stack::run"
            );
            assert_eq!(
                prof.unknown_events(),
                0,
                "{workload}: every event kind is listed"
            );
            assert!(
                prof.attributed() <= run,
                "{workload}: attributed time fits in the run"
            );
        }
    }
}
