//! The `sim_*` engine metrics, pinned line for line on toy worlds.
//!
//! Each case runs a scripted world the way the web and MapReduce stacks
//! run a traced simulation and compares the whole Prometheus text with a
//! committed string. The four cases cover the readings that are easy to
//! get wrong: the queue depth at the first delivery, keyed supersedes in
//! the middle of a run, a stop that leaves events queued, and a watchdog
//! trip.

use edison_simcore::{Ctx, KindProfiler, Model, NoopProfiler, SimDuration, SimTime, Simulation};
use edison_simtel::{record_sim_metrics, Telemetry};

/// A world whose events run a fixed script: delivering id `k` performs
/// `script[k]`.
struct Script {
    script: Vec<Vec<Op>>,
}

#[derive(Clone, Copy)]
enum Op {
    /// A plain event at an absolute time.
    At { ms: u64, id: u32 },
    /// A plain event after a delay.
    After { ms: u64, id: u32 },
    /// The one pending event of `key`, replacing any earlier one.
    Keyed { key: usize, ms: u64, id: u32 },
    Stop,
}

impl Model for Script {
    type Event = u32;
    fn handle(&mut self, now: SimTime, id: u32, ctx: &mut Ctx<u32>) {
        for op in self.script.get(id as usize).cloned().unwrap_or_default() {
            match op {
                Op::At { ms, id } => ctx.schedule_at(SimTime::from_millis(ms), id),
                Op::After { ms, id } => ctx.schedule_at(now + SimDuration::from_millis(ms), id),
                Op::Keyed { key, ms, id } => ctx.schedule_keyed(key, SimTime::from_millis(ms), id),
                Op::Stop => ctx.stop(),
            }
        }
    }
}

fn kind(id: &u32) -> &'static str {
    if id % 2 == 0 {
        "even"
    } else {
        "odd"
    }
}

/// Build a simulation over `script` with `initial` scheduled at t = 0.
fn sim(script: Vec<Vec<Op>>, initial: &[u32]) -> Simulation<Script> {
    let mut sim = Simulation::new(Script { script });
    for &id in initial {
        sim.schedule_at(SimTime::ZERO, id);
    }
    sim
}

/// Run `sim` traced and return the `sim_*` Prometheus text.
fn sim_prom(mut sim: Simulation<Script>) -> String {
    let mut prof = KindProfiler::new(kind);
    sim.run_profiled(&mut prof, &mut NoopProfiler);
    let profile = prof.finish(&sim);
    let mut tel = Telemetry::on();
    record_sim_metrics(&mut tel, "toy", &profile, sim.watchdog_tripped());
    tel.prometheus_text()
}

#[test]
fn first_delivery_holds_the_post_pop_maximum() {
    // five events at one instant, none scheduling anything: the deepest
    // queue is the one left behind by the very first pop
    let got = sim_prom(sim(vec![], &[0, 1, 2, 3, 4]));
    let want = "\
# HELP sim_events_scheduled_total follow-up events scheduled by handlers
# TYPE sim_events_scheduled_total counter
sim_events_scheduled_total{world=\"toy\"} 0
# HELP sim_events_total events delivered by the engine, by kind
# TYPE sim_events_total counter
sim_events_total{kind=\"even\",world=\"toy\"} 3
sim_events_total{kind=\"odd\",world=\"toy\"} 2
# HELP sim_end_seconds sim time when the run finished
# TYPE sim_end_seconds gauge
sim_end_seconds{world=\"toy\"} 0
# HELP sim_heap_depth_max peak event-heap depth during the run
# TYPE sim_heap_depth_max gauge
sim_heap_depth_max{world=\"toy\"} 4
";
    assert_eq!(got, want);
}

#[test]
fn keyed_supersedes_mid_run() {
    let mut script = vec![vec![]; 7];
    script[0] = vec![
        Op::Keyed { key: 0, ms: 5, id: 1 },
        Op::At { ms: 2, id: 2 },
        Op::At { ms: 3, id: 3 },
    ];
    // at 2 ms: replaces id 1, queued by an earlier handle
    script[2] = vec![Op::Keyed { key: 0, ms: 4, id: 4 }, Op::Keyed { key: 1, ms: 6, id: 5 }];
    // at 3 ms: replaces id 5
    script[3] = vec![Op::Keyed { key: 1, ms: 7, id: 6 }];
    let got = sim_prom(sim(script, &[0]));
    // three events wait after id 2's handler, but at most two after a pop
    let want = "\
# HELP sim_events_scheduled_total follow-up events scheduled by handlers
# TYPE sim_events_scheduled_total counter
sim_events_scheduled_total{world=\"toy\"} 6
# HELP sim_events_total events delivered by the engine, by kind
# TYPE sim_events_total counter
sim_events_total{kind=\"even\",world=\"toy\"} 4
sim_events_total{kind=\"odd\",world=\"toy\"} 1
# HELP sim_end_seconds sim time when the run finished
# TYPE sim_end_seconds gauge
sim_end_seconds{world=\"toy\"} 0.007
# HELP sim_heap_depth_max peak event-heap depth during the run
# TYPE sim_heap_depth_max gauge
sim_heap_depth_max{world=\"toy\"} 2
";
    assert_eq!(got, want);
}

#[test]
fn stop_leaves_events_pending() {
    let mut script = vec![vec![]; 5];
    script[0] = vec![Op::At { ms: 1, id: 1 }, Op::At { ms: 2, id: 2 }, Op::At { ms: 3, id: 3 }];
    script[1] = vec![Op::Stop, Op::At { ms: 5, id: 4 }];
    let got = sim_prom(sim(script, &[0]));
    let want = "\
# HELP sim_events_scheduled_total follow-up events scheduled by handlers
# TYPE sim_events_scheduled_total counter
sim_events_scheduled_total{world=\"toy\"} 4
# HELP sim_events_total events delivered by the engine, by kind
# TYPE sim_events_total counter
sim_events_total{kind=\"even\",world=\"toy\"} 1
sim_events_total{kind=\"odd\",world=\"toy\"} 1
# HELP sim_end_seconds sim time when the run finished
# TYPE sim_end_seconds gauge
sim_end_seconds{world=\"toy\"} 0.001
# HELP sim_heap_depth_max peak event-heap depth during the run
# TYPE sim_heap_depth_max gauge
sim_heap_depth_max{world=\"toy\"} 2
";
    assert_eq!(got, want);
}

#[test]
fn watchdog_trip_is_counted() {
    // every delivery of id 0 schedules two more: a runaway the budget halts
    let script = vec![vec![Op::After { ms: 1, id: 0 }, Op::After { ms: 2, id: 1 }]];
    let mut s = sim(script, &[0]);
    s.set_max_events(Some(6));
    let got = sim_prom(s);
    let want = "\
# HELP sim_events_scheduled_total follow-up events scheduled by handlers
# TYPE sim_events_scheduled_total counter
sim_events_scheduled_total{world=\"toy\"} 8
# HELP sim_events_total events delivered by the engine, by kind
# TYPE sim_events_total counter
sim_events_total{kind=\"even\",world=\"toy\"} 4
sim_events_total{kind=\"odd\",world=\"toy\"} 2
# HELP sim_watchdog_trips_total runs halted by the max-events watchdog
# TYPE sim_watchdog_trips_total counter
sim_watchdog_trips_total{world=\"toy\"} 1
# HELP sim_end_seconds sim time when the run finished
# TYPE sim_end_seconds gauge
sim_end_seconds{world=\"toy\"} 0.003
# HELP sim_heap_depth_max peak event-heap depth during the run
# TYPE sim_heap_depth_max gauge
sim_heap_depth_max{world=\"toy\"} 2
";
    assert_eq!(got, want);
}
