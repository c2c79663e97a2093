//! simprof: deterministic self-profiling of the event loop.
//!
//! The paper's headline claims (req/J, time-to-completion) are only as
//! trustworthy as the simulator's own performance envelope, so the engine
//! can profile *itself*: where simulated time goes, which event kinds
//! dominate dispatch, how deep the heap runs. Everything recorded here is
//! a pure function of the world and seed — **no wall-clock values** —
//! so profiles are byte-comparable across machines and `--jobs` widths.
//!
//! Three pieces:
//!
//! * [`Profiler`] — the engine's one hook trait, which
//!   [`Simulation::run_profiled`] reports through. All methods have empty
//!   `#[inline]` default bodies, so a loop instantiated with
//!   [`NoopProfiler`] monomorphizes to exactly the hook-free loop of
//!   [`Simulation::run`].
//! * [`KindProfiler`] — the production impl: classifies events through a
//!   caller-supplied `fn(&E) -> &'static str` (the worlds' `Ev::kind`
//!   classifiers) and accumulates an [`EngineProfile`].
//! * [`EngineProfile`] — the result and the simulator's one set of event
//!   counts: per-kind dispatch/schedule counts and sim-time attribution,
//!   heap pushes, the queue depth at delivery, and the heap-depth
//!   high-water mark with its step track (exportable as a Perfetto
//!   counter track). `simtel` renders both the `sim_*` and the
//!   `profile_*` metrics from it. Profiles
//!   [`merge`](EngineProfile::merge) so a sweep can fold per-point
//!   profiles in input order into one per-experiment breakdown.
//!
//! Profilers receive only borrowed event data; they must not influence
//! scheduling. The engine stays a pure function of world state and seed
//! whether or not it is profiled — enforced by equivalence tests in the
//! stacks (profiled and unprofiled runs produce identical metrics).

use crate::engine::{Model, Simulation};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Hooks into the run loop, called around every delivered event by
/// [`Simulation::run_profiled`].
///
/// Profilers receive only borrowed event data and engine counters; they
/// must not influence scheduling.
pub trait Profiler<E> {
    /// Called once when a run starts, before any delivery. `heap_depth`
    /// is the number of events queued, keyed ones included.
    #[inline]
    fn on_start(&mut self, _heap_depth: usize) {}

    /// Called after the clock advanced to `now` but before the event is
    /// handed to the world. `advanced` is the sim time the clock moved to
    /// reach this event (zero for same-timestamp deliveries).
    #[inline]
    fn on_dispatch(&mut self, _now: SimTime, _event: &E, _advanced: SimDuration) {}

    /// Called after the world handled the event and its follow-ups were
    /// pushed. `newly_scheduled` is the number of follow-up events the
    /// handler enqueued; `heap_depth` is the number of events queued
    /// after those pushes, keyed ones included.
    #[inline]
    fn on_handled(&mut self, _now: SimTime, _newly_scheduled: usize, _heap_depth: usize) {}

    /// Called once if the max-events watchdog halts the run.
    #[inline]
    fn on_watchdog(&mut self, _now: SimTime) {}
}

/// The do-nothing profiler; running with it is identical to running
/// unprofiled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProfiler;

impl<E> Profiler<E> for NoopProfiler {}

/// Per-event-kind accumulators inside an [`EngineProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Events of this kind delivered.
    pub dispatched: u64,
    /// Follow-up events scheduled by handlers of this kind.
    pub scheduled: u64,
    /// Sim time the clock advanced to deliver events of this kind — the
    /// share of the simulated timeline this kind consumed.
    pub advance: SimDuration,
}

/// A deterministic profile of one (or several merged) engine runs.
///
/// Every field is a pure function of world + seed: counts and sim-time
/// durations only, never wall-clock. Wall-clock rates (events/sec) are
/// computed *outside* the profile by the bench harness, which divides
/// these deterministic totals by its own timing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    /// Per-kind breakdowns, keyed by the classifier's static kind name.
    pub kinds: BTreeMap<&'static str, KindStats>,
    /// Total events ever scheduled (initial + follow-ups, plain + keyed):
    /// one per sequence number consumed.
    pub heap_pushes: u64,
    /// Peak queue depth at a delivery: events still queued right after
    /// the pop, keyed ones included (the `sim_heap_depth_max` metric).
    pub dispatch_depth_max: u64,
    /// Heap-depth high-water mark (events queued after a handler ran,
    /// keyed ones included).
    pub heap_depth_hwm: u64,
    /// Each `(time, depth)` step where the high-water mark rose — a
    /// monotone, bounded series exportable as a Perfetto counter track.
    pub hwm_track: Vec<(SimTime, u64)>,
    /// Sim time of the last delivered event.
    pub end: SimTime,
    /// Keyed events dropped undelivered because a later keyed schedule on
    /// the same key replaced them (see
    /// [`Ctx::schedule_keyed`](crate::Ctx::schedule_keyed)). Over a run,
    /// `heap_pushes = events() + superseded + events pending at stop`.
    pub superseded: u64,
}

impl EngineProfile {
    /// Total events delivered (== popped) across all kinds.
    pub fn events(&self) -> u64 {
        self.kinds.values().map(|k| k.dispatched).sum()
    }

    /// Simulated seconds covered by the profile.
    pub fn sim_seconds(&self) -> f64 {
        self.end.as_secs_f64()
    }

    /// Fold `other` into `self`: counts add, depth maxima take the max,
    /// step tracks concatenate in time order (stable, so same-time steps
    /// keep fold order), `end` takes the max.
    ///
    /// Folding a sweep's per-point profiles **in input order** makes the
    /// merged profile independent of worker count — the property the
    /// jobs=1-vs-8 bit-identity test pins.
    pub fn merge(&mut self, other: &EngineProfile) {
        for (kind, stats) in &other.kinds {
            let mine = self.kinds.entry(kind).or_default();
            mine.dispatched += stats.dispatched;
            mine.scheduled += stats.scheduled;
            mine.advance += stats.advance;
        }
        self.heap_pushes += other.heap_pushes;
        self.superseded += other.superseded;
        self.dispatch_depth_max = self.dispatch_depth_max.max(other.dispatch_depth_max);
        self.heap_depth_hwm = self.heap_depth_hwm.max(other.heap_depth_hwm);
        self.hwm_track.extend(other.hwm_track.iter().copied());
        self.hwm_track.sort_by_key(|&(t, _)| t); // stable: fold order kept on ties
        self.end = self.end.max(other.end);
    }
}

/// A [`Profiler`] that accumulates an [`EngineProfile`], classifying
/// events through `F` (typically the world's `Ev::kind`).
#[derive(Debug, Clone)]
pub struct KindProfiler<F> {
    classify: F,
    profile: EngineProfile,
    /// Kind and clock advance of the event currently being handled (set
    /// by `on_dispatch`, counted by `on_handled` with one map lookup).
    current: &'static str,
    advanced: SimDuration,
    /// Queue depth at the last hook: the start of the run or the end of
    /// the last handler. Nothing touches the queue between that hook and
    /// the next pop, so the depth after the pop is one less.
    depth: u64,
}

impl<F> KindProfiler<F> {
    /// New profiler using `classify` to name event kinds.
    pub fn new(classify: F) -> Self {
        KindProfiler {
            classify,
            profile: EngineProfile::default(),
            current: "",
            advanced: SimDuration::ZERO,
            depth: 0,
        }
    }

    /// The profile accumulated so far.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Finish profiling `sim`'s run: fills in the engine-level heap
    /// totals (pushes = every event ever scheduled, superseded = every
    /// keyed event replaced undelivered) and returns the completed profile.
    pub fn finish<M: Model>(mut self, sim: &Simulation<M>) -> EngineProfile {
        self.profile.heap_pushes = sim.scheduled_total();
        self.profile.superseded = sim.superseded_total();
        self.profile
    }
}

impl<E, F: FnMut(&E) -> &'static str> Profiler<E> for KindProfiler<F> {
    fn on_start(&mut self, heap_depth: usize) {
        self.depth = u64::try_from(heap_depth).unwrap_or(u64::MAX);
    }

    fn on_dispatch(&mut self, now: SimTime, event: &E, advanced: SimDuration) {
        self.depth = self.depth.saturating_sub(1);
        self.profile.dispatch_depth_max = self.profile.dispatch_depth_max.max(self.depth);
        self.current = (self.classify)(event);
        self.advanced = advanced;
        self.profile.end = now;
    }

    fn on_handled(&mut self, now: SimTime, newly_scheduled: usize, heap_depth: usize) {
        let k = self.profile.kinds.entry(self.current).or_default();
        k.dispatched += 1;
        k.advance += self.advanced;
        k.scheduled += u64::try_from(newly_scheduled).unwrap_or(u64::MAX);
        let depth = u64::try_from(heap_depth).unwrap_or(u64::MAX);
        self.depth = depth;
        if depth > self.profile.heap_depth_hwm {
            self.profile.heap_depth_hwm = depth;
            self.profile.hwm_track.push((now, depth));
        }
    }

    fn on_watchdog(&mut self, now: SimTime) {
        self.profile.end = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    struct Chain {
        left: u32,
    }
    #[derive(Clone, Copy)]
    enum Ev {
        Tick,
        Tock,
    }
    impl Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Tick => "tick",
                Ev::Tock => "tock",
            }
        }
    }
    impl Model for Chain {
        type Event = Ev;
        fn handle(&mut self, _now: SimTime, ev: Ev, ctx: &mut Ctx<Ev>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            let next = match ev {
                Ev::Tick => Ev::Tock,
                Ev::Tock => Ev::Tick,
            };
            ctx.schedule_in(SimDuration::from_millis(2), next);
        }
    }

    fn profiled_run(left: u32) -> EngineProfile {
        let mut sim = Simulation::new(Chain { left });
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut prof, &mut NoopProfiler);
        prof.finish(&sim)
    }

    #[test]
    fn per_kind_counts_and_advance_attribution() {
        let p = profiled_run(4);
        assert_eq!(p.kinds["tick"].dispatched, 3);
        assert_eq!(p.kinds["tock"].dispatched, 2);
        assert_eq!(p.events(), 5);
        // every handler but the last reschedules once
        let scheduled: u64 = p.kinds.values().map(|k| k.scheduled).sum();
        assert_eq!(scheduled, 4);
        // 4 × 2 ms of clock advance attributed across kinds
        let adv: SimDuration = p
            .kinds
            .values()
            .fold(SimDuration::ZERO, |a, k| a + k.advance);
        assert_eq!(adv, SimDuration::from_millis(8));
        assert_eq!(p.end, SimTime::from_millis(8));
        assert!((p.sim_seconds() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn heap_totals_balance() {
        let p = profiled_run(9);
        assert_eq!(p.heap_pushes, 10, "1 external + 9 follow-ups");
        assert_eq!(p.events(), 10, "heap fully drained");
    }

    /// Re-arms key 0 from every handler, so each delivery supersedes the
    /// key's previous event until `left` runs out.
    struct Rearm {
        left: u32,
    }
    impl Model for Rearm {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, _ev: Ev, ctx: &mut Ctx<Ev>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            ctx.schedule_keyed(0, now + SimDuration::from_millis(5), Ev::Tock);
            ctx.schedule_keyed(0, now + SimDuration::from_millis(3), Ev::Tock);
            ctx.schedule_in(SimDuration::from_millis(1), Ev::Tick);
        }
    }

    #[test]
    fn seq_numbers_balance_pops_superseded_and_pending() {
        let mut sim = Simulation::new(Rearm { left: 40 });
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        // halt part-way, with events still queued
        sim.set_max_events(Some(25));
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut prof, &mut NoopProfiler);
        let pending = sim.pending() as u64;
        let p = prof.finish(&sim);
        assert_eq!(p.events(), 25);
        assert!(pending > 0 && p.superseded > 0);
        assert_eq!(p.heap_pushes, p.events() + p.superseded + pending);
        // and at the end of the run, with nothing left
        let mut sim = Simulation::new(Rearm { left: 40 });
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut prof, &mut NoopProfiler);
        let p = prof.finish(&sim);
        assert_eq!(sim.pending(), 0);
        assert_eq!(p.heap_pushes, 1 + 40 * 3);
        assert_eq!(p.heap_pushes, p.events() + p.superseded);
        assert_eq!(p.kinds["tock"].dispatched, 1, "only the last keyed event survives");
    }

    #[test]
    fn hwm_track_is_monotone_and_bounded() {
        let mut sim = Simulation::new(Chain { left: 0 });
        for i in 0..50u64 {
            sim.schedule_at(SimTime::from_secs(i), Ev::Tick);
        }
        let mut prof = KindProfiler::new(Ev::kind);
        sim.run_profiled(&mut prof, &mut NoopProfiler);
        let p = prof.finish(&sim);
        assert_eq!(p.heap_depth_hwm, 49, "depth after first delivery");
        assert_eq!(p.dispatch_depth_max, 49, "depth right after the first pop");
        // the track only records *rises*, so it is strictly increasing in
        // depth and never longer than the high-water mark itself
        assert!(p.hwm_track.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(p.hwm_track.len(), 1, "depth only falls after the first pop");
    }

    #[test]
    fn merge_adds_counts_and_maxes_hwm() {
        let mut a = profiled_run(4);
        let b = profiled_run(9);
        let a_events = a.events();
        let b_events = b.events();
        a.merge(&b);
        assert_eq!(a.events(), a_events + b_events);
        assert_eq!(a.heap_pushes, 5 + 10);
        assert_eq!(a.end, SimTime::from_millis(18));
        // merge order is deterministic: same fold → same profile
        let mut c = profiled_run(4);
        c.merge(&profiled_run(9));
        assert_eq!(a, c);
    }

    #[test]
    fn profiled_run_matches_unprofiled() {
        let build = || {
            let mut sim = Simulation::new(Chain { left: 100 });
            sim.schedule_at(SimTime::ZERO, Ev::Tick);
            sim
        };
        let mut plain = build();
        plain.run();
        let mut profiled = build();
        let mut prof = KindProfiler::new(Ev::kind);
        profiled.run_profiled(&mut prof, &mut NoopProfiler);
        assert_eq!(plain.now(), profiled.now());
        assert_eq!(plain.processed(), profiled.processed());
        assert_eq!(plain.world().left, profiled.world().left);
    }
}
