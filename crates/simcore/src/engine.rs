//! The discrete-event loop.
//!
//! A simulation is a user-defined *world* (anything implementing [`Model`])
//! plus a time-ordered event heap. The world's [`Model::handle`] method is
//! called for each event in time order and may schedule further events
//! through the [`Ctx`] handle it receives.
//!
//! Two properties matter for a reproduction study:
//!
//! 1. **Determinism** — events at equal timestamps are delivered in the order
//!    they were scheduled (a monotone sequence number breaks ties), so a run
//!    is a pure function of the world's initial state and seed.
//! 2. **Cancellation without tombstone leaks** — models that need to retract
//!    a tentative event (e.g. a fluid-resource completion that became stale
//!    when a new flow arrived) do so by carrying an epoch counter inside the
//!    event payload and ignoring stale epochs on delivery. The kernel itself
//!    never removes events from the heap; this keeps the hot path a plain
//!    binary-heap push/pop.

use crate::profile::{NoopProfiler, Profiler};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A world that can be simulated.
///
/// Implementations own all mutable state of the system under study and
/// dispatch on their own event enum.
pub trait Model {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at simulated time `now`, scheduling follow-ups on `ctx`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut Ctx<Self::Event>);
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
    /// Idle-advance marker: the event exists only to move the clock through a
    /// quiescent period (health-check ticks, heartbeat timers) and is exempt
    /// from the max-events watchdog budget. Delivery order is unaffected.
    idle: bool,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Scheduling handle passed to [`Model::handle`].
///
/// `Ctx` exposes the current time and lets the model enqueue future events.
/// It is also the only way to stop a run early from inside the model.
pub struct Ctx<E> {
    now: SimTime,
    seq: u64,
    pending: Vec<Scheduled<E>>,
    stop: bool,
}

impl<E> Ctx<E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics in debug builds if `at` is in the past; the kernel never
    /// rewinds time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.pending.push(Scheduled { at, seq, event, idle: false });
    }

    /// Schedule `event` after a delay of `d`.
    pub fn schedule_in(&mut self, d: SimDuration, event: E) {
        self.schedule_at(self.now + d, event);
    }

    /// Schedule an **idle-advance** event at absolute time `at`.
    ///
    /// Idle events deliver exactly like normal ones but do not count against
    /// the [`Simulation::set_max_events`] budget. Use them for pure timers
    /// that keep the clock moving through quiescent periods — LB health
    /// checks, liveness heartbeats, metric sampling — so a fault-induced
    /// lull cannot trip the runaway-loop watchdog spuriously.
    pub fn schedule_idle_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.pending.push(Scheduled { at, seq, event, idle: true });
    }

    /// Schedule an idle-advance event after a delay of `d` (see
    /// [`schedule_idle_at`](Self::schedule_idle_at)).
    pub fn schedule_idle_in(&mut self, d: SimDuration, event: E) {
        self.schedule_idle_at(self.now + d, event);
    }

    /// Schedule `event` immediately (same timestamp, after currently queued
    /// same-time events).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Request that the run loop stop after the current event.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// Hooks into the event loop, called around every delivered event.
///
/// All methods have empty `#[inline]` default bodies, so a generic run loop
/// instantiated with [`NoopObserver`] monomorphizes to exactly the
/// unobserved loop — observation is zero-cost when disabled.
///
/// Observers receive only borrowed event data and engine counters; they must
/// not influence scheduling (the engine stays a pure function of world state
/// and seed whether or not it is observed).
pub trait Observer<E> {
    /// Called after the clock advanced to `now` but before the event is
    /// handed to the world. `heap_depth` is the number of events still
    /// queued (excluding the one being delivered).
    #[inline]
    fn pre_event(&mut self, _now: SimTime, _event: &E, _heap_depth: usize) {}

    /// Called after the world handled the event. `newly_scheduled` is the
    /// number of follow-up events the handler enqueued; `processed` is the
    /// total delivered so far.
    #[inline]
    fn post_event(&mut self, _now: SimTime, _newly_scheduled: usize, _processed: u64) {}

    /// Called once if the max-events watchdog halts the run (see
    /// [`Simulation::set_max_events`]).
    #[inline]
    fn on_watchdog(&mut self, _now: SimTime, _processed: u64) {}
}

/// The do-nothing observer; running with it is identical to running
/// unobserved.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<E> Observer<E> for NoopObserver {}

/// A running simulation: world + event heap + clock.
pub struct Simulation<M: Model> {
    world: M,
    heap: BinaryHeap<Reverse<Scheduled<M::Event>>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    budgeted: u64,
    stopped: bool,
    max_events: Option<u64>,
    watchdog_tripped: bool,
    /// The follow-up buffer lent to each handle as `Ctx.pending` and
    /// drained back into the heap, so delivering an event allocates
    /// nothing once it has grown to the largest fan-out seen.
    spare: Vec<Scheduled<M::Event>>,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `world` starting at t = 0 with an empty heap.
    pub fn new(world: M) -> Self {
        Simulation {
            world,
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            budgeted: 0,
            stopped: false,
            max_events: None,
            watchdog_tripped: false,
            spare: Vec::new(),
        }
    }

    /// Arm (or with `None`, disarm) the runaway-run watchdog: once the number
    /// of **budgeted** (non-idle) events delivered reaches `limit` the loop
    /// refuses to deliver further events, marks the run stopped, and reports
    /// through [`Observer::on_watchdog`].
    ///
    /// A tripped watchdog means the world is live-locked (e.g. an event that
    /// reschedules itself forever without advancing the experiment) — the
    /// budget exists so such bugs surface as a diagnostic instead of a hang.
    /// Idle-advance events ([`Ctx::schedule_idle_at`]) are exempt: a
    /// crash-induced quiescent period that is bridged only by periodic timer
    /// ticks does not consume budget, so `watchdog_tripped` fires only on
    /// genuine runaway loops.
    pub fn set_max_events(&mut self, limit: Option<u64>) {
        self.max_events = limit;
    }

    /// True if a run was halted by the max-events watchdog.
    pub fn watchdog_tripped(&self) -> bool {
        self.watchdog_tripped
    }

    /// Current simulated time (the timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far (idle-advance events included).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of budgeted (non-idle) events delivered so far — the counter
    /// the max-events watchdog compares against its limit.
    pub fn budgeted_processed(&self) -> u64 {
        self.budgeted
    }

    /// Total events ever scheduled (heap pushes), external and follow-up
    /// alike. Every schedule consumes one sequence number, so this is the
    /// push half of the heap push/pop balance a profiler reports;
    /// [`processed`](Self::processed) is the pop half.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Shared access to the world.
    pub fn world(&self) -> &M {
        &self.world
    }

    /// Exclusive access to the world (for post-run metric extraction or
    /// pre-run configuration).
    pub fn world_mut(&mut self) -> &mut M {
        &mut self.world
    }

    /// Consume the simulation and return the world.
    pub fn into_world(self) -> M {
        self.world
    }

    /// True once [`Ctx::stop`] has been honoured or the heap has drained.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Schedule an initial event from outside the world.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event, idle: false }));
    }

    /// Schedule an initial idle-advance event from outside the world (see
    /// [`Ctx::schedule_idle_at`]): exempt from the max-events budget.
    pub fn schedule_idle_at(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event, idle: true }));
    }

    /// Deliver the next event, if any. Returns `false` when the heap is empty
    /// or a stop was requested.
    pub fn step(&mut self) -> bool {
        self.step_observed(&mut NoopObserver)
    }

    /// [`step`](Self::step), reporting to `obs`. With [`NoopObserver`] this
    /// compiles to the same code as the unobserved step.
    pub fn step_observed<O: Observer<M::Event>>(&mut self, obs: &mut O) -> bool {
        self.step_inner(obs, &mut NoopProfiler)
    }

    /// [`step`](Self::step), reporting to both `obs` (world-level metrics)
    /// and `prof` (engine self-measurement). With [`NoopProfiler`] this
    /// compiles to the same code as [`step_observed`](Self::step_observed).
    pub fn step_profiled<O: Observer<M::Event>, P: Profiler<M::Event>>(
        &mut self,
        obs: &mut O,
        prof: &mut P,
    ) -> bool {
        self.step_inner(obs, prof)
    }

    fn step_inner<O: Observer<M::Event>, P: Profiler<M::Event>>(
        &mut self,
        obs: &mut O,
        prof: &mut P,
    ) -> bool {
        if self.stopped {
            return false;
        }
        if let Some(limit) = self.max_events {
            if self.budgeted >= limit {
                self.stopped = true;
                self.watchdog_tripped = true;
                obs.on_watchdog(self.now, self.processed);
                prof.on_watchdog(self.now);
                return false;
            }
        }
        let Some(Reverse(next)) = self.heap.pop() else {
            self.stopped = true;
            return false;
        };
        debug_assert!(next.at >= self.now, "heap produced an out-of-order event");
        let advanced = next.at - self.now;
        self.now = next.at;
        self.processed += 1;
        if !next.idle {
            self.budgeted += 1;
        }
        obs.pre_event(self.now, &next.event, self.heap.len());
        prof.on_dispatch(self.now, &next.event, advanced);
        let mut ctx = Ctx {
            now: self.now,
            seq: self.seq,
            pending: std::mem::take(&mut self.spare),
            stop: false,
        };
        self.world.handle(self.now, next.event, &mut ctx);
        self.seq = ctx.seq;
        let newly_scheduled = ctx.pending.len();
        for s in ctx.pending.drain(..) {
            self.heap.push(Reverse(s));
        }
        self.spare = ctx.pending;
        if ctx.stop {
            self.stopped = true;
        }
        obs.post_event(self.now, newly_scheduled, self.processed);
        prof.on_handled(self.now, newly_scheduled, self.heap.len());
        true
    }

    /// Run until the heap drains or a stop is requested. Returns the number
    /// of events delivered by this call.
    pub fn run(&mut self) -> u64 {
        self.run_observed(&mut NoopObserver)
    }

    /// [`run`](Self::run), reporting every event to `obs`.
    pub fn run_observed<O: Observer<M::Event>>(&mut self, obs: &mut O) -> u64 {
        let before = self.processed;
        while self.step_observed(obs) {}
        self.processed - before
    }

    /// [`run`](Self::run), reporting every event to `obs` and `prof`.
    ///
    /// The profiler sees the same stream the observer does; with
    /// [`NoopProfiler`] this monomorphizes to
    /// [`run_observed`](Self::run_observed) exactly, so profiling is
    /// zero-cost when disabled.
    pub fn run_profiled<O: Observer<M::Event>, P: Profiler<M::Event>>(
        &mut self,
        obs: &mut O,
        prof: &mut P,
    ) -> u64 {
        let before = self.processed;
        while self.step_inner(obs, prof) {}
        self.processed - before
    }

    /// Run until simulated time reaches `deadline` (events strictly after the
    /// deadline remain queued), the heap drains, or a stop is requested.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run_until_observed(deadline, &mut NoopObserver)
    }

    /// [`run_until`](Self::run_until), reporting every event to `obs`.
    pub fn run_until_observed<O: Observer<M::Event>>(
        &mut self,
        deadline: SimTime,
        obs: &mut O,
    ) -> u64 {
        let before = self.processed;
        loop {
            match self.heap.peek() {
                Some(Reverse(s)) if s.at <= deadline => {
                    if !self.step_observed(obs) {
                        break;
                    }
                }
                _ => break,
            }
        }
        // Advance the clock to the deadline even if no event landed on it,
        // so metric extraction sees a consistent "end of window" time.
        if self.now < deadline && !self.stopped {
            self.now = deadline;
        }
        self.processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world that records the order events arrive in.
    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    enum Ev {
        Mark(u32),
        Chain { left: u32, gap: SimDuration },
        IdleTick { left: u32, gap: SimDuration },
        StopNow,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Ctx<Ev>) {
            match event {
                Ev::Mark(id) => self.log.push((now.0, id)),
                Ev::Chain { left, gap } => {
                    self.log.push((now.0, 1000 + left));
                    if left > 0 {
                        ctx.schedule_in(gap, Ev::Chain { left: left - 1, gap });
                    }
                }
                Ev::IdleTick { left, gap } => {
                    self.log.push((now.0, 2000 + left));
                    if left > 0 {
                        ctx.schedule_idle_in(gap, Ev::IdleTick { left: left - 1, gap });
                    }
                }
                Ev::StopNow => ctx.stop(),
            }
        }
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs(3), Ev::Mark(3));
        sim.schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        sim.run();
        let ids: Vec<u32> = sim.world().log.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn equal_times_fifo() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        for id in 0..100 {
            sim.schedule_at(SimTime::from_secs(1), Ev::Mark(id));
        }
        sim.run();
        let ids: Vec<u32> = sim.world().log.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(
            SimTime::ZERO,
            Ev::Chain { left: 4, gap: SimDuration::from_millis(10) },
        );
        let n = sim.run();
        assert_eq!(n, 5);
        assert_eq!(sim.now(), SimTime(40 * 1_000_000));
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.schedule_at(SimTime::from_secs(5), Ev::Mark(5));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.world().log.len(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.run();
        assert_eq!(sim.world().log.len(), 2);
    }

    #[test]
    fn stop_halts_the_loop() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs(1), Ev::StopNow);
        sim.schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        sim.run();
        assert!(sim.is_stopped());
        assert!(sim.world().log.is_empty());
    }

    /// Counting observer used by the hook tests below.
    #[derive(Default)]
    struct Counting {
        pre: u64,
        post: u64,
        scheduled: u64,
        max_heap_depth: usize,
        watchdog: Option<(SimTime, u64)>,
    }

    impl Observer<Ev> for Counting {
        fn pre_event(&mut self, _now: SimTime, _event: &Ev, heap_depth: usize) {
            self.pre += 1;
            self.max_heap_depth = self.max_heap_depth.max(heap_depth);
        }
        fn post_event(&mut self, _now: SimTime, newly_scheduled: usize, _processed: u64) {
            self.post += 1;
            self.scheduled += newly_scheduled as u64;
        }
        fn on_watchdog(&mut self, now: SimTime, processed: u64) {
            self.watchdog = Some((now, processed));
        }
    }

    #[test]
    fn observer_sees_every_event() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(
            SimTime::ZERO,
            Ev::Chain { left: 9, gap: SimDuration::from_millis(1) },
        );
        sim.schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        let mut obs = Counting::default();
        let n = sim.run_observed(&mut obs);
        assert_eq!(n, 11);
        assert_eq!(obs.pre, 11);
        assert_eq!(obs.post, 11);
        assert_eq!(obs.scheduled, 9); // each chain link but the last reschedules once
        assert!(obs.max_heap_depth >= 1);
        assert!(obs.watchdog.is_none());
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let build = || {
            let mut sim = Simulation::new(Recorder { log: vec![] });
            sim.schedule_at(
                SimTime::ZERO,
                Ev::Chain { left: 20, gap: SimDuration::from_micros(500) },
            );
            sim.schedule_at(SimTime::from_millis(3), Ev::Mark(7));
            sim
        };
        let mut plain = build();
        plain.run();
        let mut observed = build();
        observed.run_observed(&mut Counting::default());
        assert_eq!(plain.world().log, observed.world().log);
        assert_eq!(plain.now(), observed.now());
        assert_eq!(plain.processed(), observed.processed());
    }

    /// A world that reschedules itself forever — the bug class the
    /// watchdog exists to catch.
    struct Runaway;
    impl Model for Runaway {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _ev: (), ctx: &mut Ctx<()>) {
            ctx.schedule_in(SimDuration::from_micros(1), ());
        }
    }

    #[test]
    fn watchdog_trips_on_self_rescheduling_world() {
        let mut sim = Simulation::new(Runaway);
        sim.set_max_events(Some(1_000));
        sim.schedule_at(SimTime::ZERO, ());
        let n = sim.run();
        assert_eq!(n, 1_000);
        assert!(sim.watchdog_tripped());
        assert!(sim.is_stopped());
    }

    #[test]
    fn watchdog_reports_through_observer() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.set_max_events(Some(3));
        sim.schedule_at(
            SimTime::ZERO,
            Ev::Chain { left: 100, gap: SimDuration::from_millis(1) },
        );
        let mut obs = Counting::default();
        sim.run_observed(&mut obs);
        assert_eq!(obs.pre, 3);
        let (at, processed) = obs.watchdog.expect("watchdog should have fired");
        assert_eq!(processed, 3);
        assert_eq!(at, SimTime::from_millis(2));
        assert!(sim.watchdog_tripped());
    }

    #[test]
    fn watchdog_disarmed_runs_to_completion() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.set_max_events(Some(2));
        sim.set_max_events(None);
        sim.schedule_at(
            SimTime::ZERO,
            Ev::Chain { left: 5, gap: SimDuration::from_millis(1) },
        );
        assert_eq!(sim.run(), 6);
        assert!(!sim.watchdog_tripped());
    }

    /// The unobserved loop must not regress from carrying observer hooks:
    /// a NoopObserver run must cost the same as `run()` to within noise.
    /// Min-of-N with a generous factor keeps this robust on loaded CI.
    #[test]
    fn noop_observer_adds_no_measurable_overhead() {
        // simlint: allow(R1) host-side timing of the engine itself; result
        // never feeds simulation state.
        fn min_time<F: FnMut() -> u64>(mut f: F) -> std::time::Duration {
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(f());
                    t0.elapsed()
                })
                .min()
                .unwrap_or_default()
        }
        let chain = || {
            let mut sim = Simulation::new(Recorder { log: Vec::with_capacity(200_001) });
            sim.schedule_at(
                SimTime::ZERO,
                Ev::Chain { left: 200_000, gap: SimDuration::from_micros(1) },
            );
            sim
        };
        let plain = min_time(|| chain().run());
        let observed = min_time(|| chain().run_observed(&mut NoopObserver));
        let profiled =
            min_time(|| chain().run_profiled(&mut NoopObserver, &mut NoopProfiler));
        // Identical monomorphized code; 4x headroom absorbs scheduler noise.
        assert!(
            observed <= plain * 4 + std::time::Duration::from_millis(5),
            "NoopObserver run regressed: {observed:?} vs {plain:?}"
        );
        assert!(
            profiled <= plain * 4 + std::time::Duration::from_millis(5),
            "NoopProfiler run regressed: {profiled:?} vs {plain:?}"
        );
    }

    /// A fault-quiesced world: nothing happens for a long stretch except a
    /// periodic idle tick bridging the gap. A budget far smaller than the
    /// tick count must not trip — idle advance is exempt.
    #[test]
    fn idle_ticks_do_not_trip_watchdog() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.set_max_events(Some(5));
        sim.schedule_at(SimTime::ZERO, Ev::Mark(0));
        sim.schedule_idle_at(
            SimTime::ZERO,
            Ev::IdleTick { left: 200, gap: SimDuration::from_secs(1) },
        );
        sim.schedule_at(SimTime::from_secs(150), Ev::Mark(1));
        let n = sim.run();
        assert_eq!(n, 203, "all events deliver");
        assert!(!sim.watchdog_tripped(), "idle ticks must not consume budget");
        assert_eq!(sim.budgeted_processed(), 2);
        assert_eq!(sim.processed(), 203);
        assert_eq!(sim.now(), SimTime::from_secs(200));
    }

    /// A genuine runaway loop still trips even when idle ticks are
    /// interleaved: only the non-idle events consume budget.
    #[test]
    fn runaway_trips_despite_interleaved_idle_ticks() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.set_max_events(Some(50));
        sim.schedule_idle_at(
            SimTime::ZERO,
            Ev::IdleTick { left: 1_000, gap: SimDuration::from_millis(1) },
        );
        sim.schedule_at(
            SimTime::ZERO,
            Ev::Chain { left: 1_000, gap: SimDuration::from_millis(1) },
        );
        sim.run();
        assert!(sim.watchdog_tripped());
        assert_eq!(sim.budgeted_processed(), 50);
    }

    /// Idle scheduling must not perturb delivery order relative to normal
    /// events at the same timestamps (only the budget differs).
    #[test]
    fn idle_events_keep_fifo_order() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs(1), Ev::Mark(10));
        sim.schedule_idle_at(SimTime::from_secs(1), Ev::IdleTick { left: 0, gap: SimDuration::ZERO });
        sim.schedule_at(SimTime::from_secs(1), Ev::Mark(11));
        sim.run();
        let ids: Vec<u32> = sim.world().log.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, vec![10, 2000, 11]);
    }

    #[test]
    fn processed_counts_events() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        for i in 0..7 {
            sim.schedule_at(SimTime::from_secs(i), Ev::Mark(i as u32));
        }
        sim.run();
        assert_eq!(sim.processed(), 7);
    }
}
