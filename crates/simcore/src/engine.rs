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
//!    is a pure function of the world's initial state and seed. [`Ctx`]
//!    borrows the engine's queues for one handle and every `schedule_*`
//!    call pushes straight into them; since delivery order is `(time,
//!    sequence number)` alone and nothing pops during a handle, when a
//!    push happens is invisible.
//! 2. **Replaceable tentative events** — a model that keeps one tentative
//!    event per resource (a fluid-resource completion that a new arrival
//!    may make stale) schedules it with [`Ctx::schedule_keyed`]. The
//!    engine holds at most one pending event per key, in a small indexed
//!    min-heap beside the main [`BinaryHeap`]; a new keyed schedule
//!    *supersedes* (drops) the key's pending event, and the loop pops
//!    whichever head is earlier by `(time, sequence number)`. The model
//!    supersedes only events it would have discarded on delivery, so the
//!    delivered stream is the one plain scheduling produces, minus those
//!    dead events, in the same order. Events the model leaves pending
//!    after invalidating them (a crash cancelling tasks without re-arming)
//!    still arrive, and the model's own epoch check drops them. Plain
//!    events are never removed, so their path stays a binary-heap push/pop.

use crate::keyed::KeyedQueue;
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
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
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
/// It is also the only way to stop a run early from inside the model. It
/// borrows the engine's queues for the length of one handle, so every
/// `schedule_*` call pushes straight into them.
pub struct Ctx<'a, E> {
    now: SimTime,
    /// The next sequence number; written back when the handle returns.
    seq: u64,
    heap: &'a mut BinaryHeap<Reverse<Scheduled<E>>>,
    keyed: &'a mut KeyedQueue<Scheduled<E>>,
    superseded: &'a mut u64,
    stop: bool,
}

impl<E> Ctx<'_, E> {
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
        self.heap.push(Reverse(Scheduled { at, seq, event, idle: false }));
    }

    /// Schedule `event` after a delay of `d`.
    pub fn schedule_in(&mut self, d: SimDuration, event: E) {
        self.schedule_at(self.now + d, event);
    }

    /// Schedule `event` at `at` as the one pending event of `key`.
    ///
    /// Consumes one sequence number, exactly like
    /// [`schedule_at`](Self::schedule_at), so it sorts against plain events
    /// by `(at, seq)` as usual. If an event of the same `key` is still
    /// pending — queued by an earlier handle or earlier in this one — it is
    /// *superseded*: dropped undelivered and counted by
    /// [`Simulation::superseded_total`]. Supersede only events the model
    /// would discard on delivery (a completion stamped with an outdated
    /// epoch); the delivered stream then equals the plain-scheduled one
    /// minus those dead events. Keys index a dense table: use small
    /// integers such as node indices.
    pub fn schedule_keyed(&mut self, key: usize, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        if self.keyed.insert(key, Scheduled { at, seq, event, idle: false }) {
            *self.superseded += 1;
        }
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
        self.heap.push(Reverse(Scheduled { at, seq, event, idle: true }));
    }

    /// Schedule an idle-advance event after a delay of `d` (see
    /// [`schedule_idle_at`](Self::schedule_idle_at)).
    pub fn schedule_idle_in(&mut self, d: SimDuration, event: E) {
        self.schedule_idle_at(self.now + d, event);
    }

    /// Request that the run loop stop after the current event.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// A running simulation: world + event heap + clock.
pub struct Simulation<M: Model> {
    world: M,
    heap: BinaryHeap<Reverse<Scheduled<M::Event>>>,
    /// Pending keyed events, at most one per key (see [`Ctx::schedule_keyed`]).
    keyed: KeyedQueue<Scheduled<M::Event>>,
    /// Keyed events dropped undelivered because their key was re-scheduled.
    superseded: u64,
    now: SimTime,
    seq: u64,
    processed: u64,
    budgeted: u64,
    stopped: bool,
    max_events: Option<u64>,
    watchdog_tripped: bool,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `world` starting at t = 0 with an empty heap.
    pub fn new(world: M) -> Self {
        Simulation {
            world,
            heap: BinaryHeap::new(),
            keyed: KeyedQueue::new(),
            superseded: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            budgeted: 0,
            stopped: false,
            max_events: None,
            watchdog_tripped: false,
        }
    }

    /// Arm (or with `None`, disarm) the runaway-run watchdog: once the number
    /// of **budgeted** (non-idle) events delivered reaches `limit` the loop
    /// refuses to deliver further events, marks the run stopped, and reports
    /// through [`Profiler::on_watchdog`].
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

    /// Total events ever scheduled (heap pushes), external and follow-up,
    /// plain and keyed alike. Every schedule consumes one sequence number,
    /// so this is the push side of the balance a profiler reports:
    /// `scheduled_total = processed + superseded_total + pending`.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Keyed events dropped undelivered because a later
    /// [`Ctx::schedule_keyed`] on the same key replaced them.
    pub fn superseded_total(&self) -> u64 {
        self.superseded
    }

    /// Events still queued, plain and keyed.
    pub(crate) fn pending(&self) -> usize {
        self.heap.len() + self.keyed.len()
    }

    /// Pop the earliest queued event by `(at, seq)` from whichever queue
    /// holds it.
    fn pop_next(&mut self) -> Option<Scheduled<M::Event>> {
        let keyed_first = match (self.heap.peek(), self.keyed.peek()) {
            (Some(Reverse(a)), Some(b)) => b < a,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if keyed_first {
            self.keyed.pop()
        } else {
            self.heap.pop().map(|Reverse(s)| s)
        }
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

    /// Deliver the next event, if any, reporting to `first` and then `second`.
    /// Returns `false` when the heap is empty or a stop was requested.
    fn step_inner<A: Profiler<M::Event>, B: Profiler<M::Event>>(
        &mut self,
        first: &mut A,
        second: &mut B,
    ) -> bool {
        if self.stopped {
            return false;
        }
        if let Some(limit) = self.max_events {
            if self.budgeted >= limit {
                self.stopped = true;
                self.watchdog_tripped = true;
                first.on_watchdog(self.now);
                second.on_watchdog(self.now);
                return false;
            }
        }
        let Some(next) = self.pop_next() else {
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
        first.on_dispatch(self.now, &next.event, advanced);
        second.on_dispatch(self.now, &next.event, advanced);
        let mut ctx = Ctx {
            now: self.now,
            seq: self.seq,
            heap: &mut self.heap,
            keyed: &mut self.keyed,
            superseded: &mut self.superseded,
            stop: false,
        };
        self.world.handle(self.now, next.event, &mut ctx);
        let (seq, stop) = (ctx.seq, ctx.stop);
        // every schedule consumed one sequence number
        let newly_scheduled = usize::try_from(seq - self.seq).unwrap_or(usize::MAX);
        self.seq = seq;
        if stop {
            self.stopped = true;
        }
        let depth = self.pending();
        first.on_handled(self.now, newly_scheduled, depth);
        second.on_handled(self.now, newly_scheduled, depth);
        true
    }

    /// Run until the heap drains, a stop is requested or the watchdog
    /// trips. Returns the number of events delivered by this call.
    pub fn run(&mut self) -> u64 {
        self.run_profiled(&mut NoopProfiler, &mut NoopProfiler)
    }

    /// [`run`](Self::run), reporting every event to `first` and then
    /// `second`.
    ///
    /// Both see the same stream; with [`NoopProfiler`] in both places
    /// this monomorphizes to [`run`](Self::run) exactly, so the hooks are
    /// zero-cost when unused.
    pub fn run_profiled<A: Profiler<M::Event>, B: Profiler<M::Event>>(
        &mut self,
        first: &mut A,
        second: &mut B,
    ) -> u64 {
        let before = self.processed;
        let depth = self.pending();
        first.on_start(depth);
        second.on_start(depth);
        while self.step_inner(first, second) {}
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
    fn stop_halts_the_loop() {
        let mut sim = Simulation::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_secs(1), Ev::StopNow);
        sim.schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        sim.run();
        assert!(sim.is_stopped());
        assert!(sim.world().log.is_empty());
    }

    /// Counting profiler used by the hook tests below.
    #[derive(Default)]
    struct Counting {
        start: Option<usize>,
        pre: u64,
        post: u64,
        scheduled: u64,
        max_heap_depth: usize,
        watchdog: Option<SimTime>,
    }

    impl<E> Profiler<E> for Counting {
        fn on_start(&mut self, heap_depth: usize) {
            self.start = Some(heap_depth);
        }
        fn on_dispatch(&mut self, _now: SimTime, _event: &E, _advanced: SimDuration) {
            self.pre += 1;
        }
        fn on_handled(&mut self, _now: SimTime, newly_scheduled: usize, heap_depth: usize) {
            self.post += 1;
            self.scheduled += newly_scheduled as u64;
            self.max_heap_depth = self.max_heap_depth.max(heap_depth);
        }
        fn on_watchdog(&mut self, now: SimTime) {
            self.watchdog = Some(now);
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
        let n = sim.run_profiled(&mut obs, &mut NoopProfiler);
        assert_eq!(n, 11);
        assert_eq!(obs.start, Some(2), "both initial events queued");
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
        observed.run_profiled(&mut Counting::default(), &mut Counting::default());
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
        sim.run_profiled(&mut obs, &mut NoopProfiler);
        assert_eq!(obs.pre, 3);
        let at = obs.watchdog.expect("watchdog should have fired");
        assert_eq!(sim.processed(), 3);
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

    /// The hook-free loop must not regress from carrying profiler hooks:
    /// a run with two [`NoopProfiler`]s must cost the same as `run()` to
    /// within noise. Min-of-N with a generous factor keeps this robust on
    /// loaded CI.
    #[test]
    fn noop_observer_adds_no_measurable_overhead() {
        // Host-side timing of the engine itself; the result never feeds
        // simulation state.
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
        let profiled =
            min_time(|| chain().run_profiled(&mut NoopProfiler, &mut NoopProfiler));
        // Identical monomorphized code; 4x headroom absorbs scheduler noise.
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

    /// A world whose events run a fixed script: delivering id `k` logs it
    /// and performs `script[k]`, scheduling plain, idle or keyed events
    /// or stopping the run.
    struct Script {
        script: Vec<Vec<Op>>,
        log: Vec<(u64, u32)>,
    }

    #[derive(Clone, Copy)]
    enum Op {
        Plain { ms: u64, id: u32 },
        Idle { ms: u64, id: u32 },
        Keyed { key: usize, ms: u64, id: u32 },
        Stop,
    }

    impl Model for Script {
        type Event = u32;
        fn handle(&mut self, now: SimTime, id: u32, ctx: &mut Ctx<u32>) {
            self.log.push((now.0, id));
            for op in self.script.get(id as usize).cloned().unwrap_or_default() {
                match op {
                    Op::Plain { ms, id } => ctx.schedule_at(SimTime::from_millis(ms), id),
                    Op::Idle { ms, id } => ctx.schedule_idle_at(SimTime::from_millis(ms), id),
                    Op::Keyed { key, ms, id } => {
                        ctx.schedule_keyed(key, SimTime::from_millis(ms), id)
                    }
                    Op::Stop => ctx.stop(),
                }
            }
        }
    }

    fn run_script(script: Vec<Vec<Op>>) -> Simulation<Script> {
        let mut sim = Simulation::new(Script { script, log: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.run();
        sim
    }

    #[test]
    fn keyed_replacement_keeps_at_seq_order_against_plain_events() {
        use Op::{Keyed, Plain};
        let sim = run_script(vec![
            // id 0 at t = 0: everything at 5 ms, key 0 scheduled twice
            vec![
                Plain { ms: 5, id: 1 },
                Keyed { key: 0, ms: 5, id: 2 },
                Plain { ms: 5, id: 3 },
                Keyed { key: 0, ms: 5, id: 4 },
                Plain { ms: 5, id: 5 },
                Keyed { key: 1, ms: 5, id: 6 },
                Keyed { key: 2, ms: 9, id: 7 },
                Plain { ms: 2, id: 8 },
            ],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            // id 8 at 2 ms: replaces key 2's 9 ms event from an earlier handle
            vec![Keyed { key: 2, ms: 5, id: 9 }, Plain { ms: 5, id: 10 }],
        ]);
        let ids: Vec<u32> = sim.world().log.iter().map(|&(_, i)| i).collect();
        // the replacement sorts by its own (later) sequence number: after
        // the plain events scheduled before it at the same instant
        assert_eq!(ids, vec![0, 8, 1, 3, 4, 5, 6, 9, 10]);
        assert_eq!(sim.superseded_total(), 2);
        assert_eq!(sim.scheduled_total(), 1 + 8 + 2);
        assert_eq!(sim.scheduled_total(), sim.processed() + sim.superseded_total());
    }

    /// Per-event `on_handled` readings.
    #[derive(Default)]
    struct Hooks {
        newly: Vec<usize>,
        depth: Vec<usize>,
    }

    impl Profiler<u32> for Hooks {
        fn on_handled(&mut self, _now: SimTime, newly_scheduled: usize, heap_depth: usize) {
            self.newly.push(newly_scheduled);
            self.depth.push(heap_depth);
        }
    }

    /// Schedules go straight into the queues during the handle. Order,
    /// hook readings and the sequence-number balance are the ones the
    /// engine gave when it staged a handle's schedules and pushed them
    /// after it returned.
    #[test]
    fn direct_push_keeps_order_hooks_and_balance() {
        use Op::{Idle, Keyed, Plain, Stop};
        let mut script = vec![vec![]; 12];
        script[0] = vec![
            Plain { ms: 3, id: 1 },
            Idle { ms: 3, id: 2 },
            Keyed { key: 0, ms: 3, id: 3 },
            // same key in the same handle: replaces id 3, sorts earlier
            Keyed { key: 0, ms: 2, id: 4 },
            Plain { ms: 2, id: 5 },
            Keyed { key: 1, ms: 8, id: 6 },
        ];
        // replaces id 6, queued by an earlier handle
        script[1] = vec![Keyed { key: 1, ms: 4, id: 7 }, Idle { ms: 4, id: 8 }];
        script[2] = vec![Plain { ms: 9, id: 9 }, Keyed { key: 0, ms: 6, id: 10 }];
        script[4] = vec![Plain { ms: 3, id: 11 }];
        script[7] = vec![Stop, Plain { ms: 5, id: 12 }, Keyed { key: 2, ms: 5, id: 13 }];
        let mut sim = Simulation::new(Script { script, log: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        let mut hooks = Hooks::default();
        sim.run_profiled(&mut hooks, &mut NoopProfiler);
        let log: Vec<(u64, u32)> = sim.world().log.iter().map(|&(t, i)| (t / 1_000_000, i)).collect();
        assert_eq!(log, vec![(0, 0), (2, 4), (2, 5), (3, 1), (3, 2), (3, 11), (4, 7)]);
        assert_eq!(hooks.newly, vec![6, 1, 0, 2, 2, 0, 2]);
        assert_eq!(hooks.depth, vec![5, 5, 4, 4, 5, 4, 5]);
        assert!(sim.is_stopped());
        assert_eq!(sim.superseded_total(), 2);
        assert_eq!(sim.pending(), 5, "ids 8, 9, 10, 12 and 13 never ran");
        assert_eq!(
            sim.scheduled_total(),
            sim.processed() + sim.superseded_total() + sim.pending() as u64
        );
    }

    /// A one-CPU world driven by the fluid arming rule: `Start` adds a
    /// task and arms, schedules a plain `Mark` at the completion instant,
    /// then arms again with no mutation in between.
    struct OneCpu {
        cpu: crate::fluid::FluidResource,
        log: Vec<&'static str>,
    }

    enum CpuEv {
        Start,
        Mark,
        Done { epoch: u64 },
    }

    impl OneCpu {
        fn arm(&mut self, now: SimTime, ctx: &mut Ctx<CpuEv>) {
            if let Some((at, epoch)) = self.cpu.arm_completion(now) {
                ctx.schedule_keyed(0, at, CpuEv::Done { epoch });
            }
        }
    }

    impl Model for OneCpu {
        type Event = CpuEv;
        fn handle(&mut self, now: SimTime, ev: CpuEv, ctx: &mut Ctx<CpuEv>) {
            match ev {
                CpuEv::Start => {
                    self.cpu.add(now, 1, 1.0);
                    self.arm(now, ctx);
                    let (_, at) = self.cpu.next_completion(now).expect("task in flight");
                    ctx.schedule_at(at, CpuEv::Mark);
                    self.arm(now, ctx);
                }
                CpuEv::Mark => self.log.push("mark"),
                CpuEv::Done { epoch } => {
                    if self.cpu.deliver_completion(epoch) {
                        self.cpu.take_finished(now);
                        self.log.push("done");
                    }
                }
            }
        }
    }

    #[test]
    fn same_epoch_rearm_keeps_the_earlier_seq() {
        let cpu = crate::fluid::FluidResource::new(1.0, 1.0);
        let mut sim = Simulation::new(OneCpu { cpu, log: vec![] });
        sim.schedule_at(SimTime::ZERO, CpuEv::Start);
        sim.run();
        // the completion was scheduled before the plain mark at the same
        // instant; skipping the re-arm keeps it first
        assert_eq!(sim.world().log, vec!["done", "mark"]);
        assert_eq!(sim.scheduled_total(), 3, "start, done, mark: the skip used no seq");
        assert_eq!(sim.superseded_total(), 0);
    }

    #[test]
    fn keyed_events_count_in_heap_depth() {
        use Op::{Keyed, Plain};
        let mut sim = Simulation::new(Script {
            script: vec![vec![Keyed { key: 3, ms: 4, id: 1 }, Plain { ms: 6, id: 2 }]],
            log: vec![],
        });
        sim.schedule_at(SimTime::ZERO, 0);
        let mut hooks = Hooks::default();
        sim.run_profiled(&mut hooks, &mut NoopProfiler);
        assert_eq!(hooks.newly, vec![2, 0, 0], "keyed schedules count as newly scheduled");
        assert_eq!(hooks.depth, vec![2, 1, 0], "keyed event queued while id 2 waits");
        // the keyed event at 4 ms is the earliest, so it delivers first
        let ids: Vec<u32> = sim.world().log.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(sim.pending(), 0);
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
