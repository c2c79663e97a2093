//! A context-free scheduling buffer.
//!
//! [`Ctx`] is only reachable inside [`crate::Model::handle`], which makes it
//! awkward for code that runs *logically* inside a handle but does not hold
//! the `&mut Ctx` borrow — shared helpers called from both an event-handler
//! arm and an async task body, or futures polled by an executor while the
//! world is dispatching an event. [`SchedBuf`] is the bridge: it records
//! schedule requests in call order and [`SchedBuf::flush`]es them into the
//! real context before the handle returns.
//!
//! Determinism note: the engine assigns one sequence number per
//! `schedule_*` call, in call order, and delivers by `(time, sequence
//! number)` alone; nothing is popped while a handle runs. A flush replays
//! the buffer in call order, so as long as the handle makes no direct
//! `Ctx` call between a buffered request and its flush, each request gets
//! *exactly* the sequence number a direct call at the same position would
//! have, and the queues end the handle holding the same events. Routing a
//! code path through `SchedBuf` is therefore byte-invisible to delivery
//! order, the profiler and every downstream export; only the moment of the
//! push differs, and nothing can observe it.

use crate::engine::Ctx;
use crate::time::{SimDuration, SimTime};

/// One buffered scheduling request.
#[derive(Debug)]
enum Op<E> {
    At(SimTime, E),
    IdleAt(SimTime, E),
    Keyed(usize, SimTime, E),
}

/// An ordered buffer of schedule requests, flushed into a [`Ctx`] at the
/// end of the current event handle. See the module docs for why this is
/// equivalent to scheduling directly.
#[derive(Debug)]
pub struct SchedBuf<E> {
    now: SimTime,
    ops: Vec<Op<E>>,
    stop: bool,
}

impl<E> SchedBuf<E> {
    /// An empty buffer anchored at the current event's dispatch time.
    pub fn new(now: SimTime) -> Self {
        SchedBuf { now, ops: Vec::new(), stop: false }
    }

    /// The dispatch time of the event being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Buffer an event at absolute time `at` (≥ now, checked at flush).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.ops.push(Op::At(at, event));
    }

    /// Buffer an event `d` after now.
    pub fn schedule_in(&mut self, d: SimDuration, event: E) {
        let at = self.now + d;
        self.ops.push(Op::At(at, event));
    }

    /// Buffer a keyed event at absolute time `at`: at flush it becomes the
    /// one pending event of `key`, superseding any earlier one (see
    /// [`Ctx::schedule_keyed`]).
    pub fn schedule_keyed(&mut self, key: usize, at: SimTime, event: E) {
        self.ops.push(Op::Keyed(key, at, event));
    }

    /// Buffer a watchdog-exempt event at absolute time `at` (measurement
    /// ticks and other non-model work; see [`Ctx::schedule_idle_at`]).
    pub fn schedule_idle_at(&mut self, at: SimTime, event: E) {
        self.ops.push(Op::IdleAt(at, event));
    }

    /// Buffer a watchdog-exempt event `d` after now.
    pub fn schedule_idle_in(&mut self, d: SimDuration, event: E) {
        let at = self.now + d;
        self.ops.push(Op::IdleAt(at, event));
    }

    /// Request that the simulation stop once this handle returns.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    /// True when nothing has been buffered (no ops, no stop request).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && !self.stop
    }

    /// Replay every buffered request into `ctx`, in call order, then clear
    /// the buffer. Must be called before the enclosing handle returns.
    pub fn flush(&mut self, ctx: &mut Ctx<E>) {
        for op in self.ops.drain(..) {
            match op {
                Op::At(at, e) => ctx.schedule_at(at, e),
                Op::IdleAt(at, e) => ctx.schedule_idle_at(at, e),
                Op::Keyed(key, at, e) => ctx.schedule_keyed(key, at, e),
            }
        }
        if self.stop {
            self.stop = false;
            ctx.stop();
        }
    }

    /// Re-anchor the buffer at a new dispatch time (reusing the allocation
    /// across handles). The buffer must be empty — flushing is the caller's
    /// responsibility, never this method's.
    pub fn reset(&mut self, now: SimTime) {
        debug_assert!(self.is_empty(), "resetting a SchedBuf with unflushed ops");
        self.now = now;
        self.ops.clear();
        self.stop = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Model, Simulation};

    /// A world that schedules via SchedBuf in one arm and directly in the
    /// other; the test pins that both produce the same trajectory.
    struct Chain {
        buffered: bool,
        seen: Vec<(SimTime, u32)>,
    }

    impl Model for Chain {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, ctx: &mut Ctx<u32>) {
            self.seen.push((now, event));
            if event >= 6 {
                ctx.stop();
                return;
            }
            let at = now + SimDuration::from_millis(10);
            if self.buffered {
                let mut sb = SchedBuf::new(now);
                // same-time events, one keyed: sequence order must match
                // the direct path's call order exactly
                sb.schedule_in(SimDuration::from_millis(10), event + 1);
                sb.schedule_keyed(0, at, event + 100);
                sb.schedule_in(SimDuration::from_millis(10), event + 2);
                sb.schedule_keyed(0, at, event + 3);
                sb.flush(ctx);
            } else {
                ctx.schedule_in(SimDuration::from_millis(10), event + 1);
                ctx.schedule_keyed(0, at, event + 100);
                ctx.schedule_in(SimDuration::from_millis(10), event + 2);
                ctx.schedule_keyed(0, at, event + 3);
            }
        }
    }

    fn run(buffered: bool) -> Vec<(SimTime, u32)> {
        let mut sim = Simulation::new(Chain { buffered, seen: Vec::new() });
        sim.schedule_at(SimTime::ZERO, 0u32);
        sim.run();
        sim.into_world().seen
    }

    #[test]
    fn buffered_matches_direct_scheduling() {
        let seen = run(true);
        assert_eq!(seen, run(false));
        assert!(seen.iter().all(|&(_, e)| e < 100), "superseded keyed events never arrive");
    }

    #[test]
    fn stop_is_applied_at_flush() {
        struct Stopper;
        impl Model for Stopper {
            type Event = ();
            fn handle(&mut self, now: SimTime, _e: (), ctx: &mut Ctx<()>) {
                let mut sb = SchedBuf::new(now);
                sb.schedule_in(SimDuration::from_secs(1), ());
                sb.stop();
                assert!(!sb.is_empty());
                sb.flush(ctx);
                assert!(sb.is_empty());
            }
        }
        let mut sim = Simulation::new(Stopper);
        sim.schedule_at(SimTime::ZERO, ());
        sim.run();
        // the stop wins over the buffered follow-up event
        assert_eq!(sim.processed(), 1);
        assert!(sim.is_stopped());
    }

    #[test]
    fn reset_reanchors_now() {
        let mut sb: SchedBuf<u32> = SchedBuf::new(SimTime::ZERO);
        assert_eq!(sb.now(), SimTime::ZERO);
        sb.reset(SimTime::from_secs(3));
        assert_eq!(sb.now(), SimTime::from_secs(3));
    }
}
