//! Processor-sharing "fluid" resources.
//!
//! A [`FluidResource`] serves a set of concurrent tasks at a total rate of at
//! most `capacity` work-units per second, with no task exceeding
//! `per_task_cap`. Between mutations the active task set is constant, so
//! every task progresses at the same, exactly computable rate
//!
//! ```text
//! rate(n) = min(per_task_cap, capacity / n)
//! ```
//!
//! and the next completion time is known in closed form — no time-stepping.
//! This models:
//!
//! * a **CPU**: capacity = aggregate DMIPS of the node, per-task cap = DMIPS
//!   of one hardware thread (a single thread cannot use two cores);
//! * a **network link**: capacity = line rate in bytes/s, per-task cap = ∞
//!   (one flow may saturate a link).
//!
//! ### Event invalidation protocol
//!
//! Every mutation (task added or removed) bumps the resource's
//! [`epoch`](FluidResource::epoch), which makes any completion instant
//! computed before it stale. The owning model keeps **one** tentative
//! completion event per resource, stamped with the epoch it was computed
//! at and scheduled with [`Ctx::schedule_keyed`](crate::Ctx::schedule_keyed)
//! under the resource's key, so a newer schedule replaces an older pending
//! one in the engine instead of leaving it to be popped and discarded.
//!
//! [`arm_completion`](FluidResource::arm_completion) decides when to
//! schedule, using the epoch of the event it last armed:
//!
//! * **nothing pending, or the pending event carries an older epoch** —
//!   return the next completion to schedule. A keyed schedule then
//!   replaces the stale event, which would have done nothing on delivery.
//! * **the pending event already carries the current epoch** — return
//!   `None`. This happens when one handler re-arms the same resource
//!   twice with no mutation in between (a completion handler that starts
//!   the next task on the same CPU before its own closing re-arm). Both
//!   schedules compute the same instant; the earlier one keeps its lower
//!   sequence number, and the later one would have arrived stale after it.
//!
//! The completion handler calls
//! [`deliver_completion`](FluidResource::deliver_completion) first, which
//! empties the armed slot and says whether the event is current. A stale
//! event can still arrive: a model that cancels tasks without re-arming
//! (a crash) leaves its old event pending, and this check drops it.
//!
//! Tasks are kept in two id-sorted parallel vectors (`ids`, `rem`):
//! every scan is contiguous, and progress and `work_done` accumulate over
//! tasks in ascending id order on every run.

use crate::time::{SimDuration, SimTime};

/// Absolute tolerance under which remaining work counts as finished.
///
/// Completion instants are rounded to whole nanoseconds; advancing to a
/// rounded instant can leave up to `rate × 0.5 ns` of residue — ≈4.4e-5 MI
/// at the fastest CPU in the repo (the Dell socket). The epsilon must sit
/// comfortably above that or the completion-event protocol re-schedules
/// the same instant forever. 1e-3 MI ≈ 1000 instructions: far above any
/// rounding residue, far below any modelled task.
const WORK_EPS: f64 = 1e-3;

/// Identifier for a task inside a fluid resource (caller-assigned).
pub type TaskId = u64;

/// A processor-sharing fluid resource. See module docs.
#[derive(Debug, Clone)]
pub struct FluidResource {
    capacity: f64,
    per_task_cap: f64,
    /// In-flight task ids, ascending: progress and `work_done`
    /// float-accumulation visit tasks in the same order on every run.
    ids: Vec<TaskId>,
    /// Remaining work units of `ids[i]`, at index `i`.
    rem: Vec<f64>,
    last_update: SimTime,
    epoch: u64,
    /// Epoch and instant of the completion event last armed and not yet
    /// delivered (see the module docs).
    armed: Option<(u64, SimTime)>,
    /// Total work completed over the lifetime of the resource.
    work_done: f64,
    /// ∫ utilisation dt (seconds of full-capacity-equivalent use).
    busy_integral: f64,
}

impl FluidResource {
    /// Create a resource with total `capacity` (work-units/second) and a
    /// per-task rate cap (use `f64::INFINITY` for links).
    ///
    /// Panics if `capacity` or `per_task_cap` is not strictly positive.
    pub fn new(capacity: f64, per_task_cap: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(per_task_cap > 0.0, "per-task cap must be positive");
        FluidResource {
            capacity,
            per_task_cap,
            ids: Vec::new(),
            rem: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            armed: None,
            work_done: 0.0,
            busy_integral: 0.0,
        }
    }

    /// Total service capacity in work-units/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight tasks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no task is in flight.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Mutation epoch, for the completion-event invalidation protocol.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current per-task service rate (work-units/second); zero when idle.
    pub fn rate_per_task(&self) -> f64 {
        let n = self.ids.len();
        if n == 0 {
            0.0
        } else {
            self.per_task_cap.min(self.capacity / n as f64)
        }
    }

    /// Instantaneous utilisation in [0, 1].
    pub fn utilization(&self) -> f64 {
        (self.rate_per_task() * self.ids.len() as f64 / self.capacity).min(1.0)
    }

    /// Total work completed so far (work-units).
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// ∫ utilisation dt in seconds, up to the last `advance`.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_integral
    }

    /// Apply progress between `last_update` and `now` at the current rates.
    ///
    /// Idempotent for equal `now`. Panics in debug builds if time runs
    /// backwards.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "fluid resource time went backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let rate = self.rate_per_task();
            if rate > 0.0 {
                let mut done = 0.0;
                for rem in &mut self.rem {
                    let step = rate * dt;
                    let used = step.min(*rem);
                    *rem -= used;
                    done += used;
                }
                self.work_done += done;
                self.busy_integral += self.utilization() * dt;
            }
        }
        self.last_update = now;
    }

    /// Add a task with `work` units. Advances to `now` first and bumps the
    /// epoch.
    ///
    /// Panics if the id is already in flight or `work` is not finite/positive.
    pub fn add(&mut self, now: SimTime, id: TaskId, work: f64) {
        assert!(work.is_finite() && work > 0.0, "invalid work amount {work}");
        self.advance(now);
        let slot = self.ids.binary_search(&id);
        assert!(slot.is_err(), "duplicate fluid task id {id}");
        let i = slot.unwrap_or_else(|i| i);
        self.ids.insert(i, id);
        self.rem.insert(i, work);
        self.epoch += 1;
    }

    /// Remove a task regardless of progress (e.g. a cancelled transfer).
    /// Returns its remaining work, or `None` if unknown.
    pub fn cancel(&mut self, now: SimTime, id: TaskId) -> Option<f64> {
        self.advance(now);
        let i = self.ids.binary_search(&id).ok()?;
        self.ids.remove(i);
        self.epoch += 1;
        Some(self.rem.remove(i))
    }

    /// The next task to finish and its completion time, if any.
    ///
    /// All in-flight tasks share one rate, so the task with the least
    /// remaining work finishes first; ties broken by lowest id for
    /// determinism.
    pub fn next_completion(&self, now: SimTime) -> Option<(TaskId, SimTime)> {
        let rate = self.rate_per_task();
        if rate <= 0.0 {
            return None;
        }
        // least remaining work; ids ascend, so keeping the first of equal
        // minima breaks ties by lowest id
        let mut best = 0;
        for (i, r) in self.rem.iter().enumerate().skip(1) {
            if r.total_cmp(&self.rem[best]).is_lt() {
                best = i;
            }
        }
        let (&id, &rem) = (self.ids.get(best)?, self.rem.get(best)?);
        let dt = (rem / rate).max(0.0);
        // Round the completion instant *up* (plus 1 ns of slack) so that
        // advancing to it always clears the task's remaining work; rounding
        // to nearest can land half a nanosecond early and strand residue
        // above any epsilon.
        #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "dt is clamped non-negative; ceil keeps the cast in range")]
        let dt_nanos = (dt * 1e9).ceil() as u64 + 1;
        Some((id, now + SimDuration(dt_nanos)))
    }

    /// Pop every task whose remaining work is (numerically) zero at `now`.
    ///
    /// Call this from the completion-event handler once
    /// [`deliver_completion`](Self::deliver_completion) said the event is
    /// current; it advances to `now`, removes finished tasks, and bumps
    /// the epoch if anything was removed. Returned ids are sorted for
    /// determinism.
    pub fn take_finished(&mut self, now: SimTime) -> Vec<TaskId> {
        let mut done = Vec::new();
        self.take_finished_into(now, &mut done);
        done
    }

    /// [`take_finished`](Self::take_finished) into a caller-owned buffer:
    /// appends the finished ids, in ascending order, after whatever `out`
    /// already holds. One in-place compacting pass over the id-sorted
    /// vectors; no allocation once `out` has capacity.
    pub fn take_finished_into(&mut self, now: SimTime, out: &mut Vec<TaskId>) {
        self.advance(now);
        let mut kept = 0;
        for i in 0..self.ids.len() {
            let (id, rem) = (self.ids[i], self.rem[i]);
            if rem <= WORK_EPS {
                out.push(id);
            } else {
                self.ids[kept] = id;
                self.rem[kept] = rem;
                kept += 1;
            }
        }
        if kept < self.ids.len() {
            self.ids.truncate(kept);
            self.rem.truncate(kept);
            self.epoch += 1;
        }
    }

    /// Remaining work of a task, if in flight (advances nothing).
    pub fn remaining(&self, id: TaskId) -> Option<f64> {
        let i = self.ids.binary_search(&id).ok()?;
        Some(self.rem[i])
    }

    /// Arm the completion event: the next completion instant and the epoch
    /// to stamp on it, or `None` when nothing is in flight or the pending
    /// event already carries the current epoch (see the module docs). A
    /// `Some` is the caller's promise to schedule it, keyed, replacing any
    /// pending completion of this resource.
    pub fn arm_completion(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        if let Some((epoch, at)) = self.armed {
            if epoch == self.epoch {
                debug_assert_eq!(
                    self.next_completion(now).map(|(_, t)| t),
                    Some(at),
                    "a same-epoch re-arm must compute the pending instant"
                );
                return None;
            }
        }
        let (_, at) = self.next_completion(now)?;
        self.armed = Some((self.epoch, at));
        Some((at, self.epoch))
    }

    /// Record the delivery of the completion event stamped `epoch`: nothing
    /// is pending any more. Returns whether the event is current, i.e.
    /// whether the handler should collect finished tasks.
    pub fn deliver_completion(&mut self, epoch: u64) -> bool {
        self.armed = None;
        epoch == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// One Edison node (MIPS) and its single-thread cap.
    const NODE_MIPS: f64 = 1264.6;
    const THREAD_MIPS: f64 = 632.3;

    /// Makespan of `n` tasks of 500 MI arriving every 100 ms, driven
    /// event by event: each completion is taken before the next arrival.
    fn exact_makespan(n: u64) -> f64 {
        let mut r = FluidResource::new(NODE_MIPS, THREAD_MIPS);
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let arrival = t(0.1 * i as f64);
            while let Some((_, at)) = r.next_completion(now).filter(|&(_, at)| at <= arrival) {
                now = at;
                r.take_finished(now);
            }
            now = arrival;
            r.add(now, i, 500.0);
        }
        while let Some((_, at)) = r.next_completion(now) {
            now = at;
            r.take_finished(now);
        }
        now.as_secs_f64()
    }

    /// The same arrivals through a time-stepped model: each `tick` seconds,
    /// admit what has arrived, give every task its share for the whole
    /// tick, and drop the tasks that finished.
    fn stepped_makespan(n: u64, tick: f64) -> f64 {
        let mut remaining: Vec<f64> = Vec::new();
        let (mut admitted, mut k) = (0, 0u64);
        loop {
            let now = k as f64 * tick;
            while admitted < n && 0.1 * admitted as f64 <= now + 1e-9 {
                remaining.push(500.0);
                admitted += 1;
            }
            if remaining.is_empty() && admitted == n {
                return now;
            }
            let rate = THREAD_MIPS.min(NODE_MIPS / remaining.len().max(1) as f64);
            for w in &mut remaining {
                *w -= rate * tick;
            }
            remaining.retain(|&w| w > 0.0);
            k += 1;
        }
    }

    #[test]
    fn time_stepping_overshoots_and_converges_to_the_exact_makespan() {
        for n in [16, 64] {
            let exact = exact_makespan(n);
            let mut last_err = f64::INFINITY;
            for tick in [0.1, 0.01, 0.001] {
                let stepped = stepped_makespan(n, tick);
                assert!(stepped >= exact, "n={n} tick={tick}: stepped {stepped} < exact {exact}");
                let err = stepped / exact - 1.0;
                assert!(err < last_err, "n={n} tick={tick}: error {err} did not shrink");
                last_err = err;
            }
        }
    }

    #[test]
    fn single_task_runs_at_cap() {
        // capacity 100/s, cap 10/s per task: a lone task runs at 10/s.
        let mut r = FluidResource::new(100.0, 10.0);
        r.add(t(0.0), 1, 50.0);
        let (id, at) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 5.0).abs() < 1e-8);
    }

    #[test]
    fn sharing_splits_capacity() {
        // capacity 10/s, no per-task cap: two tasks get 5/s each.
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        r.add(t(0.0), 1, 10.0);
        r.add(t(0.0), 2, 20.0);
        let (id, at) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-8);
        // after task 1 finishes, task 2 speeds up to 10/s with 10 left.
        let done = r.take_finished(at);
        assert_eq!(done, vec![1]);
        let (id2, at2) = r.next_completion(at).unwrap();
        assert_eq!(id2, 2);
        assert!((at2.as_secs_f64() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn late_arrival_slows_existing_task() {
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        r.add(t(0.0), 1, 10.0); // alone: would finish at t=1
        r.add(t(0.5), 2, 10.0); // 1 has 5 left; now both at 5/s
        let (id, at) = r.next_completion(t(0.5)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 1.5).abs() < 1e-8);
    }

    #[test]
    fn epoch_bumps_on_mutation() {
        let mut r = FluidResource::new(1.0, 1.0);
        let e0 = r.epoch();
        r.add(t(0.0), 1, 1.0);
        assert!(r.epoch() > e0);
        let e1 = r.epoch();
        r.cancel(t(0.5), 1);
        assert!(r.epoch() > e1);
        // cancelling a missing task does not bump
        let e2 = r.epoch();
        assert!(r.cancel(t(0.6), 99).is_none());
        assert_eq!(r.epoch(), e2);
    }

    #[test]
    fn utilization_and_busy_integral() {
        let mut r = FluidResource::new(10.0, 5.0);
        assert_eq!(r.utilization(), 0.0);
        r.add(t(0.0), 1, 5.0); // runs at 5/s → 50% utilisation
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        r.advance(t(1.0));
        let done = r.take_finished(t(1.0));
        assert_eq!(done, vec![1]);
        assert!((r.busy_seconds() - 0.5).abs() < 1e-9);
        assert!((r.work_done() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn work_conservation_under_mutation_storm() {
        // total completed work must equal total submitted work.
        let mut r = FluidResource::new(7.0, 3.0);
        let mut now = t(0.0);
        let mut submitted = 0.0;
        for i in 0..50u64 {
            let w = 1.0 + (i % 7) as f64;
            r.add(now, i, w);
            submitted += w;
            now = now + SimDuration::from_millis(137);
            r.advance(now);
            r.take_finished(now);
        }
        // drain
        while let Some((_, at)) = r.next_completion(now) {
            now = at;
            r.take_finished(now);
        }
        assert!(r.is_empty());
        assert!(
            (r.work_done() - submitted).abs() < 1e-3,
            "done {} vs submitted {submitted}",
            r.work_done()
        );
    }

    #[test]
    fn cancel_returns_remaining() {
        let mut r = FluidResource::new(10.0, 10.0);
        r.add(t(0.0), 1, 10.0);
        let rem = r.cancel(t(0.5), 1).unwrap();
        assert!((rem - 5.0).abs() < 1e-9);
        assert!(r.is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        r.add(t(0.0), 7, 5.0);
        r.add(t(0.0), 3, 5.0);
        let (id, _) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 3);
    }

    #[test]
    fn take_finished_into_appends_sorted_ids_after_existing() {
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        for id in [9, 4, 7, 1] {
            r.add(t(0.0), id, 1.0);
        }
        r.add(t(0.0), 5, 100.0);
        let mut out = vec![42, 3];
        // five tasks at 2/s: the four unit tasks finish at 0.5 s
        r.take_finished_into(t(0.5), &mut out);
        assert_eq!(out, vec![42, 3, 1, 4, 7, 9]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn take_finished_into_matches_take_finished() {
        let build = || {
            let mut r = FluidResource::new(7.0, 3.0);
            for i in 0..40u64 {
                r.add(t(0.01 * i as f64), (i * 37) % 101, 0.5 + (i % 5) as f64);
            }
            r
        };
        let (mut a, mut b) = (build(), build());
        let mut now = t(0.4);
        let mut buf = Vec::new();
        while let Some((_, at)) = a.next_completion(now) {
            now = at;
            buf.clear();
            b.take_finished_into(now, &mut buf);
            assert_eq!(a.take_finished(now), buf);
            assert_eq!(a.epoch(), b.epoch());
        }
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(a.work_done().to_bits(), b.work_done().to_bits());
    }

    #[test]
    fn take_finished_into_bumps_epoch_only_when_something_finished() {
        let mut r = FluidResource::new(1.0, 1.0);
        r.add(t(0.0), 1, 1.0);
        let mut out = Vec::new();
        let e0 = r.epoch();
        r.take_finished_into(t(0.5), &mut out);
        assert!(out.is_empty());
        assert_eq!(r.epoch(), e0, "nothing finished: epoch unchanged");
        r.take_finished_into(t(1.0), &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(r.epoch(), e0 + 1);
    }

    #[test]
    fn arm_skips_a_current_pending_event_and_rearms_a_stale_one() {
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        assert_eq!(r.arm_completion(t(0.0)), None, "nothing in flight");
        r.add(t(0.0), 1, 10.0);
        let (at, epoch) = r.arm_completion(t(0.0)).unwrap();
        assert_eq!(epoch, r.epoch());
        assert_eq!(r.arm_completion(t(0.0)), None, "pending event is current");
        r.add(t(0.5), 2, 10.0);
        let (at2, epoch2) = r.arm_completion(t(0.5)).unwrap();
        assert!(epoch2 > epoch && at2 > at, "stale pending event: re-armed later");
        // the stale event is dropped, the current one acts and disarms
        assert!(!r.deliver_completion(epoch));
        assert!(r.deliver_completion(epoch2));
        assert_eq!(r.take_finished(at2), vec![1]);
        assert!(r.arm_completion(at2).is_some(), "disarmed by delivery");
    }

    #[test]
    fn remaining_and_cancel_find_ids_anywhere_in_the_set() {
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        for id in [50, 10, 30, 20, 40] {
            r.add(t(0.0), id, id as f64);
        }
        assert_eq!(r.remaining(30), Some(30.0));
        assert_eq!(r.remaining(35), None);
        assert_eq!(r.cancel(t(0.0), 10), Some(10.0));
        assert_eq!(r.cancel(t(0.0), 10), None);
        assert_eq!(r.next_completion(t(0.0)).map(|c| c.0), Some(20));
        assert_eq!(r.len(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_id_panics() {
        let mut r = FluidResource::new(1.0, 1.0);
        r.add(t(0.0), 1, 1.0);
        r.add(t(0.0), 1, 1.0);
    }
}
