//! Exactness of keyed completion events and of the vector-backed fluid
//! task set.
//!
//! * A toy one-CPU world runs the same random script twice: once arming
//!   its completion with plain epoch-stamped events (stale ones arrive and
//!   are dropped by the epoch check), once through
//!   [`FluidResource::arm_completion`] and `schedule_keyed`. The keyed run
//!   must deliver exactly the plain run's non-stale events, in order.
//! * [`FluidResource`] is checked against a `BTreeMap` reference copy of
//!   the earlier implementation: every observable is bit-equal after every
//!   step of a random add/cancel/advance/collect sequence.

use edison_simcore::fluid::{FluidResource, TaskId};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, Model, Simulation};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Step(usize),
    Done { epoch: u64 },
    Probe,
}

/// One CPU driven by a script of `(gap_us, action, work)` steps. Actions:
/// 0 add + arm; 1 cancel without re-arming (a crash); 2 add, arm, add,
/// arm (a replacement inside one handler), a plain probe event at the
/// armed instant, then arm again (a same-epoch skip, which must keep the
/// completion ahead of the probe); 3 cancel + arm. Every third finished
/// task starts a follow-up task before the completion handler's closing
/// re-arm.
struct Toy {
    cpu: FluidResource,
    keyed: bool,
    script: Vec<(u64, u8, f64)>,
    next_id: TaskId,
    /// Events that acted: `(time, step index, epoch)`, with index
    /// `u64::MAX` for a completion and `u64::MAX - 1` for a probe.
    acted: Vec<(SimTime, u64, u64)>,
}

impl Toy {
    fn arm(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.keyed {
            if let Some((at, epoch)) = self.cpu.arm_completion(now) {
                ctx.schedule_keyed(0, at, Ev::Done { epoch });
            }
        } else if let Some((_, at)) = self.cpu.next_completion(now) {
            ctx.schedule_at(at, Ev::Done { epoch: self.cpu.epoch() });
        }
    }

    fn add(&mut self, now: SimTime, work: f64) {
        self.cpu.add(now, self.next_id, work);
        self.next_id += 1;
    }

    /// Cancel an in-flight task picked by `work`; false if none is.
    fn cancel(&mut self, now: SimTime, work: f64) -> bool {
        // a test-only pick of a small id below next_id
        let id = (work * 7.0) as u64 % self.next_id.max(1);
        self.cpu.cancel(now, id).is_some()
    }
}

impl Model for Toy {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, ctx: &mut Ctx<Ev>) {
        match ev {
            Ev::Step(i) => {
                self.acted.push((now, i as u64, self.cpu.epoch()));
                let (_, action, work) = self.script[i];
                match action {
                    0 => {
                        self.add(now, work);
                        self.arm(now, ctx);
                    }
                    1 => {
                        self.cancel(now, work);
                    }
                    2 => {
                        self.add(now, work);
                        self.arm(now, ctx);
                        self.add(now, work * 0.5);
                        self.arm(now, ctx);
                        if let Some((_, at)) = self.cpu.next_completion(now) {
                            ctx.schedule_at(at, Ev::Probe);
                        }
                        self.arm(now, ctx);
                    }
                    _ => {
                        if self.cancel(now, work) {
                            self.arm(now, ctx);
                        }
                    }
                }
                if let Some(&(gap, _, _)) = self.script.get(i + 1) {
                    ctx.schedule_at(now + SimDuration::from_micros(gap), Ev::Step(i + 1));
                }
            }
            Ev::Probe => self.acted.push((now, u64::MAX - 1, self.cpu.epoch())),
            Ev::Done { epoch } => {
                let current = if self.keyed {
                    self.cpu.deliver_completion(epoch)
                } else {
                    epoch == self.cpu.epoch()
                };
                if !current {
                    return;
                }
                self.acted.push((now, u64::MAX, epoch));
                for id in self.cpu.take_finished(now) {
                    if id % 3 == 0 {
                        self.add(now, 1.0 + (id % 5) as f64);
                        self.arm(now, ctx);
                    }
                }
                self.arm(now, ctx);
            }
        }
    }
}

fn run_toy(keyed: bool, cap_frac: f64, script: &[(u64, u8, f64)]) -> Simulation<Toy> {
    let cpu = FluidResource::new(100.0, 100.0 * cap_frac);
    let toy = Toy { cpu, keyed, script: script.to_vec(), next_id: 0, acted: Vec::new() };
    let mut sim = Simulation::new(toy);
    sim.schedule_at(SimTime::ZERO, Ev::Step(0));
    sim.run();
    sim
}

/// The earlier `BTreeMap`-backed fluid task set, kept as the reference.
struct RefFluid {
    capacity: f64,
    per_task_cap: f64,
    tasks: BTreeMap<TaskId, f64>,
    last_update: SimTime,
    epoch: u64,
}

impl RefFluid {
    fn new(capacity: f64, per_task_cap: f64) -> Self {
        RefFluid {
            capacity,
            per_task_cap,
            tasks: BTreeMap::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
        }
    }

    fn rate_per_task(&self) -> f64 {
        let n = self.tasks.len();
        if n == 0 {
            0.0
        } else {
            self.per_task_cap.min(self.capacity / n as f64)
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let rate = self.rate_per_task();
            if rate > 0.0 {
                for rem in self.tasks.values_mut() {
                    let step = rate * dt;
                    let used = step.min(*rem);
                    *rem -= used;
                }
            }
        }
        self.last_update = now;
    }

    fn add(&mut self, now: SimTime, id: TaskId, work: f64) {
        self.advance(now);
        assert!(self.tasks.insert(id, work).is_none());
        self.epoch += 1;
    }

    fn cancel(&mut self, now: SimTime, id: TaskId) -> Option<f64> {
        self.advance(now);
        let rem = self.tasks.remove(&id);
        if rem.is_some() {
            self.epoch += 1;
        }
        rem
    }

    fn next_completion(&self, now: SimTime) -> Option<(TaskId, SimTime)> {
        let rate = self.rate_per_task();
        if rate <= 0.0 {
            return None;
        }
        let (&id, &rem) =
            self.tasks.iter().min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))?;
        let dt = (rem / rate).max(0.0);
        // dt is clamped non-negative; ceil keeps the cast in range
        let dt_nanos = (dt * 1e9).ceil() as u64 + 1;
        Some((id, now + SimDuration(dt_nanos)))
    }

    fn take_finished_into(&mut self, now: SimTime, out: &mut Vec<TaskId>) {
        self.advance(now);
        let before = out.len();
        self.tasks.retain(|&id, &mut rem| {
            let finished = rem <= 1e-3;
            if finished {
                out.push(id);
            }
            !finished
        });
        if out.len() > before {
            self.epoch += 1;
        }
    }
}

/// Every observable of `r` bit-equal to the reference `m`. Arming reads
/// the next completion on its own O(1) path, so it is checked here too.
fn assert_same(r: &FluidResource, m: &RefFluid, now: SimTime) {
    assert_eq!(r.next_completion(now), m.next_completion(now));
    assert_eq!(r.clone().arm_completion(now).map(|(at, _)| at), m.next_completion(now).map(|(_, at)| at));
    assert_eq!(r.epoch(), m.epoch);
    assert_eq!(r.len(), m.tasks.len());
    for id in 0..48 {
        assert_eq!(r.remaining(id).map(f64::to_bits), m.tasks.get(&id).map(|w| w.to_bits()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keyed run delivers exactly the plain run's non-stale events, in
    /// the same order, and leaves the CPU bit-identical. Its sequence
    /// numbers balance: every one is delivered or superseded.
    #[test]
    fn keyed_run_delivers_the_plain_runs_live_events(
        cap_frac in 0.05f64..1.0,
        script in proptest::collection::vec((0u64..3_000, 0u8..4, 0.5f64..40.0), 1..80),
    ) {
        let plain = run_toy(false, cap_frac, &script);
        let keyed = run_toy(true, cap_frac, &script);
        let (p, k) = (plain.world(), keyed.world());
        prop_assert_eq!(&k.acted, &p.acted);
        prop_assert_eq!(k.cpu.len(), p.cpu.len());
        prop_assert!(keyed.processed() <= plain.processed());
        prop_assert_eq!(keyed.scheduled_total(), keyed.processed() + keyed.superseded_total());
    }

    /// The vector-backed task set matches the `BTreeMap` reference bit for
    /// bit after every add, cancel, advance and collect.
    #[test]
    fn vec_fluid_matches_btreemap_reference(
        capacity in 1.0f64..1000.0,
        cap_frac in 0.05f64..1.0,
        ops in proptest::collection::vec((0u64..20_000, 0u8..4, 0u64..48, 0.01f64..300.0), 1..120),
    ) {
        let per_task = capacity * cap_frac;
        let mut r = FluidResource::new(capacity, per_task);
        let mut m = RefFluid::new(capacity, per_task);
        let mut now = SimTime::ZERO;
        let (mut out_r, mut out_m) = (Vec::new(), Vec::new());
        for &(gap_us, op, id, work) in &ops {
            now = now + SimDuration::from_micros(gap_us);
            match op {
                0 if r.remaining(id).is_none() => {
                    r.add(now, id, work);
                    m.add(now, id, work);
                }
                0 | 1 => {
                    let (a, b) = (r.cancel(now, id), m.cancel(now, id));
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
                2 => {
                    r.advance(now);
                    m.advance(now);
                }
                _ => {
                    // collect at the next completion instant, as a handler would
                    if let Some((_, at)) = r.next_completion(now) {
                        now = at;
                    }
                    r.take_finished_into(now, &mut out_r);
                    m.take_finished_into(now, &mut out_m);
                    prop_assert_eq!(&out_r, &out_m);
                }
            }
            assert_same(&r, &m, now);
        }
    }
}
