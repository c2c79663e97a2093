//! Property tests of the kernel's foundational invariants.

use edison_simcore::energy::StepIntegrator;
use edison_simcore::fluid::FluidResource;
use edison_simcore::queue::FcfsQueue;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, Model, Simulation};
use proptest::prelude::*;

/// World that records delivery order for the ordering property.
struct OrderCheck {
    last: SimTime,
    delivered: Vec<u32>,
}

impl Model for OrderCheck {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _ctx: &mut Ctx<u32>) {
        assert!(now >= self.last, "time went backwards");
        self.last = now;
        self.delivered.push(ev);
    }
}

proptest! {
    /// Events are always delivered in non-decreasing time order, whatever
    /// the insertion order, and nothing is lost.
    #[test]
    fn event_delivery_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(OrderCheck { last: SimTime::ZERO, delivered: vec![] });
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime(t), i as u32);
        }
        sim.run();
        prop_assert_eq!(sim.world().delivered.len(), times.len());
        // equal timestamps keep insertion order (stable tie-break)
        let mut seen = std::collections::HashMap::new();
        for &id in &sim.world().delivered {
            let t = times[id as usize];
            if let Some(&prev_id) = seen.get(&t) {
                prop_assert!(id > prev_id, "tie at t={t} broke FIFO: {prev_id} then {id}");
            }
            seen.insert(t, id);
        }
    }

    /// Fluid resources conserve work: with every completion collected on
    /// time, capacity × busy time equals the work submitted. A finished
    /// task left in the set would keep counting as busy. Busy time is
    /// ∫ utilisation dt, integrated here before each call that moves the
    /// resource to a new instant.
    #[test]
    fn fluid_conserves_work(
        capacity in 1.0f64..1000.0,
        cap_frac in 0.05f64..1.0,
        jobs in proptest::collection::vec((1.0f64..500.0, 0u64..10_000), 1..60),
    ) {
        let per_task = (capacity * cap_frac).max(0.001);
        let mut r = FluidResource::new(capacity, per_task);
        let (mut busy, mut last) = (0.0, SimTime::ZERO);
        let mut integrate = |r: &FluidResource, now: SimTime| {
            busy += r.utilization() * now.saturating_since(last).as_secs_f64();
            last = now;
            now
        };
        let mut submitted = 0.0;
        let mut now = SimTime::ZERO;
        let mut arrival = SimTime::ZERO;
        let mut guard = 0;
        for (i, &(work, gap_us)) in jobs.iter().enumerate() {
            arrival = arrival + SimDuration::from_micros(gap_us);
            while let Some((_, at)) = r.next_completion(now).filter(|&(_, at)| at <= arrival) {
                now = at;
                r.take_finished(integrate(&r, now));
                guard += 1;
                prop_assert!(guard < 10_000, "collection did not terminate");
            }
            now = arrival;
            r.add(integrate(&r, now), i as u64, work);
            submitted += work;
        }
        while let Some((_, at)) = r.next_completion(now) {
            now = at;
            r.take_finished(integrate(&r, now));
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert!(r.is_empty());
        let served = capacity * busy;
        prop_assert!((served - submitted).abs() < 1e-6 * submitted + 1e-3,
            "served {} vs submitted {}", served, submitted);
    }

    /// FCFS queues never lose or duplicate jobs and never exceed their
    /// server count.
    #[test]
    fn fcfs_conserves_jobs(
        servers in 1usize..5,
        arrivals in proptest::collection::vec((0u64..10_000, 1u64..500), 1..80),
    ) {
        let mut q = FcfsQueue::new(servers);
        let mut events: Vec<(SimTime, bool, u64)> = Vec::new(); // (time, is_completion, job)
        let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>> =
            Default::default();
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut started = 0u64;
        for (i, &(at, dur)) in sorted.iter().enumerate() {
            let now = SimTime::from_secs(at);
            // drain completions before this arrival
            while let Some(&std::cmp::Reverse((t, _))) = pending.peek() {
                if t > now { break; }
                let std::cmp::Reverse((t, j)) = pending.pop().unwrap();
                events.push((t, true, j));
                if let Some((nj, nt)) = q.complete(t) {
                    pending.push(std::cmp::Reverse((nt, nj)));
                    started += 1;
                }
            }
            if let Some((j, t)) = q.submit(now, i as u64, SimDuration::from_secs(dur)) {
                pending.push(std::cmp::Reverse((t, j)));
                started += 1;
            }
            prop_assert!(q.in_service() <= servers);
        }
        // drain everything
        while let Some(std::cmp::Reverse((t, j))) = pending.pop() {
            events.push((t, true, j));
            if let Some((nj, nt)) = q.complete(t) {
                pending.push(std::cmp::Reverse((nt, nj)));
                started += 1;
            }
        }
        prop_assert_eq!(q.completed() as usize, sorted.len(), "all jobs served");
        prop_assert_eq!(started as usize, sorted.len());
    }

    /// The step integrator is exact for any piecewise-constant signal:
    /// integral equals the hand-computed sum of segments.
    #[test]
    fn integrator_matches_manual_sum(
        segments in proptest::collection::vec((0.0f64..500.0, 1u64..1_000), 1..50),
    ) {
        let mut p = StepIntegrator::new(SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut manual = 0.0;
        let mut value = 0.0;
        for &(v, ms) in &segments {
            let next = now + SimDuration::from_millis(ms);
            manual += value * SimDuration::from_millis(ms).as_secs_f64();
            p.set(next, v);
            now = next;
            value = v;
        }
        prop_assert!((p.integral_at(now) - manual).abs() < 1e-6 * manual.max(1.0));
    }

    /// Energy is monotone non-decreasing in time for non-negative power.
    #[test]
    fn energy_is_monotone(powers in proptest::collection::vec(0.0f64..200.0, 1..40)) {
        let mut p = StepIntegrator::new(SimTime::ZERO, powers[0]);
        let mut last = 0.0;
        for (i, &w) in powers.iter().enumerate() {
            let t = SimTime::from_secs((i + 1) as u64);
            p.set(t, w);
            let e = p.integral_at(t);
            prop_assert!(e >= last - 1e-9);
            last = e;
        }
    }
}
