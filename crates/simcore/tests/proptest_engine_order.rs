//! Delivery order of the event engine against a reference model.
//!
//! Handlers run a random script: each delivered event reads its script
//! row and schedules plain and keyed follow-ups, many of them at zero
//! delay or at one shared instant, re-arms keys that are still pending,
//! and may stop the run. The reference runs the same script on
//! `std::collections::BinaryHeap<Reverse<…>>`, leaving superseded keyed
//! events in the heap as tombstones. The engine must deliver exactly the
//! reference's `(at, seq)` stream and keep the balance
//! `scheduled_total = processed + superseded_total + pending`.

use edison_simcore::time::SimTime;
use edison_simcore::{Ctx, Model, Profiler, Simulation};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Follow-up delays in microseconds; zero and repeated values make many
/// events share an instant.
const DELAYS_US: [u64; 8] = [0, 0, 0, 1, 7, 50, 50, 1_000];

/// Keys a script may re-arm.
const KEYS: u8 = 4;

/// No follow-ups are scheduled once this many events have been.
const BUDGET: u64 = 600;

/// One scripted action: `(kind, key, delay index, row of the follow-up)`.
/// Kinds 0–17 schedule a plain event, 18–30 a keyed one on `key % KEYS`,
/// and 31 stops the run.
type Op = (u8, u8, u8, u16);

/// A scheduled event: the sequence number it was given and its script row.
#[derive(Clone, Copy, Debug)]
struct Ev {
    seq: u64,
    row: usize,
}

/// What one scripted op asks for at `now`.
enum Act {
    Plain(SimTime, usize),
    Keyed(usize, SimTime, usize),
    Stop,
}

fn act(op: Op, now: SimTime, rows: usize) -> Act {
    let (kind, key, delay, row) = op;
    let at = SimTime(now.0 + DELAYS_US[usize::from(delay) % DELAYS_US.len()] * 1_000);
    let row = usize::from(row) % rows;
    match kind {
        0..=17 => Act::Plain(at, row),
        18..=30 => Act::Keyed(usize::from(key % KEYS), at, row),
        _ => Act::Stop,
    }
}

/// The world under test: delivers through [`Ctx`] and logs `(at, seq)`.
struct Scripted {
    script: Vec<Vec<Op>>,
    next_seq: u64,
    log: Vec<(SimTime, u64)>,
}

impl Scripted {
    fn tag(&mut self, row: usize) -> Ev {
        let ev = Ev { seq: self.next_seq, row };
        self.next_seq += 1;
        ev
    }
}

impl Model for Scripted {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        self.log.push((now, ev.seq));
        for i in 0..self.script[ev.row].len() {
            let a = act(self.script[ev.row][i], now, self.script.len());
            if self.next_seq >= BUDGET && !matches!(a, Act::Stop) {
                continue;
            }
            match a {
                Act::Plain(at, row) => {
                    let ev = self.tag(row);
                    ctx.schedule_at(at, ev);
                }
                Act::Keyed(key, at, row) => {
                    let ev = self.tag(row);
                    ctx.schedule_keyed(key, at, ev);
                }
                Act::Stop => ctx.stop(),
            }
        }
    }
}

/// The queue depth after the last delivered event (or at the start).
#[derive(Default)]
struct Depth(usize);

impl<E> Profiler<E> for Depth {
    fn on_start(&mut self, heap_depth: usize) {
        self.0 = heap_depth;
    }
    fn on_handled(&mut self, _now: SimTime, _newly_scheduled: usize, heap_depth: usize) {
        self.0 = heap_depth;
    }
}

/// What the reference model delivered and counted.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(SimTime, u64)>,
    scheduled: u64,
    processed: u64,
    superseded: u64,
    pending: u64,
}

/// The reference: one `BinaryHeap<Reverse<(at, seq, row)>>` for plain
/// and keyed events alike. A keyed schedule marks the key's pending
/// event dead; the pop skips dead events.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Per sequence number: its key, if keyed.
    key_of: Vec<Option<usize>>,
    /// Per sequence number: superseded by a later schedule of its key.
    dead: Vec<bool>,
    /// Per key: the sequence number of its pending event.
    live: [Option<u64>; KEYS as usize],
    superseded: u64,
}

impl Reference {
    fn push(&mut self, at: SimTime, row: usize, key: Option<usize>) {
        let seq = self.key_of.len() as u64;
        self.key_of.push(key);
        self.dead.push(false);
        self.heap.push(Reverse((at, seq, row)));
        if let Some(old) = key.and_then(|k| self.live[k].replace(seq)) {
            self.dead[old as usize] = true;
            self.superseded += 1;
        }
    }

    fn run(script: &[Vec<Op>], initial: &[(u8, u16)]) -> Outcome {
        let mut r = Reference::default();
        for &(delay, row) in initial {
            let Act::Plain(at, row) = act((0, 0, delay, row), SimTime::ZERO, script.len()) else {
                unreachable!()
            };
            r.push(at, row, None);
        }
        let mut log = Vec::new();
        let mut stop = false;
        while !stop {
            let Some(Reverse((now, seq, row))) = r.heap.pop() else { break };
            if r.dead[seq as usize] {
                continue;
            }
            if let Some(key) = r.key_of[seq as usize] {
                r.live[key] = None;
            }
            log.push((now, seq));
            for &op in &script[row] {
                let a = act(op, now, script.len());
                if r.key_of.len() as u64 >= BUDGET && !matches!(a, Act::Stop) {
                    continue;
                }
                match a {
                    Act::Plain(at, row) => r.push(at, row, None),
                    Act::Keyed(key, at, row) => r.push(at, row, Some(key)),
                    Act::Stop => stop = true,
                }
            }
        }
        let pending = r.heap.iter().filter(|Reverse((_, seq, _))| !r.dead[*seq as usize]).count();
        Outcome {
            scheduled: r.key_of.len() as u64,
            processed: log.len() as u64,
            superseded: r.superseded,
            pending: pending as u64,
            log,
        }
    }
}

/// The engine run of the same script.
fn engine(script: &[Vec<Op>], initial: &[(u8, u16)]) -> Outcome {
    let world = Scripted { script: script.to_vec(), next_seq: 0, log: vec![] };
    let mut sim = Simulation::new(world);
    for &(delay, row) in initial {
        let Act::Plain(at, row) = act((0, 0, delay, row), SimTime::ZERO, script.len()) else {
            unreachable!()
        };
        let ev = sim.world_mut().tag(row);
        sim.schedule_at(at, ev);
    }
    let mut depth = Depth::default();
    sim.run_profiled(&mut depth, &mut Depth::default());
    assert_eq!(sim.scheduled_total(), sim.world().next_seq, "every schedule consumes one seq");
    Outcome {
        log: std::mem::take(&mut sim.world_mut().log),
        scheduled: sim.scheduled_total(),
        processed: sim.processed(),
        superseded: sim.superseded_total(),
        pending: depth.0 as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delivery_is_the_at_seq_order_of_a_std_heap(
        script in proptest::collection::vec(
            proptest::collection::vec((0u8..32, 0u8..KEYS, 0u8..8, 0u16..64), 0..5),
            1..24,
        ),
        initial in proptest::collection::vec((0u8..8, 0u16..64), 1..12),
    ) {
        let want = Reference::run(&script, &initial);
        let got = engine(&script, &initial);
        prop_assert_eq!(&got.log, &want.log);
        prop_assert_eq!(got.scheduled, want.scheduled);
        prop_assert_eq!(got.processed, want.processed);
        prop_assert_eq!(got.superseded, want.superseded);
        prop_assert_eq!(got.pending, want.pending);
        prop_assert_eq!(got.scheduled, got.processed + got.superseded + got.pending);
    }
}

/// A fixed script that exercises every path at once: a 1 µs self-chain
/// that re-arms a key at zero delay, a keyed chain that re-arms its own
/// key, equal-instant fans and a stop with events still pending.
#[test]
fn a_busy_fixed_script_matches_the_reference() {
    const PLAIN: u8 = 0;
    const KEYED: u8 = 18;
    const STOP: u8 = 31;
    let script: Vec<Vec<Op>> = vec![
        vec![(PLAIN, 0, 0, 1), (KEYED, 1, 5, 2), (PLAIN, 0, 5, 3), (KEYED, 1, 3, 2)],
        vec![(PLAIN, 0, 3, 1), (KEYED, 2, 0, 2)],
        vec![(KEYED, 1, 4, 2), (PLAIN, 0, 0, 5)],
        vec![(PLAIN, 0, 5, 3), (PLAIN, 0, 7, 4), (KEYED, 3, 5, 1)],
        vec![(STOP, 0, 0, 0), (PLAIN, 0, 4, 0)],
        vec![],
    ];
    let initial = [(0, 0), (0, 2), (5, 3), (7, 1)];
    let want = Reference::run(&script, &initial);
    let counts = (want.scheduled, want.processed, want.superseded, want.pending);
    assert_eq!(counts, (600, 448, 149, 3), "the script reaches the budget, supersedes and stops");
    assert_eq!(engine(&script, &initial), want);
}
