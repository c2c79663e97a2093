//! YARN-style container scheduling.
//!
//! The resource manager grants containers on heartbeats (1 s cadence),
//! bounded by each node's schedulable memory and a 2×-vcore container cap
//! (the paper deliberately runs "two or even more containers … on each
//! virtual core" when memory allows). Requested reduce containers outrank
//! map containers — Hadoop's YARN priorities (10 vs 20) — but are capped
//! by the AM's ramp-up allowance while maps remain pending; maps prefer
//! data-local nodes. This policy mix yields the paper's ≈95 %
//! data-locality, its container-allocation waves, and the reduce-phase
//! start times of Figures 12–17.
//!
//! Every grant [`heartbeat`] makes needs [`NodeCapacity::fits`] for the
//! task's container, and `fits` is monotone in the container size. Two
//! gates follow from that, and both are exact:
//!
//! * The engine calls `heartbeat` only when some node fits the smallest
//!   container a pending task could ask for. On the other heartbeats (a
//!   full cluster, most of a job's life) it builds neither the pending
//!   list nor the capacity vector, and it remembers the closed gate until
//!   a write the gate reads (a container freed, a node localised, a fault)
//!   could open it.
//! * Inside `heartbeat`, both passes stop as soon as no node fits the
//!   smallest pending container, since no later grant is then possible.
//!
//! Grants, and everything the heartbeat does before them (liveness,
//! speculation), happen at the same instants and in the same order as
//! without either gate.

use edison_simcore::time::{SimDuration, SimTime};

/// The resource manager's liveness view of the slave nodes.
///
/// Nodes report on every scheduler heartbeat; a node silent for longer
/// than the timeout is declared **lost** exactly once (via [`sweep`]),
/// which is the RM's cue to re-queue the containers it had placed there.
/// A restarted node re-registers through [`revive`]. The RM deliberately
/// lags physical reality: between a crash and the sweep that notices it,
/// containers already placed on the dead node count as running — exactly
/// YARN's behaviour — and only the reap that follows the sweep (or a
/// restarted nodemanager reporting in early) re-queues them.
///
/// A node that is up would only report "now" on every round, so a caller
/// may skip [`beat`] and [`sweep`] on rounds where every node is up (no
/// node can be silent then) if it calls [`went_silent`] when a node goes
/// down: the node's last report is then the last round it was up for.
///
/// [`sweep`]: LivenessTracker::sweep
/// [`revive`]: LivenessTracker::revive
/// [`beat`]: LivenessTracker::beat
/// [`went_silent`]: LivenessTracker::went_silent
#[derive(Debug, Clone)]
pub struct LivenessTracker {
    last_seen: Vec<SimTime>,
    timeout: SimDuration,
    lost: Vec<bool>,
}

impl LivenessTracker {
    /// Track `nodes` slaves with the given silence timeout.
    pub fn new(nodes: usize, timeout: SimDuration) -> Self {
        LivenessTracker { last_seen: vec![SimTime::ZERO; nodes], timeout, lost: vec![false; nodes] }
    }

    /// Record a heartbeat from `node`.
    pub fn beat(&mut self, node: usize, now: SimTime) {
        self.last_seen[node] = now;
    }

    /// Declare nodes silent past the timeout as lost; returns the nodes
    /// newly lost this sweep (index order, each reported exactly once).
    pub fn sweep(&mut self, now: SimTime) -> Vec<usize> {
        let mut newly = Vec::new();
        for i in 0..self.last_seen.len() {
            if !self.lost[i] && now.saturating_since(self.last_seen[i]) > self.timeout {
                self.lost[i] = true;
                newly.push(i);
            }
        }
        newly
    }

    /// `node` went down after the round at `last_round`: its last report
    /// is that round, or its re-registration if that came later.
    pub fn went_silent(&mut self, node: usize, last_round: SimTime) {
        self.last_seen[node] = self.last_seen[node].max(last_round);
    }

    /// Re-register a node (restart): it is alive and schedulable again.
    pub fn revive(&mut self, node: usize, now: SimTime) {
        self.lost[node] = false;
        self.last_seen[node] = now;
    }

    /// Whether the RM currently considers `node` lost.
    pub fn is_lost(&self, node: usize) -> bool {
        self.lost[node]
    }
}

/// Free capacity of one node, as seen by the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct NodeCapacity {
    /// Bytes of schedulable container memory currently free.
    pub free_mem: u64,
    /// Containers currently running on the node.
    pub running: u32,
    /// Hard cap on concurrent containers (2 × vcores).
    pub max_containers: u32,
}

impl NodeCapacity {
    /// Can this node host one more container of `mem` bytes?
    pub fn fits(&self, mem: u64) -> bool {
        self.running < self.max_containers && self.free_mem >= mem
    }

    /// Claim a container of `mem` bytes.
    pub fn claim(&mut self, mem: u64) {
        debug_assert!(self.fits(mem));
        self.free_mem -= mem;
        self.running += 1;
    }
}

/// One pending task from the scheduler's perspective.
#[derive(Debug, Clone, Copy)]
pub struct PendingTask {
    /// Engine task index.
    pub task: usize,
    /// Container memory demand, bytes.
    pub mem: u64,
    /// True for map tasks (scheduled with priority).
    pub is_map: bool,
}

/// A grant decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Engine task index.
    pub task: usize,
    /// Node the container was placed on.
    pub node: usize,
    /// Whether the placement was data-local (always true for reduces).
    pub local: bool,
}

/// One heartbeat round: assign as many pending tasks as capacity allows.
///
/// `is_local(task, node)` reports data locality. Pending tasks must be in
/// deterministic order; nodes are scanned in index order.
///
/// Priority follows Hadoop's MRAppMaster: **reduce requests outrank map
/// requests** (YARN priority 10 vs 20) but reducers may claim at most
/// `reduce_mem_allowance` bytes this round (the AM's ramp-up limit while
/// maps are pending — pass `u64::MAX` once all maps have been granted).
/// Within each class: data-local placements first, then least-loaded
/// remote placement.
pub fn heartbeat(
    pending: &[PendingTask],
    capacity: &mut [NodeCapacity],
    reduce_mem_allowance: u64,
    is_local: impl Fn(usize, usize) -> bool,
) -> Vec<Grant> {
    let mut grants = Vec::new();
    // every grant needs `fits(p.mem)` with `p.mem >= smallest`, and `fits`
    // is monotone in `mem`: once no node fits `smallest`, neither pass can
    // grant again
    let Some(smallest) = pending.iter().map(|p| p.mem).min() else {
        return grants;
    };
    let open = |capacity: &[NodeCapacity]| capacity.iter().any(|c| c.fits(smallest));
    if !open(capacity) {
        return grants;
    }
    let mut taken = vec![false; pending.len()];
    let mut reduce_budget = reduce_mem_allowance;

    // priority classes: reduces first (Hadoop priority 10 < 20), then maps
    for want_map in [false, true] {
        // pass 1: data-local placements (maps only — reduces have no data
        // affinity)
        if want_map {
            for (pi, p) in pending.iter().enumerate() {
                if taken[pi] || !p.is_map {
                    continue;
                }
                let local = (0..capacity.len())
                    .find(|&ni| capacity[ni].fits(p.mem) && is_local(p.task, ni));
                if let Some(ni) = local {
                    capacity[ni].claim(p.mem);
                    grants.push(Grant { task: p.task, node: ni, local: true });
                    taken[pi] = true;
                    if !open(capacity) {
                        return grants;
                    }
                }
            }
        }
        // pass 2: any placement
        for (pi, p) in pending.iter().enumerate() {
            if taken[pi] || p.is_map != want_map {
                continue;
            }
            if !p.is_map && p.mem > reduce_budget {
                continue; // ramp-up limit reached this round
            }
            // least-loaded-first among fitting nodes keeps waves level
            let best = capacity
                .iter()
                .enumerate()
                .filter(|(_, c)| c.fits(p.mem))
                .min_by_key(|(ni, c)| (c.running, *ni))
                .map(|(ni, _)| ni);
            if let Some(ni) = best {
                capacity[ni].claim(p.mem);
                let local = want_map && is_local(p.task, ni);
                grants.push(Grant { task: p.task, node: ni, local });
                taken[pi] = true;
                if !p.is_map {
                    reduce_budget = reduce_budget.saturating_sub(p.mem);
                }
                if !open(capacity) {
                    return grants;
                }
            }
        }
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn caps(n: usize, free_mb: u64, max: u32) -> Vec<NodeCapacity> {
        (0..n)
            .map(|_| NodeCapacity { free_mem: free_mb * MB, running: 0, max_containers: max })
            .collect()
    }

    #[test]
    fn grants_respect_memory() {
        let mut capacity = caps(1, 600, 4);
        let pending: Vec<PendingTask> = (0..10)
            .map(|t| PendingTask { task: t, mem: 150 * MB, is_map: true })
            .collect();
        let grants = heartbeat(&pending, &mut capacity, u64::MAX, |_, _| true);
        assert_eq!(grants.len(), 4, "600 MB / 150 MB = 4 containers");
        assert_eq!(capacity[0].free_mem, 0);
    }

    #[test]
    fn grants_respect_container_cap() {
        let mut capacity = caps(1, 10_000, 4);
        let pending: Vec<PendingTask> =
            (0..10).map(|t| PendingTask { task: t, mem: MB, is_map: true }).collect();
        let grants = heartbeat(&pending, &mut capacity, u64::MAX, |_, _| false);
        assert_eq!(grants.len(), 4);
    }

    #[test]
    fn local_placement_preferred() {
        let mut capacity = caps(4, 600, 4);
        let pending = vec![PendingTask { task: 0, mem: 150 * MB, is_map: true }];
        // task 0 is local only to node 3
        let grants = heartbeat(&pending, &mut capacity, u64::MAX, |_, n| n == 3);
        assert_eq!(grants, vec![Grant { task: 0, node: 3, local: true }]);
    }

    #[test]
    fn remote_fallback_when_local_node_full() {
        let mut capacity = caps(2, 600, 1);
        capacity[1].running = 1; // local node full
        let pending = vec![PendingTask { task: 0, mem: 150 * MB, is_map: true }];
        let grants = heartbeat(&pending, &mut capacity, u64::MAX, |_, n| n == 1);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].node, 0);
        assert!(!grants[0].local);
    }

    #[test]
    fn reduces_outrank_maps_within_allowance() {
        // Hadoop's reduce priority: the reducer is granted first, maps
        // fill what remains.
        let mut capacity = caps(1, 450, 8);
        let pending = vec![
            PendingTask { task: 0, mem: 300 * MB, is_map: false },
            PendingTask { task: 1, mem: 150 * MB, is_map: true },
            PendingTask { task: 2, mem: 150 * MB, is_map: true },
        ];
        let grants = heartbeat(&pending, &mut capacity, u64::MAX, |_, _| true);
        let ids: Vec<usize> = grants.iter().map(|g| g.task).collect();
        assert_eq!(ids, vec![0, 1], "reduce first, then one map fits");
    }

    #[test]
    fn rampup_allowance_holds_reduces_back() {
        // With a zero allowance, maps take everything even though the
        // reduce outranks them.
        let mut capacity = caps(1, 450, 8);
        let pending = vec![
            PendingTask { task: 0, mem: 300 * MB, is_map: false },
            PendingTask { task: 1, mem: 150 * MB, is_map: true },
            PendingTask { task: 2, mem: 150 * MB, is_map: true },
        ];
        let grants = heartbeat(&pending, &mut capacity, 0, |_, _| true);
        let ids: Vec<usize> = grants.iter().map(|g| g.task).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn rampup_allowance_is_respected_partially() {
        // allowance for exactly one reducer: the second waits
        let mut capacity = caps(2, 600, 8);
        let pending = vec![
            PendingTask { task: 0, mem: 300 * MB, is_map: false },
            PendingTask { task: 1, mem: 300 * MB, is_map: false },
            PendingTask { task: 2, mem: 150 * MB, is_map: true },
        ];
        let grants = heartbeat(&pending, &mut capacity, 300 * MB, |_, _| true);
        let reduces = grants.iter().filter(|g| g.task < 2).count();
        assert_eq!(reduces, 1);
        assert!(grants.iter().any(|g| g.task == 2), "map still granted");
    }

    #[test]
    fn liveness_declares_loss_once_and_revives() {
        use edison_simcore::time::{SimDuration, SimTime};
        let t = |s| SimTime::from_secs(s);
        let mut lv = LivenessTracker::new(3, SimDuration::from_secs(5));
        for s in 0..4 {
            for n in 0..3 {
                lv.beat(n, t(s));
            }
        }
        // node 1 goes silent after t=3
        for s in 4..9 {
            lv.beat(0, t(s));
            lv.beat(2, t(s));
            assert!(lv.sweep(t(s)).is_empty(), "not silent long enough at {s}s");
        }
        assert_eq!(lv.sweep(t(9)), vec![1], "silent > 5 s");
        assert_eq!(lv.lost, [false, true, false], "only node 1 is lost");
        assert!(lv.sweep(t(10)).is_empty(), "reported exactly once");
        lv.revive(1, t(11));
        assert!(!lv.is_lost(1));
        assert!(lv.sweep(t(12)).is_empty());
    }

    #[test]
    fn rounds_skipped_while_all_nodes_are_up_lose_nothing() {
        use edison_simcore::time::{SimDuration, SimTime};
        let t = |s| SimTime::from_secs(s);
        let timeout = SimDuration::from_secs(3);
        let (mut eager, mut lazy) = (LivenessTracker::new(3, timeout), LivenessTracker::new(3, timeout));
        let mut down = [false; 3];
        for s in 0..20 {
            // node 1 crashes after the round at 4 s, re-registers at 10 s
            // (after that round) and crashes again after the round at 11 s
            if s == 5 || s == 12 {
                down[1] = true;
                lazy.went_silent(1, t(s - 1));
            }
            for n in 0..3 {
                if !down[n] {
                    eager.beat(n, t(s));
                }
            }
            let swept = eager.sweep(t(s));
            if down.contains(&true) {
                for n in 0..3 {
                    if !down[n] {
                        lazy.beat(n, t(s));
                    }
                }
                assert_eq!(lazy.sweep(t(s)), swept, "round at {s} s");
            } else {
                assert!(swept.is_empty());
            }
            if s == 10 {
                down[1] = false;
                eager.revive(1, t(s));
                lazy.revive(1, t(s));
            }
        }
        assert_eq!(lazy.lost, eager.lost);
        assert_eq!((eager.lost[1], eager.last_seen[1]), (true, t(11)));
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let pending: Vec<PendingTask> = (0..20)
            .map(|t| PendingTask { task: t, mem: 150 * MB, is_map: t % 3 != 0 })
            .collect();
        let mut c1 = caps(5, 600, 4);
        let mut c2 = caps(5, 600, 4);
        let g1 = heartbeat(&pending, &mut c1, u64::MAX, |t, n| t % 5 == n);
        let g2 = heartbeat(&pending, &mut c2, u64::MAX, |t, n| t % 5 == n);
        assert_eq!(g1, g2);
    }
}
