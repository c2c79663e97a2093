//! The declarative fault schedule: [`FaultKind`], [`Fault`], [`FaultPlan`].

use edison_simcore::time::{SimDuration, SimTime};
use edison_simrun::derive_seed;
use std::fmt;

/// What breaks (or recovers). See the crate docs for the model table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node halts: in-flight work is lost, nothing is accepted.
    NodeCrash,
    /// Cold restart of a crashed node: empty queues, cold caches.
    NodeRestart,
    /// NIC degradation: extra packet-loss probability and a latency
    /// multiplier on traffic touching the node.
    NicDegrade {
        /// Extra drop probability in `[0, 1)` applied per packet/attempt.
        loss: f64,
        /// Latency multiplier (≥ 1.0) on traffic touching the node.
        latency_mult: f64,
    },
    /// End of a NIC degradation.
    NicRestore,
    /// Disk service times multiplied by `factor` (sick-disk straggler).
    DiskSlow {
        /// Service-time multiplier (> 1.0).
        factor: f64,
    },
    /// End of a disk slowdown.
    DiskRestore,
    /// CPU work inflated by `factor` (thermal-throttle straggler).
    CpuThrottle {
        /// CPU-work multiplier (> 1.0).
        factor: f64,
    },
    /// End of a CPU throttle.
    CpuRestore,
    /// memcached process restart: contents flushed, memory released; the
    /// cache re-warms organically from subsequent misses.
    CacheColdRestart,
}

impl FaultKind {
    /// Stable label used in telemetry (`fault_injected_total{kind=...}`)
    /// and in the text spec.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "crash",
            FaultKind::NodeRestart => "restart",
            FaultKind::NicDegrade { .. } => "nic",
            FaultKind::NicRestore => "nic-restore",
            FaultKind::DiskSlow { .. } => "disk-slow",
            FaultKind::DiskRestore => "disk-restore",
            FaultKind::CpuThrottle { .. } => "cpu-throttle",
            FaultKind::CpuRestore => "cpu-restore",
            FaultKind::CacheColdRestart => "cache-cold",
        }
    }

    /// True when `other` is the restore kind that cancels this kind when
    /// both land on the same node at the same instant (zero-width pair).
    fn cancelled_by(&self, other: FaultKind) -> bool {
        matches!(
            (self, other),
            (FaultKind::NodeCrash, FaultKind::NodeRestart)
                | (FaultKind::NicDegrade { .. }, FaultKind::NicRestore)
                | (FaultKind::DiskSlow { .. }, FaultKind::DiskRestore)
                | (FaultKind::CpuThrottle { .. }, FaultKind::CpuRestore)
        )
    }

    /// Canonical tie-break rank among kinds landing on the same node at the
    /// same instant. Break kinds sort before their restores so zero-width
    /// pairs are adjacent regardless of insertion order.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::NodeCrash => 0,
            FaultKind::NodeRestart => 1,
            FaultKind::NicDegrade { .. } => 2,
            FaultKind::NicRestore => 3,
            FaultKind::DiskSlow { .. } => 4,
            FaultKind::DiskRestore => 5,
            FaultKind::CpuThrottle { .. } => 6,
            FaultKind::CpuRestore => 7,
            FaultKind::CacheColdRestart => 8,
        }
    }

    /// Parameter pair for the canonical order (zeros for parameterless
    /// kinds). Compared with `total_cmp`, so the order is total even for
    /// not-yet-validated plans carrying non-finite values.
    fn params(&self) -> (f64, f64) {
        match *self {
            FaultKind::NicDegrade { loss, latency_mult } => (loss, latency_mult),
            FaultKind::DiskSlow { factor } | FaultKind::CpuThrottle { factor } => (factor, 0.0),
            _ => (0.0, 0.0),
        }
    }
}

/// One observed crash-recovery interval, reported by the worlds so the
/// schedule explorer (`crates/simexplore`) can aim follow-up faults at it.
///
/// `start` is the instant the node came back up (web: `restart` applied;
/// MapReduce: nodemanager re-registered) and `end` the instant it was
/// usable again (web: back in LB rotation after RISE health checks;
/// MapReduce: job artifacts re-localised). Faults injected inside this
/// window land on a node the control plane already believes is returning —
/// exactly where hand-written plans rarely look.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryWindow {
    /// Tier-local node index the window belongs to.
    pub node: usize,
    /// Node back up (restart applied / re-registered).
    pub start: SimTime,
    /// Node usable again (in rotation / re-localised).
    pub end: SimTime,
}

/// One scheduled fault: a kind, a target node, and an injection time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Absolute simulation time of injection.
    pub at: SimTime,
    /// Target node index (tier-local: web/cache node for the web stack,
    /// worker index for MapReduce).
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Error raised when parsing or validating a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The text spec could not be parsed (1-based line and column).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// 1-based character column of the offending token (column of the
        /// directive for structural errors like a missing operand).
        col: usize,
        /// The offending token itself (the directive for structural
        /// errors; empty only for an empty line that somehow errored).
        token: String,
        /// What was wrong.
        msg: String,
    },
    /// A structurally parsed fault has out-of-range parameters or targets
    /// a node outside the tier.
    Invalid {
        /// Index of the offending fault in plan order.
        index: usize,
        /// What was wrong.
        msg: String,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Parse { line, col, token, msg } => {
                write!(f, "fault plan line {line}, col {col}: {msg}")?;
                if !token.is_empty() {
                    write!(f, " (at '{token}')")?;
                }
                Ok(())
            }
            FaultPlanError::Invalid { index, msg } => write!(f, "fault plan entry {index}: {msg}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative, ordered schedule of faults plus a seed root for any
/// per-fault randomness. Build with the chainable methods, or parse from
/// the text spec; apply by scheduling each entry as a simulation event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed_root: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan with seed root 0 (derive from the run seed instead when
    /// the plan carries randomness).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Set the seed root all per-fault seeds derive from.
    pub fn with_seed(mut self, seed_root: u64) -> Self {
        self.seed_root = seed_root;
        self
    }

    /// The seed root (see [`FaultPlan::fault_seed`]).
    pub fn seed_root(&self) -> u64 {
        self.seed_root
    }

    /// Append an arbitrary fault.
    pub fn push(mut self, at: SimTime, node: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault { at, node, kind });
        self
    }

    /// Crash `node` at `at`.
    pub fn crash(self, node: usize, at: SimTime) -> Self {
        self.push(at, node, FaultKind::NodeCrash)
    }

    /// Cold-restart `node` at `at`.
    pub fn restart(self, node: usize, at: SimTime) -> Self {
        self.push(at, node, FaultKind::NodeRestart)
    }

    /// Crash `node` at `at` and restart it `down` later.
    pub fn crash_restart(self, node: usize, at: SimTime, down: SimDuration) -> Self {
        self.crash(node, at).restart(node, at + down)
    }

    /// Degrade `node`'s NIC from `at`: extra `loss` drop probability and a
    /// `latency_mult` multiplier.
    pub fn nic_degrade(self, node: usize, at: SimTime, loss: f64, latency_mult: f64) -> Self {
        self.push(at, node, FaultKind::NicDegrade { loss, latency_mult })
    }

    /// End a NIC degradation on `node` at `at`.
    pub fn nic_restore(self, node: usize, at: SimTime) -> Self {
        self.push(at, node, FaultKind::NicRestore)
    }

    /// Slow `node`'s disk by `factor` from `at`.
    pub fn disk_slow(self, node: usize, at: SimTime, factor: f64) -> Self {
        self.push(at, node, FaultKind::DiskSlow { factor })
    }

    /// End a disk slowdown on `node` at `at`.
    pub fn disk_restore(self, node: usize, at: SimTime) -> Self {
        self.push(at, node, FaultKind::DiskRestore)
    }

    /// Throttle `node`'s CPU by `factor` from `at`.
    pub fn cpu_throttle(self, node: usize, at: SimTime, factor: f64) -> Self {
        self.push(at, node, FaultKind::CpuThrottle { factor })
    }

    /// End a CPU throttle on `node` at `at`.
    pub fn cpu_restore(self, node: usize, at: SimTime) -> Self {
        self.push(at, node, FaultKind::CpuRestore)
    }

    /// Flush the memcached instance on `node` at `at` (cold restart).
    pub fn cache_cold_restart(self, node: usize, at: SimTime) -> Self {
        self.push(at, node, FaultKind::CacheColdRestart)
    }

    /// Faults in plan order (insertion order, not time order — see
    /// [`FaultPlan::normalized`] for the injection schedule).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// This plan with the `index`-th fault (plan order) moved to `at`.
    /// Out-of-range indices return the plan unchanged. The explorer's
    /// start-jitter and pairwise-reorder moves are built from this.
    pub fn with_fault_at(&self, index: usize, at: SimTime) -> FaultPlan {
        let mut p = self.clone();
        if let Some(f) = p.faults.get_mut(index) {
            f.at = at;
        }
        p
    }

    /// This plan without the `index`-th fault (plan order). Out-of-range
    /// indices return the plan unchanged. The shrinker's removal probe.
    pub fn without_fault(&self, index: usize) -> FaultPlan {
        let mut p = self.clone();
        if index < p.faults.len() {
            p.faults.remove(index);
        }
        p
    }

    /// The deterministic seed for per-fault randomness of the `index`-th
    /// fault (plan order), derived from the seed root via simrun's
    /// `derive_seed` so it is independent of sibling faults.
    pub fn fault_seed(&self, index: usize) -> u64 {
        derive_seed(self.seed_root, "simfault:fault", u64::try_from(index).unwrap_or(u64::MAX))
    }

    /// The injection schedule: faults in the *canonical order* — sorted by
    /// `(time, node, kind rank, parameters)` — with zero-width pairs
    /// cancelled: a crash and a restart (or a degrade and its restore) on
    /// the same node at the same instant annihilate, making a zero-width
    /// fault observationally a no-op.
    ///
    /// The sort key deliberately ignores insertion order, so any
    /// permutation of the same fault set normalizes to the same plan (and
    /// the same `to_spec()` bytes) — the property the schedule explorer's
    /// dedup and the `--jobs`-width determinism argument both lean on.
    /// Same-instant ties across nodes inject in node order; a break kind
    /// sorts before its restore on the same node.
    pub fn normalized(&self) -> FaultPlan {
        let mut order: Vec<usize> = (0..self.faults.len()).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (&self.faults[a], &self.faults[b]);
            let (pa, pb) = (fa.kind.params(), fb.kind.params());
            fa.at
                .cmp(&fb.at)
                .then(fa.node.cmp(&fb.node))
                .then(fa.kind.rank().cmp(&fb.kind.rank()))
                .then(pa.0.total_cmp(&pb.0))
                .then(pa.1.total_cmp(&pb.1))
        });
        let mut dropped = vec![false; self.faults.len()];
        for a in 0..order.len() {
            let ia = order[a];
            if dropped[ia] {
                continue;
            }
            let fa = self.faults[ia];
            for &ib in &order[a + 1..] {
                if dropped[ib] {
                    continue;
                }
                let fb = self.faults[ib];
                if fb.at != fa.at {
                    break;
                }
                if fb.node == fa.node && fa.kind.cancelled_by(fb.kind) {
                    dropped[ia] = true;
                    dropped[ib] = true;
                    break;
                }
            }
        }
        let faults = order
            .into_iter()
            .filter(|&i| !dropped[i])
            .map(|i| self.faults[i])
            .collect();
        FaultPlan { seed_root: self.seed_root, faults }
    }

    /// Check every fault targets a node below `nodes` and carries in-range
    /// parameters.
    pub fn validate(&self, nodes: usize) -> Result<(), FaultPlanError> {
        for (index, f) in self.faults.iter().enumerate() {
            let err = |msg: String| Err(FaultPlanError::Invalid { index, msg });
            if f.node >= nodes {
                return err(format!("node {} out of range (tier has {nodes})", f.node));
            }
            match f.kind {
                FaultKind::NicDegrade { loss, latency_mult } => {
                    if !(0.0..1.0).contains(&loss) || !loss.is_finite() {
                        return err(format!("nic loss {loss} not in [0, 1)"));
                    }
                    if !latency_mult.is_finite() || latency_mult < 1.0 {
                        return err(format!("nic latency multiplier {latency_mult} must be ≥ 1"));
                    }
                }
                // !is_finite also rejects NaN
                FaultKind::DiskSlow { factor } | FaultKind::CpuThrottle { factor }
                    if !factor.is_finite() || factor < 1.0 =>
                {
                    return err(format!("{} factor {factor} must be ≥ 1", f.kind.name()));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn builder_collects_in_plan_order() {
        let p = FaultPlan::new()
            .crash(0, t(10))
            .restart(0, t(15))
            .cache_cold_restart(3, t(5));
        assert_eq!(p.len(), 3);
        assert_eq!(p.faults()[2].kind, FaultKind::CacheColdRestart);
    }

    #[test]
    fn crash_restart_expands_to_pair() {
        let p = FaultPlan::new().crash_restart(2, t(10), SimDuration::from_secs(5));
        assert_eq!(p.faults()[0], Fault { at: t(10), node: 2, kind: FaultKind::NodeCrash });
        assert_eq!(p.faults()[1], Fault { at: t(15), node: 2, kind: FaultKind::NodeRestart });
    }

    #[test]
    fn normalized_sorts_into_canonical_order() {
        let p = FaultPlan::new().crash(1, t(20)).crash(0, t(10)).cache_cold_restart(2, t(20));
        let n = p.normalized();
        assert_eq!(n.faults()[0].node, 0);
        assert_eq!(n.faults()[1].node, 1); // same-instant ties inject in node order
        assert_eq!(n.faults()[2].node, 2);
        // insertion order is not part of the canonical key: the reversed
        // plan normalizes to byte-identical spec text
        let rev = FaultPlan::new().cache_cold_restart(2, t(20)).crash(0, t(10)).crash(1, t(20));
        assert_eq!(rev.normalized().to_spec(), n.to_spec());
    }

    #[test]
    fn perturbation_helpers_move_and_remove() {
        let p = FaultPlan::new().crash(0, t(10)).restart(0, t(15));
        let moved = p.with_fault_at(1, t(20));
        assert_eq!(moved.faults()[1].at, t(20));
        assert_eq!(moved.faults()[0], p.faults()[0]);
        assert_eq!(p.with_fault_at(9, t(1)), p, "out of range is a no-op");
        let removed = p.without_fault(0);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed.faults()[0].kind, FaultKind::NodeRestart);
        assert_eq!(p.without_fault(9), p, "out of range is a no-op");
    }

    #[test]
    fn zero_width_crash_restart_cancels() {
        let p = FaultPlan::new().crash_restart(0, t(10), SimDuration::ZERO).crash(1, t(12));
        let n = p.normalized();
        assert_eq!(n.len(), 1);
        assert_eq!(n.faults()[0].node, 1);
    }

    #[test]
    fn zero_width_degrade_pairs_cancel() {
        let p = FaultPlan::new()
            .nic_degrade(0, t(1), 0.1, 2.0)
            .nic_restore(0, t(1))
            .disk_slow(1, t(2), 4.0)
            .disk_restore(1, t(2))
            .cpu_throttle(2, t(3), 3.0)
            .cpu_restore(2, t(3));
        assert!(p.normalized().is_empty());
    }

    #[test]
    fn nonzero_width_pairs_survive() {
        let p = FaultPlan::new().crash_restart(0, t(10), SimDuration::from_millis(1));
        assert_eq!(p.normalized().len(), 2);
    }

    #[test]
    fn mismatched_nodes_do_not_cancel() {
        let p = FaultPlan::new().crash(0, t(10)).restart(1, t(10));
        assert_eq!(p.normalized().len(), 2);
    }

    #[test]
    fn fault_seeds_are_stable_and_distinct() {
        let p = FaultPlan::new().with_seed(42).crash(0, t(1)).crash(1, t(2));
        assert_eq!(p.fault_seed(0), p.clone().fault_seed(0));
        assert_ne!(p.fault_seed(0), p.fault_seed(1));
        let q = FaultPlan::new().with_seed(43).crash(0, t(1));
        assert_ne!(p.fault_seed(0), q.fault_seed(0));
    }

    /// Decode one sampled tuple into a pushable fault (mirrors the helper
    /// in `spec.rs` tests; duplicated so each file reads standalone).
    fn fault_from(raw: (u64, usize, u8, f64)) -> (SimTime, usize, FaultKind) {
        let (ns, node, sel, p) = raw;
        let kind = match sel % 9 {
            0 => FaultKind::NodeCrash,
            1 => FaultKind::NodeRestart,
            2 => FaultKind::NicDegrade { loss: p / 10.0, latency_mult: p },
            3 => FaultKind::NicRestore,
            4 => FaultKind::DiskSlow { factor: p },
            5 => FaultKind::DiskRestore,
            6 => FaultKind::CpuThrottle { factor: p },
            7 => FaultKind::CpuRestore,
            _ => FaultKind::CacheColdRestart,
        };
        (SimTime(ns), node, kind)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Order-normalisation is idempotent and permutation-invariant:
        /// any insertion order of the same fault set normalizes to the
        /// same plan and byte-identical spec text. Times are drawn from a
        /// small grid so same-instant ties (the interesting case for the
        /// canonical tie-break and zero-width cancellation) are common.
        #[test]
        fn normalization_idempotent_and_permutation_invariant(
            seed in proptest::any::<u64>(),
            perm_seed in proptest::any::<u64>(),
            raws in proptest::collection::vec(
                (0u64..8_000_000_000, 0usize..4, 0u8..9, 1.0f64..4.0),
                0..10,
            ),
        ) {
            use edison_simcore::rng::SimRng;
            // snap times onto a 1 s grid: collisions exercise the ties
            let snap = |ns: u64| (ns / 1_000_000_000) * 1_000_000_000;
            let mut plan = FaultPlan::new().with_seed(seed);
            for &raw in &raws {
                let (at, node, kind) = fault_from(raw);
                plan = plan.push(SimTime(snap(at.0)), node, kind);
            }
            // the same set in a seed-derived shuffled order (Fisher-Yates)
            let mut order: Vec<usize> = (0..raws.len()).collect();
            let mut rng = SimRng::new(perm_seed);
            for i in (1..order.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let mut shuffled = FaultPlan::new().with_seed(seed);
            for &i in &order {
                let (at, node, kind) = fault_from(raws[i]);
                shuffled = shuffled.push(SimTime(snap(at.0)), node, kind);
            }
            let n = plan.normalized();
            proptest::prop_assert_eq!(&shuffled.normalized(), &n);
            proptest::prop_assert_eq!(shuffled.normalized().to_spec(), n.to_spec());
            proptest::prop_assert_eq!(&n.normalized(), &n);
            proptest::prop_assert_eq!(n.normalized().to_spec(), n.to_spec());
        }
    }

    #[test]
    fn validate_catches_bad_params() {
        let bad_node = FaultPlan::new().crash(9, t(1));
        assert!(bad_node.validate(4).is_err());
        let bad_loss = FaultPlan::new().nic_degrade(0, t(1), 1.5, 2.0);
        assert!(bad_loss.validate(4).is_err());
        let bad_factor = FaultPlan::new().disk_slow(0, t(1), 0.5);
        assert!(bad_factor.validate(4).is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(FaultPlan::new().nic_degrade(0, t(1), 0.05, bad).validate(4).is_err());
            assert!(FaultPlan::new().disk_slow(0, t(1), bad).validate(4).is_err());
            assert!(FaultPlan::new().cpu_throttle(0, t(1), bad).validate(4).is_err());
        }
        let ok = FaultPlan::new()
            .crash_restart(0, t(1), SimDuration::from_secs(1))
            .nic_degrade(1, t(2), 0.05, 2.0)
            .cpu_throttle(2, t(3), 3.0);
        assert!(ok.validate(4).is_ok());
    }
}
