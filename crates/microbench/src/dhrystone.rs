//! Dhrystone 2.1 (§4.1).
//!
//! The paper runs 100 million iterations on one core/one thread, divides
//! the iterations-per-second score by 1757 and reports DMIPS: 632.3 for the
//! Edison, 11383 for the Dell. Our CPU model is *anchored* in DMIPS, so
//! this benchmark closes the loop: it executes the iteration load through a
//! live [`Node`]'s fluid CPU and re-derives the score from simulated time.

use edison_cluster::{Node, NodeId};
use edison_hw::ServerSpec;
use edison_simcore::time::SimTime;

/// VAX 11/780 dhrystones/second — the DMIPS normalisation constant.
pub const DMIPS_DIVISOR: f64 = 1757.0;

/// Result of one Dhrystone run.
#[derive(Debug, Clone, PartialEq)]
pub struct DhrystoneResult {
    /// Iterations executed.
    pub runs: u64,
    /// Wall time, seconds (simulated).
    pub seconds: f64,
    /// Dhrystones per second.
    pub score: f64,
    /// score / 1757.
    pub dmips: f64,
}

/// Run `runs` Dhrystone iterations single-threaded on a fresh node of
/// `spec`.
pub fn run(spec: &ServerSpec, runs: u64) -> DhrystoneResult {
    let mut node = Node::new(NodeId(0), spec.clone());
    // DMIPS anchoring: the 1-MIPS VAX 11/780 ran 1757 dhrystones/s, so a
    // machine of D DMIPS retires 1757·D iterations/s while executing D
    // MI/s — i.e. `runs` iterations cost `runs / 1757` MI (≈569
    // instructions per iteration).
    let work_mi = runs as f64 / DMIPS_DIVISOR;
    let t0 = SimTime::ZERO;
    node.add_cpu_task(t0, 1, work_mi);
    #[expect(clippy::expect_used, reason = "the only task was added just above")]
    let (_, done) = node.next_cpu_completion(t0).expect("task scheduled");
    let mut finished = Vec::new();
    node.take_finished_cpu_into(done, &mut finished);
    debug_assert_eq!(finished, vec![1]);
    let seconds = done.as_secs_f64();
    let score = runs as f64 / seconds;
    DhrystoneResult { runs, seconds, score, dmips: score / DMIPS_DIVISOR }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    #[test]
    fn edison_reports_632_dmips() {
        let r = run(&presets::edison(), 100_000_000);
        assert!((r.dmips - 632.3).abs() < 0.5, "dmips {}", r.dmips);
        // 100 M iterations at 632.3 DMIPS · 1757 dhry/s/DMIPS ≈ 90 s
        assert!((r.seconds - 90.0).abs() < 0.5);
    }

    #[test]
    fn dell_reports_11383_dmips() {
        let r = run(&presets::dell_r620(), 100_000_000);
        assert!((r.dmips - 11_383.0).abs() < 5.0, "dmips {}", r.dmips);
    }

    #[test]
    fn single_core_gap_is_an_18x() {
        let e = run(&presets::edison(), 10_000_000);
        let d = run(&presets::dell_r620(), 10_000_000);
        let gap = d.dmips / e.dmips;
        // §4.1: "1 Edison core only has 5.6% performance of 1 Dell core"
        assert!((gap - 18.0).abs() < 0.5, "gap {gap}");
        assert!((e.dmips / d.dmips - 0.056).abs() < 0.002);
    }

    #[test]
    fn score_is_independent_of_run_count() {
        let a = run(&presets::edison(), 1_000_000);
        let b = run(&presets::edison(), 50_000_000);
        assert!((a.dmips - b.dmips).abs() < 1e-6);
    }
}
