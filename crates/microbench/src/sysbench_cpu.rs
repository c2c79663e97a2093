//! Sysbench 0.5 CPU test (§4.1, Figures 2 and 3).
//!
//! Sysbench computes all primes below 20000 for a fixed number of events,
//! split across N worker threads; it reports total time and the average
//! per-event response time. We execute the event load through a node's
//! processor-sharing CPU: with ≤ `threads` workers each runs at the
//! single-thread rate; beyond the core count workers share.
//!
//! The per-event cost constant is fitted so the Edison single-thread total
//! lands at the ≈600 s Figure 2 reports; the Dell curve (Figure 3) and both
//! response-time curves then *follow* from the hardware model — including
//! the paper's "15–18× faster single-thread" observation.

use edison_cluster::{Node, NodeId};
use edison_hw::ServerSpec;
use edison_simcore::time::SimTime;

/// Number of sysbench events in one run (`--cpu-max-prime=20000` default
/// event count used by the paper's sysbench 0.5).
pub const EVENTS: u64 = 10_000;

/// CPU cost of one prime-search event, MI. Fitted to the Edison
/// single-thread total time (≈600 s, Figure 2).
pub const EVENT_MI: f64 = 37.9;

/// Result of one sysbench CPU run.
#[derive(Debug, Clone, PartialEq)]
pub struct SysbenchCpuResult {
    /// Worker threads used.
    pub threads: u32,
    /// Total wall time for all events, seconds.
    pub total_seconds: f64,
    /// Mean per-event latency, milliseconds (sysbench "avg response time").
    pub avg_response_ms: f64,
}

/// Run sysbench-cpu with `threads` workers on a fresh node of `spec`.
///
/// Each worker executes `EVENTS / threads` events back to back; events of
/// the final partial batch are distributed round-robin, matching sysbench's
/// shared event counter.
pub fn run(spec: &ServerSpec, threads: u32) -> SysbenchCpuResult {
    assert!(threads >= 1);
    let mut node = Node::new(NodeId(0), spec.clone());
    let t0 = SimTime::ZERO;
    // Each worker is one long CPU task of its share of events. Workers all
    // start together and the fluid CPU shares capacity exactly as the real
    // scheduler does on average.
    let base = EVENTS / threads as u64;
    let extra = EVENTS % threads as u64;
    for w in 0..threads as u64 {
        let events = base + u64::from(w < extra);
        if events > 0 {
            node.add_cpu_task(t0, w, events as f64 * EVENT_MI);
        }
    }
    // Drain to completion, tracking per-event response times via the
    // per-thread service rate at each instant.
    let mut now = t0;
    let mut resp_weighted = 0.0;
    let mut last_rate_events = 0.0;
    let mut finished = Vec::new();
    while let Some((_, at)) = node.next_cpu_completion(now) {
        // response time while the current task mix runs
        let per_thread_rate = spec.cpu.per_thread_cap().min(
            spec.cpu.total_mips() / node.cpu_tasks() as f64,
        );
        let dt = at.saturating_since(now).as_secs_f64();
        let events_in_window = per_thread_rate * node.cpu_tasks() as f64 * dt / EVENT_MI;
        resp_weighted += events_in_window * (EVENT_MI / per_thread_rate);
        last_rate_events += events_in_window;
        now = at;
        node.take_finished_cpu_into(now, &mut finished);
        finished.clear();
    }
    let avg_response_s = if last_rate_events > 0.0 { resp_weighted / last_rate_events } else { 0.0 };
    SysbenchCpuResult {
        threads,
        total_seconds: now.as_secs_f64(),
        avg_response_ms: avg_response_s * 1e3,
    }
}

/// The Figure 2/3 sweep: threads ∈ {1, 2, 4, 8}.
pub fn sweep(spec: &ServerSpec) -> Vec<SysbenchCpuResult> {
    [1u32, 2, 4, 8].iter().map(|&n| run(spec, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    #[test]
    fn edison_single_thread_is_about_600s() {
        let r = run(&presets::edison(), 1);
        assert!((570.0..630.0).contains(&r.total_seconds), "t {}", r.total_seconds);
    }

    #[test]
    fn edison_flattens_beyond_two_threads() {
        // Figure 2: halves at 2 threads, flat afterwards (2 cores).
        let s = sweep(&presets::edison());
        assert!((s[1].total_seconds / s[0].total_seconds - 0.5).abs() < 0.02);
        assert!((s[2].total_seconds / s[1].total_seconds - 1.0).abs() < 0.02);
        assert!((s[3].total_seconds / s[1].total_seconds - 1.0).abs() < 0.02);
    }

    #[test]
    fn dell_keeps_scaling_past_six_threads() {
        // Figure 3: 12 hardware threads keep helping (SMT headroom).
        let s = sweep(&presets::dell_r620());
        assert!(s[3].total_seconds < s[2].total_seconds);
        assert!(s[0].total_seconds < 45.0, "1-thread {}", s[0].total_seconds);
    }

    #[test]
    fn single_thread_ratio_matches_paper_band() {
        // §4.1: Dell 15–18× faster single-thread under sysbench.
        let e = run(&presets::edison(), 1);
        let d = run(&presets::dell_r620(), 1);
        let ratio = e.total_seconds / d.total_seconds;
        assert!((15.0..19.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn edison_response_time_grows_with_oversubscription() {
        // Figure 2 right axis: response time roughly flat to 2 threads,
        // then grows linearly with thread count.
        let s = sweep(&presets::edison());
        assert!((s[0].avg_response_ms - 60.0).abs() < 5.0, "{}", s[0].avg_response_ms);
        assert!(s[3].avg_response_ms > 3.0 * s[1].avg_response_ms);
    }

    #[test]
    fn dell_response_stays_in_single_digit_ms() {
        // Figure 3 right axis: 3–5 ms across the sweep.
        for r in sweep(&presets::dell_r620()) {
            assert!((2.0..6.0).contains(&r.avg_response_ms), "{:?}", r);
        }
    }

    #[test]
    fn all_events_complete_exactly() {
        // Work conservation: total CPU-seconds equal events × cost / rate.
        let spec = presets::edison();
        let r = run(&spec, 3);
        let ideal = EVENTS as f64 * EVENT_MI / spec.cpu.total_mips();
        assert!(r.total_seconds >= ideal * 0.999, "{} vs {}", r.total_seconds, ideal);
    }
}
