//! httperf-style measurement of one (concurrency, workload) point — the
//! unit of Figures 4–9 and Table 7.

use crate::scenario::{WebScenario, WorkloadMix};
use crate::stack::{run_traced, GenMode, StackConfig};
use edison_simcore::time::SimDuration;
use edison_simfault::FaultPlan;
use edison_simtel::Telemetry;

/// Default calls per connection, defined with the accept cost it
/// amortises.
pub use edison_hw::calib::CALLS_PER_CONN;

/// Summary of one httperf run.
#[derive(Debug, Clone)]
pub struct HttperfResult {
    /// Offered new connections per second (the x axis of Figures 4–9).
    pub concurrency: f64,
    /// Completed requests per second.
    pub requests_per_sec: f64,
    /// Mean response delay, ms (the y axis of Figures 7–9).
    pub mean_delay_ms: f64,
    /// 5xx count over the window.
    pub server_errors: u64,
    /// Client-side failures (SYN retries exhausted / fd starvation).
    pub client_errors: u64,
    /// Fraction of offered requests that errored server-side.
    pub error_rate: f64,
    /// 99th-percentile response delay, ms (tail under faults).
    pub p99_delay_ms: f64,
    /// Fraction of offered requests that completed — the availability
    /// metric of the fault experiments.
    pub availability: f64,
    /// Backends taken out of LB rotation after failed health checks.
    pub failovers: u64,
    /// Client connections re-dispatched through the LB after hitting a
    /// dead backend.
    pub retries: u64,
    /// Mean seconds from crash to the victim rejoining LB rotation
    /// (0 when no recovery completed in the window).
    pub mean_recovery_s: f64,
    /// Mean cluster power over the window, W (the green lines in
    /// Figures 4 and 6).
    pub mean_power_w: f64,
    /// Energy over the window, J.
    pub energy_j: f64,
    /// Requests per joule — the work-done-per-joule metric.
    pub requests_per_joule: f64,
    /// Mean cache-retrieval delay, ms (Table 7).
    pub cache_delay_ms: f64,
    /// Mean database delay, ms (Table 7).
    pub db_delay_ms: f64,
    /// Mean utilisations over the window (the §5.1.2 text numbers).
    pub web_cpu: f64,
    pub cache_cpu: f64,
    pub web_mem: f64,
    pub cache_mem: f64,
}

/// Options controlling window length / seed / fault injection.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub warmup_s: u64,
    pub measure_s: u64,
    /// Fault schedule played against the run (empty: no faults, and the
    /// run is byte-identical to the pre-fault code path).
    pub fault_plan: FaultPlan,
    /// Client failover re-dispatches per connection
    /// ([`crate::scenario::DEFAULT_RETRY_BUDGET`] is the tuned default
    /// for fault experiments; 0 disables failover retries).
    pub retry_budget: u32,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            seed: 20160509,
            warmup_s: 5,
            measure_s: 20,
            fault_plan: FaultPlan::new(),
            retry_budget: 0,
        }
    }
}

/// Run one httperf point.
pub fn run_point(
    scenario: &WebScenario,
    mix: WorkloadMix,
    concurrency: f64,
    opts: RunOpts,
) -> HttperfResult {
    run_point_traced(scenario, mix, concurrency, opts, Telemetry::off()).0
}

/// Run one httperf point recording into `tel` (request-lifecycle spans,
/// counters, per-node power timelines when enabled); returns the summary
/// plus the telemetry collected by the run.
pub fn run_point_traced(
    scenario: &WebScenario,
    mix: WorkloadMix,
    concurrency: f64,
    opts: RunOpts,
    tel: Telemetry,
) -> (HttperfResult, Telemetry) {
    let mut cfg = StackConfig::new(
        scenario.clone(),
        mix,
        GenMode::Httperf { connections_per_sec: concurrency, calls_per_conn: CALLS_PER_CONN },
        opts.seed,
    );
    cfg.warmup = SimDuration::from_secs(opts.warmup_s);
    cfg.measure = SimDuration::from_secs(opts.measure_s);
    cfg.fault_plan = opts.fault_plan.clone();
    cfg.retry_budget = opts.retry_budget;
    let mut world = run_traced(cfg, tel);
    let m = &mut world.metrics;
    let window = opts.measure_s as f64;
    let rps = m.completed as f64 / window;
    let offered_reqs = concurrency * CALLS_PER_CONN * window;
    let energy = m.energy_j.max(1e-9);
    let failed = m.server_errors + m.client_errors;
    let result = HttperfResult {
        concurrency,
        requests_per_sec: rps,
        mean_delay_ms: m.delays_ms.mean(),
        p99_delay_ms: m.delays_ms.percentile(99.0),
        availability: m.completed as f64 / (m.completed + failed).max(1) as f64,
        failovers: m.failovers,
        retries: m.retries,
        mean_recovery_s: if m.recovery_s.is_empty() { 0.0 } else { m.recovery_s.mean() },
        server_errors: m.server_errors,
        client_errors: m.client_errors,
        error_rate: (m.server_errors as f64 * CALLS_PER_CONN / offered_reqs).min(1.0),
        mean_power_w: m.power_w.mean_value(),
        energy_j: m.energy_j,
        requests_per_joule: m.completed as f64 / energy,
        cache_delay_ms: m.cache_delays_ms.mean(),
        db_delay_ms: m.db_delays_ms.mean(),
        web_cpu: m.web_cpu.mean(),
        cache_cpu: m.cache_cpu.mean(),
        web_mem: m.web_mem.mean(),
        cache_mem: m.cache_mem.mean(),
    };
    (result, world.take_telemetry())
}

/// The paper's concurrency sweep: 8, 16, …, 2048.
pub fn concurrency_sweep() -> Vec<f64> {
    (3..=11).map(|i| (1u64 << i) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ClusterScale, Platform};

    fn opts() -> RunOpts {
        RunOpts { seed: 1, warmup_s: 2, measure_s: 8, ..RunOpts::default() }
    }

    #[test]
    fn sweep_is_the_paper_grid() {
        let s = concurrency_sweep();
        assert_eq!(s.first().copied(), Some(8.0));
        assert_eq!(s.last().copied(), Some(2048.0));
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn throughput_tracks_offered_load_when_unsaturated() {
        let sc = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let r = run_point(&sc, WorkloadMix::lightest(), 32.0, opts());
        assert!((r.requests_per_sec - 32.0 * CALLS_PER_CONN).abs() < 25.0, "{r:?}");
        assert_eq!(r.server_errors, 0);
    }

    #[test]
    fn work_done_per_joule_is_positive_and_sane() {
        let sc = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let r = run_point(&sc, WorkloadMix::lightest(), 64.0, opts());
        // ~420 req/s on ~7.5 W → tens of requests per joule
        assert!(r.requests_per_joule > 20.0, "{}", r.requests_per_joule);
        assert!(r.requests_per_joule < 200.0);
    }
}
