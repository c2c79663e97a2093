//! httperf-style measurement of one (concurrency, workload) point — the
//! unit of Figures 4–9 and Table 7.

use crate::stack::{run_traced, GenMode, StackConfig};
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
}

/// Run one httperf point.
pub fn run_point(cfg: StackConfig) -> HttperfResult {
    run_point_traced(cfg, Telemetry::off()).0
}

/// Run one httperf point recording into `tel` (request-lifecycle spans,
/// counters, per-node power timelines when enabled); returns the summary
/// plus the telemetry collected by the run. The offered load comes from
/// `cfg.gen` (a python-client run offers one call per connection) and the
/// window from `cfg.measure`.
pub fn run_point_traced(cfg: StackConfig, tel: Telemetry) -> (HttperfResult, Telemetry) {
    let (concurrency, calls) = match cfg.gen {
        GenMode::Httperf { connections_per_sec, calls_per_conn } => (connections_per_sec, calls_per_conn),
        GenMode::Python { requests_per_sec } => (requests_per_sec, 1.0),
    };
    let window = cfg.measure.as_secs_f64();
    let mut world = run_traced(cfg, tel);
    let m = &world.metrics;
    let offered_reqs = concurrency * calls * window;
    let result = HttperfResult {
        concurrency,
        requests_per_sec: m.completed as f64 / window,
        mean_delay_ms: m.delays_ms.mean(),
        server_errors: m.server_errors,
        client_errors: m.client_errors,
        error_rate: (m.server_errors as f64 * calls / offered_reqs).min(1.0),
        mean_power_w: m.power_w.mean_value(),
        energy_j: m.energy_j,
        requests_per_joule: m.requests_per_joule(),
        cache_delay_ms: m.cache_delays_ms.mean(),
        db_delay_ms: m.db_delays_ms.mean(),
        web_cpu: m.web_cpu.mean(),
        cache_cpu: m.cache_cpu.mean(),
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
    use crate::scenario::{ClusterScale, Platform, WebScenario, WorkloadMix};
    use edison_simcore::time::SimDuration;

    /// Eighth-scale Edison tier, lightest mix, at `concurrency` conn/s.
    fn point(concurrency: f64) -> StackConfig {
        let sc = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let gen = GenMode::Httperf { connections_per_sec: concurrency, calls_per_conn: CALLS_PER_CONN };
        let mut cfg = StackConfig::new(sc, WorkloadMix::lightest(), gen, 1);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.measure = SimDuration::from_secs(8);
        cfg
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
        let r = run_point(point(32.0));
        assert!((r.requests_per_sec - 32.0 * CALLS_PER_CONN).abs() < 25.0, "{r:?}");
        assert_eq!(r.server_errors, 0);
    }

    #[test]
    fn work_done_per_joule_is_positive_and_sane() {
        let r = run_point(point(64.0));
        // ~420 req/s on ~7.5 W → tens of requests per joule
        assert!(r.requests_per_joule > 20.0, "{}", r.requests_per_joule);
        assert!(r.requests_per_joule < 200.0);
    }
}
