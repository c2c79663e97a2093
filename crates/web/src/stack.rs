//! The LLMP web-service discrete-event model (§5.1).
//!
//! One [`WebWorld`] holds a web+cache cluster of a single platform, the two
//! shared Dell MySQL servers, the two-room network fabric and a load
//! generator. A request walks the same path the paper's PHP page does:
//!
//! ```text
//! client ──SYN──▶ web server (accept gate → PHP worker pool)
//!   stage-1 CPU (parse + PHP)
//!   ──▶ memcached get (real LRU store on a cache node)
//!        hit:  cache ──reply body──▶ web
//!        miss: web ──query──▶ MySQL (CPU + 2 % buffer-pool disk miss) ──▶ web
//!   stage-2 CPU (assemble, per-KiB)
//!   ──reply body──▶ client
//! ```
//!
//! Overload produces exactly the failure modes the paper reports:
//!
//! * **5xx server errors** when a web node's PHP backlog overflows (the
//!   Edison onset beyond concurrency 1024);
//! * **SYN drops** when a node's accept gate saturates, with kernel retries
//!   at +1 s/+2 s/+4 s and client-side failure after three retries (the
//!   Dell behaviour beyond 2048, and the Figure 10/11 delay spikes);
//! * **listen-queue collapse**: sustained SYN pressure above the accept
//!   capacity degrades the effective accept rate quadratically, producing
//!   the throughput sag the Dell cluster shows at concurrency 2048.
//!
//! The world itself — state, configuration and every lifecycle step — lives
//! in [`crate::model`]; this module is the driver: the [`Model`] impl that
//! hands each engine event to [`WebWorld`]'s dispatcher, plus the `run*`
//! entry points. `tests/golden_exports.rs` pins their exports byte for
//! byte.

pub use crate::model::{Ev, GenMode, Metrics, StackConfig, WebWorld};

use edison_simcore::time::SimTime;
use edison_simcore::{Ctx, EngineProfile, KindProfiler, Model, NoopProfiler, Simulation};
use edison_simtel::{record_engine_profile, record_sim_metrics, Telemetry};

impl Model for WebWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Ctx<Ev>) {
        self.dispatch(now, event, ctx);
    }
}

/// Coarse phase bucket for each [`Ev::kind`] name — the per-phase rollup
/// simprof exports as `profile_phase_*` metrics.
pub fn phase_of(kind: &'static str) -> &'static str {
    match kind {
        "gen_conn" | "syn_retry" | "retry_conn" => "load-gen",
        "fault" | "health_check" => "fault",
        "sample" | "measure_start" | "stop" => "control",
        _ => "request-path",
    }
}

/// Build, seed and run one configuration to completion; returns the world
/// with populated [`Metrics`].
pub fn run(cfg: StackConfig) -> WebWorld {
    run_traced(cfg, Telemetry::off())
}

/// Like [`run`], but records into `tel` when it is enabled: engine event
/// counts, request-lifecycle spans, request counters/histograms and
/// per-node power timelines. With `Telemetry::off()` this is exactly
/// [`run`] — the unobserved fast path, no tracing hooks. A sink carrying
/// the profiling flag ([`Telemetry::profiled`]) additionally self-profiles
/// the engine and records the `profile_*` vocabulary.
pub fn run_traced(cfg: StackConfig, tel: Telemetry) -> WebWorld {
    let profile = tel.profiling();
    run_inner(cfg, tel, profile).0
}

/// Like [`run_traced`] with an enabled sink, but always self-profiles the
/// engine: returns the world plus the deterministic [`EngineProfile`]
/// (per-kind dispatch/advance, heap pushes, queue depths). The profile is
/// also recorded into the world's telemetry as `profile_*` metrics;
/// [`Metrics`] are identical to an unprofiled run.
pub fn run_profiled(cfg: StackConfig, tel: Telemetry) -> (WebWorld, EngineProfile) {
    run_inner(cfg, tel, true)
}

/// Build, seed and run `cfg`. With telemetry off this is the hook-free
/// [`Simulation::run`] and the profile is empty; a traced run always
/// counts events through [`KindProfiler`] and exports `sim_*`, plus
/// `profile_*` when `profile` is set.
fn run_inner(cfg: StackConfig, tel: Telemetry, profile: bool) -> (WebWorld, EngineProfile) {
    let warmup = cfg.warmup;
    let measure = cfg.measure;
    let tracing = tel.is_on();
    let mut world = WebWorld::new(cfg);
    world.set_telemetry(tel);
    if tracing {
        world.init_tracing();
    }
    let fault_times: Vec<SimTime> = world.fplan.faults().iter().map(|f| f.at).collect();
    let mut sim = Simulation::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::GenConn);
    sim.schedule_at(SimTime::ZERO, Ev::Sample);
    let stop_at = SimTime::ZERO + warmup + measure;
    for (idx, at) in fault_times.into_iter().enumerate() {
        // a fault at/after the stop can never fire (Ev::Stop's earlier
        // sequence number wins the tie): skip it so the run — including
        // engine meta-telemetry like heap depth — is byte-identical to the
        // fault-free one
        if at < stop_at {
            sim.schedule_at(at, Ev::Fault { idx });
        }
    }
    sim.schedule_at(SimTime::ZERO + warmup, Ev::MeasureStart);
    sim.schedule_at(SimTime::ZERO + warmup + measure, Ev::Stop);
    if !tracing {
        sim.run();
        return (sim.into_world(), EngineProfile::default());
    }
    let mut prof = KindProfiler::new(Ev::kind);
    sim.run_profiled(&mut prof, &mut NoopProfiler);
    let engine_profile = prof.finish(&sim);
    let mut world = sim.into_world();
    record_sim_metrics(&mut world.tel, "web", &engine_profile);
    if profile {
        record_engine_profile(&mut world.tel, "web", &engine_profile, phase_of);
    }
    world.harvest_power_series();
    (world, engine_profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ClusterScale, Platform, WebScenario, WorkloadMix};
    use edison_simcore::time::SimDuration;
    use edison_simfault::FaultPlan;

    fn small_cfg(conc: f64) -> StackConfig {
        let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let mut cfg = StackConfig::new(
            scenario,
            WorkloadMix::lightest(),
            GenMode::Httperf { connections_per_sec: conc, calls_per_conn: 6.6 },
            42,
        );
        cfg.warmup = SimDuration::from_secs(2);
        cfg.measure = SimDuration::from_secs(8);
        cfg
    }

    #[test]
    fn light_load_completes_without_errors() {
        let w = run(small_cfg(16.0));
        assert_eq!(w.metrics.server_errors, 0);
        assert_eq!(w.metrics.client_errors, 0);
        let rps = w.metrics.completed as f64 / 8.0;
        // 16 conn/s × 6.6 calls ≈ 105 req/s
        assert!((rps - 105.6).abs() < 12.0, "rps {rps}");
    }

    #[test]
    fn delays_are_single_digit_ms_at_low_load() {
        let w = run(small_cfg(8.0));
        let mean = w.metrics.delays_ms.mean();
        assert!((5.0..20.0).contains(&mean), "mean delay {mean} ms");
    }

    #[test]
    fn overload_produces_server_errors() {
        // 3 Edison web servers: capacity ≈ 950 req/s; demand 256 conn/s
        // × 6.6 ≈ 1690 req/s → backlog overflow → 5xx.
        let w = run(small_cfg(256.0));
        assert!(w.metrics.server_errors > 0, "expected 5xx under overload");
    }

    #[test]
    fn throughput_saturates_at_capacity() {
        let low = run(small_cfg(16.0));
        let sat = run(small_cfg(256.0));
        let rps_low = low.metrics.completed as f64 / 8.0;
        let rps_sat = sat.metrics.completed as f64 / 8.0;
        // saturated throughput should be near 3-node capacity (≈950 req/s)
        assert!(rps_sat > rps_low * 4.0);
        assert!((500.0..1200.0).contains(&rps_sat), "rps {rps_sat}");
    }

    #[test]
    fn cache_hits_dominate_at_93_percent() {
        let w = run(small_cfg(32.0));
        let hits = w.metrics.cache_delays_ms.len() as f64;
        let misses = w.metrics.db_delays_ms.len() as f64;
        let ratio = hits / (hits + misses);
        assert!((ratio - 0.93).abs() < 0.03, "hit ratio {ratio}");
    }

    #[test]
    fn power_sits_in_the_edison_band() {
        let w = run(small_cfg(64.0));
        let p = w.metrics.power_w.mean_value();
        // 5 nodes: between 5×1.40=7.0 W and 5×1.68=8.4 W
        assert!((7.0..8.4).contains(&p), "power {p}");
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let plain = run(small_cfg(32.0));
        let mut traced = run_traced(small_cfg(32.0), Telemetry::on());
        // tracing must not perturb the simulation
        assert_eq!(plain.metrics.completed, traced.metrics.completed);
        assert_eq!(plain.metrics.server_errors, traced.metrics.server_errors);
        let tel = traced.take_telemetry();
        // request spans + engine counters + power timelines all present
        assert!(tel.tracer.spans().iter().any(|s| s.name == "http_request"));
        assert!(tel.tracer.spans().iter().any(|s| s.name == "memcached_get"));
        assert!(tel.tracer.spans().iter().any(|s| s.name == "mysql_query"));
        let counters: Vec<_> = tel.registry.counters().collect();
        assert!(counters.iter().any(|(n, _, v)| *n == "sim_events_total" && *v > 0));
        assert!(counters.iter().any(|(n, l, v)| *n == "web_requests_total"
            && l.get("outcome") == Some(&"ok".to_string())
            && *v == traced.metrics.completed_total));
        assert!(tel
            .registry
            .series()
            .any(|(n, l, pts)| n == "node_power_watts"
                && l.get("node") == Some(&"web-0".to_string())
                && !pts.is_empty()));
        // untraced runs carry an empty sink
        assert!(plain.telemetry().registry.is_empty());
        assert!(plain.telemetry().tracer.spans().is_empty());
    }

    #[test]
    fn crash_restart_recovers_with_failover_and_retries() {
        let mut cfg = small_cfg(32.0);
        cfg.measure = SimDuration::from_secs(20);
        cfg.retry_budget = 2;
        cfg.fault_plan = FaultPlan::new()
            .crash_restart(0, SimTime::from_secs(6), SimDuration::from_secs(3));
        let w = run(cfg);
        // the LB noticed (failover), the node came back (recovery sample)
        assert_eq!(w.metrics.faults_injected, 2, "crash + restart both applied");
        assert!(w.metrics.failovers >= 1, "failovers {}", w.metrics.failovers);
        assert_eq!(w.metrics.recovery_s.len(), 1);
        let rec = w.metrics.recovery_s.samples()[0];
        // down 3 s + RISE health checks ≈ 5 s; well under the window
        assert!((3.0..10.0).contains(&rec), "recovery {rec} s");
        assert!(w.metrics.retries > 0, "clients should burn retry budget");

        // with failover + retries the fault barely dents completed work
        let mut base = small_cfg(32.0);
        base.measure = SimDuration::from_secs(20);
        let b = run(base);
        let frac = w.metrics.completed as f64 / b.metrics.completed as f64;
        assert!(frac > 0.9, "completed {} vs baseline {}", w.metrics.completed, b.metrics.completed);
    }

    /// A ×1e308 throttle overflows web node 0's request work to `+∞`;
    /// the node runs it as `f64::MAX` MI instead of panicking, and the
    /// other web nodes keep serving.
    #[test]
    fn infinite_throttled_work_runs_to_the_end() {
        let mut cfg = small_cfg(64.0);
        cfg.fault_plan = FaultPlan::new().cpu_throttle(0, SimTime::from_secs(2), 1e308);
        let w = run(cfg);
        assert_eq!(w.metrics.faults_injected, 1);
        assert!(w.metrics.completed > 0);
    }

    #[test]
    fn zero_width_crash_restart_is_observationally_a_noop() {
        let mut cfg = small_cfg(32.0);
        cfg.fault_plan = FaultPlan::new()
            .crash(0, SimTime::from_secs(5))
            .restart(0, SimTime::from_secs(5));
        let faulted = run(cfg);
        let plain = run(small_cfg(32.0));
        assert_eq!(faulted.metrics.completed, plain.metrics.completed);
        assert_eq!(faulted.metrics.server_errors, plain.metrics.server_errors);
        assert_eq!(faulted.metrics.delays_ms.len(), plain.metrics.delays_ms.len());
        assert_eq!(faulted.metrics.faults_injected, 0);
        assert_eq!(faulted.metrics.failovers, 0);
    }

    #[test]
    fn cache_cold_restart_dents_hit_ratio_then_rewarms() {
        let mut cfg = small_cfg(32.0);
        cfg.measure = SimDuration::from_secs(20);
        cfg.fault_plan = FaultPlan::new().cache_cold_restart(0, SimTime::from_secs(6));
        let w = run(cfg);
        assert_eq!(w.metrics.faults_injected, 1);
        let hits = w.metrics.cache_delays_ms.len() as f64;
        let misses = w.metrics.db_delays_ms.len() as f64;
        let ratio = hits / (hits + misses);
        // cold store: more misses than the calibrated 93 % steady state,
        // but write-allocate re-warms it — not a total collapse
        assert!(ratio < 0.92, "hit ratio {ratio} should dip below steady state");
        assert!(ratio > 0.5, "hit ratio {ratio} should re-warm");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(small_cfg(32.0));
        let b = run(small_cfg(32.0));
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.delays_ms.len(), b.metrics.delays_ms.len());
        let mut cfg = small_cfg(32.0);
        cfg.seed = 43;
        let c = run(cfg);
        assert_ne!(a.metrics.completed, c.metrics.completed);
    }
}
