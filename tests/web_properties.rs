//! Web-stack behavioural properties across load points and mixes — the
//! orderings the paper's §5.1 narrative depends on.

use edison_core::registry::RunBudget;
use edison_web::httperf::{self, HttperfResult};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// One httperf point at seed 77 over a 2 s warm-up and an 8 s window.
fn point(sc: &WebScenario, mix: WorkloadMix, conc: f64) -> HttperfResult {
    let budget = RunBudget { web_measure_s: 8, ..RunBudget::quick() };
    httperf::run_point(budget.web_point(sc.clone(), mix, conc, 77))
}

/// Below saturation, throughput is monotone in offered concurrency.
#[test]
fn throughput_monotone_below_saturation() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Quarter).unwrap();
    let mut last = 0.0;
    for conc in [16.0, 32.0, 64.0, 128.0] {
        let r = point(&sc, WorkloadMix::lightest(), conc);
        assert!(
            r.requests_per_sec > last * 1.5,
            "conc {conc}: {} after {last}",
            r.requests_per_sec
        );
        last = r.requests_per_sec;
    }
}

/// The heavier 20 %-image mix never outperforms the lightest mix at equal
/// concurrency (§5.1.2: "only 85% of that under lightest workload").
#[test]
fn heavier_mix_never_faster() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Half).unwrap();
    for conc in [128.0, 512.0] {
        let light = point(&sc, WorkloadMix::lightest(), conc);
        let heavy = point(&sc, WorkloadMix::img20(), conc);
        assert!(
            heavy.requests_per_sec <= light.requests_per_sec * 1.02,
            "conc {conc}: heavy {} vs light {}",
            heavy.requests_per_sec,
            light.requests_per_sec
        );
        assert!(heavy.mean_delay_ms >= light.mean_delay_ms * 0.95);
    }
}

/// Lower cache hit ratios push more load to the database tier and raise
/// delay (Figure 8's message).
#[test]
fn lower_hit_ratio_raises_db_traffic_and_delay() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Half).unwrap();
    let hi = point(&sc, WorkloadMix::hit(0.93), 128.0);
    let lo = point(&sc, WorkloadMix::hit(0.60), 128.0);
    assert!(lo.mean_delay_ms > hi.mean_delay_ms, "lo {} hi {}", lo.mean_delay_ms, hi.mean_delay_ms);
    // db delay measured on ~40 % of requests instead of ~7 %
    assert!(lo.db_delay_ms > 0.0 && hi.db_delay_ms > 0.0);
}

/// Cluster power stays within the Table 3 band at every load point, and
/// grows with load.
#[test]
fn power_band_and_growth() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let idle_w = 35.0 * 1.40;
    let busy_w = 35.0 * 1.68;
    let low = point(&sc, WorkloadMix::lightest(), 32.0);
    let high = point(&sc, WorkloadMix::lightest(), 1024.0);
    for r in [&low, &high] {
        assert!(r.mean_power_w >= idle_w - 0.1 && r.mean_power_w <= busy_w + 0.1, "{}", r.mean_power_w);
    }
    assert!(high.mean_power_w > low.mean_power_w + 2.0);
}

/// Table 7's platform ordering: Edison's db and cache delays exceed Dell's
/// at every matched rate.
#[test]
fn delay_decomposition_platform_ordering() {
    let e = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let d = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
    for rps in [480.0, 1920.0] {
        let conc = rps / httperf::CALLS_PER_CONN;
        let re = point(&e, WorkloadMix::img20(), conc);
        let rd = point(&d, WorkloadMix::img20(), conc);
        assert!(re.cache_delay_ms > rd.cache_delay_ms, "rate {rps}");
        assert!(re.db_delay_ms > rd.db_delay_ms, "rate {rps}");
        assert!(re.mean_delay_ms > rd.mean_delay_ms, "rate {rps}");
    }
}

/// The cache tier stays lightly loaded relative to the web tier — the
/// §5.1.2 utilisation numbers (9 % vs 86 % CPU on Edison).
#[test]
fn cache_tier_is_lightly_loaded() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let r = point(&sc, WorkloadMix::lightest(), 1024.0);
    assert!(r.web_cpu > 0.5, "web cpu {}", r.web_cpu);
    assert!(r.cache_cpu < 0.3, "cache cpu {}", r.cache_cpu);
    assert!(r.web_cpu > 4.0 * r.cache_cpu);
}

/// Work-done-per-joule improves with cluster load on the Edison tier
/// (fixed idle power amortises over more requests).
#[test]
fn efficiency_rises_with_load() {
    let sc = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let low = point(&sc, WorkloadMix::lightest(), 64.0);
    let high = point(&sc, WorkloadMix::lightest(), 1024.0);
    assert!(high.requests_per_joule > 5.0 * low.requests_per_joule);
}
