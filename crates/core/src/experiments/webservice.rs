//! Web-service experiments: Figures 4–11 and Table 7 (§5.1).
//!
//! Each figure point is one full `edison_web::stack` run; sweep points are
//! independent, so they fan out over the simrun [`Executor`] (bounded
//! worker pool, input-order results, per-point panic isolation). Every
//! point draws its seed from [`derive_seed_at`] keyed by the sweep's
//! stream id, so a single point can be reproduced outside its sweep.

use crate::chart::{bar_chart, chart, Scale};
use crate::paper;
use crate::registry::RunBudget;
use crate::report::{series_table, table, Comparison, Report, Series};
use edison_simrun::{derive_seed_at, Executor, RunError, SimError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf::{self, concurrency_sweep, HttperfResult};
use edison_web::pyclient;
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// When the sink is enabled, re-run one representative point with tracing
/// and merge the result. Sweeps themselves run untraced on worker threads;
/// a single traced run gives the spans/power timelines the exporters need
/// without serialising the whole sweep.
fn trace_representative(
    tel: &mut Telemetry,
    scenario: &WebScenario,
    mix: WorkloadMix,
    concurrency: f64,
    budget: &RunBudget,
) {
    if !tel.is_on() {
        return;
    }
    let seed = derive_seed_at(ROOT_SEED, &format!("trace:{}", stream_id(scenario, mix)), 0);
    let (_, t) = httperf::run_point_traced(budget.web_point(scenario.clone(), mix, concurrency, seed), tel.child());
    tel.merge(t);
}

/// [`trace_representative`] on the eighth-scale Edison tier — the cheapest
/// Table 6 configuration, used as the default traced point.
fn trace_eighth(tel: &mut Telemetry, mix: WorkloadMix, concurrency: f64, budget: &RunBudget) {
    if let Some(sc) = WebScenario::table6(Platform::Edison, ClusterScale::Eighth) {
        trace_representative(tel, &sc, mix, concurrency, budget);
    }
}

/// Label a scenario the way the paper's legends do ("24 Edison", "2 Dell").
fn legend(s: &WebScenario) -> String {
    let p = match s.platform {
        Platform::Edison => "Edison",
        Platform::Dell => "Dell",
    };
    format!("{} {p}", s.web_servers)
}

/// The seed-derivation stream id of one (scenario, mix) sweep: stable,
/// human-readable, and distinct across every Table 6 row × workload mix.
fn stream_id(s: &WebScenario, mix: WorkloadMix) -> String {
    format!(
        "web:{}:img{:.0}%:hit{:.0}%",
        legend(s),
        100.0 * mix.image_fraction,
        100.0 * mix.cache_hit_ratio
    )
}

/// All scale configurations of Table 6 that exist.
fn all_scenarios() -> Vec<WebScenario> {
    let mut v = Vec::new();
    for platform in [Platform::Edison, Platform::Dell] {
        for scale in [ClusterScale::Full, ClusterScale::Half, ClusterScale::Quarter, ClusterScale::Eighth] {
            if let Some(s) = WebScenario::table6(platform, scale) {
                v.push(s);
            }
        }
    }
    v
}

/// Run a full concurrency sweep for one scenario/mix over the executor.
/// Point `i` runs with seed `derive_seed(ROOT_SEED, stream_id, i)`.
pub fn sweep(
    scenario: &WebScenario,
    mix: WorkloadMix,
    budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<Vec<HttperfResult>, RunError> {
    let concs = concurrency_sweep();
    let stream = stream_id(scenario, mix);
    exec.sweep(
        &stream,
        &concs,
        tel,
        |_, &c| format!("conc={c}"),
        |i, &c| httperf::run_point(budget.web_point(scenario.clone(), mix, c, derive_seed_at(ROOT_SEED, &stream, i))),
    )
}

/// A point is "shown" in the paper's figures while server-side errors stay
/// negligible; beyond that the paper excludes it.
fn shown(r: &HttperfResult) -> bool {
    r.error_rate < 0.02
}

type SeriesBundle = (Vec<Series>, Vec<Series>, Vec<(String, Vec<HttperfResult>)>);

fn throughput_series(
    scenarios: &[WebScenario],
    mix: WorkloadMix,
    budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<SeriesBundle, RunError> {
    let mut tput = Vec::new();
    let mut delay = Vec::new();
    let mut raw = Vec::new();
    for sc in scenarios {
        let rs = sweep(sc, mix, budget, exec, tel)?;
        let label = legend(sc);
        tput.push(Series {
            label: label.clone(),
            points: rs.iter().filter(|r| shown(r)).map(|r| (r.concurrency, r.requests_per_sec)).collect(),
        });
        delay.push(Series {
            label: label.clone(),
            points: rs.iter().filter(|r| shown(r)).map(|r| (r.concurrency, r.mean_delay_ms)).collect(),
        });
        raw.push((label, rs));
    }
    Ok((tput, delay, raw))
}

fn power_summary(raw: &[(String, Vec<HttperfResult>)]) -> String {
    let mut out = String::new();
    for (label, rs) in raw {
        let max_p = rs.iter().map(|r| r.mean_power_w).fold(0.0, f64::max);
        let min_p = rs.iter().map(|r| r.mean_power_w).fold(f64::INFINITY, f64::min);
        let peak = rs.iter().filter(|r| shown(r)).map(|r| r.requests_per_sec).fold(0.0, f64::max);
        out.push_str(&format!(
            "{label}: power {min_p:.1}-{max_p:.1} W, peak {peak:.0} req/s\n"
        ));
    }
    out
}

/// The raw sweep of `label`, or a typed data error naming what's missing.
fn series_for<'a>(
    raw: &'a [(String, Vec<HttperfResult>)],
    label: &str,
) -> Result<&'a Vec<HttperfResult>, RunError> {
    raw.iter()
        .find(|(l, _)| l == label)
        .map(|(_, rs)| rs)
        .ok_or_else(|| SimError::Data(format!("sweep series '{label}' missing")).into())
}

/// The peak-throughput shown point of a sweep, or a typed data error if
/// every point was excluded.
fn peak_point(label: &str, rs: &[HttperfResult]) -> Result<HttperfResult, RunError> {
    rs.iter()
        .filter(|r| shown(r))
        .max_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec))
        .cloned()
        .ok_or_else(|| SimError::Data(format!("sweep '{label}' has no shown points")).into())
}

/// Figures 4 and 7: lightest load (93 % hits, 0 % images), all scales,
/// with cluster power.
pub fn fig04_07(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    let (tput, delay, raw) = throughput_series(&all_scenarios(), WorkloadMix::lightest(), budget, exec, tel)?;
    trace_eighth(tel, WorkloadMix::lightest(), 64.0, budget);
    let mut body = String::from("Figure 4 (throughput, req/s) + power lines:\n");
    body.push_str(&series_table("conc", &tput));
    body.push_str(&chart(&tput, 64, 16, Scale::Log, Scale::Linear));
    body.push_str(&power_summary(&raw));
    body.push_str("\nFigure 7 (mean response delay, ms):\n");
    body.push_str(&series_table("conc", &delay));
    body.push_str(&chart(&delay, 64, 16, Scale::Log, Scale::Log));

    // headline comparisons: peak throughput of the full clusters + the
    // work-done-per-joule ratio at peak
    let full_e = series_for(&raw, "24 Edison")?;
    let full_d = series_for(&raw, "2 Dell")?;
    let pe = peak_point("24 Edison", full_e)?;
    let pd = peak_point("2 Dell", full_d)?;
    let efficiency = pe.requests_per_joule / pd.requests_per_joule;
    // low-load delay comparison: Edison ≈ 5× Dell
    let low_e = &full_e[1];
    let low_d = &full_d[1];
    Ok(Report {
        id: "fig04_07".into(),
        title: "Web throughput & delay, no image query (Figures 4 and 7)".into(),
        body,
        comparisons: vec![
            Comparison::new("Edison peak throughput (req/s)", paper::WEB_PEAK_RPS, pe.requests_per_sec),
            Comparison::new("Dell peak throughput (req/s)", paper::WEB_PEAK_RPS, pd.requests_per_sec),
            Comparison::new("Edison cluster power at peak (W)", 57.0, pe.mean_power_w),
            Comparison::new("Dell cluster power at peak (W)", 190.0, pd.mean_power_w),
            Comparison::new("work-done-per-joule gain", paper::WEB_EFFICIENCY_GAIN, efficiency),
            Comparison::new("low-load delay ratio (Edison/Dell)", 5.0, low_e.mean_delay_ms / low_d.mean_delay_ms),
        ],
    })
}

/// Figures 5 and 8: lower hit ratios and moderate image mixes, full
/// clusters only.
pub fn fig05_08(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    let full_e = WebScenario::table6_or_err(Platform::Edison, ClusterScale::Full)?;
    trace_representative(tel, &full_e, WorkloadMix::hit(0.77), 64.0, budget);
    let full_d = WebScenario::table6_or_err(Platform::Dell, ClusterScale::Full)?;
    let mixes = [
        ("cache=77%", WorkloadMix::hit(0.77)),
        ("cache=60%", WorkloadMix::hit(0.60)),
        ("img=6%", WorkloadMix::img6()),
        ("img=10%", WorkloadMix::img10()),
    ];
    let mut tput = Vec::new();
    let mut delay = Vec::new();
    for (name, mix) in mixes {
        for (sc, plat) in [(&full_e, "Edison"), (&full_d, "Dell")] {
            let rs = sweep(sc, mix, budget, exec, tel)?;
            tput.push(Series {
                label: format!("{plat} {name}"),
                points: rs.iter().filter(|r| shown(r)).map(|r| (r.concurrency, r.requests_per_sec)).collect(),
            });
            delay.push(Series {
                label: format!("{plat} {name}"),
                points: rs.iter().filter(|r| shown(r)).map(|r| (r.concurrency, r.mean_delay_ms)).collect(),
            });
        }
    }
    let mut body = String::from("Figure 5 (throughput, req/s):\n");
    body.push_str(&series_table("conc", &tput));
    body.push_str("\nFigure 8 (mean response delay, ms):\n");
    body.push_str(&series_table("conc", &delay));
    // the paper's observation: peak throughput changes little across mixes
    let peak = |s: &Series| s.points.iter().map(|p| p.1).fold(0.0, f64::max);
    let e77 = peak(&tput[0]);
    let e10 = peak(&tput[6]);
    Ok(Report {
        id: "fig05_08".into(),
        title: "Web throughput & delay, higher image %, lower hit ratio (Figures 5 and 8)".into(),
        body,
        comparisons: vec![Comparison::new(
            "Edison peak ratio img10/cache77 (≈1: small mix penalty)",
            0.95,
            e10 / e77,
        )],
    })
}

/// Figures 6 and 9: the heaviest fair mix (20 % images), all scales.
pub fn fig06_09(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    trace_eighth(tel, WorkloadMix::img20(), 64.0, budget);
    let (tput, delay, raw) = throughput_series(&all_scenarios(), WorkloadMix::img20(), budget, exec, tel)?;
    let mut body = String::from("Figure 6 (throughput, req/s, 20% image) + power lines:\n");
    body.push_str(&series_table("conc", &tput));
    body.push_str(&chart(&tput, 64, 16, Scale::Log, Scale::Linear));
    body.push_str(&power_summary(&raw));
    body.push_str("\nFigure 9 (mean response delay, ms):\n");
    body.push_str(&series_table("conc", &delay));
    body.push_str(&chart(&delay, 64, 16, Scale::Log, Scale::Log));
    let peak = |label: &str| {
        raw.iter()
            .find(|(l, _)| l == label)
            .map(|(_, rs)| {
                rs.iter().filter(|r| shown(r)).map(|r| r.requests_per_sec).fold(0.0, f64::max)
            })
            .unwrap_or(0.0)
    };
    let pe = peak("24 Edison");
    let pd = peak("2 Dell");
    // §5.1.2: throughput at 20 % images ≈ 85 % of the lightest workload
    Ok(Report {
        id: "fig06_09".into(),
        title: "Web throughput & delay, 20% image query (Figures 6 and 9)".into(),
        body,
        comparisons: vec![
            Comparison::new("Edison peak (req/s, ≈85% of light)", 0.85 * paper::WEB_PEAK_RPS, pe),
            Comparison::new("Dell peak (req/s)", 0.85 * paper::WEB_PEAK_RPS, pd),
        ],
    })
}

/// Figures 10 and 11: python-client delay distributions at ~6000 req/s,
/// 20 % images.
pub fn fig10_11(budget: &RunBudget, _exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    trace_eighth(tel, WorkloadMix::img20(), 64.0, budget);
    let full_e = WebScenario::table6_or_err(Platform::Edison, ClusterScale::Full)?;
    let full_d = WebScenario::table6_or_err(Platform::Dell, ClusterScale::Full)?;
    let rate = 6000.0;
    let e = pyclient::run_distribution(&full_e, WorkloadMix::img20(), rate, 7, budget.web_measure_s);
    let d = pyclient::run_distribution(&full_d, WorkloadMix::img20(), rate, 7, budget.web_measure_s);
    let fmt_hist = |name: &str, dist: &pyclient::DelayDistribution| {
        let mut s = format!("{name}: {} samples, {} SYN drops, {} client errors\n", dist.samples(), dist.syn_drops, dist.client_errors);
        let buckets: Vec<(f64, u64)> = (0..16)
            .map(|i| {
                let lo = i as f64 * 0.5;
                let mass: u64 = (0..5).map(|j| dist.hist.count_at(lo + j as f64 * 0.1 + 0.05)).sum();
                (lo + 0.25, mass)
            })
            .collect();
        s.push_str(&bar_chart(&buckets, 50));
        s
    };
    let mut body = String::new();
    body.push_str(&fmt_hist("Figure 10, Edison", &e));
    body.push_str(&fmt_hist("Figure 11, Dell", &d));
    // spike structure on Dell: mass near 1 s and 3 s from SYN retries
    let spike = |dist: &pyclient::DelayDistribution, t: f64| -> f64 {
        (0..4).map(|j| dist.hist.count_at(t + j as f64 * 0.1)).sum::<u64>() as f64
    };
    let d1 = spike(&d, 1.0);
    let d3 = spike(&d, 3.0);
    let e1 = spike(&e, 1.0);
    body.push_str(&format!("Dell retry spikes: ~1s mass {d1}, ~3s mass {d3}; Edison ~1s mass {e1}\n"));
    Ok(Report {
        id: "fig10_11".into(),
        title: "Response delay distributions (Figures 10 and 11)".into(),
        body,
        comparisons: vec![
            Comparison::new("Dell 1s-spike present (mass>0 → 1)", 1.0, f64::from(d1 > 0.0)),
            Comparison::new("Dell 3s-spike present", 1.0, f64::from(d3 > 0.0)),
            Comparison::new("Edison spike-free at 1s (mass≈0 → 1)", 1.0, f64::from(e1 <= d1 / 4.0)),
        ],
    })
}

/// Table 7: delay decomposition at fixed request rates (20 % images, 93 %
/// hits).
pub fn table7(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    let full_e = WebScenario::table6_or_err(Platform::Edison, ClusterScale::Full)?;
    let full_d = WebScenario::table6_or_err(Platform::Dell, ClusterScale::Full)?;
    trace_representative(tel, &full_e, WorkloadMix::img20(), 480.0 / httperf::CALLS_PER_CONN, budget);
    let rates = [480.0, 960.0, 1920.0, 3840.0, 7680.0];
    // all ten runs are independent — a 5-point sweep of (Edison, Dell)
    // pairs; each half of a pair draws from its own seed stream
    let cells = exec.sweep(
        "web:table7",
        &rates,
        tel,
        |_, &rps| format!("rate={rps:.0}"),
        |i, &rps| {
            let conc = rps / httperf::CALLS_PER_CONN;
            let e_seed = derive_seed_at(ROOT_SEED, "web:table7:edison", i);
            let d_seed = derive_seed_at(ROOT_SEED, "web:table7:dell", i);
            let e = httperf::run_point(budget.web_point(full_e.clone(), WorkloadMix::img20(), conc, e_seed));
            let d = httperf::run_point(budget.web_point(full_d.clone(), WorkloadMix::img20(), conc, d_seed));
            (e, d)
        },
    )?;
    let mut rows = Vec::new();
    let mut comparisons = Vec::new();
    for (i, ((e, d), &rps)) in cells.iter().zip(&rates).enumerate() {
        rows.push(vec![
            format!("{rps:.0}"),
            format!("({:.2}, {:.2})", e.db_delay_ms, d.db_delay_ms),
            format!("({:.2}, {:.2})", e.cache_delay_ms, d.cache_delay_ms),
            format!("({:.2}, {:.2})", e.mean_delay_ms, d.mean_delay_ms),
        ]);
        let p = paper::TABLE7[i];
        if i == 0 || i == rates.len() - 1 {
            comparisons.push(Comparison::new(format!("Edison db delay @{rps} (ms)"), p.1, e.db_delay_ms));
            comparisons.push(Comparison::new(format!("Dell db delay @{rps} (ms)"), p.2, d.db_delay_ms));
            comparisons.push(Comparison::new(format!("Edison cache delay @{rps} (ms)"), p.3, e.cache_delay_ms));
            comparisons.push(Comparison::new(format!("Dell cache delay @{rps} (ms)"), p.4, d.cache_delay_ms));
        }
    }
    Ok(Report {
        id: "table7".into(),
        title: "Time delay decomposition (Table 7), (Edison, Dell) ms".into(),
        body: table(&["# Request/s", "Database delay", "Cache delay", "Total"], &rows),
        comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_legends() {
        let s = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
        assert_eq!(legend(&s), "24 Edison");
        let s = WebScenario::table6(Platform::Dell, ClusterScale::Half).unwrap();
        assert_eq!(legend(&s), "1 Dell");
    }

    #[test]
    fn stream_ids_are_distinct_across_rows_and_mixes() {
        let e8 = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let d2 = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
        let ids = [
            stream_id(&e8, WorkloadMix::lightest()),
            stream_id(&e8, WorkloadMix::img20()),
            stream_id(&e8, WorkloadMix::hit(0.77)),
            stream_id(&d2, WorkloadMix::lightest()),
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn all_scenarios_count() {
        // 4 Edison scales + 2 Dell scales
        assert_eq!(all_scenarios().len(), 6);
    }

    #[test]
    fn tiny_sweep_produces_monotone_low_end() {
        // minimal budget: eighth-scale Edison only, truncated sweep
        let sc = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
        let budget = RunBudget::quick();
        let rs = sweep(&sc, WorkloadMix::lightest(), &budget, &Executor::serial(), &mut Telemetry::off())
            .expect("healthy sweep");
        assert_eq!(rs.len(), 9);
        // below saturation, throughput tracks concurrency
        assert!(rs[1].requests_per_sec > rs[0].requests_per_sec);
        assert!(rs[2].requests_per_sec > rs[1].requests_per_sec);
    }
}
