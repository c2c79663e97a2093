//! Extension experiments beyond the paper's own evaluation (DESIGN.md
//! "Extensions"): the §7 hybrid-datacenter vision, node-failure impact,
//! and a related-work platform what-if.

use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_hw::dvfs::{daily_energy_wh, DvfsModel};
use edison_hw::related;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simfault::FaultPlan;
use edison_simrun::{derive_seed, derive_seed_at, Executor, RunError, SimError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::scenario::DEFAULT_RETRY_BUDGET;
use edison_web::stack::{run, run_traced, Metrics};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// §7's "hybrid future datacenter": a half-scale Edison web tier plus one
/// Dell web server, compared against the pure tiers at equal offered load.
pub fn ext_hybrid(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    let conc = 1024.0;
    let window = budget.web_measure_s as f64;

    // the two pure tiers are independent points — fan them out
    let pure_platforms = [Platform::Edison, Platform::Dell];
    let pures = exec.sweep(
        "ext:hybrid",
        &pure_platforms,
        tel,
        |_, p| format!("{p:?}"),
        |i, &p| -> Result<Metrics, SimError> {
            let scenario = WebScenario::table6_or_err(p, ClusterScale::Full)?;
            let seed = derive_seed_at(ROOT_SEED, "ext:hybrid", i);
            Ok(run(budget.web_point(scenario, WorkloadMix::lightest(), conc, seed)).metrics)
        },
    )?;
    let mut pures = pures.into_iter();
    let edison: Metrics = pures.next().ok_or_else(|| SimError::Data("pure Edison run missing".into()))??;
    let dell: Metrics = pures.next().ok_or_else(|| SimError::Data("pure Dell run missing".into()))??;

    // hybrid: 12 Edison web + 1 Dell web (≈ same aggregate capacity as
    // 24 Edison under the 12:1 LB weighting), Edison caches
    let mut hybrid_cfg = budget.web_point(
        WebScenario::table6_or_err(Platform::Edison, ClusterScale::Full)?,
        WorkloadMix::lightest(),
        conc,
        derive_seed(ROOT_SEED, "ext:hybrid:mixed", 0),
    );
    hybrid_cfg.scenario.web_servers = 12;
    hybrid_cfg.hybrid_web = 1;
    let hybrid = if tel.is_on() {
        // trace the hybrid run itself — it is the novel configuration here
        let mut world = run_traced(hybrid_cfg, tel.child());
        let t = world.take_telemetry();
        tel.merge(t);
        world.metrics
    } else {
        run(hybrid_cfg).metrics
    };

    let row = |name: &str, m: &Metrics| {
        let rps = m.completed as f64 / window;
        let watts = m.power_w.mean_value();
        vec![
            name.to_string(),
            format!("{rps:.0}"),
            format!("{:.2}", m.delays_ms.mean()),
            format!("{watts:.1}"),
            format!("{:.1}", m.requests_per_joule()),
            format!("{}", m.server_errors),
        ]
    };
    let rows = vec![
        row("24 Edison", &edison),
        row("2 Dell", &dell),
        row("12 Edison + 1 Dell (hybrid)", &hybrid),
    ];
    let body = table(
        &["web tier", "req/s", "delay ms", "power W", "req/J", "5xx"],
        &rows,
    );
    let hybrid_rpj = hybrid.requests_per_joule();
    let dell_rpj = dell.requests_per_joule();
    let edison_rpj = edison.requests_per_joule();
    Ok(Report {
        id: "ext_hybrid".into(),
        title: "Hybrid web tier (extension of the Section 7 vision)".into(),
        body,
        comparisons: vec![
            // the hybrid should land between the pure tiers on efficiency
            Comparison::new("hybrid req/J vs pure Dell (>1 expected)", 1.0, hybrid_rpj / dell_rpj),
            Comparison::new("hybrid req/J vs pure Edison (<1 expected)", 1.0, hybrid_rpj / edison_rpj),
        ],
    })
}

/// Node-failure impact (Introduction, advantage 2): crash one web server
/// mid-window on each platform — via the simfault layer, so memcached
/// contents and listen-queue state stay warm right up to the fault — and
/// compare the damage.
pub fn ext_failure(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    let conc = 1024.0;
    let window = budget.web_measure_s as f64;
    let crash_at =
        SimTime::ZERO + SimDuration::from_secs(budget.web_warmup_s + budget.web_measure_s / 2);
    let platforms = [Platform::Edison, Platform::Dell];
    // each platform's healthy/crashed pair shares one derived seed so the
    // scheduled crash is the only difference between the two runs
    let pairs = exec.sweep(
        "ext:failure",
        &platforms,
        tel,
        |_, p| format!("{p:?}"),
        |i, &p| -> Result<(Metrics, Metrics), SimError> {
            let seed = derive_seed_at(ROOT_SEED, "ext:failure", i);
            let scenario = WebScenario::table6_or_err(p, ClusterScale::Full)?;
            let mut cfg = budget.web_point(scenario, WorkloadMix::lightest(), conc, seed);
            let healthy = run(cfg.clone()).metrics;
            cfg.fault_plan = FaultPlan::new().crash(0, crash_at);
            cfg.retry_budget = DEFAULT_RETRY_BUDGET;
            let crashed = run(cfg).metrics;
            Ok((healthy, crashed))
        },
    )?;
    let mut rows = Vec::new();
    let mut losses = Vec::new();
    for (platform, pair) in platforms.iter().zip(pairs) {
        let (healthy, crashed) = pair?;
        let rps_h = healthy.completed as f64 / window;
        let rps_k = crashed.completed as f64 / window;
        let loss = 1.0 - rps_k / rps_h;
        losses.push(loss);
        rows.push(vec![
            format!("{platform:?}"),
            format!("{rps_h:.0}"),
            format!("{rps_k:.0}"),
            format!("{:.1}%", loss * 100.0),
            format!("{}", crashed.failovers),
            format!("{}", crashed.server_errors),
        ]);
    }
    Ok(Report {
        id: "ext_failure".into(),
        title: "Web-tier node-failure impact (extension)".into(),
        body: table(
            &["platform", "req/s healthy", "req/s with crash", "loss", "failovers", "5xx"],
            &rows,
        ),
        comparisons: vec![Comparison::new(
            "Dell loss / Edison loss (≫1 expected)",
            12.0,
            losses[1] / losses[0].max(1e-6),
        )],
    })
}

/// Related-work platform what-if: MI-per-joule figure of merit across the
/// Table 1 platforms with full models.
pub fn ext_platforms(_budget: &RunBudget, _exec: &Executor, _tel: &mut Telemetry) -> Result<Report, RunError> {
    let rows: Vec<Vec<String>> = related::all_platforms()
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.0}", s.cpu.total_mips()),
                format!("{:.2}", s.power.node_busy()),
                format!("{:.0}", related::mi_per_joule(s)),
                format!("${:.0}", s.unit_cost_usd),
            ]
        })
        .collect();
    let edison_eff = related::mi_per_joule(&edison_hw::presets::edison());
    let dell_eff = related::mi_per_joule(&edison_hw::presets::dell_r620());
    Ok(Report {
        id: "ext_platforms".into(),
        title: "Related-work platform what-if (Table 1 with full models)".into(),
        body: table(&["platform", "MIPS", "busy W", "MI/J", "cost"], &rows),
        comparisons: vec![Comparison::new(
            "Edison-with-adaptor MI/J vs Dell (nameplate CPU-efficiency edge)",
            1.0,
            edison_eff / dell_eff,
        )],
    })
}

/// DVFS vs micro-server substitution on a diurnal day (§1's quantitative
/// argument): DVFS saves ≲30 %, the Edison swap > 60 %.
pub fn ext_dvfs(_budget: &RunBudget, _exec: &Executor, _tel: &mut Telemetry) -> Result<Report, RunError> {
    let dell = DvfsModel::from_spec(&edison_hw::presets::dell_r620());
    let edison = edison_hw::presets::edison().power;
    let fixed = daily_energy_wh(|u| dell.power_fixed(u));
    let dvfs = daily_energy_wh(|u| dell.power_dvfs(u));
    let swap = daily_energy_wh(|u| 16.0 * edison.power_at(u));
    let rows = vec![
        vec!["Dell, fixed frequency".into(), format!("{fixed:.0}"), "-".into()],
        vec![
            "Dell, ideal DVFS".into(),
            format!("{dvfs:.0}"),
            format!("{:.0}%", (1.0 - dvfs / fixed) * 100.0),
        ],
        vec![
            "16 Edison nodes (Table 2 sizing)".into(),
            format!("{swap:.0}"),
            format!("{:.0}%", (1.0 - swap / fixed) * 100.0),
        ],
    ];
    Ok(Report {
        id: "ext_dvfs".into(),
        title: "DVFS vs micro-server substitution over a diurnal day (extension of §1)".into(),
        body: table(&["configuration", "Wh/day", "saving"], &rows),
        comparisons: vec![
            Comparison::new("ideal-DVFS saving (paper: ≤30%)", 0.30, 1.0 - dvfs / fixed),
            Comparison::new("Edison-swap saving (paper: can exceed 70%)", 0.70, 1.0 - swap / fixed),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_report_shapes_hold() {
        let r = ext_dvfs(&RunBudget::quick(), &Executor::serial(), &mut Telemetry::off())
            .expect("static experiment");
        let dvfs_saving = r.comparisons[0].measured;
        let swap_saving = r.comparisons[1].measured;
        assert!(swap_saving > 2.0 * dvfs_saving, "swap {swap_saving} vs dvfs {dvfs_saving}");
    }

    #[test]
    fn platform_table_renders() {
        let r = ext_platforms(&RunBudget::quick(), &Executor::serial(), &mut Telemetry::off())
            .expect("static experiment");
        assert!(r.body.contains("FAWN"));
        assert!(r.body.contains("Raspberry"));
        assert_eq!(r.comparisons.len(), 1);
    }
}
