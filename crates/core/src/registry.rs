//! The experiment registry: every table/figure behind one uniform entry.
//!
//! Each entry is an [`Experiment`] — metadata plus a fallible `run`
//! function — in one static slice, so lookups by id ([`find`]) and
//! iteration ([`all`]) hand out `&'static Experiment` borrows.

use crate::experiments::{explore, extensions, faults, individual, mapred, overload, smoke, tco_exp, webservice};
use crate::report::Report;
use edison_simcore::time::SimDuration;
use edison_simfault::FaultPlan;
use edison_simrun::{Executor, RunError};
use edison_simtel::Telemetry;
use edison_web::httperf::CALLS_PER_CONN;
use edison_web::stack::{GenMode, StackConfig};
use edison_web::{WebScenario, WorkloadMix};

/// How much simulated time / how many sweep columns an experiment may
/// spend. `quick` keeps CI fast; `full` is the paper-scale run the `repro`
/// binary uses.
#[derive(Debug, Clone)]
pub struct RunBudget {
    /// httperf warm-up seconds.
    pub web_warmup_s: u64,
    /// httperf measurement seconds per point.
    pub web_measure_s: u64,
    /// Run all six Table 8 cluster sizes (vs a reduced column set).
    pub full_scalability: bool,
    /// Override fault schedule (`repro --fault-plan <file>`): fault-aware
    /// experiments (`fault_sweep`, `explore`) play this plan instead of
    /// their built-in schedules. `None` everywhere else.
    pub fault_plan: Option<FaultPlan>,
    /// Candidate fault schedules the `explore` experiment evaluates, and
    /// the per-row cap on `fault_sweep`'s worst-case candidates
    /// (`repro --explore-budget N`).
    pub explore_budget: usize,
    /// Run fault-aware web experiments with the reference guard enabled
    /// (`repro --guard`): `fault_sweep` plays its crash schedules against
    /// a guarded web tier, so breaker trips and overflow retries land in
    /// its table. `overload_sweep` always runs both arms regardless.
    pub guard: bool,
    /// Deadline override for the reference guard, milliseconds
    /// (`repro --guard-deadline-ms N`). `None` keeps the
    /// `GuardConfig::web_defaults` 1500 ms budget.
    pub guard_deadline_ms: Option<u64>,
}

impl RunBudget {
    /// CI-friendly budget.
    pub fn quick() -> Self {
        RunBudget {
            web_warmup_s: 2,
            web_measure_s: 6,
            full_scalability: false,
            fault_plan: None,
            explore_budget: 4,
            guard: false,
            guard_deadline_ms: None,
        }
    }

    /// Paper-scale budget (minutes of wall time in release builds).
    pub fn full() -> Self {
        RunBudget {
            web_warmup_s: 5,
            web_measure_s: 20,
            full_scalability: true,
            fault_plan: None,
            explore_budget: 16,
            guard: false,
            guard_deadline_ms: None,
        }
    }

    /// This budget with a custom fault schedule attached.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The web point every httperf experiment runs: `connections_per_sec`
    /// new connections per second at [`CALLS_PER_CONN`] calls each,
    /// over this budget's warm-up and measurement window.
    pub fn web_point(
        &self,
        scenario: WebScenario,
        mix: WorkloadMix,
        connections_per_sec: f64,
        seed: u64,
    ) -> StackConfig {
        let gen = GenMode::Httperf { connections_per_sec, calls_per_conn: CALLS_PER_CONN };
        let mut cfg = StackConfig::new(scenario, mix, gen, seed);
        cfg.warmup = SimDuration::from_secs(self.web_warmup_s);
        cfg.measure = SimDuration::from_secs(self.web_measure_s);
        cfg
    }
}

/// The uniform run signature registry entries point at.
type RunFn = fn(&RunBudget, &Executor, &mut Telemetry) -> Result<Report, RunError>;

/// A runnable paper artefact: stable metadata plus a fallible `run`.
pub struct Experiment {
    /// Stable id (`table8`, `fig04_07`, …).
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Whether `repro --all` includes this experiment. Demonstration
    /// entries (the deliberate-failure `fault_demo`) opt out.
    pub in_all: bool,
    /// Execute and render: `(exp.run)(&budget, &exec, &mut tel)`. It
    /// receives the sweep [`Executor`] (worker-pool width from `--jobs` /
    /// `EDISON_REPRO_JOBS`) and the telemetry sink (`Telemetry::off()` for
    /// plain runs); experiments with simulation content record a
    /// representative traced run into the sink when it is enabled.
    /// Failures surface as typed [`RunError`]s instead of panics.
    pub run: RunFn,
}

impl Experiment {
    /// Whether the experiment's report goes into the EXPERIMENTS.md ledger
    /// ([`crate::ledger`]): every `--all` experiment except `smoke`, a
    /// telemetry demo whose two rows are sanity checks, not paper values.
    pub(crate) fn in_ledger(&self) -> bool {
        self.in_all && self.id != "smoke"
    }
}

/// Shorthand for the common case: an always-included entry.
const fn entry(id: &'static str, title: &'static str, run: RunFn) -> Experiment {
    Experiment { id, title, in_all: true, run }
}

/// The static index, in paper order; [`find`] and [`all`] borrow from it.
static INDEX: &[Experiment] = &[
    entry("table1", "Related-work micro server specs", |_, _, _| Ok(individual::table1())),
    entry("table2", "Edison vs Dell resource ratios", |_, _, _| Ok(individual::table2())),
    entry("table3", "Idle/busy power", |_, _, _| Ok(individual::table3())),
    entry("table4", "Software versions", |_, _, _| Ok(individual::table4())),
    entry("sec41_dmips", "Dhrystone DMIPS", |_, _, _| Ok(individual::sec41_dmips())),
    entry("fig02_03", "Sysbench CPU sweep", |_, _, _| Ok(individual::fig02_03())),
    entry("sec42_membw", "Memory bandwidth sweep", |_, _, _| Ok(individual::sec42_membw())),
    entry("table5", "Storage throughput/latency", |_, _, _| Ok(individual::table5())),
    entry("sec44_net", "iperf/ping network tests", |_, _, _| Ok(individual::sec44_net())),
    entry("table6", "Web cluster scale configs", |_, _, _| Ok(individual::table6())),
    entry("fig04_07", "Web throughput/delay, lightest load", webservice::fig04_07),
    entry("fig05_08", "Web throughput/delay, mixed loads", webservice::fig05_08),
    entry("fig06_09", "Web throughput/delay, 20% images", webservice::fig06_09),
    entry("fig10_11", "Delay distributions", webservice::fig10_11),
    entry("table7", "Delay decomposition", webservice::table7),
    entry("fig12_17", "MapReduce timelines", mapred::fig12_17),
    entry("table8", "Time/energy matrix (+Fig 18-19)", mapred::table8),
    entry("sec53_speedup", "Scalability speed-up", mapred::scalability_speedup),
    entry("table9", "TCO constants", |_, _, _| Ok(individual::table9())),
    entry("table10", "TCO comparison", |_, _, _| Ok(tco_exp::table10())),
    entry(
        "fault_sweep",
        "Availability & efficiency under fault intensity × platform",
        faults::fault_sweep,
    ),
    entry(
        "explore",
        "Worst-case fault-schedule exploration with shrunk reproducers",
        explore::explore_experiment,
    ),
    entry(
        "overload_sweep",
        "Goodput, availability & degradation past the knee, guards off vs on",
        overload::overload_sweep,
    ),
    entry("ext_hybrid", "EXT: hybrid web tier (§7 vision)", extensions::ext_hybrid),
    entry("ext_failure", "EXT: node-failure impact", extensions::ext_failure),
    entry("ext_platforms", "EXT: related-work platform what-if", extensions::ext_platforms),
    entry("ext_dvfs", "EXT: DVFS vs substitution (§1)", extensions::ext_dvfs),
    entry("smoke", "End-to-end smoke run (web + MapReduce, telemetry-ready)", smoke::smoke),
    Experiment {
        id: "fault_demo",
        title: "DEMO: fault-isolation showcase (one point panics by design)",
        in_all: false,
        run: faults::fault_demo,
    },
];

/// Every experiment, in paper order.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    INDEX.iter()
}

/// Find an experiment by id: a linear scan over the static index, which
/// is cheaper than hashing at this size.
pub fn find(id: &str) -> Option<&'static Experiment> {
    INDEX.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = all().map(|e| e.id).collect();
        // tables 1-10 (7 via table7, 8 via table8...)
        for t in ["table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9", "table10"] {
            assert!(ids.contains(&t), "missing {t}");
        }
        // all 19 figures are covered by these grouped ids
        for f in ["fig02_03", "fig04_07", "fig05_08", "fig06_09", "fig10_11", "fig12_17", "table8"] {
            assert!(ids.contains(&f), "missing {f}");
        }
    }

    #[test]
    fn find_works_and_borrows_statically() {
        assert!(find("table8").is_some());
        assert!(find("nope").is_none());
        // two lookups hand out the same static entry, not fresh copies
        let a = find("table8").expect("present");
        let b = find("table8").expect("present");
        assert!(std::ptr::eq(a, b), "find must borrow from the static index");
    }

    #[test]
    fn demo_experiments_are_excluded_from_all_runs() {
        let demo = find("fault_demo").expect("registered");
        assert!(!demo.in_all);
        assert!(find("smoke").expect("registered").in_all);
    }

    #[test]
    fn cheap_experiments_run_under_quick_budget() {
        let b = RunBudget::quick();
        for id in ["table1", "table2", "table3", "table4", "table5", "table6", "table9", "table10", "sec41_dmips", "sec42_membw", "sec44_net", "fig02_03"] {
            let e = find(id).expect("registered");
            let r = (e.run)(&b, &Executor::serial(), &mut Telemetry::off())
                .expect("cheap experiments cannot fail");
            assert_eq!(r.id, id);
            assert!(!r.body.is_empty());
        }
    }
}
