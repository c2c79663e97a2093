//! MapReduce experiments: Figures 12–19 and Table 8 (§5.2–§5.3).
//!
//! Matrix cells are independent simulations, so they fan out over the
//! simrun [`Executor`]; each cell's [`ClusterSetup`] seed is derived from
//! the `(job, cluster)` pair, making any single cell reproducible in
//! isolation.

use crate::paper;
use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_mapreduce::engine::{run_job_checked, run_job_traced_checked, ClusterSetup, JobOutcome};
use edison_mapreduce::jobs::{self, JobProfile, Tune};
use edison_simrun::{derive_seed, Executor, RunError, SimError, ROOT_SEED};
use edison_simtel::Telemetry;

const MIB: u64 = 1024 * 1024;

/// The Table 8 cluster columns: (label, setup builder).
fn clusters(budget: &RunBudget) -> Vec<(String, ClusterSetup)> {
    let sizes: &[usize] = if budget.full_scalability { &[35, 17, 8, 4] } else { &[35, 8] };
    let mut v: Vec<(String, ClusterSetup)> = sizes
        .iter()
        .map(|&n| (format!("edison-{n}"), ClusterSetup::edison(n)))
        .collect();
    let dell_sizes: &[usize] = if budget.full_scalability { &[2, 1] } else { &[2] };
    for &n in dell_sizes {
        v.push((format!("dell-{n}"), ClusterSetup::dell(n)));
    }
    v
}

/// Job profile for a cluster label, with the paper's per-size re-tuning:
/// combined-input jobs scale the split count so each vcore still gets one
/// container (block size is raised as the cluster shrinks). Unknown job
/// names surface as [`SimError::UnknownJob`].
pub(crate) fn profile_for(job: &str, setup: &ClusterSetup) -> Result<JobProfile, SimError> {
    let tune = setup.tune;
    let mut p = jobs::by_name(job, tune)?;
    // per-cluster-size re-tuning of one-container-per-vcore jobs
    let workers = u32::try_from(setup.workers)
        .map_err(|_| SimError::Config(format!("{} workers do not fit a u32", setup.workers)))?;
    let vcores_total = match tune {
        Tune::Edison => 2 * workers,
        Tune::Dell => 12 * workers,
    };
    if matches!(job, "wordcount2" | "logcount2" | "pi") {
        // total work (input bytes / pi samples) is preserved by the re-split
        p = p.with_map_tasks(vcores_total.max(1));
    }
    Ok(p)
}

pub(crate) fn setup_for(job: &str, base: &ClusterSetup) -> ClusterSetup {
    let mut s = base.clone();
    if job == "terasort" {
        // §5.2.4: block size 64 MB on both clusters for fairness
        s = s.with_block(64 * MIB);
    }
    if matches!(job, "wordcount2" | "logcount2") {
        // the paper raises the block size on smaller clusters so the
        // combined splits still fit one per vcore
        let split = 1024 * MIB / (2 * s.workers as u64).max(1);
        let block = split.max(s.block_bytes);
        s = s.with_block(block);
    }
    s
}

/// Run one (job, cluster) cell with a seed derived from the cell's
/// identity (`mr:<job>:<label>`).
pub fn run_cell(job: &str, label: &str, base: &ClusterSetup) -> Result<JobOutcome, SimError> {
    let mut setup = setup_for(job, base);
    setup.seed = derive_seed(ROOT_SEED, &format!("mr:{job}:{label}"), 0);
    let profile = profile_for(job, &setup)?;
    run_job_checked(&profile, &setup)
}

/// When the sink is enabled, re-run one representative cell with tracing
/// and merge the result (same reasoning as the web-side helper: the matrix
/// itself runs untraced on worker threads).
fn trace_representative(tel: &mut Telemetry, job: &str, base: &ClusterSetup) -> Result<(), SimError> {
    if !tel.is_on() {
        return Ok(());
    }
    let mut setup = setup_for(job, base);
    setup.seed = derive_seed(ROOT_SEED, &format!("trace:mr:{job}"), 0);
    let profile = profile_for(job, &setup)?;
    let (_, t) = run_job_traced_checked(&profile, &setup, tel.child())?;
    tel.merge(t);
    Ok(())
}

/// Figures 12–17: utilisation/power timelines for wordcount, wordcount2
/// and pi on both full clusters.
pub fn fig12_17(_budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    trace_representative(tel, "logcount2", &ClusterSetup::edison(8))?;
    let cells = [
        ("fig12", "wordcount", "edison-35"),
        ("fig15", "wordcount", "dell-2"),
        ("fig13", "wordcount2", "edison-35"),
        ("fig16", "wordcount2", "dell-2"),
        ("fig14", "pi", "edison-35"),
        ("fig17", "pi", "dell-2"),
    ];
    let outs = exec.sweep(
        "mr:fig12_17",
        &cells,
        tel,
        |_, &(fig, job, cluster)| format!("{fig}:{job}@{cluster}"),
        |_, &(_, job, cluster)| {
            let base = if cluster.starts_with("edison") {
                ClusterSetup::edison(35)
            } else {
                ClusterSetup::dell(2)
            };
            run_cell(job, cluster, &base)
        },
    )?;
    let mut body = String::new();
    let mut comparisons = Vec::new();
    for ((fig, job, cluster), out) in cells.iter().zip(outs) {
        let out = out?;
        body.push_str(&format!(
            "{fig} ({job} on {cluster}): finish {:.0}s, energy {:.0}J, cpu-rise {:.0}s, first reduce at {:.0}s ({:.0}% of runtime), peak power {:.1}W, mean cpu {:.0}%\n",
            out.finish_time_s,
            out.energy_j,
            out.cpu_rise_s,
            out.first_reduce_s,
            100.0 * out.first_reduce_s / out.finish_time_s,
            out.timeline.power_w.max_value(),
            out.timeline.cpu_pct.mean_value(),
        ));
        if let Some(cell) = paper::table8_cell(job, cluster) {
            comparisons.push(Comparison::new(format!("{job} {cluster} time (s)"), cell.seconds, out.finish_time_s));
            comparisons.push(Comparison::new(format!("{job} {cluster} energy (J)"), cell.joules, out.energy_j));
        }
    }
    Ok(Report {
        id: "fig12_17".into(),
        title: "MapReduce utilisation timelines (Figures 12-17)".into(),
        body,
        comparisons,
    })
}

/// Table 8 / Figures 18–19: the full job × cluster-size matrix.
pub fn table8(budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    trace_representative(tel, "logcount2", &ClusterSetup::edison(8))?;
    let jobs_list = ["wordcount", "wordcount2", "logcount", "logcount2", "pi", "terasort"];
    let cols = clusters(budget);
    // one sweep over the whole matrix, row-major: every cell is an
    // independent deterministic sim with its own derived seed
    let cell_idx: Vec<(usize, usize)> = (0..jobs_list.len())
        .flat_map(|ji| (0..cols.len()).map(move |ci| (ji, ci)))
        .collect();
    let flat = exec.sweep(
        "mr:table8",
        &cell_idx,
        tel,
        |_, &(ji, ci)| format!("{}@{}", jobs_list[ji], cols[ci].0),
        |_, &(ji, ci)| run_cell(jobs_list[ji], &cols[ci].0, &cols[ci].1),
    )?;
    let mut results: Vec<Vec<JobOutcome>> = jobs_list.iter().map(|_| Vec::new()).collect();
    for (&(ji, _), out) in cell_idx.iter().zip(flat) {
        results[ji].push(out?);
    }

    let headers: Vec<&str> = std::iter::once("job").chain(cols.iter().map(|(l, _)| l.as_str())).collect();
    let mut rows = Vec::new();
    let mut comparisons = Vec::new();
    for (ji, job) in jobs_list.iter().enumerate() {
        let mut row = vec![job.to_string()];
        // find the least-energy cell (the paper's bold)
        let min_energy = results[ji].iter().map(|o| o.energy_j).fold(f64::INFINITY, f64::min);
        for (ci, (label, _)) in cols.iter().enumerate() {
            let out = &results[ji][ci];
            let bold = if (out.energy_j - min_energy).abs() < 1e-9 { "*" } else { "" };
            row.push(format!("{:.0}s,{:.0}J{bold}", out.finish_time_s, out.energy_j));
            if let Some(cell) = paper::table8_cell(job, label) {
                comparisons.push(Comparison::new(format!("{job} {label} time (s)"), cell.seconds, out.finish_time_s));
                comparisons.push(Comparison::new(format!("{job} {label} energy (J)"), cell.joules, out.energy_j));
            }
        }
        rows.push(row);
    }
    let mut body = table(&headers, &rows);
    body.push_str("* = least energy (the paper's bold cells)\n");

    // Figure 18/19 are the same matrix plotted as time and energy; derive
    // the headline efficiency ratios the abstract quotes.
    if let (Some(we), Some(wd)) = (find(&results, &cols, 0, "edison-35"), find(&results, &cols, 0, "dell-2")) {
        body.push_str(&format!(
            "wordcount work-done-per-joule gain (edison-35 vs dell-2): {:.2}x (paper 2.28x)\n",
            wd.energy_j / we.energy_j
        ));
    }
    if let (Some(pe), Some(pd)) = (find(&results, &cols, 4, "edison-35"), find(&results, &cols, 4, "dell-2")) {
        body.push_str(&format!(
            "pi energy: edison-35 {:.0}J vs dell-2 {:.0}J (paper: Edison 23.3% LESS efficient)\n",
            pe.energy_j, pd.energy_j
        ));
    }
    Ok(Report {
        id: "table8".into(),
        title: "Execution time and energy across cluster sizes (Table 8, Figures 18-19)".into(),
        body,
        comparisons,
    })
}

fn find<'a>(
    results: &'a [Vec<JobOutcome>],
    cols: &[(String, ClusterSetup)],
    job_idx: usize,
    label: &str,
) -> Option<&'a JobOutcome> {
    let ci = cols.iter().position(|(l, _)| l == label)?;
    results[job_idx].get(ci)
}

/// Speed-up summary (§5.3): mean speed-up per cluster doubling.
pub fn scalability_speedup(_budget: &RunBudget, exec: &Executor, tel: &mut Telemetry) -> Result<Report, RunError> {
    trace_representative(tel, "pi", &ClusterSetup::edison(4))?;
    let jobs_list = ["wordcount2", "logcount2", "pi"];
    let sizes = [4usize, 8, 17, 35];
    let mut body = String::new();
    let mut ratios = Vec::new();
    for job in jobs_list {
        let outs = exec.sweep(
            &format!("mr:speedup:{job}"),
            &sizes,
            tel,
            |_, &n| format!("edison-{n}"),
            |_, &n| run_cell(job, &format!("edison-{n}"), &ClusterSetup::edison(n)),
        )?;
        let mut times = Vec::new();
        for out in outs {
            times.push(out?.finish_time_s);
        }
        let mut speedups = Vec::new();
        for w in times.windows(2) {
            speedups.push(w[0] / w[1]);
        }
        let mean = speedups.iter().product::<f64>().powf(1.0 / speedups.len() as f64);
        ratios.push(mean);
        body.push_str(&format!(
            "{job}: times {:?} → mean speed-up per doubling {mean:.2}\n",
            times.iter().map(|t| t.round()).collect::<Vec<_>>()
        ));
    }
    let overall = ratios.iter().product::<f64>().powf(1.0 / ratios.len() as f64);
    body.push_str(&format!("overall mean speed-up: {overall:.2} (paper: 1.90 on Edison)\n"));
    Ok(Report {
        id: "sec53_speedup".into(),
        title: "Scalability speed-up (Section 5.3)".into(),
        body,
        comparisons: vec![Comparison::new("mean Edison speed-up per doubling", 1.90, overall)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_with_cluster_size() {
        let p35 = profile_for("wordcount2", &ClusterSetup::edison(35)).expect("known job");
        let p8 = profile_for("wordcount2", &ClusterSetup::edison(8)).expect("known job");
        assert_eq!(p35.map_tasks, 70);
        assert_eq!(p8.map_tasks, 16);
        let s8 = setup_for("wordcount2", &ClusterSetup::edison(8));
        assert!(s8.block_bytes >= 64 * MIB, "block raised on small clusters");
    }

    #[test]
    fn unknown_job_is_a_typed_error() {
        let err = profile_for("sorthash", &ClusterSetup::edison(8)).expect_err("unknown job");
        assert!(matches!(err, SimError::UnknownJob(ref n) if n == "sorthash"), "{err:?}");
        assert!(run_cell("sorthash", "edison-8", &ClusterSetup::edison(8)).is_err());
    }

    /// An unrecovered fault in a cell is a typed error (`repro` exit 5),
    /// not a crashed sweep point (exit 3).
    #[test]
    fn unrecovered_fault_is_a_typed_error() {
        let at = edison_simcore::time::SimTime::from_secs(5);
        let plan = (0..4).fold(edison_simfault::FaultPlan::new(), |p, n| p.crash(n, at));
        let base = ClusterSetup::edison(4).with_fault_plan(plan);
        let err = run_cell("logcount2", "edison-4", &base).expect_err("every worker is down");
        assert!(matches!(err, SimError::FaultUnrecovered(_)), "{err:?}");
    }

    #[test]
    fn terasort_uses_64mb_blocks_on_edison() {
        let s = setup_for("terasort", &ClusterSetup::edison(35));
        assert_eq!(s.block_bytes, 64 * MIB);
    }

    #[test]
    fn quick_budget_trims_columns() {
        let b = RunBudget::quick();
        let c = clusters(&b);
        assert!(c.len() < 6);
        assert!(c.iter().any(|(l, _)| l == "edison-35"));
        assert!(c.iter().any(|(l, _)| l == "dell-2"));
    }

    #[test]
    fn one_cell_runs_and_is_seed_stable() {
        let out = run_cell("logcount2", "edison-8", &ClusterSetup::edison(8)).expect("known job");
        assert!(out.finish_time_s > 10.0);
        assert!(out.energy_j > 0.0);
        // the derived seed depends only on the cell identity
        let again = run_cell("logcount2", "edison-8", &ClusterSetup::edison(8)).expect("known job");
        assert_eq!(out.finish_time_s, again.finish_time_s);
        assert_eq!(out.energy_j, again.energy_j);
    }
}
