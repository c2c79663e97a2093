//! Table 8 matrix properties at reduced scale: monotone scaling, energy
//! winners, locality, and timeline sanity across the grid.

use edison_mapreduce::engine::{run_job_checked, ClusterSetup, JobOutcome};
use edison_mapreduce::jobs::{self, Tune};

const MIB: u64 = 1024 * 1024;

/// Run a job at 1/4 input scale to keep the grid fast.
fn quarter(job: &str, setup: &ClusterSetup) -> JobOutcome {
    let mut p = match job {
        "wordcount" => jobs::wordcount(setup.tune),
        "wordcount2" => jobs::wordcount2(setup.tune),
        "logcount" => jobs::logcount(setup.tune),
        "logcount2" => jobs::logcount2(setup.tune),
        "terasort" => jobs::terasort(setup.tune),
        _ => unreachable!(),
    };
    p.input_bytes /= 4;
    p.map_tasks = (p.map_tasks / 4).max(4);
    run_job_checked(&p, setup).expect("job finishes")
}

/// Finish time is monotone non-increasing in Edison cluster size for every
/// data job.
#[test]
fn finish_time_monotone_in_cluster_size() {
    for job in ["wordcount", "logcount", "terasort"] {
        let mut last = f64::INFINITY;
        for n in [4usize, 8, 17, 35] {
            let out = quarter(job, &ClusterSetup::edison(n));
            assert!(
                out.finish_time_s <= last * 1.02,
                "{job}: {n} nodes took {} after {last}",
                out.finish_time_s
            );
            last = out.finish_time_s;
        }
    }
}

/// Data-local map fraction stays high (paper: ≈95 %) across sizes and
/// platforms.
#[test]
fn locality_high_across_grid() {
    for n in [8usize, 35] {
        let out = quarter("wordcount", &ClusterSetup::edison(n));
        assert!(out.data_local_fraction > 0.85, "edison-{n}: {}", out.data_local_fraction);
    }
    let out = quarter("wordcount", &ClusterSetup::dell(2));
    assert!(out.data_local_fraction > 0.85, "dell-2: {}", out.data_local_fraction);
}

/// The energy winner structure at quarter scale matches the paper: Edison
/// wins every data-intensive job against the 2-Dell cluster.
#[test]
fn edison_wins_data_jobs_on_energy() {
    for job in ["wordcount", "logcount", "logcount2", "terasort"] {
        let e = quarter(job, &ClusterSetup::edison(35));
        let d = quarter(job, &ClusterSetup::dell(2));
        assert!(
            e.energy_j < d.energy_j,
            "{job}: edison {:.0}J vs dell {:.0}J",
            e.energy_j,
            d.energy_j
        );
    }
    // wordcount2 is the marginal case even in the paper (only an 11.3 %
    // Edison advantage at full scale); at quarter scale the fixed
    // submission overhead can flip it — require parity within 15 %.
    let e = quarter("wordcount2", &ClusterSetup::edison(35));
    let d = quarter("wordcount2", &ClusterSetup::dell(2));
    assert!(
        e.energy_j < d.energy_j * 1.15,
        "wordcount2: edison {:.0}J vs dell {:.0}J",
        e.energy_j,
        d.energy_j
    );
}

/// Timelines are monotone in progress and power stays within the Table 3
/// band for every cell of a small grid.
#[test]
fn timelines_are_sane_across_grid() {
    for (setup, idle, busy) in [
        (ClusterSetup::edison(8), 8.0 * 1.40, 8.0 * 1.68),
        (ClusterSetup::dell(1), 52.0, 109.0),
    ] {
        let out = quarter("wordcount2", &setup);
        let mut last = -1.0;
        for &(_, v) in out.timeline.map_pct.points() {
            assert!(v >= last - 1e-9, "map progress went backwards");
            last = v;
        }
        for &(_, p) in out.timeline.power_w.points() {
            assert!(p >= idle - 0.01 && p <= busy + 0.01, "power {p}");
        }
    }
}

/// The sort stage at 512 MiB with §5.2.4's 64 MiB blocks: Dell is faster,
/// Edison uses less energy.
#[test]
fn terasort_sort_stage_cross_platform() {
    let sort = |tune, setup: ClusterSetup| {
        let mut p = jobs::terasort(tune);
        p.input_bytes = 512 * MIB;
        run_job_checked(&p, &setup.with_block(64 * MIB)).expect("job finishes")
    };
    let e = sort(Tune::Edison, ClusterSetup::edison(8));
    let d = sort(Tune::Dell, ClusterSetup::dell(2));
    assert!(d.finish_time_s < e.finish_time_s);
    assert!(e.energy_j < d.energy_j, "sort energy: edison {} dell {}", e.energy_j, d.energy_j);
}

/// Re-splitting preserves total work: pi with different map counts does
/// the same samples and lands within a few percent on energy.
#[test]
fn pi_resplit_preserves_work() {
    let base = jobs::pi(Tune::Edison);
    let fine = base.clone().with_map_tasks(140);
    let total_base = base.map_compute_mi * base.map_tasks as f64;
    let total_fine = fine.map_compute_mi * fine.map_tasks as f64;
    assert!((total_base - total_fine).abs() < 1e-6 * total_base);
    let a = run_job_checked(&base, &ClusterSetup::edison(35)).expect("job finishes");
    let b = run_job_checked(&fine, &ClusterSetup::edison(35)).expect("job finishes");
    // more, smaller tasks add container overhead but the same compute
    assert!(b.finish_time_s > a.finish_time_s * 0.9);
    assert!(b.finish_time_s < a.finish_time_s * 2.5);
}
