//! Scalability study (§5.3 / Figures 18–19): run every job across Edison
//! cluster sizes 4/8/17/35 and Dell 1/2, print the Table 8 matrix and the
//! per-doubling speed-ups. Each cell is `table8`'s own, per-size tuning
//! and derived seed included.
//!
//! ```text
//! cargo run --release --example scalability
//! ```

use edison_core::experiments::mapred::run_cell;
use edison_mapreduce::engine::ClusterSetup;
use edison_simrun::SimError;

fn main() -> Result<(), SimError> {
    let jobs_list = ["wordcount", "wordcount2", "logcount", "logcount2", "pi", "terasort"];
    let columns: Vec<(String, ClusterSetup)> = [35usize, 17, 8, 4]
        .iter()
        .map(|&n| (format!("edison-{n}"), ClusterSetup::edison(n)))
        .chain([2usize, 1].iter().map(|&n| (format!("dell-{n}"), ClusterSetup::dell(n))))
        .collect();

    print!("{:<12}", "job");
    for (label, _) in &columns {
        print!(" {label:>16}");
    }
    println!();
    for job in jobs_list {
        print!("{job:<12}");
        let mut edison_times = Vec::new();
        for (label, setup) in &columns {
            let out = run_cell(job, label, setup)?;
            print!(" {:>9.0}s{:>5.0}kJ", out.finish_time_s, out.energy_j / 1000.0);
            if label.starts_with("edison") {
                edison_times.push(out.finish_time_s);
            }
        }
        // mean speed-up per doubling across 4→8→17→35 (times are listed
        // largest-cluster first, so speed-up = t_half / t_double)
        let speedups: Vec<f64> = edison_times.windows(2).map(|w| w[1] / w[0]).collect();
        let mean = speedups.iter().product::<f64>().powf(1.0 / speedups.len() as f64);
        println!("  (speed-up/doubling {mean:.2})");
    }
    println!("\nenergy shown in kJ; the paper's Table 8 bolds the least-energy cell per job.");
    Ok(())
}
