//! MapReduce end to end, both modes:
//!
//! 1. **Real execution** — generate a real corpus, run the actual
//!    wordcount mapper/reducer through the local pipeline, verify counts,
//!    and show how the combiner shrinks the shuffle.
//! 2. **Cluster simulation** — the same jobs' Table 8 cells on the
//!    35-Edison and 2-Dell clusters (`table8`'s own tuning and seeds), with
//!    the Dell/Edison energy ratio.
//!
//! ```text
//! cargo run --release --example mapreduce_wordcount
//! ```

use edison_core::experiments::mapred::run_cell;
use edison_mapreduce::datagen;
use edison_mapreduce::engine::ClusterSetup;
use edison_mapreduce::jobs::{SumReducer, WordCountMapper};
use edison_mapreduce::local::run_local;
use edison_simcore::rng::SimRng;
use edison_simrun::SimError;

fn main() -> Result<(), SimError> {
    // -- 1. real bytes through the real pipeline -------------------------
    let mut rng = SimRng::new(42);
    let splits: Vec<Vec<u8>> = (0..8)
        .map(|_| datagen::corpus_file(128 * 1024, &mut rng).into_bytes())
        .collect();
    let input: u64 = splits.iter().map(|s| s.len() as u64).sum();

    let (_, raw) = run_local(&WordCountMapper, &SumReducer, None, &splits, 8);
    let (outputs, combined) = run_local(&WordCountMapper, &SumReducer, Some(&SumReducer), &splits, 8);
    let words: u64 = raw.map_output_records;
    let distinct: usize = outputs.iter().map(|p| p.len()).sum();
    println!("real corpus: {input} bytes, {words} words, {distinct} distinct");
    println!(
        "shuffle: {} bytes without combiner → {} bytes with ({}x reduction)",
        raw.shuffle_bytes,
        combined.shuffle_bytes,
        raw.shuffle_bytes / combined.shuffle_bytes.max(1)
    );

    // -- 2. the same job at paper scale on simulated clusters ------------
    println!("\ncluster simulation (1 GB input, paper configurations):");
    println!(
        "{:<12} {:<12} {:>9} {:>10} {:>9} {:>7}",
        "job", "cluster", "time s", "energy J", "local %", "J-gain"
    );
    for job_name in ["wordcount", "wordcount2"] {
        let e = run_cell(job_name, "edison-35", &ClusterSetup::edison(35))?;
        let d = run_cell(job_name, "dell-2", &ClusterSetup::dell(2))?;
        println!(
            "{:<12} {:<12} {:>9.0} {:>10.0} {:>9.0} {:>7.2}",
            job_name,
            "edison-35",
            e.finish_time_s,
            e.energy_j,
            e.data_local_fraction * 100.0,
            d.energy_j / e.energy_j
        );
        println!(
            "{:<12} {:<12} {:>9.0} {:>10.0} {:>9} {:>7}",
            "", "dell-2", d.finish_time_s, d.energy_j, "-", "-"
        );
    }
    println!("\nJ-gain = Dell energy / Edison energy for the same work (the paper's");
    println!("work-done-per-joule advantage; 2.28x for wordcount in the paper).");
    Ok(())
}
