//! A single-process MapReduce executor over real bytes.
//!
//! This is the correctness anchor for the cluster simulation: it runs the
//! actual `Mapper`/`Reducer` implementations through the full
//! map → (combine) → partition → sort → reduce pipeline, returns the real
//! output, and measures the data-flow statistics ([`RunStats`]) that the
//! simulation's [`crate::jobs::JobProfile`]s encode. A test below checks
//! profile ratios against measured ratios on generated data.

use crate::jobs::{Mapper, Pair, Reducer};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Data-flow statistics of a real run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total input bytes mapped.
    pub input_bytes: u64,
    /// Pairs emitted by mappers (pre-combine).
    pub map_output_records: u64,
    /// Bytes emitted by mappers (keys + values, pre-combine).
    pub map_output_bytes: u64,
    /// Pairs after per-split combining (= map output when no combiner).
    pub shuffle_records: u64,
    /// Bytes after combining.
    pub shuffle_bytes: u64,
    /// Final output pairs.
    pub output_records: u64,
    /// Final output bytes.
    pub output_bytes: u64,
}

impl RunStats {
    /// shuffle bytes / input bytes — the simulation's `shuffle_ratio`.
    pub fn shuffle_ratio(&self) -> f64 {
        self.shuffle_bytes as f64 / self.input_bytes.max(1) as f64
    }

    /// output bytes / input bytes.
    pub fn output_ratio(&self) -> f64 {
        self.output_bytes as f64 / self.input_bytes.max(1) as f64
    }
}

/// Hash partitioner (Hadoop's default).
#[expect(clippy::cast_possible_truncation, reason = "the remainder is below n_reduce, a usize")]
pub fn partition(key: &[u8], n_reduce: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n_reduce as u64) as usize
}

fn pair_bytes(p: &Pair) -> u64 {
    (p.0.len() + p.1.len()) as u64
}

/// Group sorted pairs by key and apply a reducer.
fn reduce_group(reducer: &dyn Reducer, pairs: &mut [Pair], out: &mut Vec<Pair>) {
    pairs.sort();
    let mut i = 0;
    while i < pairs.len() {
        let key = pairs[i].0.clone();
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == key {
            j += 1;
        }
        let values: Vec<Vec<u8>> = pairs[i..j].iter().map(|p| p.1.clone()).collect();
        reducer.reduce(&key, &values, &mut |k, v| out.push((k, v)));
        i = j;
    }
}

/// Run a full job on in-memory splits. Returns per-reducer sorted outputs
/// and the measured statistics.
pub fn run_local(
    mapper: &dyn Mapper,
    reducer: &dyn Reducer,
    combiner: Option<&dyn Reducer>,
    splits: &[Vec<u8>],
    n_reduce: usize,
) -> (Vec<Vec<Pair>>, RunStats) {
    assert!(n_reduce >= 1);
    let mut stats = RunStats::default();
    let mut partitions: Vec<Vec<Pair>> = vec![Vec::new(); n_reduce];
    for split in splits {
        stats.input_bytes += split.len() as u64;
        let mut emitted: Vec<Pair> = Vec::new();
        mapper.map(split, &mut |k, v| emitted.push((k, v)));
        stats.map_output_records += emitted.len() as u64;
        stats.map_output_bytes += emitted.iter().map(pair_bytes).sum::<u64>();
        let shuffled: Vec<Pair> = if let Some(c) = combiner {
            let mut combined = Vec::new();
            reduce_group(c, &mut emitted, &mut combined);
            combined
        } else {
            emitted
        };
        stats.shuffle_records += shuffled.len() as u64;
        stats.shuffle_bytes += shuffled.iter().map(pair_bytes).sum::<u64>();
        for p in shuffled {
            let r = partition(&p.0, n_reduce);
            partitions[r].push(p);
        }
    }
    let mut outputs = Vec::with_capacity(n_reduce);
    for mut part in partitions {
        let mut out = Vec::new();
        reduce_group(reducer, &mut part, &mut out);
        stats.output_records += out.len() as u64;
        stats.output_bytes += out.iter().map(pair_bytes).sum::<u64>();
        outputs.push(out);
    }
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use crate::jobs::*;
    use edison_simcore::rng::SimRng;
    use std::collections::HashMap;

    fn u64_of(v: &[u8]) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(v);
        u64::from_be_bytes(b)
    }

    #[test]
    fn wordcount_matches_oracle() {
        let mut rng = SimRng::new(7);
        let splits: Vec<Vec<u8>> = (0..4)
            .map(|_| datagen::corpus_file(20_000, &mut rng).into_bytes())
            .collect();
        // oracle: plain hash-map count
        let mut oracle: HashMap<Vec<u8>, u64> = HashMap::new();
        for s in &splits {
            for w in s.split(|b| b.is_ascii_whitespace()).filter(|w| !w.is_empty()) {
                *oracle.entry(w.to_vec()).or_insert(0) += 1;
            }
        }
        let (outputs, stats) = run_local(&WordCountMapper, &SumReducer, None, &splits, 7);
        let mut got: HashMap<Vec<u8>, u64> = HashMap::new();
        for part in &outputs {
            for (k, v) in part {
                assert!(got.insert(k.clone(), u64_of(v)).is_none(), "key split across reducers");
            }
        }
        assert_eq!(got, oracle);
        assert_eq!(stats.map_output_records, oracle.values().sum::<u64>());
    }

    #[test]
    fn combiner_preserves_output_and_shrinks_shuffle() {
        let mut rng = SimRng::new(8);
        let splits: Vec<Vec<u8>> = (0..4)
            .map(|_| datagen::corpus_file(30_000, &mut rng).into_bytes())
            .collect();
        let (no_comb, s1) = run_local(&WordCountMapper, &SumReducer, None, &splits, 5);
        let (with_comb, s2) =
            run_local(&WordCountMapper, &SumReducer, Some(&SumReducer), &splits, 5);
        assert_eq!(no_comb, with_comb, "combiner must not change results");
        assert!(
            s2.shuffle_bytes < s1.shuffle_bytes / 2,
            "combiner should shrink shuffle: {} vs {}",
            s2.shuffle_bytes,
            s1.shuffle_bytes
        );
        assert_eq!(s1.output_bytes, s2.output_bytes);
    }

    #[test]
    fn logcount_counts_date_level_pairs() {
        let mut rng = SimRng::new(9);
        let splits: Vec<Vec<u8>> =
            (0..3).map(|_| datagen::log_file(30_000, &mut rng).into_bytes()).collect();
        let (outputs, stats) =
            run_local(&LogCountMapper, &SumReducer, Some(&SumReducer), &splits, 4);
        let total: u64 = outputs.iter().flatten().map(|(_, v)| u64_of(v)).sum();
        let lines: u64 = splits
            .iter()
            .map(|s| s.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count() as u64)
            .sum();
        assert_eq!(total, lines, "every line counted once");
        // shuffle is small relative to input — the logcount property. On
        // these 30 KB test splits the key set (~120) is large relative to
        // the input; at the paper's 2 MiB splits the ratio drops to ~1e-3.
        assert!(stats.shuffle_ratio() < 0.1, "ratio {}", stats.shuffle_ratio());
        assert!(stats.shuffle_records <= 3 * 120, "distinct keys bounded");
    }

    #[test]
    fn pi_job_estimates_pi_via_pipeline() {
        let splits: Vec<Vec<u8>> =
            (0..8).map(|i| format!("50000 {i}").into_bytes()).collect();
        let (outputs, _) = run_local(&PiMapper, &SumReducer, None, &splits, 1);
        let mut inside = 0;
        let mut outside = 0;
        for (k, v) in &outputs[0] {
            match k.as_slice() {
                b"in" => inside = u64_of(v),
                b"out" => outside = u64_of(v),
                other => panic!("unexpected key {other:?}"),
            }
        }
        assert_eq!(inside + outside, 400_000);
        let est = pi_from_counts(inside, outside);
        assert!((est - std::f64::consts::PI).abs() < 0.02, "pi ≈ {est}");
    }

    #[test]
    fn terasort_produces_globally_extractable_sorted_runs() {
        let mut rng = SimRng::new(10);
        let recs = datagen::teragen_records(500, &mut rng);
        let flat: Vec<u8> = recs.iter().flatten().copied().collect();
        let splits: Vec<Vec<u8>> = flat.chunks(100 * 50).map(|c| c.to_vec()).collect();
        let (outputs, stats) = run_local(&TeraSortMapper, &IdentityReducer, None, &splits, 4);
        // each partition sorted
        for part in &outputs {
            for w in part.windows(2) {
                assert!(w[0].0 <= w[1].0, "partition not sorted");
            }
        }
        // validate record conservation
        let total: usize = outputs.iter().map(|p| p.len()).sum();
        assert_eq!(total, 500);
        assert!((stats.shuffle_ratio() - 1.0).abs() < 0.05);
    }

    #[test]
    fn measured_ratios_match_job_profiles() {
        // The combiner's shuffle reduction strengthens with split size
        // (vocabulary saturates): measure two sizes, check the trend, and
        // check the no-combiner ratio matches the wordcount profile at any
        // scale. The wordcount2 profile value (0.06) corresponds to the
        // paper's 15 MiB splits, below what a unit test can afford; the
        // trend plus the small-split value bound it.
        let mut rng = SimRng::new(11);
        let small: Vec<Vec<u8>> = (0..4)
            .map(|_| datagen::corpus_file(64_000, &mut rng).into_bytes())
            .collect();
        let large: Vec<Vec<u8>> = (0..2)
            .map(|_| datagen::corpus_file(1_000_000, &mut rng).into_bytes())
            .collect();
        let (_, s_small) = run_local(&WordCountMapper, &SumReducer, Some(&SumReducer), &small, 4);
        let (_, s_large) = run_local(&WordCountMapper, &SumReducer, Some(&SumReducer), &large, 4);
        assert!(
            s_large.shuffle_ratio() < s_small.shuffle_ratio(),
            "combiner must strengthen with split size: {} vs {}",
            s_large.shuffle_ratio(),
            s_small.shuffle_ratio()
        );
        let profile = wordcount2(Tune::Edison);
        assert!(
            profile.shuffle_ratio < s_large.shuffle_ratio(),
            "paper-scale profile ({}) must sit below the 1 MB-split ratio ({})",
            profile.shuffle_ratio,
            s_large.shuffle_ratio()
        );
        // The no-combiner ratio must obey the serialization arithmetic:
        // each token of mean length w (w+1 input bytes with separator)
        // emits w key bytes + 8 value bytes. Our synthetic corpus has
        // short words (w ≈ 3.2 → ratio ≈ 2.7); the paper's English text
        // with IntWritable values sits near the profile's 1.1.
        let (_, raw) = run_local(&WordCountMapper, &SumReducer, None, &large, 4);
        let mean_word = raw.input_bytes as f64 / raw.map_output_records as f64 - 1.0;
        let expected = (mean_word + 8.0) / (mean_word + 1.0);
        assert!(
            (raw.shuffle_ratio() - expected).abs() < 0.2,
            "raw {} vs serialization arithmetic {expected}",
            raw.shuffle_ratio(),
        );
        let wc = wordcount(Tune::Edison);
        assert!(wc.shuffle_ratio > 1.0 && wc.shuffle_ratio < expected);
    }

    #[test]
    fn partitioner_is_deterministic_and_spread() {
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key{i}").into_bytes()).collect();
        let mut counts = vec![0usize; 8];
        for k in &keys {
            let p = partition(k, 8);
            assert_eq!(p, partition(k, 8));
            counts[p] += 1;
        }
        assert!(counts.iter().all(|&c| c > 60), "skewed partitions: {counts:?}");
    }
}
