//! The paper's six MapReduce jobs, in two coupled forms:
//!
//! 1. **Executable logic** — real `Mapper` / `Reducer` implementations that
//!    run on real bytes through [`crate::local::run_local`]; tests verify
//!    output against independent oracles.
//! 2. **A [`JobProfile`]** — the per-byte/per-record cost statistics that
//!    drive the cluster simulation at paper scale. A test in
//!    `crate::local` checks the profile's data ratios against statistics
//!    extracted from real runs of form 1.
//!
//! Job variants (§5.2): `wordcount` (no combiner, one container per input
//! file), `wordcount2` (CombineFileInputFormat + combiner), `logcount`
//! (combiner, 500 small files), `logcount2` (combined inputs), `pi`
//! (compute-only), `terasort` (full-shuffle sort).

use edison_hw::calib;
use edison_simcore::rng::SimRng;
use edison_simrun::SimError;

/// Platform-specific job tuning (the paper hand-tunes both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tune {
    /// Edison cluster: 16 MB blocks, small containers, 2 vcores/node.
    Edison,
    /// Dell cluster: 64 MB blocks, 1 GB containers, 12 vcores/node.
    Dell,
}

const MIB: u64 = 1024 * 1024;

/// Select the per-platform cost for a tuning.
fn pick(tune: Tune, c: calib::PerPlatform) -> f64 {
    match tune {
        Tune::Edison => c.edison,
        Tune::Dell => c.dell,
    }
}

/// Statistical profile of a job — everything the cluster simulation needs.
#[derive(Debug, Clone)]
pub struct JobProfile {
    /// Job name (matches Table 8 rows).
    pub name: &'static str,
    /// Input files on HDFS.
    pub input_files: u32,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Map tasks (one per file without CombineFileInputFormat; one per
    /// max-split with it).
    pub map_tasks: u32,
    /// Reduce tasks.
    pub reduce_tasks: u32,
    /// Map CPU per MiB of input, MI.
    pub map_mi_per_mib: f64,
    /// Fixed per-map-task CPU, MI (pi's sample loop).
    pub map_compute_mi: f64,
    /// (map output after combine) / input bytes.
    pub shuffle_ratio: f64,
    /// Whether a combiner runs (costs map-side CPU on the pre-combine
    /// output).
    pub combiner: bool,
    /// Reduce CPU per MiB of shuffled data, MI.
    pub reduce_mi_per_mib: f64,
    /// Sort/spill CPU per MiB of pre-combine map output, MI.
    pub spill_mi_per_mib: f64,
    /// Container start-up CPU (JVM launch), MI.
    pub container_startup_mi: f64,
    /// Fixed per-task CPU (AM round trips, committer), MI.
    pub task_setup_mi: f64,
    /// Final output bytes / input bytes.
    pub output_ratio: f64,
    /// Container memory for map tasks, bytes.
    pub map_container: u64,
    /// Container memory for reduce tasks, bytes.
    pub reduce_container: u64,
    /// External-merge passes on the reduce side (terasort's memory-bound
    /// merge re-reads spilled runs).
    pub merge_passes: u32,
    /// Working set near the container limit → GC tax (terasort).
    pub mem_hungry: bool,
}

impl JobProfile {
    /// Total map-output bytes after combining.
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "a non-negative ratio of a u64 byte count")]
    pub fn shuffle_bytes(&self) -> u64 {
        (self.input_bytes as f64 * self.shuffle_ratio) as u64
    }

    /// Final output bytes.
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "a non-negative ratio of a u64 byte count")]
    pub fn output_bytes(&self) -> u64 {
        (self.input_bytes as f64 * self.output_ratio) as u64
    }

    /// Input bytes of one map split (uniform split assumption).
    pub fn split_bytes(&self) -> u64 {
        self.input_bytes / self.map_tasks as u64
    }

    /// Re-split the job into `n` map tasks, preserving total work (the
    /// paper re-tunes split counts per cluster size for the combined-input
    /// jobs and pi so each vcore gets exactly one container).
    ///
    /// Per-task fixed compute (pi's sample loop) is rescaled so the total
    /// sample count is invariant.
    pub fn with_map_tasks(mut self, n: u32) -> Self {
        assert!(n >= 1);
        let total_compute = self.map_compute_mi * self.map_tasks as f64;
        self.map_tasks = n;
        self.map_compute_mi = total_compute / n as f64;
        self
    }
}

/// The Table 8 job names, in paper row order.
pub const JOB_NAMES: [&str; 6] =
    ["wordcount", "wordcount2", "logcount", "logcount2", "pi", "terasort"];

/// Resolve a Table 8 job name to its profile; unknown names surface as a
/// typed [`SimError::UnknownJob`] instead of a panic.
pub fn by_name(name: &str, tune: Tune) -> Result<JobProfile, SimError> {
    match name {
        "wordcount" => Ok(wordcount(tune)),
        "wordcount2" => Ok(wordcount2(tune)),
        "logcount" => Ok(logcount(tune)),
        "logcount2" => Ok(logcount2(tune)),
        "pi" => Ok(pi(tune)),
        "terasort" => Ok(terasort(tune)),
        other => Err(SimError::UnknownJob(other.to_string())),
    }
}

/// §5.2.1 wordcount: 200 files, 1 GB, no combiner, no input combining —
/// 200 map containers.
pub fn wordcount(tune: Tune) -> JobProfile {
    let (map_c, red_c, reduces) = match tune {
        Tune::Edison => (150 * MIB, 300 * MIB, 70),
        Tune::Dell => (500 * MIB, 1024 * MIB, 24),
    };
    JobProfile {
        name: "wordcount",
        input_files: 200,
        input_bytes: 1024 * MIB,
        map_tasks: 200,
        reduce_tasks: reduces,
        map_mi_per_mib: pick(tune, calib::WORDCOUNT_MAP_MI_PER_MIB),
        map_compute_mi: 0.0,
        // serialized (word, 1) pairs slightly exceed the input text
        shuffle_ratio: 1.1,
        combiner: false,
        reduce_mi_per_mib: pick(tune, calib::WORDCOUNT_REDUCE_MI_PER_MIB),
        spill_mi_per_mib: pick(tune, calib::SPILL_SORT_MI_PER_MIB),
        container_startup_mi: pick(tune, calib::CONTAINER_STARTUP_MI),
        task_setup_mi: pick(tune, calib::TASK_SETUP_MI),
        output_ratio: 0.04,
        map_container: map_c,
        reduce_container: red_c,
        merge_passes: 1,
        mem_hungry: false,
    }
}

/// §5.2.1 wordcount2: CombineFileInputFormat (15 MB / 44 MB max splits →
/// one container per vcore) + combiner.
pub fn wordcount2(tune: Tune) -> JobProfile {
    let base = wordcount(tune);
    let (splits, map_c, red_c) = match tune {
        // 35 nodes × 2 vcores = 70 splits of ≈15 MB
        Tune::Edison => (70, 300 * MIB, 300 * MIB),
        // 2 nodes × 12 vcores = 24 splits of ≈44 MB
        Tune::Dell => (24, 1024 * MIB, 1024 * MIB),
    };
    JobProfile {
        name: "wordcount2",
        map_tasks: splits,
        // the combiner collapses per-split duplicates: the Zipf vocabulary
        // reduces output to a few percent of the input
        shuffle_ratio: 0.06,
        combiner: true,
        map_container: map_c,
        reduce_container: red_c,
        ..base
    }
}

/// §5.2.2 logcount: 500 log files, 1 GB, combiner present from the start
/// (it is the example's whole point) but no input combining.
pub fn logcount(tune: Tune) -> JobProfile {
    let (map_c, red_c, reduces) = match tune {
        Tune::Edison => (150 * MIB, 300 * MIB, 70),
        Tune::Dell => (500 * MIB, 1024 * MIB, 24),
    };
    JobProfile {
        name: "logcount",
        input_files: 500,
        input_bytes: 1024 * MIB,
        map_tasks: 500,
        reduce_tasks: reduces,
        map_mi_per_mib: pick(tune, calib::LOGCOUNT_MAP_MI_PER_MIB),
        map_compute_mi: 0.0,
        // one (date, level) key per line, combined per split: ≤120 keys ×
        // ~24 B per 2 MiB split → ~1.4e-3 of the input
        shuffle_ratio: 1.4e-3,
        combiner: true,
        reduce_mi_per_mib: pick(tune, calib::LOGCOUNT_REDUCE_MI_PER_MIB),
        spill_mi_per_mib: pick(tune, calib::SPILL_SORT_MI_PER_MIB),
        container_startup_mi: pick(tune, calib::CONTAINER_STARTUP_MI),
        task_setup_mi: pick(tune, calib::TASK_SETUP_MI),
        output_ratio: 1e-5,
        map_container: map_c,
        reduce_container: red_c,
        merge_passes: 1,
        mem_hungry: false,
    }
}

/// §5.2.2 logcount2: combined splits, one container per vcore.
pub fn logcount2(tune: Tune) -> JobProfile {
    let base = logcount(tune);
    let (splits, map_c, red_c) = match tune {
        Tune::Edison => (70, 300 * MIB, 300 * MIB),
        Tune::Dell => (24, 1024 * MIB, 1024 * MIB),
    };
    JobProfile {
        name: "logcount2",
        map_tasks: splits,
        map_container: map_c,
        reduce_container: red_c,
        ..base
    }
}

/// Total Monte-Carlo samples in the pi job (§5.2.3).
pub const PI_TOTAL_SAMPLES: u64 = 10_000_000_000;

/// §5.2.3 pi estimation: compute-only, 70/24 map containers, 1 reducer.
pub fn pi(tune: Tune) -> JobProfile {
    let (maps, map_c) = match tune {
        Tune::Edison => (70, 300 * MIB),
        Tune::Dell => (24, 1024 * MIB),
    };
    let msamples_per_map = PI_TOTAL_SAMPLES as f64 / 1e6 / maps as f64;
    JobProfile {
        name: "pi",
        input_files: maps,
        // tiny seed inputs; the work is the sample loop
        input_bytes: maps as u64 * 1024,
        map_tasks: maps,
        reduce_tasks: 1,
        map_mi_per_mib: 0.0,
        map_compute_mi: msamples_per_map * pick(tune, calib::PI_MI_PER_MSAMPLE),
        shuffle_ratio: 0.001,
        combiner: false,
        reduce_mi_per_mib: 1.0,
        spill_mi_per_mib: 1.0,
        container_startup_mi: pick(tune, calib::CONTAINER_STARTUP_MI),
        task_setup_mi: pick(tune, calib::TASK_SETUP_MI),
        output_ratio: 0.001,
        map_container: map_c,
        reduce_container: map_c,
        merge_passes: 1,
        mem_hungry: false,
    }
}

/// §5.2.4 terasort (sort stage): 10 GB, 64 MB blocks on both platforms →
/// 168 map tasks; full shuffle; memory-hungry merge.
pub fn terasort(tune: Tune) -> JobProfile {
    let (map_c, red_c, reduces) = match tune {
        Tune::Edison => (300 * MIB, 300 * MIB, 70),
        Tune::Dell => (1024 * MIB, 1024 * MIB, 24),
    };
    // 300 MB Edison reduce containers force an external merge pass; the
    // Dell's 1 GB containers merge their 427 MiB partitions in memory
    let merge_passes = match tune {
        Tune::Edison => 2,
        Tune::Dell => 1,
    };
    JobProfile {
        name: "terasort",
        input_files: 168,
        input_bytes: 10 * 1024 * MIB,
        map_tasks: 168,
        reduce_tasks: reduces,
        map_mi_per_mib: pick(tune, calib::TERASORT_MAP_MI_PER_MIB),
        map_compute_mi: 0.0,
        shuffle_ratio: 1.0,
        combiner: false,
        reduce_mi_per_mib: pick(tune, calib::TERASORT_REDUCE_MI_PER_MIB),
        spill_mi_per_mib: pick(tune, calib::SPILL_SORT_MI_PER_MIB),
        container_startup_mi: pick(tune, calib::CONTAINER_STARTUP_MI),
        task_setup_mi: pick(tune, calib::TASK_SETUP_MI),
        output_ratio: 1.0,
        map_container: map_c,
        reduce_container: red_c,
        merge_passes,
        mem_hungry: true,
    }
}

/// All six Table 8 jobs in row order.
pub fn table8_jobs(tune: Tune) -> Vec<JobProfile> {
    vec![
        wordcount(tune),
        wordcount2(tune),
        logcount(tune),
        logcount2(tune),
        pi(tune),
        terasort(tune),
    ]
}

// ---------------------------------------------------------------------------
// Executable logic (real data path)
// ---------------------------------------------------------------------------

/// A key-value pair flowing between map and reduce.
pub type Pair = (Vec<u8>, Vec<u8>);

/// Executable map logic.
pub trait Mapper {
    /// Map one input chunk, emitting pairs.
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>));
}

/// Executable reduce (and combine) logic.
pub trait Reducer {
    /// Reduce all values of one key, emitting output pairs.
    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>));
}

fn encode_u64(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn decode_u64(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(v);
    u64::from_be_bytes(b)
}

/// wordcount map: one `(word, 1)` per whitespace token.
pub struct WordCountMapper;

impl Mapper for WordCountMapper {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for tok in input.split(|b| b.is_ascii_whitespace()) {
            if !tok.is_empty() {
                emit(tok.to_vec(), encode_u64(1));
            }
        }
    }
}

/// Sums counts — wordcount/logcount reducer *and* combiner.
pub struct SumReducer;

impl Reducer for SumReducer {
    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let total: u64 = values.iter().map(|v| decode_u64(v)).sum();
        emit(key.to_vec(), encode_u64(total));
    }
}

/// logcount map: `(date ++ " " ++ level, 1)` per log line.
pub struct LogCountMapper;

impl Mapper for LogCountMapper {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for line in input.split(|&b| b == b'\n') {
            let mut fields = line
                .split(|b| b.is_ascii_whitespace())
                .filter(|f| !f.is_empty());
            let (Some(date), Some(_time), Some(level)) =
                (fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            let mut key = date.to_vec();
            key.push(b' ');
            key.extend_from_slice(level);
            emit(key, encode_u64(1));
        }
    }
}

/// pi map: the input chunk encodes a sample count and a seed; emits
/// `("in", hits)` and `("out", misses)`.
pub struct PiMapper;

impl Mapper for PiMapper {
    #[expect(clippy::expect_used, reason = "the input chunks are the two ascii u64s pi's input generator writes")]
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        let text = std::str::from_utf8(input).expect("pi input is ascii");
        let mut parts = text.split_whitespace();
        let samples: u64 = parts.next().expect("count").parse().expect("count");
        let seed: u64 = parts.next().expect("seed").parse().expect("seed");
        let mut rng = SimRng::new(seed);
        let mut inside = 0u64;
        for _ in 0..samples {
            let x = rng.uniform() * 2.0 - 1.0;
            let y = rng.uniform() * 2.0 - 1.0;
            if x * x + y * y <= 1.0 {
                inside += 1;
            }
        }
        emit(b"in".to_vec(), encode_u64(inside));
        emit(b"out".to_vec(), encode_u64(samples - inside));
    }
}

/// Estimate pi from the reduced `(in, out)` totals.
pub fn pi_from_counts(inside: u64, outside: u64) -> f64 {
    4.0 * inside as f64 / (inside + outside) as f64
}

/// terasort map: identity on 100-byte records (key = first 10 bytes).
pub struct TeraSortMapper;

impl Mapper for TeraSortMapper {
    fn map(&self, input: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for rec in input.chunks_exact(crate::datagen::TERA_RECORD_BYTES) {
            emit(
                rec[..crate::datagen::TERA_KEY_BYTES].to_vec(),
                rec[crate::datagen::TERA_KEY_BYTES..].to_vec(),
            );
        }
    }
}

/// terasort reduce: identity (the framework's sort does the work).
pub struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for v in values {
            emit(key.to_vec(), v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wordcount_mapper_tokenises() {
        let mut pairs = Vec::new();
        WordCountMapper.map(b"the cat  and the hat\nthe end", &mut |k, v| pairs.push((k, v)));
        assert_eq!(pairs.len(), 7);
        assert_eq!(pairs[0].0, b"the".to_vec());
        assert_eq!(decode_u64(&pairs[0].1), 1);
    }

    #[test]
    fn sum_reducer_totals() {
        let mut out = Vec::new();
        SumReducer.reduce(
            b"the",
            &[encode_u64(1), encode_u64(1), encode_u64(5)],
            &mut |k, v| out.push((k, v)),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(decode_u64(&out[0].1), 7);
    }

    #[test]
    fn logcount_mapper_extracts_date_level() {
        let mut pairs = Vec::new();
        LogCountMapper.map(
            b"2016-02-01 12:00:01 INFO org.apache task_1 ok\n2016-02-01 12:00:02 ERROR x y\n",
            &mut |k, v| pairs.push((k, v)),
        );
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, b"2016-02-01 INFO".to_vec());
        assert_eq!(pairs[1].0, b"2016-02-01 ERROR".to_vec());
        let _ = decode_u64(&pairs[0].1);
    }

    #[test]
    fn pi_mapper_estimates_pi() {
        let mut pairs = Vec::new();
        PiMapper.map(b"200000 42", &mut |k, v| pairs.push((k, v)));
        let inside = decode_u64(&pairs[0].1);
        let outside = decode_u64(&pairs[1].1);
        assert_eq!(inside + outside, 200_000);
        let est = pi_from_counts(inside, outside);
        assert!((est - std::f64::consts::PI).abs() < 0.02, "pi ≈ {est}");
    }

    #[test]
    fn terasort_mapper_splits_records() {
        let mut rng = SimRng::new(1);
        let recs = crate::datagen::teragen_records(10, &mut rng);
        let flat: Vec<u8> = recs.iter().flatten().copied().collect();
        let mut pairs = Vec::new();
        TeraSortMapper.map(&flat, &mut |k, v| pairs.push((k, v)));
        assert_eq!(pairs.len(), 10);
        assert!(pairs.iter().all(|(k, v)| k.len() == 10 && v.len() == 90));
    }

    #[test]
    fn profiles_match_paper_shape() {
        for tune in [Tune::Edison, Tune::Dell] {
            let wc = wordcount(tune);
            assert_eq!(wc.map_tasks, 200);
            let wc2 = wordcount2(tune);
            assert!(wc2.map_tasks < wc.map_tasks / 2);
            assert!(wc2.shuffle_ratio < wc.shuffle_ratio / 5.0);
            let lc = logcount(tune);
            assert_eq!(lc.map_tasks, 500);
            assert!(lc.map_mi_per_mib < wc.map_mi_per_mib);
            let ts = terasort(tune);
            assert_eq!(ts.map_tasks, 168);
            assert!((ts.shuffle_ratio - 1.0).abs() < 1e-9);
        }
        // one container per vcore in the combined variants
        assert_eq!(wordcount2(Tune::Edison).map_tasks, 70);
        assert_eq!(wordcount2(Tune::Dell).map_tasks, 24);
        assert_eq!(pi(Tune::Edison).map_tasks, 70);
        assert_eq!(pi(Tune::Dell).map_tasks, 24);
    }

    #[test]
    fn table8_has_six_jobs() {
        let jobs = table8_jobs(Tune::Edison);
        let names: Vec<&str> = jobs.iter().map(|j| j.name).collect();
        assert_eq!(
            names,
            vec!["wordcount", "wordcount2", "logcount", "logcount2", "pi", "terasort"]
        );
    }
}
