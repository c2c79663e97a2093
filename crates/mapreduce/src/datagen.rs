//! Synthetic input generators standing in for the paper's datasets.
//!
//! | paper input | generator | notes |
//! |---|---|---|
//! | 200 text files, 1 GB total (wordcount) | [`corpus_file`] | Zipf-distributed vocabulary, ~6-char words |
//! | 500 YARN/Hadoop log files, 1 GB (logcount) | [`log_file`] | `date level message` lines; key = (date, level) |
//! | 10 GB teragen records (terasort) | [`teragen_records`] | 100-byte records, 10-byte random keys |
//!
//! Tests generate *real bytes* at reduced scale and run the executable jobs
//! on them; the paper-scale experiments use the same generators'
//! statistical profiles (records/byte, key cardinality) without
//! materialising gigabytes.

use edison_simcore::rng::{zipf_cumulative, SimRng};

/// Vocabulary size of the synthetic corpus.
pub const VOCABULARY: usize = 50_000;
/// Zipf exponent for word frequencies (natural-language-like).
pub const ZIPF_S: f64 = 1.07;

/// Mean bytes per corpus word including the separator (measured property of
/// the generator; used by the profile maths). Words are 3–4 letters (base-26
/// spellings with a 3-letter floor) and Zipf mass concentrates on the short
/// ranks.
pub const MEAN_WORD_BYTES: f64 = 4.2;

/// Generate one corpus file of ≈`bytes` bytes of space-separated words with
/// newlines every ~80 columns.
pub fn corpus_file(bytes: usize, rng: &mut SimRng) -> String {
    let cum = zipf_cumulative(VOCABULARY, ZIPF_S);
    let mut out = String::with_capacity(bytes + 16);
    let mut col = 0;
    while out.len() < bytes {
        let rank = rng.zipf(VOCABULARY, ZIPF_S, &cum);
        let w = word_for_rank(rank);
        out.push_str(&w);
        col += w.len() + 1;
        if col >= 80 {
            out.push('\n');
            col = 0;
        } else {
            out.push(' ');
        }
    }
    out
}

/// Deterministic word spelling for a vocabulary rank (base-26 with a
/// length floor so words average ~6 chars).
pub fn word_for_rank(rank: usize) -> String {
    const LETTERS: &[u8; 26] = b"abcdefghijklmnopqrstuvwxyz";
    let mut n = rank + 26 * 26; // floor: at least 3 letters
    let mut s = Vec::new();
    while n > 0 {
        s.push(char::from(LETTERS[n % 26]));
        n /= 26;
    }
    s.iter().rev().collect()
}

/// Log levels in their approximate YARN frequency order.
pub const LOG_LEVELS: [&str; 4] = ["INFO", "WARN", "DEBUG", "ERROR"];
/// Distinct dates in the synthetic logs.
pub const LOG_DATES: usize = 30;

/// Generate one log file of ≈`bytes` bytes of `date level message` lines
/// (the logcount job keys on the `(date, level)` pair).
pub fn log_file(bytes: usize, rng: &mut SimRng) -> String {
    let mut out = String::with_capacity(bytes + 64);
    while out.len() < bytes {
        let day = rng.below(LOG_DATES as u64) + 1;
        let level = LOG_LEVELS[rng.weighted(&[0.80, 0.10, 0.07, 0.03])];
        let task = rng.below(10_000);
        out.push_str(&format!(
            "2016-02-{day:02} 12:{:02}:{:02} {level} org.apache.hadoop.yarn task_{task} progress update\n",
            rng.below(60),
            rng.below(60),
        ));
    }
    out
}

/// Bytes per teragen record (fixed by the TeraSort format).
pub const TERA_RECORD_BYTES: usize = 100;
/// Key bytes at the front of each record.
pub const TERA_KEY_BYTES: usize = 10;

/// Generate `n` teragen records (10-byte random key + 90-byte payload).
pub fn teragen_records(n: usize, rng: &mut SimRng) -> Vec<[u8; TERA_RECORD_BYTES]> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut rec = [0u8; TERA_RECORD_BYTES];
        #[expect(clippy::cast_possible_truncation, reason = "32 + below(95) is printable ASCII")]
        for b in rec.iter_mut().take(TERA_KEY_BYTES) {
            *b = (rng.below(95) + 32) as u8; // printable
        }
        // payload: row id then filler, as teragen does
        let id = format!("{i:010}");
        rec[TERA_KEY_BYTES..TERA_KEY_BYTES + 10].copy_from_slice(id.as_bytes());
        for b in rec.iter_mut().skip(TERA_KEY_BYTES + 10) {
            *b = b'A';
        }
        out.push(rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_requested_size_and_ascii_words() {
        let mut rng = SimRng::new(1);
        let f = corpus_file(10_000, &mut rng);
        assert!(f.len() >= 10_000 && f.len() < 10_100);
        assert!(f.split_whitespace().all(|w| w.bytes().all(|b| b.is_ascii_lowercase())));
    }

    #[test]
    fn corpus_word_frequencies_are_skewed() {
        let mut rng = SimRng::new(2);
        let f = corpus_file(100_000, &mut rng);
        let mut counts = std::collections::HashMap::new();
        for w in f.split_whitespace() {
            *counts.entry(w).or_insert(0u32) += 1;
        }
        let total: u32 = counts.values().sum();
        let max = *counts.values().max().unwrap();
        // the top word should take a few percent of all tokens under Zipf
        assert!(max as f64 / total as f64 > 0.02, "max {max} of {total}");
        // and the vocabulary seen should be far below token count
        assert!(counts.len() < total as usize / 2);
    }

    #[test]
    fn mean_word_bytes_matches_constant() {
        let mut rng = SimRng::new(3);
        let f = corpus_file(200_000, &mut rng);
        let words = f.split_whitespace().count();
        let mean = f.len() as f64 / words as f64;
        assert!((mean - MEAN_WORD_BYTES).abs() < 0.8, "mean {mean}");
    }

    #[test]
    fn log_lines_parse_and_use_known_levels() {
        let mut rng = SimRng::new(4);
        let f = log_file(20_000, &mut rng);
        for line in f.lines() {
            let mut parts = line.split_whitespace();
            let date = parts.next().unwrap();
            let _time = parts.next().unwrap();
            let level = parts.next().unwrap();
            assert!(date.starts_with("2016-02-"));
            assert!(LOG_LEVELS.contains(&level), "level {level}");
        }
    }

    #[test]
    fn log_key_cardinality_is_tiny() {
        // the whole point of logcount: few distinct (date, level) keys.
        let mut rng = SimRng::new(5);
        let f = log_file(100_000, &mut rng);
        let keys: std::collections::HashSet<(String, String)> = f
            .lines()
            .map(|l| {
                let mut p = l.split_whitespace();
                let d = p.next().unwrap().to_string();
                p.next();
                let lv = p.next().unwrap().to_string();
                (d, lv)
            })
            .collect();
        assert!(keys.len() <= LOG_DATES * LOG_LEVELS.len());
        assert!(keys.len() >= 30);
    }

    #[test]
    fn teragen_records_have_format() {
        let mut rng = SimRng::new(6);
        let recs = teragen_records(100, &mut rng);
        assert_eq!(recs.len(), 100);
        for (i, r) in recs.iter().enumerate() {
            assert!(r[..TERA_KEY_BYTES].iter().all(|&b| (32..127).contains(&b)));
            let id: usize = std::str::from_utf8(&r[10..20]).unwrap().parse().unwrap();
            assert_eq!(id, i);
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        assert_eq!(corpus_file(5_000, &mut a), corpus_file(5_000, &mut b));
    }
}
