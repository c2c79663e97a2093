//! `perfbench compare PARENT CHANGE`: judge a change against its parent
//! from two sets of run records (the JSON lines `--json PATH` appends).
//!
//! For each workload and end-to-end metric, with the run medians of each
//! side as the samples:
//!
//! * **unresolved** — the parent's own spread (quartile distance over
//!   median) exceeds the metric's bound, unless every change run beats
//!   every parent run;
//! * **REGRESSION** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **gain** — the change wins at least 9 of every 10 pairs (runs paired
//!   in file order, ties counting for neither side) and the medians differ
//!   by more than the parent's quartile distance;
//! * **ok** — none of these: no worse than the bound allows.
//!
//! A workload whose change runs fail more points than its parent runs, or
//! whose output digest differs at a seed both sides ran, is flagged too.

use crate::json::{self, Json};
use crate::measure::{summarize, Summary};
use crate::spec::{self, Better, Metric};
use std::collections::BTreeMap;

/// One run record.
#[derive(Debug, Clone)]
struct Record {
    workload: String,
    seed: u64,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn read(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue; // traced runs carry per-layer numbers, not end-to-end ones
        }
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{path}:{}: no \"{k}\"", n + 1))
        };
        let metrics = field("metrics")?
            .entries()
            .iter()
            .filter_map(|(k, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (k.clone(), x))
            })
            .collect();
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or_default() as u64,
            failed: field("failed")?.as_f64().unwrap_or_default() as u64,
            digest: field("digest")?.as_str().unwrap_or_default().to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub parent: Summary,
    pub change: Summary,
    /// Signed relative change, positive when the change is worse.
    pub worse_by: f64,
    pub wins: usize,
    pub pairs: usize,
    pub label: &'static str,
}

/// Judge `change` against `parent` on `metric` (see the module docs).
pub fn judge(metric: &Metric, parent: &[f64], change: &[f64]) -> Verdict {
    let (sp, sc) = (summarize(parent), summarize(change));
    let better = |a: f64, b: f64| match metric.better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let worse_by = match metric.better {
        Better::Higher => (sp.median - sc.median) / sp.median,
        Better::Lower => (sc.median - sp.median) / sp.median,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let bound = metric.bound.unwrap_or(0.0);
    let iqr = sp.p75 - sp.p25;
    let label = if iqr / sp.median > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "REGRESSION"
    } else if pairs > 0
        && wins * 10 >= pairs * 9
        && worse_by < 0.0
        && (sc.median - sp.median).abs() > iqr
    {
        "gain"
    } else {
        "ok"
    };
    Verdict {
        parent: sp,
        change: sc,
        worse_by,
        wins,
        pairs,
        label,
    }
}

/// Compare the run sets in two files; returns whether the change passes
/// (no regression, no new failures, no changed digest).
pub fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let parent = read(parent_path)?;
    let change = read(change_path)?;
    let metrics = spec::end_to_end();
    let mut pass = true;
    println!(
        "{:<14} metric: parent median -> change median (change, wins/pairs) verdict",
        "workload"
    );
    for (workload, _) in spec::WORKLOADS {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == workload).collect();
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let mut cells = Vec::new();
        for m in &metrics {
            let values = |rs: &[&Record]| {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect::<Vec<_>>()
            };
            let v = judge(m, &values(&p), &values(&c));
            pass &= v.label != "REGRESSION";
            cells.push(format!(
                "{}: {:.6} -> {:.6} {} ({:+.1}%, {}/{}) {}",
                m.name,
                v.parent.median,
                v.change.median,
                m.unit,
                100.0 * (v.change.median / v.parent.median - 1.0),
                v.wins,
                v.pairs,
                v.label
            ));
        }
        let failed = |rs: &[&Record]| rs.iter().map(|r| r.failed).sum::<u64>();
        if failed(&c) > failed(&p) {
            pass = false;
            cells.push(format!("FAILURES UP: {} -> {}", failed(&p), failed(&c)));
        }
        let changed: Vec<u64> = c
            .iter()
            .filter(|rc| {
                p.iter()
                    .any(|rp| rp.seed == rc.seed && rp.digest != rc.digest)
            })
            .map(|r| r.seed)
            .collect();
        if !changed.is_empty() {
            pass = false;
            cells.push(format!("DIGEST CHANGED at seeds {changed:?}"));
        }
        println!("{workload:<14} {}", cells.join(" | "));
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A higher-is-better metric with a 10% bound.
    fn rate() -> Metric {
        Metric {
            name: "rate".into(),
            unit: "s/s",
            better: Better::Higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.2,
        ];
        let change: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&rate(), &parent, &change).label, "gain");
    }

    #[test]
    fn a_drop_beyond_the_bound_is_a_regression() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.85).collect();
        let v = judge(&rate(), &parent, &change);
        assert_eq!(v.label, "REGRESSION");
        assert!((v.worse_by - 0.15).abs() < 1e-9);
    }

    #[test]
    fn noise_within_the_bound_is_ok_and_a_noisy_parent_is_unresolved() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let change = [100.2, 100.8, 99.1, 100.0, 99.9];
        assert_eq!(judge(&rate(), &parent, &change).label, "ok");
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
        assert_eq!(judge(&rate(), &noisy, &change).label, "unresolved");
    }
}
