//! Timed passes over a workload's points, output checks, and the
//! statistics the benchmark reports.
//!
//! One pass runs every point once, one after another on this thread (a
//! closed loop with a single client). It first times every point's public
//! constructors (set-up), then every point's entry-point call alone (run);
//! cloning inputs, digesting outputs and dropping them stay outside both
//! timers.

use crate::alloc;
use crate::workloads::{Outcome, Point};
use std::time::{Duration, Instant};

/// Attempted and failed point runs, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one point run. It fails when it returned an error, when its
    /// output checks failed, or when its digest differs from `reference`
    /// (the point's warm-up digest; `None` while taking that digest).
    /// Returns the outcome whenever the run produced one.
    pub fn record(
        &mut self,
        what: &str,
        result: Result<Outcome, String>,
        reference: Option<u64>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let problem = match &result {
            Err(e) => Some(e.clone()),
            Ok(o) if !o.problems.is_empty() => Some(o.problems.join("; ")),
            Ok(o) if reference.is_some_and(|r| r != o.digest) => Some(format!(
                "digest {:016x} differs from the warm-up pass",
                o.digest
            )),
            Ok(_) => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{what}: {p}"));
            }
        }
        result.ok()
    }
}

/// One point's host time within a pass, and the simulated seconds its
/// run covered (0 when it failed).
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTimes {
    pub setup: Duration,
    pub run: Duration,
    pub check: Duration,
    pub sim_s: f64,
}

/// One untraced pass: per-point times, the allocations made inside the
/// entry-point calls, and the most heap any one call held live beyond
/// what was live when it started.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub points: Vec<PointTimes>,
    pub allocs: alloc::Counts,
    pub peak_heap_bytes: u64,
}

impl Pass {
    pub fn sim_s(&self) -> f64 {
        self.points.iter().map(|p| p.sim_s).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.setup)
            .sum::<Duration>()
            .as_secs_f64()
    }

    pub fn run_s(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.run)
            .sum::<Duration>()
            .as_secs_f64()
    }
}

/// The warm-up pass: runs every point once and returns its outcomes,
/// whose digests the later passes must reproduce.
pub fn warm_up(points: &[Point], tally: &mut Tally) -> Vec<Option<Outcome>> {
    points
        .iter()
        .map(|p| {
            let result = p
                .prepare()
                .and_then(|prep| prep.run())
                .map(|out| p.outcome(&out));
            tally.record(&format!("{} (warm-up)", p.label()), result, None)
        })
        .collect()
}

/// The reference digest of each point, from its warm-up outcome.
pub fn digests(reference: &[Option<Outcome>]) -> Vec<Option<u64>> {
    reference
        .iter()
        .map(|o| o.as_ref().map(|o| o.digest))
        .collect()
}

/// One timed, telemetry-off pass over every point.
pub fn pass(points: &[Point], reference: &[Option<u64>], tally: &mut Tally) -> Pass {
    let mut pass = Pass {
        points: vec![PointTimes::default(); points.len()],
        ..Pass::default()
    };
    let setups: Vec<Result<(), String>> = points
        .iter()
        .zip(&mut pass.points)
        .map(|(p, times)| {
            let t = Instant::now();
            let result = p.setup();
            times.setup = t.elapsed();
            result
        })
        .collect();
    for ((p, &want), (setup, times)) in points
        .iter()
        .zip(reference)
        .zip(setups.into_iter().zip(&mut pass.points))
    {
        let result = setup.and_then(|()| p.prepare()).and_then(|prep| {
            let before = alloc::counts();
            let base = alloc::live_bytes();
            alloc::reset_peak();
            let t = Instant::now();
            let out = prep.run();
            times.run = t.elapsed();
            let made = alloc::counts().since(before);
            pass.allocs.allocs += made.allocs;
            pass.allocs.bytes += made.bytes;
            pass.peak_heap_bytes = pass
                .peak_heap_bytes
                .max(alloc::peak_live_bytes().saturating_sub(base));
            out
        });
        let t = Instant::now();
        let outcome = result.map(|out| p.outcome(&out));
        if let Some(o) = tally.record(&p.label(), outcome, want) {
            times.sim_s = o.sim_s;
        }
        times.check = t.elapsed();
    }
    pass
}

/// Per point, its fastest `time` over `passes`, summed over the points,
/// in seconds. The simulation is deterministic, so every pass of a point
/// does the same work; other load on a shared host only ever adds time,
/// and the fastest observation is the steadiest estimate of the work's
/// cost (the minimum estimator of Chen & Revels, "Robust benchmarking in
/// noisy environments", 2016).
pub fn fastest_s(passes: &[Pass], time: impl Fn(&PointTimes) -> Duration) -> f64 {
    let points = passes.first().map_or(0, |p| p.points.len());
    (0..points)
        .map(|i| {
            passes
                .iter()
                .map(|p| time(&p.points[i]))
                .min()
                .unwrap_or_default()
        })
        .sum::<Duration>()
        .as_secs_f64()
}

/// Simulated seconds per host second, from each point's fastest run.
pub fn best_rate(passes: &[Pass]) -> f64 {
    passes.first().map_or(f64::NAN, Pass::sim_s) / fastest_s(passes, |t| t.run)
}

/// The fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Timed passes until `seconds` have elapsed (at least [`MIN_PASSES`]).
pub fn timed_passes(
    points: &[Point],
    reference: &[Option<u64>],
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(points, reference, tally));
    }
    passes
}

/// Median and quartiles of a sample, computed as Python's
/// `statistics.median` and `statistics.quantiles(n=4)` compute them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => Summary {
            median: f64::NAN,
            p25: f64::NAN,
            p75: f64::NAN,
            n,
        },
        1 => Summary {
            median: v[0],
            p25: v[0],
            p75: v[0],
            n,
        },
        _ => {
            let median = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            // the "exclusive" method: positions i * (n + 1) / 4
            let quartile = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                median,
                p25: quartile(1),
                p75: quartile(3),
                n,
            }
        }
    }
}

/// The most heap any entry-point call of `passes` held live beyond what
/// was live when it started, MiB: the simulator's own peak, exact, so it
/// repeats for a given seed.
pub fn peak_heap_mb(passes: &[Pass]) -> f64 {
    let bytes = passes
        .iter()
        .map(|p| p.peak_heap_bytes)
        .max()
        .unwrap_or_default();
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.p25, s.median, s.p75), (4.0, 4.0, 4.0));
    }

    #[test]
    fn best_rate_takes_each_points_fastest_run() {
        let t = |run_ms: u64, sim_s: f64| PointTimes {
            run: Duration::from_millis(run_ms),
            sim_s,
            ..PointTimes::default()
        };
        let passes = [
            Pass {
                points: vec![t(100, 10.0), t(400, 20.0)],
                ..Pass::default()
            },
            Pass {
                points: vec![t(200, 10.0), t(300, 20.0)],
                ..Pass::default()
            },
        ];
        // (10 + 20) s simulated over (0.1 + 0.3) s of host time
        assert!((best_rate(&passes) - 75.0).abs() < 1e-9);
        assert!(best_rate(&[]).is_nan());
    }

    #[test]
    fn tally_counts_errors_problems_and_digest_changes() {
        let mut t = Tally::default();
        let ok = Outcome {
            digest: 7,
            ..Outcome::default()
        };
        assert!(t.record("a", Ok(ok.clone()), Some(7)).is_some());
        t.record("b", Ok(ok.clone()), Some(8));
        t.record("c", Err("boom".into()), Some(7));
        t.record(
            "d",
            Ok(Outcome {
                problems: vec!["bad".into()],
                ..ok
            }),
            None,
        );
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.messages.len(), 3);
    }
}
