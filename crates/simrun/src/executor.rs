//! The bounded, deterministic, fault-isolating sweep executor.
//!
//! Experiments above the kernel are grids of *independent* simulation
//! points (concurrency sweeps, the Table 8 job × cluster matrix). The
//! executor fans a slice of points over a bounded worker pool and
//! guarantees:
//!
//! * **Bounded parallelism** — at most [`Executor::jobs`] points run at
//!   once (default: available cores; `--jobs N` / `EDISON_REPRO_JOBS`
//!   override), instead of the old one-unbounded-thread-per-point fan-out.
//! * **Deterministic ordering** — results are returned in *input* order
//!   regardless of completion order or worker count, so a sweep's output
//!   is bit-identical for `jobs=1` and `jobs=8`.
//! * **Fault isolation** — a panicking point is caught with
//!   `catch_unwind` and surfaces as a typed failure for *that point only*;
//!   every other point still runs to completion.
//!
//! [`Executor::run`] gives the raw per-point results;
//! [`Executor::sweep`] adds the ergonomics the experiment layer wants:
//! per-point outcome counters into the [`Telemetry`] sink and conversion
//! of the first crashed point into [`RunError::PointFailed`].

use crate::error::RunError;
use edison_simtel::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`Executor::from_env`] for the
/// worker-pool width (same meaning as `repro --jobs N`).
pub const JOBS_ENV: &str = "EDISON_REPRO_JOBS";

/// A single point's caught panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointPanic {
    /// Input-order index of the crashed point.
    pub index: usize,
    /// The panic payload, rendered as text.
    pub cause: String,
}

/// The sweep executor: a worker pool of fixed width. Cheap to construct
/// and `Copy`-sized; threads live only for the duration of one `run`.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor running at most `jobs` points concurrently (clamped to
    /// at least 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// A single-worker executor: points run one at a time, in order.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// Pool width from `EDISON_REPRO_JOBS` if set to a positive integer,
    /// else the machine's available parallelism. Host-side configuration
    /// only — the width never influences simulation results (see the
    /// determinism guarantee on [`Executor::run`]).
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var(JOBS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Executor::new(n);
                }
            }
        }
        Executor::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The worker-pool width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` over every point, at most [`Self::jobs`] at a time, and
    /// return per-point results **in input order**. A panicking point
    /// yields `Err(PointPanic)` in its slot; all other points still run.
    ///
    /// `f` must be a pure function of `(index, point)` for the
    /// determinism guarantee to mean anything — in this workspace that
    /// holds because every simulation is a pure function of its config
    /// (which embeds a derived seed, see [`crate::derive_seed`]).
    pub fn run<I, T, F>(&self, points: &[I], f: F) -> Vec<Result<T, PointPanic>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.jobs.min(n);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, PointPanic>>> = (0..n).map(|_| None).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, Result<T, PointPanic>)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let out = catch_unwind(AssertUnwindSafe(|| f(i, &points[i])))
                                .map_err(|payload| PointPanic { index: i, cause: panic_text(payload.as_ref()) });
                            mine.push((i, out));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                // join() only fails if a worker panicked outside
                // catch_unwind; any points it claimed are synthesised as
                // failures below rather than tearing down the sweep.
                if let Ok(mine) = h.join() {
                    for (i, r) in mine {
                        slots[i] = Some(r);
                    }
                }
            }
        });

        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.unwrap_or_else(|| Err(PointPanic { index: i, cause: "worker thread lost".into() }))
            })
            .collect()
    }

    /// [`Self::run`], plus the experiment-layer conveniences: per-point
    /// outcome counters recorded into `tel` (metric
    /// `simrun_points_total{sweep,outcome}`), and conversion of failures
    /// into [`RunError::PointFailed`] naming the first crashed point via
    /// `label`. The whole sweep still executes before the error returns,
    /// so one bad point never cancels its siblings.
    pub fn sweep<I, T, F, L>(
        &self,
        name: &str,
        points: &[I],
        tel: &mut Telemetry,
        label: L,
        f: F,
    ) -> Result<Vec<T>, RunError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        L: Fn(usize, &I) -> String,
    {
        let results = self.run(points, f);
        let mut out = Vec::with_capacity(results.len());
        let mut first_failure: Option<RunError> = None;
        let mut ok: u64 = 0;
        let mut panicked: u64 = 0;
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => {
                    ok += 1;
                    out.push(v);
                }
                Err(p) => {
                    panicked += 1;
                    if first_failure.is_none() {
                        first_failure = Some(RunError::PointFailed {
                            point: format!("{name}/{}", label(i, &points[i])),
                            cause: p.cause,
                        });
                    }
                }
            }
        }
        tel.help("simrun_points_total", "Sweep points executed, by sweep name and outcome");
        if ok > 0 {
            tel.counter_add("simrun_points_total", &[("sweep", name), ("outcome", "ok")], ok);
        }
        if panicked > 0 {
            tel.counter_add("simrun_points_total", &[("sweep", name), ("outcome", "panicked")], panicked);
        }
        match first_failure {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl Default for Executor {
    /// Same as [`Executor::from_env`].
    fn default() -> Self {
        Executor::from_env()
    }
}

/// Render a panic payload as text: the common `&str` / `String` payloads
/// verbatim, anything else as a placeholder.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_width() {
        let points: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 8, 64] {
            let exec = Executor::new(jobs);
            let got = exec.run(&points, |i, &p| {
                assert_eq!(i, p);
                p * p
            });
            let vals: Vec<usize> = got.into_iter().map(|r| r.expect("ok")).collect();
            let want: Vec<usize> = points.iter().map(|p| p * p).collect();
            assert_eq!(vals, want, "jobs={jobs}");
        }
    }

    #[test]
    fn width_is_clamped_and_reported() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert_eq!(Executor::serial().jobs(), 1);
        assert_eq!(Executor::new(5).jobs(), 5);
    }

    #[test]
    fn panicking_point_is_isolated() {
        let points: Vec<u32> = (0..8).collect();
        let exec = Executor::new(4);
        let got = exec.run(&points, |_, &p| {
            if p == 3 {
                panic!("deliberate failure at {p}");
            }
            p + 100
        });
        for (i, r) in got.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("point 3 must fail");
                assert_eq!(e.index, 3);
                assert!(e.cause.contains("deliberate failure at 3"), "cause: {}", e.cause);
            } else {
                assert_eq!(*r.as_ref().expect("other points complete"), i as u32 + 100);
            }
        }
    }

    #[test]
    fn sweep_reports_first_failure_and_counts_outcomes() {
        let points: Vec<u32> = (0..6).collect();
        let exec = Executor::new(3);
        let mut tel = Telemetry::on();
        let err = exec
            .sweep("demo", &points, &mut tel, |i, _| format!("p{i}"), |_, &p| {
                if p == 2 || p == 4 {
                    panic!("boom {p}");
                }
                p
            })
            .expect_err("sweep must fail");
        match err {
            RunError::PointFailed { point, cause } => {
                assert_eq!(point, "demo/p2");
                assert!(cause.contains("boom 2"));
            }
            other => panic!("wrong error {other:?}"),
        }
        let prom = tel.prometheus_text();
        assert!(prom.contains("simrun_points_total"), "{prom}");
        assert!(prom.contains("outcome=\"ok\"") && prom.contains("4"), "{prom}");
        assert!(prom.contains("outcome=\"panicked\"") && prom.contains("2"), "{prom}");
    }

    #[test]
    fn sweep_ok_path_returns_all_points() {
        let points: Vec<u32> = (0..5).collect();
        let got = Executor::new(2)
            .sweep("ok", &points, &mut Telemetry::off(), |i, _| format!("{i}"), |_, &p| p * 2)
            .expect("all points fine");
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let points: Vec<u32> = Vec::new();
        let got = Executor::new(4).run(&points, |_, &p| p);
        assert!(got.is_empty());
    }

    #[test]
    fn from_env_honours_the_variable() {
        std::env::set_var(JOBS_ENV, "3");
        assert_eq!(Executor::from_env().jobs(), 3);
        std::env::set_var(JOBS_ENV, "not-a-number");
        assert!(Executor::from_env().jobs() >= 1);
        std::env::remove_var(JOBS_ENV);
        assert!(Executor::from_env().jobs() >= 1);
    }
}
