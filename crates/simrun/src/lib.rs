//! # edison-simrun
//!
//! The deterministic, fault-isolating parallel run layer.
//!
//! The paper's evaluation is a grid of independent simulation points —
//! concurrency sweeps for Figures 4–11, the 6-job × 6-cluster-size
//! Table 8 matrix — and every layer above the kernel used to hand-roll
//! its own thread fan-out, share one magic seed, and abort the whole
//! sweep when any point panicked. This crate promotes that ad-hoc code
//! into a real subsystem with three parts:
//!
//! * [`Executor`] — a bounded worker-pool sweep executor with
//!   deterministic result ordering (input order, regardless of worker
//!   count or completion order) and `catch_unwind` panic isolation.
//!   Configure the width with `repro --jobs N` or the
//!   [`JOBS_ENV`] environment variable; default is available cores.
//! * [`derive_seed`] — splitmix64-based per-point seed derivation from
//!   `(root, stream, index)`, replacing the one shared constant so every
//!   sweep point is independently reproducible.
//! * [`RunError`] / [`SimError`] — the structured error taxonomy threaded
//!   through `web`, `mapreduce` and `core`; a crashed point becomes
//!   [`RunError::PointFailed`] instead of tearing down the process, and
//!   the `repro` binary maps each class to a distinct exit code.
//!
//! Per-point outcome counters flow into the existing `simtel` sink as
//! `simrun_points_total{sweep,outcome}` (see [`Executor::sweep`]).
//! Because results come back in input order, folding per-point engine
//! profiles with `EngineProfile::merge` in that order gives merged
//! simprof output that is independent of `--jobs`.

pub mod error;
pub mod executor;
pub mod seed;

pub use error::{RunError, SimError};
pub use executor::{Executor, PointPanic, JOBS_ENV};
pub use seed::{derive_seed, derive_seed_at, ROOT_SEED};
