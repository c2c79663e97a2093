//! # edison-bench
//!
//! The simprof-backed benchmark trajectory: the engine event counts of
//! five fixed-seed workloads, committed as `BENCH_0018.json` and held
//! byte for byte equal to a fresh render (`cargo bench-gate`,
//! `tests/bench_gate.rs`). Host-time measurement lives in `perfbench/`.
//!
//! * [`workloads`] — the five tracked, fixed-seed workloads ([`TRACKED`]:
//!   web sweep, MapReduce wordcount, fault sweep, explore neighbourhood,
//!   guarded overload) whose [`edison_simcore::EngineProfile`]s the
//!   trajectory records.
//! * [`schema`] — the canonical `edison-bench/2` rendering
//!   ([`render_trajectory`]: events, heap pushes and simulated seconds
//!   per workload, sorted keys) and the line diff the gate reports.
//! * [`alloc`] — a counting global allocator that test binaries opt into
//!   to pin allocations per engine event.

pub mod alloc;
pub mod schema;
pub mod workloads;

pub use alloc::{alloc_counts, AllocCounts, CountingAlloc};
pub use schema::{differing_lines, render_trajectory, TRAJECTORY_FILE};
pub use workloads::{run_tracked, TRACKED};
