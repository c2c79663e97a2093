//! # edison-bench
//!
//! The benchmark harness: criterion benches under `benches/`, plus the
//! simprof-backed throughput trajectory.
//!
//! * [`workloads`] — the five tracked, fixed-seed workloads ([`TRACKED`]:
//!   web sweep, MapReduce wordcount, fault sweep, explore neighbourhood,
//!   guarded overload)
//!   whose [`edison_simcore::EngineProfile`]s are the deterministic half
//!   of the trajectory.
//! * [`schema`] — the canonical `edison-bench/1` form of
//!   `BENCH_0014.json` (deterministic vs advisory sections, sorted keys,
//!   byte-stable round-trip).
//! * [`gate`] — the ±10% regression ratchet tier-1 runs against the
//!   committed trajectory (`cargo bench-gate`, `tests/bench_gate.rs`).
//! * [`alloc`] — a counting global allocator binaries opt into so the
//!   harness can report allocations per engine event.

pub mod alloc;
pub mod gate;
pub mod schema;
pub mod workloads;

pub use alloc::{alloc_counts, AllocCounts, CountingAlloc};
pub use gate::{check, find_workspace_root, GateOutcome, TOLERANCE, TRAJECTORY_FILE};
pub use schema::{Trajectory, WorkloadRecord, SCHEMA};
pub use workloads::{run_tracked, TRACKED};

use edison_simcore::EngineProfile;
use edison_simrun::error::SimError;

/// Measure every tracked workload and fill the *deterministic* fields of
/// a [`Trajectory`]; advisory fields are zeroed for the harness (binary /
/// bench) to overwrite with wall-clock context.
pub fn deterministic_trajectory() -> Result<Trajectory, SimError> {
    let mut t = Trajectory::default();
    for name in TRACKED {
        let p = run_tracked(name)?;
        t.workloads.insert(name.to_string(), record_from(&p));
    }
    Ok(t)
}

/// The deterministic half of one workload's record.
pub fn record_from(profile: &EngineProfile) -> WorkloadRecord {
    WorkloadRecord {
        events: profile.events(),
        heap_pushes: profile.heap_pushes,
        sim_seconds: profile.sim_seconds(),
        ..WorkloadRecord::default()
    }
}
