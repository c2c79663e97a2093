//! Tier-1 benchmark-trajectory gate: the committed trajectory file
//! (`BENCH_0018.json`, named by `edison_bench::TRAJECTORY_FILE`) must
//! equal, byte for byte, a fresh render of every tracked workload.
//!
//! This is the same comparison `cargo bench-gate` makes, wired into
//! `cargo test` so any change in engine event counts, heap pushes or
//! simulated seconds cannot land without a refreshed trajectory.

use edison_bench::{differing_lines, render_trajectory, TRAJECTORY_FILE};
use std::path::Path;

/// The gate: a fresh render of the tracked workloads equals the committed
/// file exactly; any drift in a count fails with the workload and field.
#[test]
fn fresh_run_stays_within_committed_trajectory() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(TRAJECTORY_FILE);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {TRAJECTORY_FILE} at the workspace root: {e}"));
    let fresh = render_trajectory().expect("tracked workloads run");
    assert!(
        committed == fresh,
        "{TRAJECTORY_FILE} differs from a fresh render:\n{}\n\
         if the change is intended, refresh with `cargo bench-gate -- update`",
        differing_lines(&committed, &fresh).join("\n")
    );
}
