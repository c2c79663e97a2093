//! Tier-1 benchmark-trajectory gate: the committed trajectory file
//! (`BENCH_0014.json`, named by `edison_bench::TRAJECTORY_FILE`) must
//! parse, be byte-canonical, and agree (within the ±10% ratchet
//! tolerance) with a fresh run of every tracked workload.
//!
//! This is the same comparison `cargo bench-gate` makes, wired into
//! `cargo test` so a perf regression — or an uncommitted improvement —
//! cannot land silently. Only the `deterministic` sections gate; the
//! advisory wall-clock rates in the committed file are machine context
//! and are deliberately ignored here.

use edison_bench::{check, deterministic_trajectory, find_workspace_root};
use edison_bench::{Trajectory, SCHEMA, TRACKED, TRAJECTORY_FILE};
use std::path::Path;

fn committed_text() -> String {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    std::fs::read_to_string(root.join(TRAJECTORY_FILE))
        .unwrap_or_else(|e| panic!("committed {TRAJECTORY_FILE} at the workspace root: {e}"))
}

/// The committed file is canonical `edison-bench/1`: parse → re-serialize
/// reproduces it byte-for-byte (golden byte-stability of the schema).
#[test]
fn committed_trajectory_is_canonical_bytes() {
    let text = committed_text();
    assert!(text.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    let parsed = Trajectory::parse(&text).expect("committed trajectory parses");
    assert_eq!(parsed.to_json(), text, "{TRAJECTORY_FILE} must round-trip byte-identically");
}

/// Every tracked workload appears in the committed trajectory, and no
/// deterministic field holds a wall-clock-shaped value: simulated seconds
/// are bounded by the workload definitions, not by machine speed.
#[test]
fn committed_trajectory_covers_tracked_workloads() {
    let parsed = Trajectory::parse(&committed_text()).expect("parses");
    let names: Vec<&str> = parsed.workloads.keys().map(String::as_str).collect();
    assert_eq!(names, TRACKED, "tracked workload set drifted from the trajectory");
    for (name, r) in &parsed.workloads {
        assert!(r.events > 0, "{name}: empty profile committed");
        assert!(r.heap_pushes >= r.events, "{name}: pops cannot exceed pushes");
        assert!(
            r.sim_seconds > 0.0 && r.sim_seconds < 86_400.0,
            "{name}: implausible simulated window {}",
            r.sim_seconds
        );
    }
}

/// The regression gate itself: fresh deterministic metrics vs committed,
/// within tolerance. Deterministic workloads should match *exactly*; the
/// ±10% band only exists so intentional engine changes fail loudly with a
/// refresh instruction instead of drifting.
#[test]
fn fresh_run_stays_within_committed_trajectory() {
    let committed = Trajectory::parse(&committed_text()).expect("parses");
    let fresh = deterministic_trajectory().expect("tracked workloads run");
    let outcome = check(&committed, &fresh);
    assert!(
        outcome.passed(),
        "benchmark trajectory gate failed:\n{}",
        outcome.failures.join("\n")
    );
}
