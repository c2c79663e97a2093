//! The benchmark regression gate.
//!
//! Compares a freshly measured [`Trajectory`] against the committed
//! `BENCH_0014.json`, looking only at the `deterministic` sections. The
//! committed file is a ratchet. Engine-cost growth beyond [`TOLERANCE`] fails tier-1, and an
//! *improvement* beyond the same tolerance also fails until the
//! trajectory is refreshed (`cargo bench-gate -- update`) in the same
//! commit — so wins are locked in, not silently eroded later.
//!
//! Wall-clock (`advisory`) numbers never gate: they vary by machine and
//! would make CI flaky. They are refreshed on `update` as human context.

use crate::schema::Trajectory;
use std::path::{Path, PathBuf};

/// Committed trajectory file at the workspace root.
pub const TRAJECTORY_FILE: &str = "BENCH_0014.json";

/// Relative drift allowed on gated metrics before the gate fails.
pub const TOLERANCE: f64 = 0.10;

/// Result of a gate run: hard failures plus informational drift notes.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Violations that must fail the build.
    pub failures: Vec<String>,
    /// In-tolerance drift worth a human glance.
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no gated metric regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare one gated metric; returns `Some(relative drift)` when parseable.
fn drift(committed: f64, fresh: f64) -> f64 {
    if committed == 0.0 {
        if fresh == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        fresh / committed - 1.0
    }
}

/// Gate `fresh` against `committed` (deterministic sections only).
pub fn check(committed: &Trajectory, fresh: &Trajectory) -> GateOutcome {
    let mut out = GateOutcome::default();
    for (name, c) in &committed.workloads {
        let Some(f) = fresh.workloads.get(name) else {
            out.failures.push(format!("{name}: tracked workload missing from fresh run"));
            continue;
        };
        let gated: [(&str, f64, f64); 3] = [
            ("events", c.events as f64, f.events as f64),
            ("heap_pushes", c.heap_pushes as f64, f.heap_pushes as f64),
            ("sim_seconds", c.sim_seconds, f.sim_seconds),
        ];
        for (metric, cv, fv) in gated {
            let d = drift(cv, fv);
            if d.abs() > TOLERANCE {
                let direction = if d > 0.0 { "regressed" } else { "improved" };
                out.failures.push(format!(
                    "{name}/{metric}: {direction} {:+.1}% (committed {cv}, fresh {fv}) — \
                     beyond ±{:.0}%; refresh with `cargo bench-gate -- update`",
                    d * 100.0,
                    TOLERANCE * 100.0
                ));
            } else if d != 0.0 {
                out.notes.push(format!(
                    "{name}/{metric}: drift {:+.2}% (committed {cv}, fresh {fv})",
                    d * 100.0
                ));
            }
        }
    }
    for name in fresh.workloads.keys() {
        if !committed.workloads.contains_key(name) {
            out.failures.push(format!(
                "{name}: new tracked workload not in {TRAJECTORY_FILE}; \
                 add it with `cargo bench-gate -- update`"
            ));
        }
    }
    out
}

/// Locate the workspace root (the ancestor whose `Cargo.toml` declares
/// `[workspace]`), starting from `from`.
pub fn find_workspace_root(from: &Path) -> Option<PathBuf> {
    from.ancestors().find_map(|dir| {
        let manifest = dir.join("Cargo.toml");
        match std::fs::read_to_string(&manifest) {
            Ok(text) if text.contains("[workspace]") => Some(dir.to_path_buf()),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::WorkloadRecord;

    fn traj(events: u64, pushes: u64, sim_s: f64) -> Trajectory {
        let mut t = Trajectory::default();
        t.workloads.insert(
            "w".into(),
            WorkloadRecord { events, heap_pushes: pushes, sim_seconds: sim_s, ..Default::default() },
        );
        t
    }

    #[test]
    fn identical_passes_clean() {
        let out = check(&traj(1000, 1100, 8.0), &traj(1000, 1100, 8.0));
        assert!(out.passed());
        assert!(out.notes.is_empty());
    }

    #[test]
    fn small_drift_notes_but_passes() {
        let out = check(&traj(1000, 1100, 8.0), &traj(1050, 1100, 8.0));
        assert!(out.passed());
        assert_eq!(out.notes.len(), 1);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let out = check(&traj(1000, 1100, 8.0), &traj(1200, 1100, 8.0));
        assert!(!out.passed());
        assert!(out.failures[0].contains("regressed"));
    }

    #[test]
    fn big_improvement_requires_refresh() {
        let out = check(&traj(1000, 1100, 8.0), &traj(800, 1100, 8.0));
        assert!(!out.passed(), "ratchet: wins must be committed");
        assert!(out.failures[0].contains("improved"));
    }

    #[test]
    fn workload_set_mismatch_fails_both_ways() {
        let empty = Trajectory::default();
        assert!(!check(&traj(1, 1, 1.0), &empty).passed());
        assert!(!check(&empty, &traj(1, 1, 1.0)).passed());
    }

    #[test]
    fn advisory_fields_never_gate() {
        let committed = traj(1000, 1100, 8.0);
        let mut fresh = traj(1000, 1100, 8.0);
        if let Some(r) = fresh.workloads.get_mut("w") {
            r.events_per_sec = 1.0; // wildly different machine speed
            r.allocs_per_event = 99.0;
        }
        assert!(check(&committed, &fresh).passed());
    }

    #[test]
    fn workspace_root_found_from_here() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        assert!(root.join("Cargo.toml").exists());
    }
}
