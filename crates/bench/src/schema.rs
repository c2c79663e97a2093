//! The `edison-bench/2` trajectory file format.
//!
//! `BENCH_0018.json` at the workspace root is the committed benchmark
//! trajectory: one record per tracked workload holding its engine event
//! count, heap pushes and simulated seconds. Each is a pure function of
//! the workload constants, bit-identical on every machine, so the gate is
//! string equality between the committed file and a fresh
//! [`render_trajectory`]. **No wall-clock value may ever appear here.**
//!
//! The rendering is canonical: keys sorted, two-space indent, floats in
//! Rust's shortest-roundtrip `{}` form, trailing newline.

use crate::workloads::{run_tracked, TRACKED};
use edison_simrun::error::SimError;

/// Schema tag, bumped on any layout change.
pub const SCHEMA: &str = "edison-bench/2";

/// Committed trajectory file at the workspace root.
pub const TRAJECTORY_FILE: &str = "BENCH_0018.json";

/// Run every [`TRACKED`] workload and render the canonical trajectory.
pub fn render_trajectory() -> Result<String, SimError> {
    let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"workloads\": {{\n");
    for (i, name) in TRACKED.into_iter().enumerate() {
        let p = run_tracked(name)?;
        let closer = if i + 1 == TRACKED.len() { "}" } else { "}," };
        out.push_str(&format!(
            "    \"{name}\": {{\n      \"events\": {},\n      \"heap_pushes\": {},\n      \"sim_seconds\": {}\n    {closer}\n",
            p.events(),
            p.heap_pushes,
            p.sim_seconds()
        ));
    }
    out.push_str("  }\n}\n");
    Ok(out)
}

/// One message per line that differs between the `committed` and `fresh`
/// renderings, naming the workload and field:
/// `workload/field: committed <line>, fresh <line>`.
pub fn differing_lines(committed: &str, fresh: &str) -> Vec<String> {
    let c: Vec<&str> = committed.lines().collect();
    let f: Vec<&str> = fresh.lines().collect();
    let mut workload = "";
    let mut out = Vec::new();
    for i in 0..c.len().max(f.len()) {
        let (cl, fl) = (c.get(i).map_or("", |l| l.trim()), f.get(i).map_or("", |l| l.trim()));
        if let Some(name) = fl.strip_prefix('"').and_then(|s| s.strip_suffix("\": {")) {
            workload = name;
        }
        if cl != fl {
            let field = fl.split_once(':').or_else(|| cl.split_once(':')).map_or("", |(k, _)| k.trim_matches('"'));
            let at = if workload.is_empty() { field.to_string() } else { format!("{workload}/{field}") };
            out.push(format!("{at}: committed `{cl}`, fresh `{fl}`"));
        }
    }
    if out.is_empty() && committed != fresh {
        out.push("line endings or the trailing newline differ".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_lines_name_workload_and_field() {
        let committed = "{\n  \"workloads\": {\n    \"w\": {\n      \"events\": 42,\n      \"sim_seconds\": 6\n    }\n  }\n}\n";
        assert!(differing_lines(committed, committed).is_empty());
        let fresh = committed.replace("42", "43");
        assert_eq!(
            differing_lines(committed, &fresh),
            ["w/events: committed `\"events\": 42,`, fresh `\"events\": 43,`"]
        );
        assert_eq!(differing_lines(committed, committed.trim_end()).len(), 1);
    }
}
