//! The `edison-bench/1` trajectory file format.
//!
//! `BENCH_0014.json` at the workspace root is the committed benchmark
//! trajectory: one record per tracked workload, split into two sections.
//!
//! * `deterministic` — pure functions of the workload constants (engine
//!   event count, heap pushes, simulated seconds). Bit-identical on every
//!   machine; the regression gate compares these. **No wall-clock value
//!   may ever appear here.**
//! * `advisory` — wall-clock rates (events/sec, sim-seconds per wall
//!   second) and allocation counts measured on whatever machine last ran
//!   `cargo bench-gate -- update`. Context for humans; never gated.
//!
//! The serialization is canonical: keys sorted, two-space indent, floats
//! in Rust's shortest-roundtrip `{}` form, trailing newline. The parser
//! accepts exactly that shape — a hand-edited or re-ordered file is
//! rejected, which is what makes the golden byte-stability test (parse →
//! re-serialize → byte-equal) meaningful.

use std::collections::BTreeMap;

/// Schema tag, bumped on any layout change.
pub const SCHEMA: &str = "edison-bench/1";

/// One workload's entry in the trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadRecord {
    /// Advisory: allocation events per engine event (0 when the harness
    /// ran without the counting allocator installed).
    pub allocs_per_event: f64,
    /// Advisory: engine events per wall-clock second.
    pub events_per_sec: f64,
    /// Advisory: simulated seconds per wall-clock second.
    pub sim_seconds_per_wall_second: f64,
    /// Deterministic: engine events dispatched.
    pub events: u64,
    /// Deterministic: heap pushes (events scheduled).
    pub heap_pushes: u64,
    /// Deterministic: simulated seconds covered.
    pub sim_seconds: f64,
}

/// The whole trajectory: schema tag plus per-workload records, keyed by
/// (sorted) workload name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Records by workload name.
    pub workloads: BTreeMap<String, WorkloadRecord>,
}

impl Trajectory {
    /// Serialize to the canonical `edison-bench/1` form.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"workloads\": {\n");
        let last = self.workloads.len().saturating_sub(1);
        for (i, (name, r)) in self.workloads.iter().enumerate() {
            out.push_str(&format!("    \"{name}\": {{\n"));
            out.push_str("      \"advisory\": {\n");
            out.push_str(&format!("        \"allocs_per_event\": {},\n", r.allocs_per_event));
            out.push_str(&format!("        \"events_per_sec\": {},\n", r.events_per_sec));
            out.push_str(&format!(
                "        \"sim_seconds_per_wall_second\": {}\n",
                r.sim_seconds_per_wall_second
            ));
            out.push_str("      },\n");
            out.push_str("      \"deterministic\": {\n");
            out.push_str(&format!("        \"events\": {},\n", r.events));
            out.push_str(&format!("        \"heap_pushes\": {},\n", r.heap_pushes));
            out.push_str(&format!("        \"sim_seconds\": {}\n", r.sim_seconds));
            out.push_str("      }\n");
            out.push_str(if i == last { "    }\n" } else { "    },\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse the canonical form produced by [`Trajectory::to_json`].
    /// Strict: key order, nesting and the schema tag must match exactly.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let mut p = Lines::new(text);
        p.expect_line("{")?;
        p.expect_line(&format!("\"schema\": \"{SCHEMA}\","))?;
        p.expect_line("\"workloads\": {")?;
        let mut workloads = BTreeMap::new();
        loop {
            let line = p.next_line()?;
            if line == "}" {
                break;
            }
            let name = line
                .strip_prefix('"')
                .and_then(|s| s.split_once('"'))
                .filter(|(_, rest)| *rest == ": {")
                .map(|(n, _)| n.to_string())
                .ok_or_else(|| p.err("workload name"))?;
            if let Some((prev, _)) = workloads.last_key_value() {
                if *prev >= name {
                    return Err(format!("workload keys not sorted: '{prev}' before '{name}'"));
                }
            }
            let mut r = WorkloadRecord::default();
            p.expect_line("\"advisory\": {")?;
            r.allocs_per_event = p.float("allocs_per_event", ",")?;
            r.events_per_sec = p.float("events_per_sec", ",")?;
            r.sim_seconds_per_wall_second = p.float("sim_seconds_per_wall_second", "")?;
            p.expect_line("},")?;
            p.expect_line("\"deterministic\": {")?;
            r.events = p.int("events", ",")?;
            r.heap_pushes = p.int("heap_pushes", ",")?;
            r.sim_seconds = p.float("sim_seconds", "")?;
            p.expect_line("}")?;
            let closer = p.next_line()?;
            if closer != "}," && closer != "}" {
                return Err(p.err("record closer"));
            }
            workloads.insert(name, r);
        }
        p.expect_line("}")?;
        if p.next_line().is_ok() {
            return Err("trailing content after trajectory".into());
        }
        Ok(Trajectory { workloads })
    }
}

/// Line-oriented cursor over the canonical form (indentation-insensitive,
/// everything else strict).
struct Lines<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines { lines: text.lines(), lineno: 0 }
    }

    fn err(&self, what: &str) -> String {
        format!("{}: line {}: malformed {what}", SCHEMA, self.lineno)
    }

    fn next_line(&mut self) -> Result<&'a str, String> {
        for line in self.lines.by_ref() {
            self.lineno += 1;
            let t = line.trim();
            if !t.is_empty() {
                return Ok(t);
            }
        }
        Err(format!("{SCHEMA}: unexpected end of file"))
    }

    fn expect_line(&mut self, want: &str) -> Result<(), String> {
        let got = self.next_line()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("{}: line {}: expected '{want}', got '{got}'", SCHEMA, self.lineno))
        }
    }

    /// Parse `"key": <value><suffix>`, returning the raw value text.
    fn value(&mut self, key: &str, suffix: &str) -> Result<&'a str, String> {
        let line = self.next_line()?;
        line.strip_prefix(&format!("\"{key}\": "))
            .and_then(|v| v.strip_suffix(suffix))
            .ok_or_else(|| self.err(key))
    }

    fn float(&mut self, key: &str, suffix: &str) -> Result<f64, String> {
        let v = self.value(key, suffix)?;
        v.parse::<f64>().map_err(|e| format!("{}: {key}: {e}", SCHEMA))
    }

    fn int(&mut self, key: &str, suffix: &str) -> Result<u64, String> {
        let v = self.value(key, suffix)?;
        v.parse::<u64>().map_err(|e| format!("{}: {key}: {e}", SCHEMA))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trajectory {
        let mut t = Trajectory::default();
        t.workloads.insert(
            "alpha".into(),
            WorkloadRecord {
                allocs_per_event: 1.5,
                events_per_sec: 250000.0,
                sim_seconds_per_wall_second: 40.25,
                events: 12345,
                heap_pushes: 12350,
                sim_seconds: 8.0,
            },
        );
        t.workloads.insert(
            "beta".into(),
            WorkloadRecord { events: 7, heap_pushes: 9, sim_seconds: 0.5, ..Default::default() },
        );
        t
    }

    #[test]
    fn roundtrip_is_exact() {
        let t = sample();
        let json = t.to_json();
        let back = Trajectory::parse(&json).expect("canonical form parses");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "parse → serialize must be byte-stable");
    }

    #[test]
    fn golden_bytes() {
        // the schema's exact canonical bytes — bump SCHEMA if this changes
        let mut t = Trajectory::default();
        t.workloads.insert(
            "w".into(),
            WorkloadRecord {
                allocs_per_event: 2.0,
                events_per_sec: 1000.0,
                sim_seconds_per_wall_second: 10.5,
                events: 42,
                heap_pushes: 43,
                sim_seconds: 6.0,
            },
        );
        let golden = "{\n  \"schema\": \"edison-bench/1\",\n  \"workloads\": {\n    \"w\": {\n      \"advisory\": {\n        \"allocs_per_event\": 2,\n        \"events_per_sec\": 1000,\n        \"sim_seconds_per_wall_second\": 10.5\n      },\n      \"deterministic\": {\n        \"events\": 42,\n        \"heap_pushes\": 43,\n        \"sim_seconds\": 6\n      }\n    }\n  }\n}\n";
        assert_eq!(t.to_json(), golden);
    }

    #[test]
    fn rejects_unsorted_and_malformed() {
        let good = sample().to_json();
        let swapped = good.replace("alpha", "zeta");
        assert!(Trajectory::parse(&swapped).is_err(), "unsorted keys rejected");
        assert!(Trajectory::parse("{}").is_err());
        assert!(Trajectory::parse(&good.replace("edison-bench/1", "edison-bench/2")).is_err());
        assert!(Trajectory::parse(&format!("{good}x")).is_err(), "trailing content rejected");
    }
}
