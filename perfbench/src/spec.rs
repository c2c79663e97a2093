//! What the benchmark measures: its workloads, its end-to-end and
//! per-layer metrics, and the `BENCHMARK.json` that describes them.
//!
//! `BENCHMARK.json` at the repository root is exactly
//! [`benchmark_json`]'s output (`perfbench --list --json`); a unit test
//! holds the two equal.

use std::fmt::Write as _;

/// Seconds one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 25;

/// The workloads, in run order, with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "web_small",
        "repro quick-budget shape: 12 short Edison points with small in-flight sets, so WebWorld::new and fixed per-event costs dominate",
    ),
    (
        "web_knee",
        "fig04-09 hot path: Edison and Dell Full at 1024/2048 conn/s, deep fluid-CPU in-flight sets and SYN-retry storms",
    ),
    (
        "web_overload",
        "2x-knee overload with a mid-run crash, guards off and on: simguard sheds and simfault retries on the request path",
    ),
    (
        "mr_matrix",
        "Table 8 MapReduce matrix: shuffle flows and YARN heartbeats and no web code, so web-layer changes should not move it",
    ),
];

/// Every `web::stack::Ev::kind` name, grouped by the layer that handles it.
pub const WEB_KIND_GROUPS: [(&str, &[&str]); 7] = [
    ("cpu", &["node_cpu", "db_cpu"]),
    (
        "frontend",
        &["gen_conn", "syn_retry", "retry_conn", "req_at_web"],
    ),
    ("cache", &["req_at_cache", "cache_reply_at_web"]),
    ("db", &["req_at_db", "db_disk_done", "db_reply_at_web"]),
    ("client", &["reply_at_client"]),
    ("control", &["sample", "measure_start", "stop"]),
    ("fault", &["fault", "health_check"]),
];

/// Every `mapreduce::engine::Ev::kind` name.
pub const MR_KINDS: [&str; 8] = [
    "heartbeat",
    "am_ready",
    "node_cpu",
    "disk_done",
    "flow_end",
    "fault",
    "re_register",
    "sample",
];

/// The web kinds in [`WEB_KIND_GROUPS`] order: the index space the
/// traced run attributes host time in.
pub fn web_kinds() -> impl Iterator<Item = &'static str> {
    WEB_KIND_GROUPS
        .iter()
        .flat_map(|(_, kinds)| kinds.iter().copied())
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, host time with telemetry off (`--trace 0`).
pub fn end_to_end() -> Vec<Metric> {
    vec![
        Metric {
            name: "sim_s_per_wall_s".into(),
            unit: "s/s",
            better: Better::Higher,
            bound: Some(0.25),
        },
        Metric {
            name: "setup_s".into(),
            unit: "s",
            better: Better::Lower,
            bound: Some(0.25),
        },
        Metric {
            name: "peak_heap_mb".into(),
            unit: "MiB",
            better: Better::Lower,
            bound: Some(0.05),
        },
    ]
}

/// The per-layer metrics of the traced run (`--trace 1`), in report order.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = vec![
        metric("setup.world_ms", "ms", Lower),
        metric("engine.events", "count", Lower),
        metric("engine.heap_pushes", "count", Lower),
        metric("engine.heap_depth_hwm", "count", Lower),
        metric("engine.events_per_s", "1/s", Higher),
        metric("engine.pop_ns", "ns", Lower),
        metric("engine.share", "ratio", Lower),
        metric("alloc.per_event", "count/event", Lower),
        metric("alloc.bytes_per_event", "B/event", Lower),
    ];
    for kind in web_kinds() {
        v.push(metric(format!("web.{kind}.events"), "count", Lower));
        v.push(metric(format!("web.{kind}.self_ns"), "ns", Lower));
    }
    for (group, _) in WEB_KIND_GROUPS {
        v.push(metric(format!("web.{group}.share"), "ratio", Lower));
    }
    v.extend([
        metric("web.node_cpu.per_req", "count/req", Lower),
        metric("guard.short_circuit_frac", "ratio", Lower),
        metric("guard.breaker_trips", "count", Lower),
        metric("fault.retries", "count", Lower),
        metric("fault.failovers", "count", Lower),
    ]);
    for kind in MR_KINDS {
        v.push(metric(format!("mr.{kind}.events"), "count", Lower));
    }
    v.extend([
        metric("simtel.on_overhead", "ratio", Lower),
        metric("simtel.profiled_overhead", "ratio", Lower),
        metric("simtel.spans_per_event", "count/event", Lower),
        metric("trace.overhead", "ratio", Lower),
        metric("trace.coverage", "ratio", Higher),
        metric("trace.replica_ok", "bool", Higher),
    ]);
    v
}

/// The command that runs one workload, as `BENCHMARK.json` gives it. The
/// benchmark's own arguments follow it, so it ends with the `--` that
/// hands them to `perfbench` rather than to cargo.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perfbench",
    "--",
];

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String], indent: &str) -> String {
    let inner: Vec<String> = items.iter().map(|i| format!("{indent}  {i}")).collect();
    format!("[\n{}\n{indent}]", inner.join(",\n"))
}

/// The full text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let e2e: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        json_list(&workloads, "  "),
        json_list(&e2e, "  "),
        json_list(&layers, "  "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A metric or workload name: starts with a letter or digit, at most 64
    /// of `[A-Za-z0-9_.-]`.
    pub fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_caps_are_within_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is end-to-end");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(layers.iter().all(|m| m.bound.is_none()));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(
                !why.contains('\n') && why.len() <= 200,
                "{name}: why too long"
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_root_matches_list_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perfbench --list --json > BENCHMARK.json`"
        );
    }

    /// `--workload ...` is appended to the command; without a final `--`
    /// cargo would take it as one of its own flags and refuse it.
    #[test]
    fn command_hands_the_appended_arguments_to_perfbench() {
        assert_eq!(COMMAND[0], "cargo");
        assert_eq!(COMMAND.last(), Some(&"--"));
    }

    #[test]
    fn kind_lists_have_no_duplicates() {
        let web: BTreeSet<&str> = web_kinds().collect();
        assert_eq!(web.len(), web_kinds().count());
        assert_eq!(web.len(), 17);
        assert_eq!(
            MR_KINDS.iter().collect::<BTreeSet<_>>().len(),
            MR_KINDS.len()
        );
    }
}
