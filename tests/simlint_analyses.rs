//! End-to-end fixtures for the AST-level analyses: each seeds a bug the
//! token-level rules (clippy's lints and R5) cannot see, runs the full
//! pipeline (parse → index → taint/units), and asserts the scan yields
//! exactly that one finding.

use std::fs;
use std::path::PathBuf;

/// Build a throwaway single-crate workspace from (path, contents) pairs.
fn fixture(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("simlint-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").expect("manifest");
    for (rel, contents) in files {
        fs::write(root.join(rel), contents).expect("fixture file");
    }
    root
}

/// R7: a `HashMap` whose iteration order leaks into a telemetry sink
/// through a local. The map itself could be a vetted keyed-only one, R5
/// and R8 have nothing to say, yet the report would differ run-to-run —
/// only the taint analysis sees the flow.
#[test]
fn hashmap_iteration_into_sink_is_caught_only_by_taint() {
    let root = fixture(
        "taint",
        &[(
            "crates/demo/src/lib.rs",
            r#"use std::collections::HashMap;

pub struct Telemetry;
impl Telemetry {
    pub fn gauge_set(&mut self, _name: &str, _v: f64) {}
}

pub fn export_worst(t: &mut Telemetry, lat_by_conn: &HashMap<u64, f64>) {
    let mut worst = 0.0f64;
    for (_id, v) in lat_by_conn.iter() {
        if *v > worst {
            worst = *v;
        }
    }
    t.gauge_set("worst_latency", worst);
}
"#,
        )],
    );
    let findings = edison_simlint::scan_workspace(&root).expect("scan");
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["R7"], "findings: {findings:#?}");
    assert!(findings[0].msg.contains("iteration order"), "{}", findings[0].msg);
    fs::remove_dir_all(&root).ok();
}

/// R7 through the borrowed-label call shape: a `HashMap` iteration value
/// passed as a label pair inside `&[(name, value)]` still reaches the
/// `counter_inc` sink, because taint flows through the reference, the
/// array and the tuple alike.
#[test]
fn hashmap_iteration_into_label_slice_is_caught_by_taint() {
    let root = fixture(
        "taint-labels",
        &[(
            "crates/demo/src/lib.rs",
            r#"use std::collections::HashMap;

pub struct Telemetry;
impl Telemetry {
    pub fn counter_inc(&mut self, _name: &'static str, _labels: &[(&'static str, &str)]) {}
}

pub fn export_hosts(t: &mut Telemetry, conns_by_host: &HashMap<&'static str, u64>) {
    for (host, _n) in conns_by_host.iter() {
        t.counter_inc("host_conns_total", &[("host", *host)]);
    }
}
"#,
        )],
    );
    let findings = edison_simlint::scan_workspace(&root).expect("scan");
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["R7"], "findings: {findings:#?}");
    assert!(findings[0].msg.contains("iteration order"), "{}", findings[0].msg);
    fs::remove_dir_all(&root).ok();
}

/// R8: seconds and watts mixed across *locals*. R5 only reads function
/// signatures, so a parameterless function hides the bug from it —
/// dimensional inference over the body is required.
#[test]
fn local_seconds_plus_watts_is_caught_only_by_units() {
    let root = fixture(
        "units",
        &[(
            "crates/demo/src/lib.rs",
            r#"pub fn broken_budget() -> f64 {
    let elapsed_s = 12.0;
    let idle_w = 3.5;
    elapsed_s + idle_w
}
"#,
        )],
    );
    let findings = edison_simlint::scan_workspace(&root).expect("scan");
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["R8"], "findings: {findings:#?}");
    assert!(findings[0].msg.contains("incompatible units"), "{}", findings[0].msg);
    fs::remove_dir_all(&root).ok();
}

/// The dual: dimensionally sound arithmetic (W × s → J assigned into a
/// joules name) produces no findings, so R8 can hold a zero budget
/// without manufacturing debt.
#[test]
fn sound_dimensional_arithmetic_is_clean() {
    let root = fixture(
        "units-ok",
        &[(
            "crates/demo/src/lib.rs",
            r#"pub fn energy_j() -> f64 {
    let power_w = 3.5;
    let runtime_s = 12.0;
    let joules = power_w * runtime_s;
    joules
}
"#,
        )],
    );
    let findings = edison_simlint::scan_workspace(&root).expect("scan");
    assert!(findings.is_empty(), "findings: {findings:#?}");
    fs::remove_dir_all(&root).ok();
}
