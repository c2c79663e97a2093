//! End-to-end fixtures for R8, the body-level dimensional analysis: a
//! bug the token-level rules (clippy's lints and R5) cannot see, run
//! through the full pipeline (parse → index → units), and its sound dual.

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
