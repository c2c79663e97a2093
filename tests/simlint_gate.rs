//! Tier-1 analysis gate: simlint's AST rules (R5 unit-mixing signatures,
//! R8 dimensional analysis) have a zero budget, and they see every
//! non-test file to its end. The token rules are clippy lints denied by
//! `cargo lint-gate`.

use edison_simlint::index::{FileUnit, Index};
use edison_simlint::{find_workspace_root, rel_path, rules, scan_workspace, source_files, units};
use std::fs;
use std::path::Path;

/// The workspace scan finds nothing.
#[test]
fn workspace_is_within_lint_budget() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let findings = scan_workspace(&root).expect("scan");
    assert!(
        findings.is_empty(),
        "simlint findings:\n{}",
        findings.iter().map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.msg)).collect::<Vec<_>>().join("\n")
    );
}

/// A probe appended to each scanned non-test file is reported by both
/// rules at its own line. A parser that loses sync swallows the rest of a
/// file into one opaque item, and then the probe goes unreported.
#[test]
fn rules_see_every_file_to_its_end() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let probe = "fn simlint_probe(watts: f64, secs: f64) -> f64 {\n    let idle_w = watts;\n    secs + idle_w\n}\n";
    let mut blind = Vec::new();
    for path in source_files(&root).expect("walk") {
        let mut src = fs::read_to_string(&path).expect("read source");
        if !src.ends_with('\n') {
            src.push('\n');
        }
        let at = u32::try_from(src.lines().count()).expect("line count") + 1;
        let unit = FileUnit::new(&rel_path(&root, &path), &(src + probe));
        if unit.testish {
            continue;
        }
        let mut seen: Vec<(&str, u32)> = rules::check_file(&unit).iter().map(|f| (f.rule, f.line)).collect();
        seen.extend(units::check_file(&unit, &Index::build(&[])).iter().map(|f| (f.rule, f.line)));
        if seen != [("R5", at), ("R8", at + 2)] {
            blind.push(format!("  {}: {seen:?}", unit.rel));
        }
    }
    assert!(blind.is_empty(), "probe not reported as expected in:\n{}", blind.join("\n"));
}
