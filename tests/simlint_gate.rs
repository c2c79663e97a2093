//! Tier-1 analysis gate: simlint's AST rules (R5 unit-mixing signatures,
//! R7 determinism taint, R8 dimensional analysis) have a zero budget.
//! The token rules are clippy lints denied by `cargo lint-gate`.

use edison_simlint::{find_workspace_root, scan_workspace};
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
