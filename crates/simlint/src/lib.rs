//! `edison-simlint` — the workspace analyses that clippy cannot express.
//!
//! The repo's headline numbers are energy figures from exact
//! piecewise-constant integration over `f64` seconds, watts and joules,
//! and nothing in the type system keeps those apart. `cargo lint-gate`
//! runs clippy with the token-level rules denied (wall clock, current
//! thread, hash collections, RNG construction, lossy casts, panics,
//! unwraps). This crate adds the two unit rules that need a parsed AST,
//! in a three-stage pipeline:
//!
//! 1. **parse** ([`parse`]) — a hand-rolled, span-preserving
//!    item/expression parser (lossless: reassembling spans reproduces the
//!    input byte-for-byte).
//! 2. **index** ([`index`]) — per-crate struct field types.
//! 3. **rules** — unit-mixing signatures R5 ([`rules`]) and dimensional
//!    analysis R8 ([`units`]).
//!
//! Every rule has a zero budget: the root-package integration test
//! `tests/simlint_gate.rs` runs [`scan_workspace`] in tier-1 and fails on
//! any finding. The same file checks that the parser keeps sync to the
//! end of every scanned file, so no code escapes the rules.

pub mod index;
pub mod parse;
pub mod rules;
pub mod units;

use index::{FileUnit, Index};
use rules::Finding;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Source trees scanned, relative to the workspace root. `vendor/` and
/// `target/` are deliberately absent: the offline dependency stubs are
/// not simulation code.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names whose whole subtree is treated as test code.
const TESTISH_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Every `.rs` file under the scanned trees of `root`, sorted.
pub fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for tree in SCAN_ROOTS {
        let dir = root.join(tree);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    paths.sort();
    Ok(paths)
}

/// Walk the workspace from `root`; parse, index and analyse every `.rs`
/// file. Findings come back in (file, line, rule) order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut file_units: Vec<FileUnit> = Vec::new();
    for path in source_files(root)? {
        file_units.push(FileUnit::new(&rel_path(root, &path), &fs::read_to_string(&path)?));
    }
    let ix = Index::build(&file_units);
    let mut findings = Vec::new();
    for u in &file_units {
        findings.extend(rules::check_file(u));
        findings.extend(units::check_file(u, &ix));
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with `/` separators.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

pub(crate) fn is_testish(rel: &str) -> bool {
    rel.split('/').any(|seg| TESTISH_DIRS.contains(&seg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testish_paths_are_recognized() {
        assert!(is_testish("crates/net/tests/prop.rs"));
        assert!(is_testish("crates/bench/benches/kernel.rs"));
        assert!(is_testish("examples/quickstart.rs"));
        assert!(is_testish("tests/headline_results.rs"));
        assert!(!is_testish("crates/net/src/gauge.rs"));
        assert!(!is_testish("src/lib.rs"));
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }
}
