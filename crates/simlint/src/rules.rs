//! The finding type, and R5: unit-mixing function signatures.
//!
//! simlint checks what clippy cannot express. Each rule reads the parsed
//! AST:
//!
//! | id | name     | what it catches                                          |
//! |----|----------|----------------------------------------------------------|
//! | R5 | unit-mix | `fn` taking 2+ raw `f64`s mixing time/power/energy names |
//! | R8 | units    | dimensional mismatch in arithmetic or assignment         |
//!
//! R8 lives in [`crate::units`]. Both skip test code (`#[cfg(test)]`,
//! `mod tests`, and whole `tests/`/`benches/`/`examples/` trees). The
//! token rules R1–R4 and R6 are clippy lints denied by `cargo lint-gate`;
//! see `clippy.toml`. Determinism needs no AST rule: clippy denies every
//! wall-clock, thread-identity and hash-collection source outside a
//! handful of vetted sites, which `tests/vetted_sites.rs` pins.

use crate::index::FileUnit;
use crate::parse::{self, FnDef};
use crate::units::{unit_of_name, Unit};

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `R5` or `R8`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the site.
    pub msg: String,
}

/// Run R5 over one file: flag signatures taking two or more *raw* `f64`s
/// whose names span more than one of the time/power/energy vocabularies
/// (e.g. `fn charge(watts: f64, secs: f64)`). One transposed call and the
/// number is silently wrong; wrap one side in a newtype like `SimTime`.
pub fn check_file(unit: &FileUnit) -> Vec<Finding> {
    let mut findings = Vec::new();
    if unit.testish {
        return findings;
    }
    parse::visit_fns(&unit.ast.items, None, &mut |f, _, in_test| {
        if !in_test {
            findings.extend(unit_mix(f, &unit.rel));
        }
    });
    findings
}

fn unit_mix(f: &FnDef, file: &str) -> Option<Finding> {
    let raw_f64: Vec<&str> = f
        .params
        .iter()
        .filter(|p| p.ty.head == "f64" && !p.ty.refd)
        .map(|p| p.name.as_str())
        .collect();
    let mut classes: Vec<(Unit, &str)> = Vec::new();
    for name in &raw_f64 {
        let unit = unit_of_name(name);
        if matches!(unit, Unit::Seconds | Unit::Watts | Unit::Joules) && !classes.iter().any(|(u, _)| *u == unit) {
            classes.push((unit, name));
        }
    }
    if raw_f64.len() < 2 || classes.len() < 2 {
        return None;
    }
    let units: Vec<&str> = classes.iter().map(|(u, _)| u.name()).collect();
    let names: Vec<&str> = classes.iter().map(|(_, n)| *n).collect();
    Some(Finding {
        rule: "R5",
        file: file.to_string(),
        line: f.line,
        msg: format!(
            "fn {} mixes {} in raw f64 params ({}); wrap one side in a unit newtype like SimTime",
            f.name,
            units.join("/"),
            names.join(", ")
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        check_file(&FileUnit::new("crates/demo/src/lib.rs", src))
    }

    #[test]
    fn r5_fires_on_mixed_unit_vocabulary() {
        assert_eq!(findings("fn charge(watts: f64, duration_s: f64) -> f64 { watts * duration_s }").len(), 1);
        assert_eq!(findings("fn e(idle_w: f64, busy_w: f64, window_secs: f64) {}").len(), 1);
        assert_eq!(findings("impl M { fn e(&self, mut total_j: f64, secs: f64) {} }").len(), 1);
        // same class twice: fine
        assert!(findings("fn f(warmup_s: f64, measure_s: f64) {}").is_empty());
        // only one raw f64: fine
        assert!(findings("fn f(watts: f64, t: SimTime) {}").is_empty());
        assert!(findings("fn f(watts: f64, secs: &f64) {}").is_empty());
        // unclassified names, and units outside time/power/energy: fine
        assert!(findings("fn f(a: f64, b: f64) {}").is_empty());
        assert!(findings("fn f(bytes: f64, secs: f64) {}").is_empty());
        // test code: fine
        assert!(findings("#[cfg(test)]\nmod tests { fn f(watts: f64, secs: f64) {} }").is_empty());
    }

    #[test]
    fn findings_carry_file_line_and_message() {
        let f = findings("struct S;\n\nfn charge(watts: f64, secs: f64) {}");
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("R5", 3));
        assert_eq!(f[0].msg, "fn charge mixes power (W)/time in raw f64 params (watts, secs); wrap one side in a unit newtype like SimTime");
        assert_eq!(f[0].file, "crates/demo/src/lib.rs");
    }
}
