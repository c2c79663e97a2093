//! `cargo lint-gate` denies every item `clippy.toml` lists: the wall
//! clock, the current thread, hash collections and RNG construction. Code
//! opts out only under `#[expect(clippy::disallowed_types)]` or
//! `#[expect(clippy::disallowed_methods)]`, so a new opt-out is reviewed
//! here. No hash collection is left among them: simulation code keys its
//! records by slab handles and dense indices. The gate also denies the
//! panic family (`expect`, `unreachable!`, `panic!`); its opt-outs are
//! pinned the same way, and none sits on a web or MapReduce event path.

use edison_simlint::{rel_path, source_files};
use std::fs;
use std::path::Path;

/// One `(file, lint)` per non-comment line that names `clippy::<lint>` for
/// one of `lints` (the first it names), in library and binary code under
/// `crates/` and `src/`.
fn opt_out_sites(lints: &[&'static str]) -> Vec<(String, &'static str)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for path in source_files(root).expect("walk the workspace") {
        let rel = rel_path(root, &path);
        if rel.split('/').any(|seg| matches!(seg, "tests" | "benches" | "examples")) {
            continue;
        }
        let src = fs::read_to_string(&path).expect("read source");
        for line in src.lines().filter(|l| !l.trim_start().starts_with("//")) {
            // `clippy::panic` must not match `clippy::panic_in_result_fn`
            let names = |lint: &str| {
                line.match_indices(&format!("clippy::{lint}")).any(|(at, m)| {
                    !line[at + m.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            };
            if let Some(&lint) = lints.iter().find(|l| names(l)) {
                sites.push((rel.clone(), lint));
            }
        }
    }
    sites
}

#[test]
fn disallowed_item_expectations_are_the_vetted_sites() {
    let sites = opt_out_sites(&["disallowed_types", "disallowed_methods"]);
    let files: Vec<&str> = sites.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/core/src/bin/repro.rs",  // the progress display's `Instant::now`
            "crates/simcore/src/rng.rs",     // the RNG's home
        ]
    );
}

#[test]
fn panic_family_expectations_are_the_vetted_sites() {
    let sites = opt_out_sites(&["expect_used", "unreachable", "panic"]);
    let sites: Vec<(&str, &str)> = sites.iter().map(|(f, l)| (f.as_str(), *l)).collect();
    assert_eq!(
        sites,
        [
            ("crates/core/src/experiments/faults.rs", "panic"), // `fault_demo`'s deliberate panic
            ("crates/mapreduce/src/engine.rs", "panic"), // a fault-free job that cannot finish is an engine bug
            ("crates/mapreduce/src/jobs.rs", "expect_used"), // pi's reducer parses the input pi's generator wrote
            ("crates/microbench/src/dhrystone.rs", "expect_used"), // the one task it added
            ("crates/microbench/src/storage.rs", "expect_used"), // blocks submitted one after another
            ("crates/net/src/topology.rs", "panic"), // builders connect every group pair
            ("crates/simcore/src/rng.rs", "expect_used"), // weighted draws over literal weights
            ("crates/web/src/model.rs", "expect_used"), // `WebWorld::new`: worker pools fit
            ("crates/web/src/model.rs", "expect_used"), // `WebWorld::new`: warmed caches fit
        ]
    );
}
