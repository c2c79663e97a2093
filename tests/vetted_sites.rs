//! `cargo lint-gate` denies every item `clippy.toml` lists: the wall
//! clock, the current thread, hash collections and RNG construction. Code
//! opts out only under `#[expect(clippy::disallowed_types)]` or
//! `#[expect(clippy::disallowed_methods)]`, so a new opt-out is reviewed
//! here. No hash collection is left among them: simulation code keys its
//! records by slab handles and dense indices.

use edison_simlint::{rel_path, source_files};
use std::fs;
use std::path::Path;

/// One entry per non-comment line that names a disallowed-item lint, in
/// library and binary code under `crates/` and `src/`.
#[test]
fn disallowed_item_expectations_are_the_vetted_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for path in source_files(root).expect("walk the workspace") {
        let rel = rel_path(root, &path);
        if rel.split('/').any(|seg| matches!(seg, "tests" | "benches" | "examples")) {
            continue;
        }
        let src = fs::read_to_string(&path).expect("read source");
        let named = |l: &str| l.contains("clippy::disallowed_types") || l.contains("clippy::disallowed_methods");
        sites.extend(src.lines().filter(|l| !l.trim_start().starts_with("//") && named(l)).map(|_| rel.clone()));
    }
    assert_eq!(
        sites,
        [
            "crates/core/src/bin/repro.rs",  // the progress display's `Instant::now`
            "crates/simcore/src/rng.rs",     // the RNG's home
        ]
    );
}
