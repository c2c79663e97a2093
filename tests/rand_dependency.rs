//! R2 ("randomness flows only through `SimRng`") as a dependency-graph
//! fact: `edison-simcore` is the only package that depends on `rand`, so
//! no other crate — its tests included — can build a generator. Inside
//! simcore, `cargo lint-gate` confines construction to `src/rng.rs`.

use std::fs;
use std::path::Path;

/// Does this manifest list `rand` in any of its package dependency
/// tables (`[dependencies]`, `[dev-dependencies]`, `[target.*.dependencies]`,
/// `[dependencies.rand]`, …)? `[workspace.dependencies]` only declares the
/// version members may inherit, so it does not count.
fn lists_rand(manifest: &str) -> bool {
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            let table = line.trim_matches(|c| c == '[' || c == ']');
            if table.ends_with(".rand") && table.contains("dependencies") && !table.starts_with("workspace.") {
                return true;
            }
            in_deps = table.ends_with("dependencies") && table != "workspace.dependencies";
        } else if in_deps {
            let key = line.split(['=', '.', ' ']).next().unwrap_or("");
            if key == "rand" {
                return true;
            }
        }
    }
    false
}

#[test]
fn only_simcore_depends_on_rand() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    let mut with_rand: Vec<String> = manifests
        .iter()
        .filter(|m| lists_rand(&fs::read_to_string(m).expect("read manifest")))
        .map(|m| m.strip_prefix(root).expect("under the root").to_string_lossy().replace('\\', "/"))
        .collect();
    with_rand.sort();
    assert_eq!(with_rand, ["crates/simcore/Cargo.toml"]);
}

#[test]
fn manifest_scan_sees_every_dependency_form() {
    assert!(lists_rand("[dependencies]\nrand.workspace = true\n"));
    assert!(lists_rand("[dev-dependencies]\nrand = \"0.8\"\n"));
    assert!(lists_rand("[target.'cfg(unix)'.dependencies]\nrand = { path = \"x\" }\n"));
    assert!(lists_rand("[dependencies.rand]\nversion = \"0.8\"\n"));
    assert!(!lists_rand("[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\n"));
    assert!(!lists_rand("[dependencies]\nrand_core = \"0.6\"\n[features]\nrand = []\n"));
}
