//! Fixture tests: one positive and one negative case per rule.
//!
//! R1–R4 and R6 are clippy lints. Each fixture becomes a module of a
//! throwaway crate, linted with the exact command of the `cargo lint-gate`
//! alias (read from `.cargo/config.toml`, with the workspace's
//! `clippy.toml`); the tests assert which lines fail. R5 runs through
//! simlint's own `rules::check_file`.

use edison_simlint::index::FileUnit;
use edison_simlint::{find_workspace_root, rules};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// The `cargo lint-gate` alias's arguments.
fn gate_args(root: &Path) -> Vec<String> {
    let config = fs::read_to_string(root.join(".cargo/config.toml")).expect("cargo config");
    let alias = config.lines().find_map(|l| l.strip_prefix("lint-gate = ")).expect("lint-gate alias");
    alias.trim_matches('"').split_whitespace().map(String::from).collect()
}

/// Lint a throwaway crate `name` whose library has one module per
/// snippet, with the gate's command plus `extra` cargo arguments. The
/// crate depends on the vendored `rand` when `with_rand`. Returns the
/// errors per snippet as sorted `"<line>: <message>"` strings, without
/// the labels and help clippy appends after a further `": "`.
fn gate(name: &str, snippets: &[&str], with_rand: bool, extra: &[&str]) -> Vec<Vec<String>> {
    let root = workspace_root();
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-fixtures");
    let dir = base.join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(dir.join("src")).expect("mkdir");
    let rand = if with_rand {
        format!("rand = {{ path = {:?}, features = [\"small_rng\"] }}", root.join("vendor/rand"))
    } else {
        String::new()
    };
    let manifest = format!("[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n[workspace]\n\n[dependencies]\n{rand}\n");
    fs::write(dir.join("Cargo.toml"), manifest).expect("manifest");
    let mods: String = (0..snippets.len()).map(|i| format!("pub mod m{i};\n")).collect();
    fs::write(dir.join("src/lib.rs"), mods).expect("lib.rs");
    for (i, src) in snippets.iter().enumerate() {
        fs::write(dir.join(format!("src/m{i}.rs")), src).expect("snippet");
    }

    let args = gate_args(&root);
    let split = args.iter().position(|a| a == "--").expect("lint-gate passes lints after `--`");
    let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(&args[..split])
        .args(extra)
        .arg("--message-format=short")
        .args(&args[split..])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", base.join("target"))
        .env("CLIPPY_CONF_DIR", &root)
        .output()
        .expect("run cargo clippy");
    let stderr = String::from_utf8_lossy(&out.stderr);

    // `src/m3.rs:2:13: error: used `unwrap()` on an `Option` value`, or
    // `src/m0.rs:1:21: error[E0425]: cannot find function ...: not found in ...`
    let mut errors = vec![Vec::new(); snippets.len()];
    for l in stderr.lines() {
        let Some((loc, rest)) = l.split_once(": error") else { continue };
        let mut loc = loc.split(':');
        let (Some(file), Some(line)) = (loc.next(), loc.next()) else { continue };
        let Some(i) = file.strip_prefix("src/m").and_then(|f| f.strip_suffix(".rs")) else { continue };
        let msg = rest.split(": ").nth(1).unwrap_or(rest);
        errors[i.parse::<usize>().expect("module index")].push(format!("{line}: {msg}"));
    }
    errors.iter_mut().for_each(|e| e.sort());
    assert_eq!(out.status.success(), errors.iter().all(Vec::is_empty), "{stderr}");
    errors
}

fn assert_clean(errors: &[Vec<String>]) {
    assert!(errors.iter().all(Vec::is_empty), "{errors:#?}");
}

// ---- R1: nondeterminism sources ------------------------------------------

#[test]
fn r1_positive_wallclock_ambient_rng_and_hash_maps() {
    let f = gate(
        "r1_positive",
        &[
            "pub fn f() -> std::time::Instant { std::time::Instant::now() }",
            "use std::time::SystemTime;\npub fn f() -> SystemTime { SystemTime::now() }",
            "pub struct S { pub m: std::collections::HashMap<u64, f64> }",
            "pub fn f() -> usize {\n    let s: std::collections::HashSet<u8> = Default::default();\n    s.len()\n}",
            "pub fn f() -> std::thread::ThreadId { std::thread::current().id() }",
        ],
        false,
        &[],
    );
    assert_eq!(f[0], ["1: use of a disallowed method `std::time::Instant::now`"]);
    assert_eq!(f[1], ["2: use of a disallowed method `std::time::SystemTime::now`"]);
    assert_eq!(f[2], ["1: use of a disallowed type `std::collections::HashMap`"]);
    assert_eq!(f[3], ["2: use of a disallowed type `std::collections::HashSet`"]);
    assert_eq!(f[4], ["1: use of a disallowed method `std::thread::current`"]);

    // The vendored rand has no ambient generator: code that asks for one
    // does not build, so the gate fails on it.
    let f = gate("r1_ambient_rng", &["pub fn f() -> f64 { rand::random() }"], true, &[]);
    assert_eq!(f[0], ["1: cannot find function `random` in crate `rand`"]);
}

#[test]
fn r1_negative_btreemap_tests_uses_and_vetted_sites() {
    assert_clean(&gate(
        "r1_negative",
        &[
            "pub struct S { pub m: std::collections::BTreeMap<u64, f64> }",
            "#[cfg(test)]\nmod tests {\n    fn f() { let _t = std::time::Instant::now(); }\n}",
            // an expectation with a reason vouches for a keyed-only map
            "pub struct S {\n    #[expect(clippy::disallowed_types, reason = \"keyed lookup only\")]\n    pub m: std::collections::HashMap<u64, f64>,\n}",
            // `Instant::now` inside a string or comment is not a call
            "pub fn f() -> &'static str { \"Instant::now()\" } // Instant::now()",
        ],
        false,
        &[],
    ));
}

// ---- R2: RNG construction outside simcore/src/rng.rs ---------------------

#[test]
fn r2_positive_rng_construction_even_in_tests() {
    let f = gate(
        "r2_positive",
        &["use rand::SeedableRng;\npub fn f() -> rand::rngs::SmallRng { rand::rngs::SmallRng::seed_from_u64(7) }"],
        true,
        &[],
    );
    assert_eq!(
        f[0],
        [
            "2: use of a disallowed method `rand::SeedableRng::seed_from_u64`",
            "2: use of a disallowed type `rand::rngs::SmallRng`",
            "2: use of a disallowed type `rand::rngs::SmallRng`",
        ]
    );
    // Test code is outside the gate, but only simcore depends on rand (see
    // tests/rand_dependency.rs), so test code anywhere else cannot name it.
    let f = gate(
        "r2_positive_tests",
        &["#[cfg(test)]\nmod tests {\n    fn f() { let _ = rand::rngs::SmallRng::seed_from_u64(1); }\n}"],
        false,
        &["--tests"],
    );
    assert_eq!(f[0], ["3: cannot find module or crate `rand` in this scope"]);
}

#[test]
fn r2_negative_inside_rng_home_and_via_simrng() {
    assert_clean(&gate(
        "r2_negative",
        &[
            // the RNG home vouches for its construction once, for the module
            "#![expect(clippy::disallowed_types, clippy::disallowed_methods, reason = \"the RNG home\")]\n\
             use rand::SeedableRng;\n\
             pub fn new(seed: u64) -> rand::rngs::SmallRng { rand::rngs::SmallRng::seed_from_u64(seed) }",
            // drawing from a generator handed in is fine
            "pub fn draw(rng: &mut impl rand::Rng) -> f64 { rng.gen() }",
        ],
        true,
        &[],
    ));
}

// ---- R3: lossy numeric casts ---------------------------------------------

#[test]
fn r3_positive_truncating_casts() {
    let f = gate(
        "r3_positive",
        &[
            "pub fn f(x: u64) -> u32 { x as u32 }",
            "pub fn f(x: f64) -> i64 { x as i64 }",
            "pub fn f(x: f64) -> f32 { x as f32 }",
            "pub fn f(x: u64) -> i64 { x as i64 }",
        ],
        false,
        &[],
    );
    assert_eq!(f[0], ["1: casting `u64` to `u32` may truncate the value"]);
    assert_eq!(f[1], ["1: casting `f64` to `i64` may truncate the value"]);
    assert_eq!(f[2], ["1: casting `f64` to `f32` may truncate the value"]);
    assert_eq!(f[3], ["1: casting `u64` to `i64` may wrap around the value"]);
}

#[test]
fn r3_negative_widening_and_test_code() {
    assert_clean(&gate(
        "r3_negative",
        &[
            "pub fn f(x: u32) -> f64 { x as f64 }",
            "pub fn f(x: u32) -> u64 { x as u64 }",
            "#[cfg(test)]\nmod tests {\n    fn f(x: u64) -> u8 { x as u8 }\n}",
        ],
        false,
        &[],
    ));
}

// ---- R4: panic macros -----------------------------------------------------

#[test]
fn r4_positive_panic_macros() {
    let f = gate(
        "r4_positive",
        &[
            "pub fn f() { panic!(\"boom\") }",
            "pub fn f() { unreachable!() }",
            "pub fn f() { todo!() }",
            "pub fn f() { unimplemented!() }",
        ],
        false,
        &[],
    );
    assert_eq!(f[0], ["1: `panic` should not be present in production code"]);
    assert_eq!(f[1], ["1: usage of the `unreachable!` macro"]);
    assert_eq!(f[2], ["1: `todo` should not be present in production code"]);
    assert_eq!(f[3], ["1: `unimplemented` should not be present in production code"]);
}

#[test]
fn r4_negative_asserts_and_test_code() {
    assert_clean(&gate(
        "r4_negative",
        &[
            "pub fn f(x: u8) { assert!(x > 0); debug_assert_eq!(x, 1); }",
            "#[cfg(test)]\nmod tests {\n    fn f() { panic!(\"boom\") }\n}",
        ],
        false,
        &[],
    ));
}

// ---- R5: unit-mixing signatures ------------------------------------------

fn r5(src: &str) -> Vec<&'static str> {
    rules::check_file(&FileUnit::new("crates/demo/src/lib.rs", src)).into_iter().map(|f| f.rule).collect()
}

#[test]
fn r5_positive_mixed_unit_vocabulary() {
    assert_eq!(r5("fn charge(watts: f64, duration_s: f64) -> f64 { watts * duration_s }"), vec!["R5"]);
    assert_eq!(r5("fn e(idle_w: f64, ramp_ms: f64) {}"), vec!["R5"]);
}

#[test]
fn r5_negative_single_class_newtypes_and_unclassified() {
    assert!(r5("fn f(warmup_s: f64, measure_s: f64) {}").is_empty());
    assert!(r5("fn f(watts: f64, t: SimTime) {}").is_empty());
    assert!(r5("fn f(a: f64, b: f64) {}").is_empty());
}

// ---- R6: unwrap/expect ----------------------------------------------------

#[test]
fn r6_positive_unwrap_expect_method_calls() {
    let f = gate(
        "r6_positive",
        &[
            "pub fn f(o: Option<u8>) -> u8 { o.unwrap() }",
            "pub fn f(o: Option<u8>) -> u8 { o.expect(\"set\") }",
            "pub fn f(r: Result<u8, ()>) -> u8 { r.unwrap() }",
        ],
        false,
        &[],
    );
    assert_eq!(f[0], ["1: used `unwrap()` on an `Option` value"]);
    assert_eq!(f[1], ["1: used `expect()` on an `Option` value"]);
    assert_eq!(f[2], ["1: used `unwrap()` on a `Result` value"]);
}

#[test]
fn r6_negative_or_family_free_fns_and_test_code() {
    assert_clean(&gate(
        "r6_negative",
        &[
            "pub fn f(o: Option<u8>) -> u8 { o.unwrap_or(0) }",
            "pub fn f(o: Option<u8>, d: fn() -> u8) -> u8 { o.unwrap_or_else(d) }",
            "#[cfg(test)]\nmod tests {\n    fn f(o: Option<u8>) -> u8 { o.unwrap() }\n}",
            // a crate-local method named `expect` is not Option::expect
            "pub struct P;\nimpl P {\n    pub fn expect(&self, b: u8) -> u8 { b }\n    pub fn go(&self) -> u8 { self.expect(1) }\n}",
        ],
        false,
        &[],
    ));
}

// ---- vetted sites stay honest ---------------------------------------------

/// An `#[expect]` whose finding has gone fails the gate, so a vetted site
/// cannot outlive the code it vetted.
#[test]
fn stale_expect_fails_the_gate() {
    let f = gate(
        "stale_expect",
        &["#[expect(clippy::unwrap_used, reason = \"was o.unwrap()\")]\npub fn f(o: Option<u8>) -> u8 { o.unwrap_or(0) }"],
        false,
        &[],
    );
    assert_eq!(f[0], ["1: this lint expectation is unfulfilled"]);
}
