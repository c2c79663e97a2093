//! The eight repo-specific rules. R1–R6 run over one lexed file at a
//! time (token level); R7/R8 live in [`crate::taint`] and
//! [`crate::units`] and run over the parsed AST with the workspace
//! symbol index — this module owns the rule table, the finding type, the
//! allow-marker vetting, and the `--explain` docs for all eight.
//!
//! | id | name              | what it catches                                        |
//! |----|-------------------|--------------------------------------------------------|
//! | R1 | nondeterminism    | wall-clock/ambient-RNG calls; `HashMap`/`HashSet` use   |
//! | R2 | rng-construction  | RNG built outside `simcore/src/rng.rs`                  |
//! | R3 | lossy-cast        | `as` casts to truncating numeric types in library code  |
//! | R4 | panic-macro       | `panic!`/`unreachable!`/`todo!`/`unimplemented!`        |
//! | R5 | unit-mix          | `fn` taking 2+ raw `f64`s mixing time/power/energy names|
//! | R6 | unwrap            | `.unwrap()` / `.expect(` method calls in library code   |
//! | R7 | determinism-taint | nondeterminism source reaching an exported artefact     |
//! | R8 | units             | dimensional mismatch in arithmetic or assignment        |
//!
//! R1/R3/R4/R5/R6/R7/R8 skip test code (`#[cfg(test)]`, `mod tests`, and
//! whole `tests/`/`benches/`/`examples/` trees); R2 applies everywhere,
//! because a stray RNG in a test breaks reproducibility of the test
//! itself. Individual sites can be vetted with
//! `// simlint: allow(Rn) reason` on the offending line or the line
//! above.
//!
//! Since v2, two token rules consult AST-derived [`Suppressions`]: R3
//! stays quiet on provably-widening integer casts (`usize as u64` on the
//! 64-bit targets this workspace supports), and R6 stays quiet when
//! `.expect(`/`.unwrap(` resolves to a *crate-local* method of that name
//! rather than `Option`/`Result`.
//!
//! R6 was split out of R4 when the simrun error taxonomy landed: panics by
//! macro are a deliberate authorial act (R4), while `.unwrap()`-style
//! option/result punts are exactly what `RunError`/`SimError` replace —
//! the baseline for R6 is grandfathered shrink-only debt.

use crate::index::Suppressions;
use crate::lexer::{AllowMarker, Lexed, Token};

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, `R1`..`R6`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the site.
    pub msg: String,
}

/// All rule ids, in report order.
pub const RULE_IDS: [&str; 8] = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"];

/// One-line description per rule, for `--explain`-style output.
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "R1" => "nondeterminism: wall-clock/ambient RNG, or HashMap/HashSet in sim code (use BTreeMap or annotate keyed-only use)",
        "R2" => "rng-construction: randomness must flow through SimRng in simcore/src/rng.rs",
        "R3" => "lossy-cast: `as` to a truncating numeric type; prefer try_from/checked helpers (widening casts exempt)",
        "R4" => "panic-macro: panic!/unreachable!/todo!/unimplemented! in library code; budget may never grow",
        "R5" => "unit-mix: fn takes 2+ raw f64s mixing time/power/energy names; use SimTime-style newtypes",
        "R6" => "unwrap: .unwrap()/.expect() in library code; return RunError/SimError instead (shrink-only baseline)",
        "R7" => "determinism-taint: HashMap/HashSet iteration order, wall clock, ambient RNG, thread ids or scheduler state (spawn handles, try_recv) flowing into Telemetry, Report/CSV writers or Experiment::run returns",
        "R8" => "units: dimensionally-incompatible +/-/comparison, or a */÷ result assigned into a name implying a different unit",
        _ => "unknown rule",
    }
}

/// Long-form documentation for `explain <rule>` / `cargo lint-explain`.
pub fn rule_explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "R1" => "R1 — nondeterminism (token rule, zero budget)\n\n\
            Flags wall-clock reads (Instant::now, SystemTime::now), ambient RNG\n\
            (thread_rng, rand::random), and any non-`use` mention of HashMap/HashSet\n\
            outside test code. The simulator's contract is exact reproducibility from\n\
            one u64 seed; all three break it. Hash collections are flagged on *mention*\n\
            because the lexer cannot prove absence of iteration — vet keyed-only maps\n\
            with `// simlint: allow(R1) reason`, and R7 will still catch the day their\n\
            iteration order leaks into an exported artefact.",
        "R2" => "R2 — rng-construction (token rule, zero budget, applies in tests too)\n\n\
            RNG construction (SmallRng, StdRng, ThreadRng, seed_from_u64) is legal only\n\
            in simcore/src/rng.rs. Everything else derives streams via SimRng::split so\n\
            that one seed reproduces every draw in the whole workspace, tests included.",
        "R3" => "R3 — lossy-cast (token rule, ratcheted)\n\n\
            `expr as T` for a truncating/wrapping numeric T silently destroys value\n\
            bits. Prefer try_from or a checked helper. Since v2 the AST pass exempts\n\
            provably-widening integer casts on the 64-bit targets this workspace\n\
            supports: same-signedness to an equal-or-wider type (u32 as u64,\n\
            usize as u64, u64 as usize), and unsigned into a strictly wider signed\n\
            (u32 as i64). Sign-losing and narrowing casts still count.",
        "R4" => "R4 — panic-macro (token rule, ratcheted)\n\n\
            panic!/unreachable!/todo!/unimplemented! in library code abort the whole\n\
            simulation instead of failing one run. assert!/debug_assert! remain the\n\
            sanctioned invariant mechanism; recoverable paths return SimError/RunError.",
        "R5" => "R5 — unit-mix (token rule, zero budget)\n\n\
            A fn signature taking two or more *raw* f64 parameters whose names span\n\
            different unit vocabularies (watts + secs) is one transposed call away from\n\
            a silent wrong number. Wrap one side in a newtype (SimTime, SimDuration).\n\
            R8 supersedes this check inside function bodies; R5 remains as the cheap\n\
            signature-level guard.",
        "R6" => "R6 — unwrap (token rule, shrink-only baseline)\n\n\
            .unwrap()/.expect() in library code panics at runtime; the simrun/simfault\n\
            error taxonomy (SimError, RunError) exists to make these recoverable. The\n\
            grandfathered budget may only shrink. Since v2 the symbol index exempts\n\
            calls that resolve to a crate-local method named unwrap/expect (e.g. the\n\
            baseline JSON parser's own `Parser::expect`).",
        "R7" => "R7 — determinism-taint (AST rule, ratcheted)\n\n\
            Cross-file, per-crate taint analysis. Sources: HashMap/HashSet iteration\n\
            (.iter/.keys/.values/.drain, or `for _ in map`), Instant::now,\n\
            SystemTime::now, thread_rng/rand::random, thread ids, and scheduler\n\
            state — the handle from .spawn() (spawn order) and .try_recv()\n\
            (poll-time arrival state): silently shifted by spawn/wake reordering.\n\
            Channels do not launder: on `let (tx, rx) = mpsc()` a tainted send\n\
            re-emerges tainted from the matching recv. Sinks: Telemetry\n\
            methods (counter_add, counter_inc, gauge_set, observe, series_push,\n\
            record*), Report/CSV writers (table, series_table, trim_float,\n\
            Comparison/Series/Report payloads), and Experiment::run return values.\n\
            Taint propagates through lets, arithmetic, method chains and crate-local\n\
            calls (fixpoint summaries); order-insensitive reductions (len, count, min,\n\
            max, contains*, get) and explicit sort()/BTree re-collection sanitize it.\n\
            Float sum/fold do NOT sanitize — float addition is order-dependent, which\n\
            is precisely the exported-flakiness bug this rule exists to catch.\n\
            Vet a site with `// simlint: allow(R7) reason`.",
        "R8" => "R8 — units (AST rule, ratcheted)\n\n\
            Dimensional analysis over function bodies. Units (time, watts, joules,\n\
            bytes, bytes/sec, requests) are inferred from newtypes (SimTime,\n\
            SimDuration and their as_secs_f64-style accessors), from snake_case name\n\
            segments (busy_w, total_j, window_secs), and propagated through arithmetic\n\
            (W x s -> J, J / s -> W, B / s -> B/s, X / X -> dimensionless). Two finding\n\
            shapes: (a) +/-/comparison between two confidently-known different units;\n\
            (b) a value assigned into a binding whose name implies a different unit\n\
            (`let busy_w = watts * secs`). Unknown or dimensionless operands never\n\
            fire. Vet a site with `// simlint: allow(R8) reason`.",
        _ => return None,
    })
}

/// Calls that read ambient state and so break seed-reproducibility.
const WALLCLOCK: [(&str, &str); 2] = [("SystemTime", "now"), ("Instant", "now")];
const AMBIENT_RNG: [&str; 2] = ["thread_rng", "from_entropy"];
/// RNG construction surface that must stay inside `simcore/src/rng.rs`.
const RNG_CONSTRUCTION: [&str; 4] = ["SmallRng", "StdRng", "ThreadRng", "seed_from_u64"];
/// Hash collections whose iteration order is hasher-randomised.
const HASH_COLLECTIONS: [&str; 2] = ["HashMap", "HashSet"];
/// Numeric `as`-targets that can truncate, wrap or lose precision.
/// (`as f64` is exempt: pervasive and lossless for every integer this
/// codebase feeds it below 2^53.)
const LOSSY_TARGETS: [&str; 13] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32"];

/// Run every token rule over one lexed file.
///
/// `rel_path` is the workspace-relative path (used for per-file rule
/// scoping like R2's rng.rs exemption). `sup` carries the AST-derived
/// per-line exemptions (R3 widening casts, R6 crate-local methods).
pub fn check_file(rel_path: &str, lexed: &Lexed, sup: &Suppressions) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;
    let is_rng_home = rel_path.ends_with("simcore/src/rng.rs");
    let is_simlint_self = rel_path.contains("crates/simlint/");

    for (i, tok) in toks.iter().enumerate() {
        let t = tok.text.as_str();
        let next = |k: usize| toks.get(i + k).map(|t| t.text.as_str());

        // R1: wall-clock reads — `SystemTime::now(` / `Instant::now(`.
        if !tok.in_test && !tok.in_use {
            for (ty, method) in WALLCLOCK {
                if t == ty && next(1) == Some("::") && next(2) == Some(method) {
                    push(&mut findings, "R1", rel_path, tok.line, format!("{ty}::{method} reads the wall clock"));
                }
            }
            // R1: ambient RNG — `thread_rng()` / `rand::random`.
            if AMBIENT_RNG.contains(&t) && next(1) == Some("(") {
                push(&mut findings, "R1", rel_path, tok.line, format!("{t}() draws from ambient (unseeded) randomness"));
            }
            if t == "rand" && next(1) == Some("::") && next(2) == Some("random") {
                push(&mut findings, "R1", rel_path, tok.line, "rand::random draws from ambient randomness".into());
            }
            // R1: hash collections in simulation code. The lexer cannot
            // prove an iteration, so any non-`use` mention outside tests
            // needs either a BTreeMap or an allow marker vouching that the
            // map is never iterated (keyed access only).
            if HASH_COLLECTIONS.contains(&t) && !is_simlint_self {
                push(
                    &mut findings,
                    "R1",
                    rel_path,
                    tok.line,
                    format!("{t} has hasher-randomised iteration order; use BTreeMap/BTreeSet or annotate keyed-only use"),
                );
            }
        }

        // R2: RNG construction outside the one sanctioned module.
        if !is_rng_home && !tok.in_use && RNG_CONSTRUCTION.contains(&t) {
            push(
                &mut findings,
                "R2",
                rel_path,
                tok.line,
                format!("{t} constructs an RNG outside simcore/src/rng.rs; derive a stream with SimRng::split instead"),
            );
        }

        // R3: lossy numeric casts in library code. The AST pass exempts
        // lines whose casts are provably widening.
        if !tok.in_test && !tok.in_use && t == "as" && !sup.r3_widening.contains(&tok.line) {
            if let Some(target) = next(1) {
                if LOSSY_TARGETS.contains(&target) {
                    push(
                        &mut findings,
                        "R3",
                        rel_path,
                        tok.line,
                        format!("`as {target}` can truncate/wrap silently; prefer try_from or a checked helper"),
                    );
                }
            }
        }

        // R4: the panic-macro budget; R6: the unwrap/expect budget.
        if !tok.in_test {
            if (t == "unwrap" || t == "expect") && next(1) == Some("(") {
                // Only count method calls `.unwrap()` — a local fn named
                // `expect` would be unusual but shouldn't be punished —
                // and skip calls the index resolved to crate-local methods.
                let is_method = i > 0 && toks[i - 1].text == ".";
                if is_method && !sup.r6_local_method.contains(&tok.line) {
                    push(&mut findings, "R6", rel_path, tok.line, format!(".{t}() can panic at runtime; return RunError/SimError instead"));
                }
            }
            if (t == "panic" || t == "unreachable" || t == "todo" || t == "unimplemented")
                && next(1) == Some("!")
            {
                push(&mut findings, "R4", rel_path, tok.line, format!("{t}! in library code"));
            }
        }

        // R5: unit-mixing fn signatures.
        if !tok.in_test && t == "fn" {
            if let Some(finding) = check_unit_mix(toks, i, rel_path) {
                findings.push(finding);
            }
        }
    }

    apply_allows(findings, &lexed.allows)
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, file: &str, line: u32, msg: String) {
    findings.push(Finding { rule, file: file.to_string(), line, msg });
}

/// Drop findings vetted by `simlint: allow(...)` markers. A line marker
/// suppresses matches on its own line and the next (so it can sit above
/// the offending statement); `allow-file` suppresses the rule everywhere
/// in the file. Shared by the token rules and the AST rules (R7/R8).
pub fn apply_allows(findings: Vec<Finding>, allows: &[AllowMarker]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !allows.iter().any(|a| {
                a.rule == f.rule && (a.whole_file || a.line == f.line || a.line + 1 == f.line)
            })
        })
        .collect()
}

/// Vocabulary classes for R5. A parameter name belongs to at most one
/// class; matching is by whole word segments of the snake_case name, so
/// `watts` matches but `wattage_class` ("wattage") does not.
fn unit_class(name: &str) -> Option<&'static str> {
    const TIME: [&str; 12] = ["s", "secs", "sec", "seconds", "ms", "millis", "us", "ns", "nanos", "duration", "latency", "delay"];
    const POWER: [&str; 3] = ["w", "watt", "watts"];
    const ENERGY: [&str; 4] = ["j", "joule", "joules", "energy"];
    for seg in name.split('_') {
        if TIME.contains(&seg) {
            return Some("time");
        }
        if POWER.contains(&seg) {
            return Some("power");
        }
        if ENERGY.contains(&seg) {
            return Some("energy");
        }
    }
    None
}

/// R5: starting at the `fn` token, parse the parameter list and flag
/// signatures taking two or more *raw* `f64`s whose names span more than
/// one unit vocabulary (e.g. `fn charge(watts: f64, secs: f64)`).
fn check_unit_mix(toks: &[Token], fn_idx: usize, rel_path: &str) -> Option<Finding> {
    let name_tok = toks.get(fn_idx + 1)?;
    // Find the opening paren (skipping generic params `<...>`).
    let mut i = fn_idx + 2;
    let mut angle = 0i32;
    loop {
        let t = toks.get(i)?.text.as_str();
        match t {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" if angle <= 0 => break,
            "{" | ";" => return None, // no parameter list found
            _ => {}
        }
        i += 1;
    }
    // Split the top-level parameter list on commas.
    let mut depth = 1i32;
    let mut param: Vec<&Token> = Vec::new();
    let mut classes: Vec<(&'static str, String)> = Vec::new();
    let mut f64_params = 0usize;
    i += 1;
    while let Some(tok) = toks.get(i) {
        match tok.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            _ => {}
        }
        if depth == 0 || (depth == 1 && tok.text == ",") {
            // One parameter collected: `name : type...` (maybe `mut name`).
            let colon = param.iter().position(|t| t.text == ":");
            if let Some(c) = colon {
                let ty: Vec<&str> = param[c + 1..].iter().map(|t| t.text.as_str()).collect();
                if ty == ["f64"] {
                    f64_params += 1;
                    let name = param[..c].iter().rev().find(|t| t.text != "mut")?;
                    if let Some(class) = unit_class(&name.text) {
                        if !classes.iter().any(|(cl, _)| *cl == class) {
                            classes.push((class, name.text.clone()));
                        }
                    }
                }
            }
            param.clear();
            if depth == 0 {
                break;
            }
        } else {
            param.push(tok);
        }
        i += 1;
    }
    if f64_params >= 2 && classes.len() >= 2 {
        let names: Vec<&str> = classes.iter().map(|(_, n)| n.as_str()).collect();
        return Some(Finding {
            rule: "R5",
            file: rel_path.to_string(),
            line: name_tok.line,
            msg: format!(
                "fn {} mixes {} in raw f64 params ({}); wrap one side in a unit newtype like SimTime",
                name_tok.text,
                classes.iter().map(|(c, _)| *c).collect::<Vec<_>>().join("/"),
                names.join(", ")
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str) -> Vec<Finding> {
        check_file("crates/demo/src/lib.rs", &lex(src, false), &Suppressions::default())
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r1_fires_on_wallclock_and_ambient_rng() {
        assert_eq!(rules_of("fn f() { let t = Instant::now(); }"), vec!["R1"]);
        assert_eq!(rules_of("fn f() { let t = SystemTime::now(); }"), vec!["R1"]);
        assert!(rules_of("fn f() { let mut r = thread_rng(); }").contains(&"R1"));
        assert_eq!(rules_of("fn f() -> f64 { rand::random() }"), vec!["R1"]);
    }

    #[test]
    fn r1_hash_collection_needs_marker() {
        assert_eq!(rules_of("struct S { m: HashMap<u8, u8> }"), vec!["R1"]);
        assert!(findings("struct S { m: BTreeMap<u8, u8> }").is_empty());
        // vetted keyed-only use passes
        assert!(findings("struct S {\n    // simlint: allow(R1) keyed access only\n    m: HashMap<u8, u8>,\n}").is_empty());
        // use-declarations and test code don't count
        assert!(findings("use std::collections::HashMap;").is_empty());
        assert!(findings("#[cfg(test)]\nmod tests { fn f() { let m: HashMap<u8,u8> = HashMap::new(); } }").is_empty());
    }

    #[test]
    fn r2_fires_outside_rng_home_only() {
        let src = "fn f() { let r = SmallRng::seed_from_u64(1); }";
        let hits = rules_of(src);
        assert_eq!(hits, vec!["R2", "R2"], "SmallRng and seed_from_u64 each flag: {hits:?}");
        assert!(check_file("crates/simcore/src/rng.rs", &lex(src, false), &Suppressions::default()).is_empty());
        // R2 applies inside test code too
        assert!(!findings("#[cfg(test)]\nmod tests { fn f() { let r = StdRng::from_entropy(); } }").is_empty());
    }

    #[test]
    fn r3_fires_on_truncating_casts_not_f64() {
        assert_eq!(rules_of("fn f(x: u64) -> u32 { x as u32 }"), vec!["R3"]);
        assert_eq!(rules_of("fn f(x: f64) -> u64 { x as u64 }"), vec!["R3"]);
        assert!(findings("fn f(x: u32) -> f64 { x as f64 }").is_empty());
        assert!(findings("#[cfg(test)]\nmod tests { fn f(x: u64) { let _ = x as u8; } }").is_empty());
    }

    #[test]
    fn r4_counts_panic_macros_in_library_code_only() {
        assert_eq!(rules_of("fn f() { panic!(\"boom\") }"), vec!["R4"]);
        assert_eq!(rules_of("fn f() { unreachable!() }"), vec!["R4"]);
        assert!(findings("#[cfg(test)]\nmod tests { fn f() { panic!(\"boom\") } }").is_empty());
        // assert! is the sanctioned mechanism, not flagged
        assert!(findings("fn f(x: u8) { assert!(x > 0); debug_assert!(x < 10); }").is_empty());
    }

    #[test]
    fn r6_counts_unwrap_expect_method_calls_only() {
        assert_eq!(rules_of("fn f(o: Option<u8>) -> u8 { o.unwrap() }"), vec!["R6"]);
        assert_eq!(rules_of("fn f(o: Option<u8>) -> u8 { o.expect(\"set\") }"), vec!["R6"]);
        // non-method identifiers and the *_or family are not unwraps
        assert!(findings("fn f(o: Option<u8>) -> u8 { o.unwrap_or(0) }").is_empty());
        assert!(findings("fn expect(x: u8) -> u8 { expect(x) }").is_empty());
        assert!(findings("#[cfg(test)]\nmod tests { fn f(o: Option<u8>) -> u8 { o.unwrap() } }").is_empty());
        // an allow marker with a reason vets a deliberate site
        assert!(findings("fn f(o: Option<u8>) -> u8 {\n    // simlint: allow(R6) statically always Some\n    o.unwrap()\n}").is_empty());
    }

    #[test]
    fn r5_fires_on_mixed_unit_vocabulary() {
        assert_eq!(rules_of("fn charge(watts: f64, duration_s: f64) -> f64 { watts * duration_s }"), vec!["R5"]);
        assert_eq!(rules_of("fn e(idle_w: f64, busy_w: f64, window_secs: f64) {}"), vec!["R5"]);
        // same class twice: fine
        assert!(findings("fn f(warmup_s: f64, measure_s: f64) {}").is_empty());
        // only one raw f64: fine
        assert!(findings("fn f(watts: f64, t: SimTime) {}").is_empty());
        // unclassified names: fine
        assert!(findings("fn f(a: f64, b: f64) {}").is_empty());
    }

    #[test]
    fn allow_marker_on_same_line_works() {
        assert!(findings("fn f() { let m: HashMap<u8,u8> = HashMap::new(); } // simlint: allow(R1) shadow map\n").is_empty());
    }

    #[test]
    fn findings_carry_file_line_and_message() {
        let f = findings("fn f() {\n    let t = Instant::now();\n}");
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("R1", 2));
        assert!(f[0].msg.contains("wall clock"));
        assert_eq!(f[0].file, "crates/demo/src/lib.rs");
    }
}
