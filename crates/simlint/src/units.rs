//! R8 — dimensional analysis over function bodies.
//!
//! Every `f64` in this workspace *means* something — seconds, watts,
//! joules, bytes, bytes/sec, requests — but the type system erases it.
//! This pass reconstructs units from three signals, in priority order:
//!
//! 1. **Newtypes**: `SimTime`/`SimDuration` values (and their
//!    `as_secs_f64()`-style accessors) are time.
//! 2. **Names**: snake_case segments of params/locals/fields against a
//!    fixed vocabulary (`watts`, `busy_j`, `bytes_per_sec`, …) — the same
//!    convention R5 polices at signature level, applied here to every
//!    binding.
//! 3. **Arithmetic propagation**: `W × s → J`, `J ÷ s → W`, `B ÷ s → B/s`,
//!    `X ÷ X → dimensionless`, and unit-preserving `+`/`-`/`min`/`max`.
//!
//! Two finding shapes:
//!
//! * additive/comparison mismatch — `secs + watts`, `joules < bytes` —
//!   where **both** sides infer to distinct, confident, non-dimensionless
//!   units;
//! * assignment mismatch — a `*`/`/` result (or any confidently-united
//!   expression) bound to a name whose vocabulary implies a *different*
//!   unit, e.g. `let total_j = watts * watts;`.
//!
//! Unknown stays silent: the pass only speaks when it can say *which two
//! units* disagree, which is what keeps it usable as a zero-budget gate
//! rather than a noise fountain.

use crate::index::{blocks, children, FileUnit, Index};
use crate::parse::{self, BinOp, Block, ExprId, ExprKind, FnDef, Stmt, TokKind, Ty};
use crate::rules::Finding;
use std::collections::BTreeMap;

/// The unit lattice. `Unknown` absorbs everything it meets; findings are
/// only raised between two non-`Unknown`, non-`Dimensionless` members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Time (any scale — s/ms/us/ns are one dimension here).
    Seconds,
    /// Power.
    Watts,
    /// Energy.
    Joules,
    /// Data volume.
    Bytes,
    /// Data rate.
    BytesPerSec,
    /// Request/operation counts.
    Requests,
    /// Pure numbers: ratios, literals, counters.
    Dimensionless,
    /// No confident inference.
    Unknown,
}

impl Unit {
    /// Human name used in findings.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Seconds => "time",
            Unit::Watts => "power (W)",
            Unit::Joules => "energy (J)",
            Unit::Bytes => "bytes",
            Unit::BytesPerSec => "bytes/sec",
            Unit::Requests => "requests",
            Unit::Dimensionless => "dimensionless",
            Unit::Unknown => "unknown",
        }
    }

    fn confident(self) -> bool {
        !matches!(self, Unit::Unknown | Unit::Dimensionless)
    }
}

/// Unit implied by a binding/field name, via whole snake_case segments —
/// `busy_w` is power, `wattage_class` is nothing. R5 reads its
/// time/power/energy classes from here too.
pub fn unit_of_name(name: &str) -> Unit {
    const TIME: [&str; 13] =
        ["s", "secs", "sec", "seconds", "ms", "millis", "us", "ns", "nanos", "duration", "latency", "delay", "elapsed"];
    const POWER: [&str; 3] = ["w", "watt", "watts"];
    const ENERGY: [&str; 4] = ["j", "joule", "joules", "energy"];
    const BYTES: [&str; 2] = ["bytes", "byte"];
    const RATE: [&str; 2] = ["bps", "bandwidth"];
    const REQUESTS: [&str; 3] = ["requests", "reqs", "req"];
    let segs: Vec<&str> = name.split('_').collect();
    // `bytes_per_sec` / `bytes_per_s`: the compound wins over `bytes`.
    for w in segs.windows(3) {
        if BYTES.contains(&w[0]) && w[1] == "per" && TIME.contains(&w[2]) {
            return Unit::BytesPerSec;
        }
    }
    for seg in &segs {
        if TIME.contains(seg) {
            return Unit::Seconds;
        }
        if POWER.contains(seg) {
            return Unit::Watts;
        }
        if ENERGY.contains(seg) {
            return Unit::Joules;
        }
        if BYTES.contains(seg) {
            return Unit::Bytes;
        }
        if RATE.contains(seg) {
            return Unit::BytesPerSec;
        }
        if REQUESTS.contains(seg) {
            return Unit::Requests;
        }
    }
    Unit::Unknown
}

/// Unit implied by a declared type: the time newtypes are the only types
/// that carry a unit of their own.
fn unit_of_ty(ty: &Ty) -> Unit {
    match ty.head.as_str() {
        "SimTime" | "SimDuration" | "Duration" => Unit::Seconds,
        // simguard's deadline algebra: budgets, absolute deadlines, and
        // their scalar views are all time-dimensioned
        "Budget" | "Deadline" | "Millis" | "Secs" => Unit::Seconds,
        _ => Unit::Unknown,
    }
}

/// Unit of a name *given* its declared type: a unit-bearing newtype
/// always wins; a raw `f64`/`u64`-style number falls back to the name
/// vocabulary; any other type is opaque (a `Vec<f64>` named `watts` is
/// not itself watts).
fn unit_of_binding(name: &str, ty: Option<&Ty>) -> Unit {
    match ty {
        Some(t) => {
            let from_ty = unit_of_ty(t);
            if from_ty != Unit::Unknown {
                from_ty
            } else if matches!(t.head.as_str(), "f64" | "f32" | "u64" | "u32" | "usize" | "i64") {
                unit_of_name(name)
            } else {
                Unit::Unknown
            }
        }
        None => unit_of_name(name),
    }
}

/// `a * b` through the dimension table.
fn mul(a: Unit, b: Unit) -> Unit {
    use Unit::*;
    match (a, b) {
        (Watts, Seconds) | (Seconds, Watts) => Joules,
        (BytesPerSec, Seconds) | (Seconds, BytesPerSec) => Bytes,
        (Dimensionless, x) | (x, Dimensionless) => x,
        _ => Unknown,
    }
}

/// `a / b` through the dimension table.
fn div(a: Unit, b: Unit) -> Unit {
    use Unit::*;
    match (a, b) {
        (Joules, Seconds) => Watts,
        (Joules, Watts) => Seconds,
        (Bytes, Seconds) => BytesPerSec,
        (Bytes, BytesPerSec) => Seconds,
        (x, y) if x == y && x.confident() => Dimensionless,
        (x, Dimensionless) => x,
        _ => Unknown,
    }
}

/// Methods that preserve the receiver's unit.
const UNIT_PRESERVING: [&str; 10] =
    ["min", "max", "abs", "clamp", "round", "ceil", "floor", "sqrt", "clone", "copied"];
/// Accessor methods that *produce* time from the newtypes (or std
/// `Duration`), regardless of receiver inference.
const TIME_ACCESSORS: [&str; 6] =
    ["as_secs_f64", "as_millis_f64", "as_secs", "as_millis", "as_micros", "as_nanos"];

/// Run R8 over one file.
pub fn check_file(unit: &FileUnit, ix: &Index) -> Vec<Finding> {
    let mut findings = Vec::new();
    if unit.testish {
        return findings;
    }
    parse::visit_fns(&unit.ast.items, None, &mut |f: &FnDef, self_ty, in_test| {
        if in_test {
            return;
        }
        let Some(body) = &f.body else { return };
        let mut env: BTreeMap<String, Unit> = BTreeMap::new();
        for p in &f.params {
            let u = unit_of_binding(&p.name, Some(&p.ty));
            if u.confident() {
                env.insert(p.name.clone(), u);
            }
        }
        let mut cx = Cx { unit, ix, env, findings: &mut findings, self_ty };
        cx.block(body);
    });
    findings
}

struct Cx<'a> {
    unit: &'a FileUnit,
    ix: &'a Index,
    env: BTreeMap<String, Unit>,
    findings: &'a mut Vec<Finding>,
    self_ty: Option<&'a str>,
}

impl<'a> Cx<'a> {
    fn push(&mut self, line: u32, msg: String) {
        self.findings.push(Finding { rule: "R8", file: self.unit.rel.clone(), line, msg });
    }

    fn block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { names, ty, init, line } => {
                    let init_unit = init.map(|e| self.infer(e)).unwrap_or(Unit::Unknown);
                    if let [name] = names.as_slice() {
                        let declared = unit_of_binding(name, ty.as_ref());
                        // assignment mismatch: RHS confidently-united,
                        // name implies a different unit
                        if declared.confident() && init_unit.confident() && declared != init_unit {
                            let l = *line;
                            self.push(
                                l,
                                format!(
                                    "`{name}` reads as {} but is assigned a {} value",
                                    declared.name(),
                                    init_unit.name()
                                ),
                            );
                        }
                        let resolved = if declared.confident() { declared } else { init_unit };
                        if resolved.confident() {
                            self.env.insert(name.clone(), resolved);
                        } else {
                            self.env.remove(name);
                        }
                    }
                }
                Stmt::Expr(expr) => {
                    self.infer(*expr);
                }
                Stmt::Item(_) => {}
            }
        }
    }

    /// Infer the unit of an expression, raising findings on mismatched
    /// arithmetic along the way.
    fn infer(&mut self, id: ExprId) -> Unit {
        let expr = self.unit.ast.expr(id).clone();
        match &expr.kind {
            ExprKind::Lit(TokKind::Int) | ExprKind::Lit(TokKind::Float) => Unit::Dimensionless,
            ExprKind::Path(segs) => match segs.as_slice() {
                [one] => self.env.get(one).copied().unwrap_or_else(|| {
                    let u = unit_of_name(one);
                    if u.confident() { u } else { Unit::Unknown }
                }),
                _ => Unit::Unknown,
            },
            ExprKind::Field { recv, name } => {
                self.infer(*recv);
                // field type via the index when the receiver is `self`
                let recv_expr = self.unit.ast.expr(*recv);
                let field_ty = match (&recv_expr.kind, self.self_ty) {
                    (ExprKind::Path(segs), Some(st)) if segs.as_slice() == ["self"] => {
                        self.ix.field_ty(&self.unit.krate, st, name)
                    }
                    _ => None,
                };
                unit_of_binding(name, field_ty)
            }
            ExprKind::Unary(inner) | ExprKind::Try(inner) => self.infer(*inner),
            ExprKind::Tuple(parts) if parts.len() == 1 => self.infer(parts[0]),
            ExprKind::Cast(inner) => self.infer(*inner),
            ExprKind::Binary { op, op_text, lhs, rhs } => {
                let l = self.infer(*lhs);
                let r = self.infer(*rhs);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Eq | BinOp::Cmp => {
                        if l.confident() && r.confident() && l != r {
                            self.push(
                                expr.line,
                                format!("{} `{}` {}: incompatible units", l.name(), op_text, r.name()),
                            );
                            return Unit::Unknown;
                        }
                        if matches!(op, BinOp::Eq | BinOp::Cmp) {
                            Unit::Dimensionless
                        } else if l.confident() {
                            l
                        } else if r.confident() {
                            r
                        } else {
                            Unit::Unknown
                        }
                    }
                    BinOp::Mul => mul(l, r),
                    BinOp::Div => div(l, r),
                    BinOp::Rem => l,
                    BinOp::Logic | BinOp::Bit => Unit::Unknown,
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let r = self.infer(*rhs);
                let lhs_expr = self.unit.ast.expr(*lhs).clone();
                let target = match &lhs_expr.kind {
                    ExprKind::Path(segs) => match segs.as_slice() {
                        [one] => Some((one.clone(), self.env.get(one).copied().unwrap_or_else(|| unit_of_name(one)))),
                        _ => None,
                    },
                    ExprKind::Field { name, .. } => Some((name.clone(), unit_of_name(name))),
                    _ => {
                        self.infer(*lhs);
                        None
                    }
                };
                if let Some((name, l)) = target {
                    let effective = match op {
                        None => r,
                        Some(BinOp::Add) | Some(BinOp::Sub) => {
                            if l.confident() && r.confident() && l != r {
                                self.push(
                                    expr.line,
                                    format!("{} `{}=` {}: incompatible units", l.name(), if *op == Some(BinOp::Add) { "+" } else { "-" }, r.name()),
                                );
                            }
                            l
                        }
                        Some(BinOp::Mul) => mul(l, r),
                        Some(BinOp::Div) => div(l, r),
                        _ => Unit::Unknown,
                    };
                    if op.is_none() && l.confident() && effective.confident() && l != effective {
                        self.push(
                            expr.line,
                            format!("`{name}` reads as {} but is assigned a {} value", l.name(), effective.name()),
                        );
                    }
                }
                Unit::Unknown
            }
            ExprKind::MethodCall { recv, name, args, .. } => {
                let r = self.infer(*recv);
                for a in args {
                    self.infer(*a);
                }
                if TIME_ACCESSORS.contains(&name.as_str()) {
                    Unit::Seconds
                } else if UNIT_PRESERVING.contains(&name.as_str()) {
                    // min/max/clamp against a mismatched argument is also
                    // a comparison — but only flag the binary forms to
                    // keep the rule's surface predictable.
                    r
                } else if name == "mul_add" {
                    r
                } else {
                    Unit::Unknown
                }
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.infer(*a);
                }
                // `SimDuration::from_secs_f64(x)` and friends are time
                let callee_expr = self.unit.ast.expr(*callee);
                if let ExprKind::Path(segs) = &callee_expr.kind {
                    if segs.iter().any(|s| s == "SimTime" || s == "SimDuration" || s == "Duration") {
                        return Unit::Seconds;
                    }
                }
                Unit::Unknown
            }
            ExprKind::If { cond, then, else_, .. } => {
                self.infer(*cond);
                self.block(then);
                if let Some(e) = else_ {
                    self.infer(*e);
                }
                Unit::Unknown
            }
            ExprKind::Match { scrut, arms } => {
                self.infer(*scrut);
                for (_, guard, body) in arms {
                    if let Some(g) = guard {
                        self.infer(*g);
                    }
                    self.infer(*body);
                }
                Unit::Unknown
            }
            ExprKind::Block(b) | ExprKind::Loop(b) => {
                self.block(b);
                Unit::Unknown
            }
            ExprKind::While { cond, body } => {
                self.infer(*cond);
                self.block(body);
                Unit::Unknown
            }
            ExprKind::For { iter, body, .. } => {
                self.infer(*iter);
                self.block(body);
                Unit::Unknown
            }
            _ => {
                for c in children(&expr.kind) {
                    self.infer(c);
                }
                for b in blocks(&expr.kind) {
                    self.block(b);
                }
                Unit::Unknown
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileUnit;

    fn findings(src: &str) -> Vec<Finding> {
        let u = FileUnit::new("crates/demo/src/lib.rs", src);
        let ix = Index::build(std::slice::from_ref(&u));
        check_file(&u, &ix)
    }

    #[test]
    fn seconds_plus_watts_is_one_finding() {
        let f = findings("fn f(watts: f64, secs: f64) -> f64 { watts + secs }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("power"), "{}", f[0].msg);
        assert!(f[0].msg.contains("time"), "{}", f[0].msg);
    }

    #[test]
    fn watts_times_secs_is_joules() {
        assert!(findings("fn f(watts: f64, secs: f64) -> f64 { watts * secs }").is_empty());
        let f = findings("fn f(watts: f64, secs: f64) { let total_j = watts * secs; let _ = total_j; }");
        assert!(f.is_empty(), "W×s assigned to a J name is correct: {f:?}");
        let bad = findings("fn f(watts: f64, other_w: f64) { let total_j = watts * other_w; let _ = total_j; }");
        assert!(bad.is_empty(), "W×W is Unknown — stays silent, not a false claim: {bad:?}");
        let wrong = findings("fn f(watts: f64, secs: f64) { let busy_w = watts * secs; let _ = busy_w; }");
        assert_eq!(wrong.len(), 1, "W×s is J, assigned into a watts name: {wrong:?}");
    }

    #[test]
    fn division_table() {
        assert!(findings("fn f(total_j: f64, secs: f64) { let avg_w = total_j / secs; let _ = avg_w; }").is_empty());
        assert!(findings("fn f(bytes: f64, secs: f64) { let bps = bytes / secs; let _ = bps; }").is_empty());
        let f = findings("fn f(total_j: f64, secs: f64) { let avg_s = total_j / secs; let _ = avg_s; }");
        assert_eq!(f.len(), 1, "J/s is W, not time: {f:?}");
    }

    #[test]
    fn comparisons_and_compound_assign() {
        assert_eq!(findings("fn f(secs: f64, bytes: f64) -> bool { secs < bytes }").len(), 1);
        assert_eq!(findings("fn f(secs: f64, watts: f64) { let mut t = secs; t += watts; }").len(), 1);
        assert!(findings("fn f(a_secs: f64, b_secs: f64) -> bool { a_secs < b_secs }").is_empty());
    }

    #[test]
    fn newtype_accessors_are_time() {
        let f = findings("fn f(t: SimDuration, watts: f64) -> f64 { t.as_secs_f64() + watts }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(findings("fn f(t: SimDuration, secs: f64) -> f64 { t.as_secs_f64() + secs }").is_empty());
    }

    #[test]
    fn simguard_newtypes_are_time() {
        // Budget/Deadline/Millis/Secs (simguard's deadline algebra) carry
        // the time dimension: mixing one with another unit is a finding
        assert_eq!(findings("fn f(b: Budget, bytes: f64) -> bool { b < bytes }").len(), 1);
        assert_eq!(findings("fn f(m: Millis, watts: f64) -> f64 { m + watts }").len(), 1);
        // ...while they stay mutually compatible with the core newtypes
        assert!(findings("fn f(b: Budget, t: SimDuration) -> bool { b < t }").is_empty());
        assert!(findings("fn f(d: Deadline, t: SimTime) -> bool { d < t }").is_empty());
    }

    #[test]
    fn locals_are_tracked_r5_cannot_see_this() {
        // one f64 param only — R5's 2+-raw-f64 signature check is blind here
        let f = findings("fn f(p: f64) -> f64 { let watts = p; let secs = 2.0; watts + secs }");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn dimensionless_and_unknown_stay_silent() {
        assert!(findings("fn f(secs: f64) -> f64 { secs * 2.0 }").is_empty());
        assert!(findings("fn f(secs: f64, n: f64) -> f64 { secs / n }").is_empty());
        assert!(findings("fn f(a_secs: f64, b_secs: f64) -> f64 { a_secs / b_secs }").is_empty());
        assert!(findings("fn f(x: f64, secs: f64) -> f64 { x + secs }").is_empty());
    }

    #[test]
    fn self_fields_resolve_through_the_index() {
        let f = findings(
            "struct M { busy_w: f64, window: SimDuration }\n\
             impl M { fn bad(&self) -> f64 { self.busy_w + self.window.as_secs_f64() } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        assert!(findings("#[cfg(test)]\nmod tests { fn f(watts: f64, secs: f64) -> f64 { watts + secs } }").is_empty());
    }
}
