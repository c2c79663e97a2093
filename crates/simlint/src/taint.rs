//! R7 — determinism taint tracking.
//!
//! clippy's `disallowed_types` says "a `HashMap` anywhere in sim code is
//! suspicious". This pass says something sharper: *this* HashMap's
//! iteration order (or this wall-clock read, ambient RNG draw, or thread
//! id) **reaches an exported artefact** — a `Telemetry` sink, a
//! `Report`/CSV writer, or the return value of an `Experiment::run`. A
//! keyed-only map vetted with `#[expect(clippy::disallowed_types)]` stays
//! legal right up until someone iterates it into a metric, at which point
//! R7 fires even though the lint is expected.
//!
//! ### Model
//!
//! Taint is a pair of bits per value: *source-tainted* (derives from a
//! nondeterminism source) and *param-tainted* (derives from a function
//! parameter). Per function we evaluate the body once, propagating both
//! bits through lets, assignments, arithmetic, method chains, `for`
//! loops and calls; the param bit yields an interprocedural summary —
//!
//! * `returns_source`: returns a source-tainted value outright,
//! * `taints_through`: a tainted argument reaches the return value,
//! * `sinks_params`: an argument reaches a sink inside the callee,
//!
//! — and summaries are iterated to a fixpoint per crate (call resolution
//! is by function name within the crate, matching the issue's
//! "across function calls within a crate" scope). Findings are emitted
//! where source taint meets a sink: directly, or at a call site whose
//! callee `sinks_params`.
//!
//! ### Sanitizers
//!
//! Order-insensitive reductions (`len`, `count`, `min`, `max`,
//! `contains*`, `get`, `is_empty`) drop the taint, as does collecting
//! into / binding as a `BTreeMap`/`BTreeSet` or an explicit `sort*()`
//! call on the binding. Float `sum`/`fold` deliberately do **not**: float
//! addition is non-associative, so summing a hash iteration is exactly
//! the bug class R7 exists for.
//!
//! Known blind spots (documented, not bugs): taint through struct-field
//! writes, through `if`/`match` *values* (their bodies are still
//! scanned), and through macro invocations (`write!`-family formatting is
//! invisible; raw sources inside macros are still caught by clippy).

use crate::index::{blocks, children, FileUnit, Index};
use crate::parse::{self, Block, ExprId, ExprKind, FnDef, Stmt};
use crate::rules::Finding;
use std::collections::BTreeMap;

/// Iteration methods whose order is hasher-randomised on a hash
/// collection receiver.
const ITER_SOURCES: [&str; 8] =
    ["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "entry_iter"];

/// Method names that end order-sensitivity: the result does not depend on
/// iteration order.
const SANITIZERS: [&str; 9] =
    ["len", "count", "is_empty", "contains", "contains_key", "get", "min", "max", "capacity"];

/// Telemetry / recorder methods — a tainted argument is an exported
/// nondeterministic artefact. (`Telemetry` and `MetricsRegistry` in
/// `simtel`, plus the shared `record` verb.)
const SINK_METHODS: [&str; 8] =
    ["counter_add", "counter_inc", "gauge_set", "observe", "series_push", "record", "record_into", "write_record"];

/// Free/assoc functions that render report artefacts.
const SINK_FNS: [&str; 3] = ["table", "series_table", "trim_float"];

/// Struct literals whose fields are report payloads.
const SINK_STRUCTS: [&str; 3] = ["Comparison", "Series", "Report"];

/// What one function does with taint, learned by fixpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Returns a source-tainted value even with clean arguments.
    pub returns_source: bool,
    /// Tainted arguments reach the return value.
    pub taints_through: bool,
    /// Arguments reach a sink inside the function.
    pub sinks_params: bool,
}

/// Per-crate summaries: fn name → merged summary.
pub type Summaries = BTreeMap<String, Summary>;

/// Taint state of one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Taint {
    /// Which nondeterminism source this derives from, if any.
    source: Option<&'static str>,
    /// Derives from a function parameter.
    param: bool,
}

impl Taint {
    fn clean() -> Taint {
        Taint::default()
    }
    fn or(self, other: Taint) -> Taint {
        Taint { source: self.source.or(other.source), param: self.param || other.param }
    }
    fn is_sourced(self) -> bool {
        self.source.is_some()
    }
}

/// Compute fixpoint summaries for one crate's files.
pub fn summarize_crate(files: &[&FileUnit], ix: &Index) -> Summaries {
    let mut summaries = Summaries::new();
    for _round in 0..5 {
        let mut next = summaries.clone();
        for unit in files {
            parse::visit_fns(&unit.ast.items, None, &mut |f, ctx, in_test| {
                if in_test || f.body.is_none() {
                    return;
                }
                let (summary, _) = eval_fn(unit, ix, f, ctx.map(|(_, st)| st), &summaries, false);
                let entry = next.entry(f.name.clone()).or_default();
                entry.returns_source |= summary.returns_source;
                entry.taints_through |= summary.taints_through;
                entry.sinks_params |= summary.sinks_params;
            });
        }
        if next == summaries {
            break;
        }
        summaries = next;
    }
    summaries
}

/// Run R7 over one file given its crate's summaries.
pub fn check_file(unit: &FileUnit, ix: &Index, summaries: &Summaries) -> Vec<Finding> {
    let mut findings = Vec::new();
    if unit.testish {
        return findings;
    }
    parse::visit_fns(&unit.ast.items, None, &mut |f, ctx, in_test| {
        if in_test || f.body.is_none() {
            return;
        }
        let (_, mut fnd) = eval_fn(unit, ix, f, ctx.map(|(_, st)| st), summaries, true);
        findings.append(&mut fnd);
    });
    findings
}

/// Evaluate one function body: returns its summary, and (when `emit`)
/// the findings where source taint met a sink.
fn eval_fn(
    unit: &FileUnit,
    ix: &Index,
    f: &FnDef,
    self_ty: Option<&str>,
    summaries: &Summaries,
    emit: bool,
) -> (Summary, Vec<Finding>) {
    let mut cx = Cx {
        unit,
        ix,
        summaries,
        taints: BTreeMap::new(),
        hashy: BTreeMap::new(),
        self_ty,
        ret: Taint::clean(),
        sinks_params: false,
        emit,
        findings: Vec::new(),
        is_experiment_run: f.name == "run"
            && self_ty.is_some_and(|st| ix.is_experiment_impl(&unit.krate, st)),
    };
    for p in &f.params {
        if p.name != "self" && p.name != "_" {
            cx.taints.insert(p.name.clone(), Taint { source: None, param: true });
            if is_hash_head(&p.ty.head) {
                cx.hashy.insert(p.name.clone(), true);
            }
        }
    }
    let Some(body) = f.body.as_ref() else {
        // Trait signatures and extern fns carry no body; nothing to learn.
        return (Summary::default(), Vec::new());
    };
    let tail = cx.block(body);
    let ret = cx.ret.or(tail);
    if cx.is_experiment_run && ret.is_sourced() {
        let src = ret.source.unwrap_or("a nondeterminism source");
        cx.findings.push(Finding {
            rule: "R7",
            file: unit.rel.clone(),
            line: f.line,
            msg: format!("Experiment::run for {} returns a value derived from {src}", self_ty.unwrap_or("?")),
        });
    }
    let summary = Summary {
        returns_source: ret.is_sourced(),
        taints_through: ret.param,
        sinks_params: cx.sinks_params,
    };
    (summary, cx.findings)
}

fn is_hash_head(head: &str) -> bool {
    head == "HashMap" || head == "HashSet"
}

struct Cx<'a> {
    unit: &'a FileUnit,
    ix: &'a Index,
    summaries: &'a Summaries,
    /// binding name → taint.
    taints: BTreeMap<String, Taint>,
    /// binding name → is a hash collection.
    hashy: BTreeMap<String, bool>,
    self_ty: Option<&'a str>,
    /// union of `return`-ed taints.
    ret: Taint,
    /// a param-tainted value reached a sink.
    sinks_params: bool,
    emit: bool,
    findings: Vec<Finding>,
    /// this fn is `run` in an `impl Experiment for …` block.
    is_experiment_run: bool,
}

impl<'a> Cx<'a> {
    fn sink_hit(&mut self, taint: Taint, line: u32, sink: &str) {
        if let Some(src) = taint.source {
            if self.emit {
                self.findings.push(Finding {
                    rule: "R7",
                    file: self.unit.rel.clone(),
                    line,
                    msg: format!("value derived from {src} flows into {sink}"),
                });
            }
        }
        if taint.param {
            self.sinks_params = true;
        }
    }

    /// Walk a block; returns the tail expression's taint.
    fn block(&mut self, b: &Block) -> Taint {
        let mut tail = Taint::clean();
        for (i, stmt) in b.stmts.iter().enumerate() {
            tail = Taint::clean();
            match stmt {
                Stmt::Let { names, ty, init, .. } => {
                    let mut t = init.map(|e| self.eval(e)).unwrap_or_default();
                    let mut hashy = init.is_some_and(|e| self.is_hash(e));
                    if let Some(ann) = ty {
                        if is_hash_head(&ann.head) {
                            hashy = true;
                        }
                        // binding into an ordered collection re-sorts:
                        // iteration-order taint does not survive a BTree
                        if ann.head.starts_with("BTree") {
                            t = Taint { source: None, param: t.param };
                        }
                    }
                    for name in names {
                        self.taints.insert(name.clone(), t);
                        self.hashy.insert(name.clone(), hashy);
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let t = self.eval(*expr);
                    if !semi && i + 1 == b.stmts.len() {
                        tail = t;
                    }
                }
                Stmt::Item(_) => {}
            }
        }
        tail
    }

    /// Is this expression a hash collection (so its iteration methods are
    /// nondeterminism sources)?
    fn is_hash(&self, id: ExprId) -> bool {
        let expr = self.unit.ast.expr(id);
        match &expr.kind {
            ExprKind::Path(segs) => match segs.as_slice() {
                [one] => self.hashy.get(one).copied().unwrap_or(false),
                _ => false,
            },
            ExprKind::Field { recv, name } => {
                let recv_expr = self.unit.ast.expr(*recv);
                let ty = match (&recv_expr.kind, self.self_ty) {
                    (ExprKind::Path(segs), Some(st)) if segs.as_slice() == ["self"] => {
                        self.ix.field_ty(&self.unit.krate, st, name)
                    }
                    _ => self.ix.field_ty_any(&self.unit.krate, name),
                };
                ty.is_some_and(|t| is_hash_head(&t.head))
            }
            ExprKind::Call { callee, .. } => {
                let callee_expr = self.unit.ast.expr(*callee);
                if let ExprKind::Path(segs) = &callee_expr.kind {
                    segs.len() >= 2
                        && is_hash_head(&segs[0])
                        && matches!(segs[1].as_str(), "new" | "with_capacity" | "from" | "default")
                } else {
                    false
                }
            }
            ExprKind::Unary(inner) | ExprKind::Try(inner) => self.is_hash(*inner),
            ExprKind::Tuple(parts) if parts.len() == 1 => self.is_hash(parts[0]),
            ExprKind::MethodCall { recv, name, .. } if name == "clone" => self.is_hash(*recv),
            _ => false,
        }
    }

    /// Evaluate an expression's taint, emitting findings at sinks.
    fn eval(&mut self, id: ExprId) -> Taint {
        let expr = self.unit.ast.expr(id).clone();
        match &expr.kind {
            ExprKind::Lit(_) => Taint::clean(),
            ExprKind::Path(segs) => match segs.as_slice() {
                [one] => self.taints.get(one).copied().unwrap_or_default(),
                _ => Taint::clean(),
            },
            ExprKind::Field { recv, .. } => {
                // field reads propagate the receiver's taint (self.x is clean)
                self.eval(*recv)
            }
            ExprKind::Unary(a) | ExprKind::Try(a) | ExprKind::Cast { expr: a, .. } => self.eval(*a),
            ExprKind::Index { recv, index } => self.eval(*recv).or(self.eval(*index)),
            ExprKind::Tuple(parts) | ExprKind::Array(parts) => {
                parts.iter().fold(Taint::clean(), |acc, p| acc.or(self.eval(*p)))
            }
            ExprKind::Binary { lhs, rhs, .. } => self.eval(*lhs).or(self.eval(*rhs)),
            ExprKind::Assign { lhs, rhs, op } => {
                let r = self.eval(*rhs);
                let lhs_expr = self.unit.ast.expr(*lhs).clone();
                if let ExprKind::Path(segs) = &lhs_expr.kind {
                    if let [one] = segs.as_slice() {
                        let prev = if op.is_some() {
                            self.taints.get(one).copied().unwrap_or_default()
                        } else {
                            Taint::clean()
                        };
                        self.taints.insert(one.clone(), prev.or(r));
                    }
                } else {
                    self.eval(*lhs);
                }
                Taint::clean()
            }
            ExprKind::MethodCall { recv, name, name_line, args } => {
                let recv_taint = self.eval(*recv);
                let arg_taint =
                    args.iter().fold(Taint::clean(), |acc, a| acc.or(self.eval(*a)));
                // sort() on a binding launders iteration-order taint
                if name.starts_with("sort") {
                    if let ExprKind::Path(segs) = &self.unit.ast.expr(*recv).kind.clone() {
                        if let [one] = segs.as_slice() {
                            if let Some(t) = self.taints.get_mut(one.as_str()) {
                                t.source = None;
                            }
                        }
                    }
                    return Taint::clean();
                }
                if SINK_METHODS.contains(&name.as_str()) {
                    self.sink_hit(arg_taint, *name_line, &format!("telemetry/report sink `.{name}()`"));
                }
                if SANITIZERS.contains(&name.as_str()) {
                    return Taint { source: None, param: recv_taint.param || arg_taint.param };
                }
                let mut t = recv_taint.or(arg_taint);
                if ITER_SOURCES.contains(&name.as_str()) && self.is_hash(*recv) {
                    t = t.or(Taint { source: Some("HashMap/HashSet iteration order"), param: false });
                }
                // crate-local callee summaries (methods resolved by name)
                if let Some(s) = self.summaries.get(name.as_str()) {
                    if s.sinks_params && arg_taint.is_sourced() {
                        self.sink_hit(arg_taint, *name_line, &format!("`{name}` (which sinks its arguments)"));
                    }
                    if s.sinks_params && arg_taint.param {
                        self.sinks_params = true;
                    }
                    if s.returns_source {
                        t = t.or(Taint { source: Some("a nondeterministic callee"), param: false });
                    }
                }
                t
            }
            ExprKind::Call { callee, args } => {
                let arg_taint =
                    args.iter().fold(Taint::clean(), |acc, a| acc.or(self.eval(*a)));
                let callee_expr = self.unit.ast.expr(*callee).clone();
                let segs: Vec<String> = match &callee_expr.kind {
                    ExprKind::Path(segs) => segs.clone(),
                    _ => {
                        self.eval(*callee);
                        Vec::new()
                    }
                };
                let last = segs.last().map(|s| s.as_str()).unwrap_or("");
                let line = callee_expr.line;
                // ambient sources
                let source = match segs.iter().map(|s| s.as_str()).collect::<Vec<_>>().as_slice() {
                    [.., "Instant", "now"] => Some("Instant::now (wall clock)"),
                    [.., "SystemTime", "now"] => Some("SystemTime::now (wall clock)"),
                    [.., "thread_rng"] | [.., "rand", "random"] | [.., "random"] => {
                        Some("ambient (unseeded) randomness")
                    }
                    [.., "thread", "current"] | [.., "current"] if segs.len() >= 2 && segs[segs.len() - 2] == "thread" => {
                        Some("a thread id")
                    }
                    _ => None,
                };
                if let Some(src) = source {
                    return Taint { source: Some(src), param: false };
                }
                if SINK_FNS.contains(&last) {
                    self.sink_hit(arg_taint, line, &format!("report writer `{last}()`"));
                }
                // `Comparison::new(...)` carries paper-vs-measured payload
                if segs.len() >= 2 && SINK_STRUCTS.contains(&segs[segs.len() - 2].as_str()) {
                    self.sink_hit(arg_taint, line, &format!("report payload `{}::{last}`", segs[segs.len() - 2]));
                }
                let mut t = arg_taint;
                if let Some(s) = self.summaries.get(last) {
                    if s.sinks_params {
                        self.sink_hit(arg_taint, line, &format!("`{last}` (which sinks its arguments)"));
                    }
                    if s.returns_source {
                        t = t.or(Taint { source: Some("a nondeterministic callee"), param: false });
                    }
                }
                t
            }
            ExprKind::StructLit { path, fields } => {
                let mut t = Taint::clean();
                for (_, v) in fields {
                    t = t.or(self.eval(*v));
                }
                if SINK_STRUCTS.contains(&path.as_str()) {
                    self.sink_hit(t, expr.line, &format!("report payload `{path} {{ .. }}`"));
                }
                t
            }
            ExprKind::For { names, iter, body } => {
                let iter_taint = self.eval(*iter);
                let hash_iter = self.is_hash(*iter)
                    || matches!(
                        &self.unit.ast.expr(*iter).kind,
                        ExprKind::MethodCall { recv, name, .. }
                            if ITER_SOURCES.contains(&name.as_str()) && self.is_hash(*recv)
                    );
                let bind = if hash_iter {
                    iter_taint.or(Taint { source: Some("HashMap/HashSet iteration order"), param: false })
                } else {
                    iter_taint
                };
                for n in names {
                    self.taints.insert(n.clone(), bind);
                }
                self.block(body);
                Taint::clean()
            }
            ExprKind::If { let_names, cond, then, else_ } => {
                let c = self.eval(*cond);
                for n in let_names {
                    self.taints.insert(n.clone(), c);
                }
                let a = self.block(then);
                let b = else_.map(|e| self.eval(e)).unwrap_or_default();
                a.or(b)
            }
            ExprKind::Match { scrut, arms } => {
                let s = self.eval(*scrut);
                let mut t = Taint::clean();
                for (names, body) in arms {
                    for n in names {
                        self.taints.insert(n.clone(), s);
                    }
                    t = t.or(self.eval(*body));
                }
                t
            }
            ExprKind::Block(b) => self.block(b),
            ExprKind::Loop(b) => {
                self.block(b);
                Taint::clean()
            }
            ExprKind::While { cond, body } => {
                self.eval(*cond);
                self.block(body);
                Taint::clean()
            }
            ExprKind::Closure { body, .. } => self.eval(*body),
            ExprKind::Jump(v) => {
                if let Some(e) = v {
                    let t = self.eval(*e);
                    self.ret = self.ret.or(t);
                }
                Taint::clean()
            }
            _ => {
                let mut t = Taint::clean();
                for c in children(&expr.kind) {
                    t = t.or(self.eval(c));
                }
                for b in blocks(&expr.kind) {
                    self.block(b);
                }
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let u = FileUnit::new("crates/demo/src/lib.rs", src);
        let ix = Index::build(std::slice::from_ref(&u));
        let summaries = summarize_crate(&[&u], &ix);
        check_file(&u, &ix, &summaries)
    }

    #[test]
    fn hashmap_values_to_telemetry_is_one_finding() {
        let src = "struct S { m: HashMap<u64, f64> }\n\
                   impl S { fn export(&self, tel: &mut Telemetry) {\n\
                   \x20   let worst: f64 = self.m.values().sum();\n\
                   \x20   tel.gauge_set(\"worst\", Labels::none(), worst);\n\
                   } }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R7");
        assert!(f[0].msg.contains("iteration order"), "{}", f[0].msg);
    }

    #[test]
    fn keyed_access_is_clean() {
        let src = "struct S { m: HashMap<u64, f64> }\n\
                   impl S { fn export(&self, tel: &mut Telemetry, k: u64) {\n\
                   \x20   let v = self.m.get(k);\n\
                   \x20   tel.gauge_set(\"v\", Labels::none(), v);\n\
                   \x20   tel.counter_add(\"n\", Labels::none(), self.m.len() as u64);\n\
                   } }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn wall_clock_to_report_is_flagged() {
        let src = "fn f() -> Comparison {\n\
                   \x20   let t = Instant::now();\n\
                   \x20   Comparison::new(\"x\", 1.0, t)\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("wall clock"), "{}", f[0].msg);
    }

    #[test]
    fn taint_flows_through_a_crate_local_helper() {
        // helper returns hash-iteration data; caller sinks it
        let src = "struct S { m: HashMap<u64, f64> }\n\
                   impl S {\n\
                   \x20   fn spread(&self) -> f64 { let s: f64 = self.m.values().sum(); s }\n\
                   \x20   fn export(&self, tel: &mut Telemetry) {\n\
                   \x20       tel.gauge_set(\"spread\", Labels::none(), self.spread());\n\
                   \x20   }\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn helper_that_sinks_its_argument_flags_the_tainted_call_site() {
        let src = "struct S { m: HashMap<u64, f64> }\n\
                   impl S {\n\
                   \x20   fn emit(&self, tel: &mut Telemetry, v: f64) { tel.gauge_set(\"v\", Labels::none(), v); }\n\
                   \x20   fn export(&self, tel: &mut Telemetry) {\n\
                   \x20       let s: f64 = self.m.values().sum();\n\
                   \x20       self.emit(tel, s);\n\
                   \x20   }\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("sinks its arguments"), "{}", f[0].msg);
    }

    #[test]
    fn experiment_run_return_is_a_sink() {
        let src = "struct E { m: HashMap<u64, f64> }\n\
                   impl Experiment for E {\n\
                   \x20   fn run(&mut self) -> f64 { let s: f64 = self.m.values().sum(); s }\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("Experiment::run"), "{}", f[0].msg);
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "struct S { m: BTreeMap<u64, f64> }\n\
                   impl S { fn export(&self, tel: &mut Telemetry) {\n\
                   \x20   let s: f64 = self.m.values().sum();\n\
                   \x20   tel.gauge_set(\"s\", Labels::none(), s);\n\
                   } }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn sorting_launders_iteration_order() {
        let src = "struct S { m: HashMap<u64, f64> }\n\
                   impl S { fn export(&self, tel: &mut Telemetry) {\n\
                   \x20   let mut vs: Vec<f64> = self.m.values().collect();\n\
                   \x20   vs.sort_by(f64::total_cmp);\n\
                   \x20   tel.gauge_set(\"min\", Labels::none(), vs);\n\
                   } }";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn for_loop_over_hash_taints_bindings() {
        let src = "struct S { m: HashMap<u64, f64> }\n\
                   impl S { fn export(&self, tel: &mut Telemetry) {\n\
                   \x20   let mut acc = 0.0;\n\
                   \x20   for (_k, v) in self.m.iter() { acc += v; }\n\
                   \x20   tel.gauge_set(\"acc\", Labels::none(), acc);\n\
                   } }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests { struct S { m: HashMap<u64, f64> }\n\
                   impl S { fn f(&self, tel: &mut Telemetry) { let s: f64 = self.m.values().sum(); tel.gauge_set(\"s\", Labels::none(), s); } } }";
        assert!(findings(src).is_empty());
    }
}
