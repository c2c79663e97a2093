//! Workspace symbol index: every parsed file plus cross-file lookup
//! tables the AST analyses share.
//!
//! The index answers two kinds of questions that single-file passes
//! cannot:
//!
//! * **Field types** — `self.gauges` is a `BTreeMap<(&'static str, Labels),
//!   f64>` because the `Registry` struct in the same crate says so
//!   ([`Index::field_ty`]).
//! * **Trait roles** — which types implement `Experiment`, so the taint
//!   analysis knows whose `run` return values are exported artefacts
//!   ([`Index::is_experiment_impl`]).
//!
//! Lookups are scoped per crate (`crates/<name>/…`, with the root
//! package's `src`/`tests` as crate `"root"`): the analyses are
//! deliberately intraprocedural *across files* but not across crates,
//! keeping name resolution trivial.

use crate::parse::{self, Ast, Item, ItemKind, Ty};
use std::collections::{BTreeMap, BTreeSet};

/// One parsed workspace file.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate name (`crates/net/...` → `net`; root package → `root`).
    pub krate: String,
    /// Item/expression tree.
    pub ast: Ast,
    /// Whole file is test-ish (`tests/`, `benches/`, `examples/` trees).
    pub testish: bool,
}

impl FileUnit {
    /// Parse `src`, the file at workspace-relative path `rel`.
    pub fn new(rel: &str, src: &str) -> FileUnit {
        FileUnit { rel: rel.to_string(), krate: crate_of(rel), ast: parse::parse(src).1, testish: crate::is_testish(rel) }
    }
}

/// Cross-file lookup tables over every [`FileUnit`].
#[derive(Debug, Default)]
pub struct Index {
    /// crate → struct name → (field name → type).
    pub structs: BTreeMap<String, BTreeMap<String, BTreeMap<String, Ty>>>,
    /// crate → type names with an `impl Experiment for …` block.
    pub experiment_impls: BTreeMap<String, BTreeSet<String>>,
}

impl Index {
    /// Build the index from parsed files.
    pub fn build(files: &[FileUnit]) -> Index {
        let mut ix = Index::default();
        for f in files {
            if f.testish {
                continue;
            }
            parse::visit_structs(&f.ast.items, &mut |s| {
                ix.structs
                    .entry(f.krate.clone())
                    .or_default()
                    .entry(s.name.clone())
                    .or_default()
                    .extend(s.fields.iter().cloned());
            });
            collect_impls(&f.ast.items, &f.krate, &mut ix);
        }
        ix
    }

    /// Type of `Struct.field` in `krate`, if known.
    pub fn field_ty(&self, krate: &str, struct_name: &str, field: &str) -> Option<&Ty> {
        self.structs.get(krate)?.get(struct_name)?.get(field)
    }

    /// Field type looked up across all structs of a crate — used when the
    /// receiver's struct is unknown but the field name is unambiguous.
    pub fn field_ty_any(&self, krate: &str, field: &str) -> Option<&Ty> {
        let mut found: Option<&Ty> = None;
        for fields in self.structs.get(krate)?.values() {
            if let Some(t) = fields.get(field) {
                match found {
                    None => found = Some(t),
                    Some(prev) if prev.head == t.head => {}
                    _ => return None, // ambiguous across structs
                }
            }
        }
        found
    }

    /// Does `type_name` implement `Experiment` in `krate`?
    pub fn is_experiment_impl(&self, krate: &str, type_name: &str) -> bool {
        self.experiment_impls.get(krate).is_some_and(|s| s.contains(type_name))
    }
}

fn collect_impls(items: &[Item], krate: &str, ix: &mut Index) {
    for item in items {
        match &item.kind {
            ItemKind::Impl(trait_head, self_ty, _) if trait_head.as_deref() == Some("Experiment") => {
                ix.experiment_impls.entry(krate.to_string()).or_default().insert(self_ty.clone());
            }
            ItemKind::Mod(_, Some(inner)) => collect_impls(inner, krate, ix),
            _ => {}
        }
    }
}

/// Crate name for a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

/// Child expressions of a node (blocks excluded — see [`blocks`]).
pub fn children(kind: &crate::parse::ExprKind) -> Vec<crate::parse::ExprId> {
    use crate::parse::ExprKind as E;
    match kind {
        E::Unary(a) | E::Try(a) => vec![*a],
        E::Binary { lhs, rhs, .. } | E::Assign { lhs, rhs, .. } => vec![*lhs, *rhs],
        E::Call { callee, args } => {
            let mut v = vec![*callee];
            v.extend(args.iter().copied());
            v
        }
        E::MethodCall { recv, args, .. } => {
            let mut v = vec![*recv];
            v.extend(args.iter().copied());
            v
        }
        E::Field { recv, .. } => vec![*recv],
        E::Index { recv, index } => vec![*recv, *index],
        E::Cast { expr, .. } => vec![*expr],
        E::Tuple(xs) | E::Array(xs) => xs.clone(),
        E::If { cond, else_, .. } => {
            let mut v = vec![*cond];
            v.extend(else_.iter().copied());
            v
        }
        E::Match { scrut, arms } => {
            let mut v = vec![*scrut];
            v.extend(arms.iter().map(|(_, e)| *e));
            v
        }
        E::While { cond, .. } => vec![*cond],
        E::For { iter, .. } => vec![*iter],
        E::Closure { body, .. } => vec![*body],
        E::Jump(Some(e)) => vec![*e],
        E::StructLit { fields, .. } => fields.iter().map(|(_, e)| *e).collect(),
        E::RangeLit(a, b) => a.iter().chain(b.iter()).copied().collect(),
        _ => Vec::new(),
    }
}

/// Blocks directly owned by a node.
pub fn blocks(kind: &crate::parse::ExprKind) -> Vec<&crate::parse::Block> {
    use crate::parse::ExprKind as E;
    match kind {
        E::Block(b) | E::Loop(b) => vec![b],
        E::If { then, .. } => vec![then],
        E::While { body, .. } | E::For { body, .. } => vec![body],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_names_resolve() {
        assert_eq!(crate_of("crates/net/src/gauge.rs"), "net");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/simlint_gate.rs"), "root");
    }

    #[test]
    fn index_sees_fields_and_experiment_impls() {
        let files = vec![
            FileUnit::new(
                "crates/demo/src/a.rs",
                "struct Net { flows: BTreeMap<u64, Flow>, m: HashMap<u8, u8> }\n\
                 impl Experiment for Net { fn run(&mut self) -> u8 { 0 } }",
            ),
        ];
        let ix = Index::build(&files);
        assert_eq!(ix.field_ty("demo", "Net", "flows").unwrap().head, "BTreeMap");
        assert!(ix.is_experiment_impl("demo", "Net"));
        assert!(!ix.is_experiment_impl("demo", "Other"));
    }
}
