//! Workspace symbol index: every parsed file plus the per-crate struct
//! field types R8 reads — `self.gauges` is a `BTreeMap<(&'static str,
//! Labels), f64>` because the `Registry` struct in the same crate says so
//! ([`Index::field_ty`]).
//!
//! Lookups are scoped per crate (`crates/<name>/…`, with the root
//! package's `src`/`tests` as crate `"root"`), keeping name resolution
//! trivial.

use crate::parse::{self, Ast, Ty};
use std::collections::BTreeMap;

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
        }
        ix
    }

    /// Type of `Struct.field` in `krate`, if known.
    pub fn field_ty(&self, krate: &str, struct_name: &str, field: &str) -> Option<&Ty> {
        self.structs.get(krate)?.get(struct_name)?.get(field)
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
        E::Cast(expr) => vec![*expr],
        E::Tuple(xs) | E::Array(xs) => xs.clone(),
        E::If { cond, else_, .. } => {
            let mut v = vec![*cond];
            v.extend(else_.iter().copied());
            v
        }
        E::Match { scrut, arms } => {
            let mut v = vec![*scrut];
            v.extend(arms.iter().flat_map(|(_, g, e)| g.iter().chain([e]).copied()));
            v
        }
        E::While { cond, .. } => vec![*cond],
        E::For { iter, .. } => vec![*iter],
        E::Closure(body) => vec![*body],
        E::Jump(Some(e)) => vec![*e],
        E::StructLit(fields) => fields.iter().map(|(_, e)| *e).collect(),
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
    fn index_sees_struct_fields() {
        let files = vec![FileUnit::new("crates/demo/src/a.rs", "struct Net { flows: BTreeMap<u64, Flow>, m: HashMap<u8, u8> }")];
        let ix = Index::build(&files);
        assert_eq!(ix.field_ty("demo", "Net", "flows").unwrap().head, "BTreeMap");
        assert!(ix.field_ty("demo", "Other", "flows").is_none());
    }
}
