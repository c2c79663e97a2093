//! A hand-rolled, dependency-free Rust item/expression parser.
//!
//! This is **not** a full Rust front end: it covers the subset this
//! workspace actually writes — modules, `use` trees, structs/enums,
//! traits, impl blocks, and function signatures *with bodies parsed down
//! to expressions* — which is exactly what the analyses
//! ([`crate::rules`], [`crate::units`]) need. Everything it does not
//! understand degrades to an [`ExprKind::Opaque`] / [`ItemKind::Other`]
//! node that still records its token range, so analyses skip it instead
//! of mis-reading it.
//!
//! ### Losslessness contract
//!
//! The tokenizer assigns every token a byte span into the original
//! source; the parser assigns every AST node a contiguous token range,
//! and sibling items tile the file. [`Ast::reassemble`] walks the item
//! tree emitting each token's source slice plus the trivia
//! (whitespace/comments) between tokens, and must reproduce the input
//! byte-for-byte — `tests/simlint_parser_roundtrip.rs` asserts this over every
//! `.rs` file in the workspace, which is the forcing function keeping
//! the parser honest as the codebase grows.
//!
//! ### Token-level choices that keep the grammar small
//!
//! `<`, `>`, `&` and `|` are always lexed as single-character tokens;
//! the expression parser merges byte-adjacent pairs (`>` `=` → `>=`,
//! `&` `&` → `&&`, …) on demand. This sidesteps the classic `Vec<Vec<u8>>`
//! shift-right ambiguity without parser state: in type position the two
//! `>`s are simply two closers.

use std::ops::Range;

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// `'a` — produced so reassembly is exact; the parser mostly skips them.
    Lifetime,
    /// Integer literal (any radix, with suffix).
    Int,
    /// Float literal (decimal point or exponent, with suffix).
    Float,
    /// String literal (incl. raw/byte strings).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Punctuation; compound tokens are `::`, `->`, `=>`, `==`, `!=`,
    /// `..=`, `..`, and the `op=` assignment family.
    Punct,
}

/// One token with its byte span and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
    /// 1-based line of the first byte.
    pub line: u32,
}

impl Tok {
    /// The source text of this token.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.lo..self.hi]
    }
}

/// Tokenize `src` into spanned tokens (trivia — whitespace and comments —
/// is represented only by the gaps between spans).
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let lo = i;
                let l0 = line;
                i = scan_string(b, i, &mut line);
                toks.push(Tok { kind: TokKind::Str, lo, hi: i, line: l0 });
            }
            b'\'' => {
                let lo = i;
                let l0 = line;
                let (hi, kind) = scan_quote(b, i, &mut line);
                i = hi;
                toks.push(Tok { kind, lo, hi: i, line: l0 });
            }
            c if c.is_ascii_digit() => {
                let lo = i;
                let l0 = line;
                let (hi, kind) = scan_number(b, i);
                i = hi;
                toks.push(Tok { kind, lo, hi: i, line: l0 });
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let lo = i;
                let l0 = line;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80) {
                    i += 1;
                }
                let word = &src[lo..i];
                // Raw/byte string & byte-char prefixes attach to the literal.
                if matches!(word, "r" | "b" | "br") && matches!(b.get(i), Some(b'"') | Some(b'#')) {
                    i = scan_raw_string(b, i, &mut line);
                    toks.push(Tok { kind: TokKind::Str, lo, hi: i, line: l0 });
                } else if word == "b" && b.get(i) == Some(&b'\'') {
                    let (hi, _) = scan_quote(b, i, &mut line);
                    i = hi;
                    toks.push(Tok { kind: TokKind::Char, lo, hi: i, line: l0 });
                } else {
                    toks.push(Tok { kind: TokKind::Ident, lo, hi: i, line: l0 });
                }
            }
            _ => {
                let lo = i;
                let two = |a: u8| b.get(i + 1) == Some(&a);
                let three = |a: u8, c2: u8| b.get(i + 1) == Some(&a) && b.get(i + 2) == Some(&c2);
                let len = match c {
                    b':' if two(b':') => 2,
                    b'-' if two(b'>') || two(b'=') => 2,
                    b'=' if two(b'>') || two(b'=') => 2,
                    b'!' if two(b'=') => 2,
                    b'.' if three(b'.', b'=') => 3,
                    b'.' if two(b'.') => 2,
                    b'+' | b'*' | b'/' | b'%' | b'^' if two(b'=') => 2,
                    b'|' | b'&' if two(b'=') => 2,
                    _ => 1,
                };
                i += len;
                toks.push(Tok { kind: TokKind::Punct, lo, hi: i, line });
            }
        }
    }
    toks
}

fn scan_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // a `\` line continuation still ends a line
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn scan_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return i;
    }
    i += 1;
    'outer: while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
        } else if b[i] == b'"' {
            for k in 0..hashes {
                if b.get(i + 1 + k) != Some(&b'#') {
                    i += 1;
                    continue 'outer;
                }
            }
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Scan from a `'`: either a char literal or a lifetime.
fn scan_quote(b: &[u8], i: usize, line: &mut u32) -> (usize, TokKind) {
    match b.get(i + 1) {
        Some(b'\\') => {
            // The escaped character belongs to the literal even when it is
            // a quote (`'\''`): skip it before hunting for the closer.
            let mut j = i + 2;
            if j < b.len() {
                if b[j] == b'\n' {
                    *line += 1;
                }
                j += 1;
            }
            while j < b.len() && b[j] != b'\'' {
                if b[j] == b'\n' {
                    *line += 1;
                }
                j += 1;
            }
            ((j + 1).min(b.len()), TokKind::Char)
        }
        Some(c) if b.get(i + 2) == Some(&b'\'') && *c != b'\'' => (i + 3, TokKind::Char),
        _ => {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            (j, TokKind::Lifetime)
        }
    }
}

fn scan_number(b: &[u8], mut i: usize) -> (usize, TokKind) {
    let start = i;
    let hex = b[i] == b'0' && matches!(b.get(i + 1), Some(b'x') | Some(b'o') | Some(b'b'));
    let mut float = false;
    let alnum = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    while i < b.len() && alnum(b[i]) {
        i += 1;
    }
    // `1.5`, `1.5e-3` — a dot only continues the number if a digit follows
    // (so `0..10` and `x.0` lex correctly).
    if !hex && b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        float = true;
        i += 1;
        while i < b.len() && alnum(b[i]) {
            i += 1;
        }
    }
    // Exponent sign: `1e-9` stops the alnum run at `-`; resume if the
    // previous char was e/E in a decimal literal.
    if !hex
        && matches!(b.get(i), Some(b'+') | Some(b'-'))
        && matches!(b.get(i.wrapping_sub(1)), Some(b'e') | Some(b'E'))
    {
        float = true;
        i += 1;
        while i < b.len() && alnum(b[i]) {
            i += 1;
        }
    }
    if !hex && b[start..i].iter().any(|&c| c == b'e' || c == b'E') {
        float = true;
    }
    (i, if float { TokKind::Float } else { TokKind::Int })
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Index of an expression in [`Ast::exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(pub u32);

/// A parsed type, reduced to what the analyses need: the head path
/// segment (`f64`, `Vec`, `HashMap`, …), seen through references.
/// Generic arguments are parsed for sync and dropped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ty {
    /// Last path segment of the type (empty for opaque types).
    pub head: String,
    /// True if the type was behind `&`/`&mut`.
    pub refd: bool,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`_` when the pattern is not a plain identifier;
    /// `self` for receivers).
    pub name: String,
    /// Declared type (empty head for `self`).
    pub ty: Ty,
}

/// A function definition (free, method, or trait item).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters, in order (`self` receiver included).
    pub params: Vec<Param>,
    /// Body, absent for trait method signatures.
    pub body: Option<Block>,
    /// 1-based line of the `fn` name.
    pub line: u32,
}

/// A struct definition: name and named fields (tuple structs get
/// positional names `"0"`, `"1"`, …).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Field name → declared type.
    pub fields: Vec<(String, Ty)>,
}

/// What an item is. Unhandled constructs become [`ItemKind::Other`].
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `fn` (free function or method — methods appear inside `Impl`/`Trait`).
    Fn(FnDef),
    /// `struct`.
    Struct(StructDef),
    /// `enum` (variants are not modelled).
    Enum,
    /// `mod name;` or `mod name { items }`.
    Mod(String, Option<Vec<Item>>),
    /// `use ...;`.
    Use,
    /// `impl [Trait for] Type { items }`: (self-type head, items).
    Impl(String, Vec<Item>),
    /// `trait Name { items }`.
    Trait(Vec<Item>),
    /// Item-position macro invocation or `macro_rules!` definition.
    MacroItem,
    /// Anything else (`const`, `static`, `type`, `extern`, …).
    Other,
}

/// One item with its token range.
#[derive(Debug, Clone)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Token-index range this item covers (attributes included).
    pub toks: Range<usize>,
    /// True when the item is test-only (`#[cfg(test)]`, `mod tests`, …).
    pub in_test: bool,
}

/// A `{ ... }` block: statements plus token range (braces included).
#[derive(Debug, Clone)]
pub struct Block {
    /// Statements in order (a trailing expression is a `Stmt::Expr`).
    pub stmts: Vec<Stmt>,
    /// Token range including the braces.
    pub toks: Range<usize>,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let <pat>[: ty] [= init] [else { .. }];`
    Let {
        /// Names bound by the pattern (heuristic for non-trivial patterns).
        names: Vec<String>,
        /// Declared type, if annotated.
        ty: Option<Ty>,
        /// Initializer, if present.
        init: Option<ExprId>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// Expression statement, with or without a trailing `;`.
    Expr(ExprId),
    /// Nested item (fn, use, const, …) in statement position.
    Item(Box<Item>),
}

/// Binary operators the analyses distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`, `!=`
    Eq,
    /// `<`, `>`, `<=`, `>=`
    Cmp,
    /// `&&`, `||`
    Logic,
    /// `&`, `|`, `^`, `<<`, `>>`
    Bit,
}

/// Expression shapes. Each carries its token range in its [`Expr`].
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Path: `x`, `a::b::c`, `Self::X` (turbofish args dropped).
    Path(Vec<String>),
    /// Literal: int/float/str/char/bool.
    Lit(TokKind),
    /// Unary `-`/`!`/`*`/`&`.
    Unary(ExprId),
    /// Binary operation.
    Binary {
        /// The operator class.
        op: BinOp,
        /// Source text of the operator (for messages).
        op_text: &'static str,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// `lhs = rhs` or `lhs op= rhs`.
    Assign {
        /// Compound operator, `None` for plain `=`.
        op: Option<BinOp>,
        /// Assignee.
        lhs: ExprId,
        /// Value.
        rhs: ExprId,
    },
    /// `callee(args)`.
    Call {
        /// The callee expression (usually a path).
        callee: ExprId,
        /// Arguments.
        args: Vec<ExprId>,
    },
    /// `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: ExprId,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<ExprId>,
    },
    /// `recv.name` (also tuple indices `t.0`).
    Field {
        /// Receiver.
        recv: ExprId,
        /// Field name or tuple index.
        name: String,
    },
    /// `recv[index]`.
    Index {
        /// Receiver.
        recv: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// `expr as Ty` (the target type is parsed for sync and dropped).
    Cast(ExprId),
    /// `expr?`.
    Try(ExprId),
    /// `(e)` or `(a, b, ...)` — single-element = paren group.
    Tuple(Vec<ExprId>),
    /// `[a, b]` / `[x; n]`.
    Array(Vec<ExprId>),
    /// A block expression (also bodies of `unsafe`).
    Block(Block),
    /// `if [let pat =] cond { .. } [else ..]`.
    If {
        /// Condition (scrutinee for `if let`).
        cond: ExprId,
        /// Then-block.
        then: Block,
        /// Else branch (`Block` or nested `If`).
        else_: Option<ExprId>,
    },
    /// `match scrut { arms }`.
    Match {
        /// Scrutinee.
        scrut: ExprId,
        /// Arms: (bound names, guard, body).
        arms: Vec<(Vec<String>, Option<ExprId>, ExprId)>,
    },
    /// `while [let ..] cond { .. }`.
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: Block,
    },
    /// `loop { .. }`.
    Loop(Block),
    /// `for pat in iter { .. }`.
    For {
        /// Names bound by the loop pattern.
        names: Vec<String>,
        /// Iterated expression.
        iter: ExprId,
        /// Body.
        body: Block,
    },
    /// Closure `|params| body` (`move` included), reduced to its body.
    Closure(ExprId),
    /// `return [expr]` / `break [expr]` / `continue`.
    Jump(Option<ExprId>),
    /// Struct literal `Path { field: expr, .. }`: the field initializers
    /// (shorthand fields map name → path expr).
    StructLit(Vec<(String, ExprId)>),
    /// `lo..hi` / `..hi` / `lo..` / `..=`.
    RangeLit(Option<ExprId>, Option<ExprId>),
    /// Macro invocation `name!(…)`, skipped as one balanced group.
    MacroCall,
    /// Anything unparseable — consumed blindly but losslessly.
    Opaque,
}

/// One expression with its token range and line.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The shape.
    pub kind: ExprKind,
    /// Token range covered.
    pub toks: Range<usize>,
    /// 1-based line of the first token.
    pub line: u32,
}

/// A parsed file.
#[derive(Debug, Clone)]
pub struct Ast {
    /// Top-level items, tiling the whole token stream.
    pub items: Vec<Item>,
    /// Expression arena.
    pub exprs: Vec<Expr>,
    /// Total number of tokens (for coverage checks).
    pub n_tokens: usize,
}

impl Ast {
    /// Look up an expression.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// Reassemble the original source from the item tree: each item
    /// contributes the source slice spanning its token range plus the
    /// trivia gap that precedes it. Byte-identical to the input whenever
    /// the parser upheld its coverage contract (asserted by
    /// [`Ast::validate`] and the round-trip tests).
    pub fn reassemble(&self, src: &str, toks: &[Tok]) -> String {
        let mut out = String::with_capacity(src.len());
        let mut byte = 0usize; // bytes emitted so far
        for item in &self.items {
            if let Some(first) = toks.get(item.toks.start) {
                // trivia before the item, then the item's own bytes
                let end = toks
                    .get(item.toks.end.wrapping_sub(1))
                    .map_or(first.lo, |t| t.hi);
                out.push_str(&src[byte..first.lo]);
                out.push_str(&src[first.lo..end]);
                byte = end;
            }
        }
        out.push_str(&src[byte..]);
        out
    }

    /// Check the coverage contract: top-level items are contiguous and
    /// tile `0..n_tokens`; nested containers tile their interiors.
    pub fn validate(&self) -> Result<(), String> {
        validate_items(&self.items, 0, self.n_tokens)
    }
}

fn validate_items(items: &[Item], start: usize, end: usize) -> Result<(), String> {
    let mut at = start;
    for item in items {
        if item.toks.start != at {
            return Err(format!("item gap: expected token {at}, item starts at {}", item.toks.start));
        }
        if item.toks.end < item.toks.start || item.toks.end > end {
            return Err(format!("item overrun: {:?} beyond {end}", item.toks));
        }
        at = item.toks.end;
        if let ItemKind::Mod(_, Some(inner)) | ItemKind::Impl(_, inner) | ItemKind::Trait(inner) = &item.kind {
            // interior: first inner item starts after the `{`, last ends
            // before the `}` — checked loosely (contiguity among siblings).
            if let (Some(first), Some(last)) = (inner.first(), inner.last()) {
                validate_items(inner, first.toks.start, last.toks.end)?;
            }
        }
    }
    if at != end {
        return Err(format!("trailing tokens: items end at {at}, expected {end}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse one file. Never fails: unrecognised constructs degrade to
/// `Other`/`Opaque` nodes that still cover their tokens.
pub fn parse(src: &str) -> (Vec<Tok>, Ast) {
    let toks = tokenize(src);
    let mut p = Parser { src, toks: &toks, pos: 0, exprs: Vec::new() };
    let mut items = Vec::new();
    loop {
        let mut chunk = p.items_until(toks.len(), false);
        items.append(&mut chunk);
        if p.pos >= toks.len() {
            break;
        }
        // A stray top-level `}` (unbalanced input) stalls items_until;
        // absorb it as an opaque item so the ranges still tile the file.
        let start = p.pos;
        p.pos += 1;
        items.push(Item { kind: ItemKind::Other, toks: start..p.pos, in_test: false });
    }
    let ast = Ast { items, exprs: p.exprs, n_tokens: toks.len() };
    debug_assert_eq!(ast.validate(), Ok(()), "parser coverage broken");
    (toks, ast)
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Tok],
    pos: usize,
    exprs: Vec<Expr>,
}

impl<'s> Parser<'s> {
    // -- token helpers ----------------------------------------------------

    fn at(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.pos + k)
    }

    fn text_at(&self, k: usize) -> &'s str {
        self.at(k).map_or("", |t| t.text(self.src))
    }

    fn peek(&self) -> &'s str {
        self.text_at(0)
    }

    fn line(&self) -> u32 {
        self.at(0).map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.peek() == s {
            self.bump();
            true
        } else {
            false
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Two tokens are byte-adjacent (no trivia between) — used to merge
    /// `>` `=` into `>=`, `&` `&` into `&&`, etc.
    fn adjacent(&self, k: usize) -> bool {
        match (self.at(k), self.at(k + 1)) {
            (Some(a), Some(b)) => a.hi == b.lo,
            _ => false,
        }
    }

    /// Skip tokens with delimiter balancing until `pred` holds at depth 0
    /// or the enclosing delimiter closes. Returns without consuming the
    /// stop token. Guaranteed to terminate.
    fn skip_until(&mut self, stop: impl Fn(&str) -> bool) {
        let mut depth = 0i32;
        while let Some(t) = self.at(0) {
            let s = t.text(self.src);
            // The stop test must precede the bracket bookkeeping: a stop
            // token that is itself an opener (`{` in `enum E { … }`) would
            // otherwise raise `depth` first and never match at depth 0,
            // silently swallowing everything to the next top-level brace.
            if depth == 0 && stop(s) {
                return;
            }
            match s {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Consume a balanced group starting at the current open delimiter.
    fn skip_balanced(&mut self) {
        let open = self.peek();
        let close = match open {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            "<" => ">",
            _ => {
                self.bump();
                return;
            }
        };
        self.bump();
        let mut depth = 1i32;
        while let Some(t) = self.at(0) {
            let s = t.text(self.src);
            if s == open && open != "<" {
                depth += 1;
            } else if s == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            } else if open == "<" {
                // angle groups: track nested <> only; other delimiters
                // balance independently.
                match s {
                    "<" => depth += 1,
                    "(" | "[" | "{" => {
                        self.skip_balanced();
                        continue;
                    }
                    ")" | "]" | "}" => return, // mismatched; bail out
                    _ => {}
                }
            }
            self.bump();
        }
    }

    // -- items ------------------------------------------------------------

    /// Parse items until token index `end` (exclusive) or a `}` at depth 0.
    fn items_until(&mut self, end: usize, in_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < end && !self.done() && self.peek() != "}" {
            items.push(self.item(in_test));
        }
        items
    }

    fn item(&mut self, in_test: bool) -> Item {
        let start = self.pos;
        let mut test_here = in_test;

        // Attributes. `#[cfg(test)]` (and `cfg(all(test, ..))`, but not
        // `cfg(not(test))`) marks the item as test-only.
        while self.peek() == "#" {
            let attr_start = self.pos;
            self.bump();
            self.eat("!");
            if self.peek() == "[" {
                self.skip_balanced();
            }
            let attr_text: String = self.toks[attr_start..self.pos]
                .iter()
                .map(|t| t.text(self.src))
                .collect::<Vec<_>>()
                .join(" ");
            if attr_text.contains("cfg") && attr_text.contains("test") && !attr_text.contains("not") {
                test_here = true;
            }
        }

        // Visibility and qualifiers.
        if self.eat("pub") && self.peek() == "(" {
            self.skip_balanced();
        }
        loop {
            match self.peek() {
                "unsafe" | "async" => self.bump(),
                "extern" => {
                    self.bump();
                    if self.at(0).is_some_and(|t| t.kind == TokKind::Str) {
                        self.bump();
                    }
                    // `extern crate foo;` / `extern "C" { .. }`
                    if self.peek() == "crate" {
                        self.skip_until(|s| s == ";");
                        self.eat(";");
                        return self.finish_other(start, test_here);
                    }
                }
                "const" | "static" => {
                    if self.text_at(1) == "fn" {
                        self.bump();
                    } else {
                        // const/static item: consume to `;`.
                        self.skip_until(|s| s == ";");
                        self.eat(";");
                        return self.finish_other(start, test_here);
                    }
                }
                _ => break,
            }
        }

        let kind = match self.peek() {
            "fn" => {
                let f = self.fn_def();
                ItemKind::Fn(f)
            }
            "struct" => self.struct_def(),
            "enum" => {
                self.skip_until(|s| s == "{" || s == ";");
                if self.peek() == "{" {
                    self.skip_balanced();
                } else {
                    self.eat(";");
                }
                ItemKind::Enum
            }
            "mod" => {
                self.bump();
                let name = self.ident_or("_");
                let test_mod = test_here || matches!(name.as_str(), "tests" | "test" | "proptests");
                if self.eat("{") {
                    let inner = self.items_until(self.toks.len(), test_mod);
                    self.eat("}");
                    if test_mod {
                        test_here = true;
                    }
                    ItemKind::Mod(name, Some(inner))
                } else {
                    self.eat(";");
                    ItemKind::Mod(name, None)
                }
            }
            "use" => {
                self.skip_until(|t| t == ";");
                self.eat(";");
                ItemKind::Use
            }
            "impl" => {
                self.bump();
                if self.peek() == "<" {
                    self.skip_balanced();
                }
                // Collect path heads up to `{`; `impl Trait for Type` puts
                // the self type after `for`.
                let mut last_head = String::new();
                while !self.done() && self.peek() != "{" {
                    let t = self.peek();
                    if t == "for" {
                        last_head.clear();
                        self.bump();
                    } else if t == "where" {
                        self.skip_until(|s| s == "{");
                    } else if t == "<" {
                        self.skip_balanced();
                    } else {
                        if self.at(0).is_some_and(|x| x.kind == TokKind::Ident)
                            && !matches!(t, "dyn" | "mut" | "const")
                        {
                            last_head = t.to_string();
                        }
                        self.bump();
                    }
                }
                self.eat("{");
                let inner = self.items_until(self.toks.len(), test_here);
                self.eat("}");
                ItemKind::Impl(last_head, inner)
            }
            "trait" => {
                self.skip_until(|s| s == "{" || s == ";");
                if self.eat("{") {
                    let inner = self.items_until(self.toks.len(), test_here);
                    self.eat("}");
                    ItemKind::Trait(inner)
                } else {
                    self.eat(";");
                    ItemKind::Other
                }
            }
            "type" => {
                self.skip_until(|s| s == ";");
                self.eat(";");
                ItemKind::Other
            }
            "macro_rules" => {
                self.bump();
                self.eat("!");
                self.ident_or("_");
                if matches!(self.peek(), "{" | "(" | "[") {
                    let brace = self.peek() == "{";
                    self.skip_balanced();
                    if !brace {
                        self.eat(";");
                    }
                }
                ItemKind::MacroItem
            }
            _ => {
                // Item-position macro call: `name! { .. }` / `name!(..);`
                if self.at(0).is_some_and(|t| t.kind == TokKind::Ident) && self.text_at(1) == "!" {
                    self.bump();
                    self.eat("!");
                    let brace = self.peek() == "{";
                    if matches!(self.peek(), "{" | "(" | "[") {
                        self.skip_balanced();
                    }
                    if !brace {
                        self.eat(";");
                    }
                    ItemKind::MacroItem
                } else {
                    // Unknown: consume one balanced run to `;` or `{..}`.
                    self.skip_until(|s| s == ";" || s == "{");
                    if self.peek() == "{" {
                        self.skip_balanced();
                    } else {
                        self.eat(";");
                        // make progress even on a lone stray token
                    }
                    if self.pos == start {
                        self.bump();
                    }
                    ItemKind::Other
                }
            }
        };
        Item { kind, toks: start..self.pos, in_test: test_here }
    }

    fn finish_other(&mut self, start: usize, in_test: bool) -> Item {
        if self.pos == start {
            self.bump();
        }
        Item { kind: ItemKind::Other, toks: start..self.pos, in_test }
    }

    fn ident_or(&mut self, fallback: &str) -> String {
        if self.at(0).is_some_and(|t| t.kind == TokKind::Ident) {
            let s = self.peek().to_string();
            self.bump();
            s
        } else {
            fallback.to_string()
        }
    }

    fn struct_def(&mut self) -> ItemKind {
        self.bump(); // struct
        let name = self.ident_or("_");
        if self.peek() == "<" {
            self.skip_balanced();
        }
        if self.peek() == "where" {
            self.skip_until(|s| s == "{" || s == ";" || s == "(");
        }
        let mut fields = Vec::new();
        match self.peek() {
            "{" => {
                self.bump();
                while !self.done() && self.peek() != "}" {
                    while self.peek() == "#" {
                        self.bump();
                        if self.peek() == "[" {
                            self.skip_balanced();
                        }
                    }
                    if self.eat("pub") && self.peek() == "(" {
                        self.skip_balanced();
                    }
                    if self.at(0).is_some_and(|t| t.kind == TokKind::Ident) && self.text_at(1) == ":" {
                        let fname = self.ident_or("_");
                        self.bump(); // :
                        let ty = self.type_expr();
                        fields.push((fname, ty));
                    } else {
                        self.skip_until(|s| s == ",");
                    }
                    self.eat(",");
                }
                self.eat("}");
            }
            "(" => {
                // tuple struct: positional field names
                self.bump();
                let mut idx = 0usize;
                while !self.done() && self.peek() != ")" {
                    if self.eat("pub") && self.peek() == "(" {
                        self.skip_balanced();
                    }
                    let ty = self.type_expr();
                    fields.push((idx.to_string(), ty));
                    idx += 1;
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat(")");
                self.eat(";");
            }
            _ => {
                self.eat(";");
            }
        }
        ItemKind::Struct(StructDef { name, fields })
    }

    fn fn_def(&mut self) -> FnDef {
        self.bump(); // fn
        let line = self.line();
        let name = self.ident_or("_");
        if self.peek() == "<" {
            self.skip_balanced();
        }
        let mut params = Vec::new();
        if self.eat("(") {
            while !self.done() && self.peek() != ")" {
                while self.peek() == "#" {
                    self.bump();
                    if self.peek() == "[" {
                        self.skip_balanced();
                    }
                }
                // receiver forms: self / &self / &mut self / &'a mut self / mut self
                let mut k = 0usize;
                while matches!(self.text_at(k), "&" | "mut") || self.at(k).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    k += 1;
                }
                if self.text_at(k) == "self" {
                    for _ in 0..=k {
                        self.bump();
                    }
                    params.push(Param { name: "self".into(), ty: Ty::default() });
                } else {
                    self.eat("mut");
                    if self.at(0).is_some_and(|t| t.kind == TokKind::Ident) && self.text_at(1) == ":" {
                        let pname = self.ident_or("_");
                        self.bump(); // :
                        let ty = self.type_expr();
                        params.push(Param { name: pname, ty });
                    } else {
                        // non-identifier pattern: consume to `,`/`)`
                        self.skip_until(|s| s == ",");
                        params.push(Param { name: "_".into(), ty: Ty::default() });
                    }
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.eat(")");
        }
        if self.eat("->") {
            self.type_expr();
        }
        if self.peek() == "where" {
            self.skip_until(|s| s == "{" || s == ";");
        }
        let body = if self.peek() == "{" { Some(self.block()) } else {
            self.eat(";");
            None
        };
        FnDef { name, params, body, line }
    }

    // -- types ------------------------------------------------------------

    /// Parse a type where one is expected. Consumes conservatively: path
    /// types with their generic arguments; anything else balanced-skipped.
    fn type_expr(&mut self) -> Ty {
        let mut refd = false;
        while self.peek() == "&" {
            refd = true;
            self.bump();
            if self.at(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.bump();
            }
            self.eat("mut");
        }
        if self.eat("dyn") || self.eat("impl") {
            let mut t = self.type_expr();
            t.refd |= refd;
            return t;
        }
        match self.peek() {
            "(" => {
                self.bump();
                let mut parts = Vec::new();
                while !self.done() && self.peek() != ")" {
                    parts.push(self.type_expr());
                    if !self.eat(",") {
                        break;
                    }
                }
                self.eat(")");
                match parts.pop() {
                    Some(mut t) if parts.is_empty() => {
                        t.refd |= refd;
                        t
                    }
                    _ => Ty { head: "(tuple)".into(), refd },
                }
            }
            "[" => {
                self.bump();
                self.type_expr();
                self.skip_until(|s| s == "]");
                self.eat("]");
                Ty { head: "[]".into(), refd }
            }
            _ => {
                if self.at(0).map(|t| t.kind) != Some(TokKind::Ident) {
                    // not a type we understand: skip one balanced token
                    self.skip_balanced();
                    return Ty { head: String::new(), refd };
                }
                let mut head = self.ident_or("_");
                loop {
                    if self.peek() == "::" && self.at(1).is_some_and(|t| t.kind == TokKind::Ident) {
                        self.bump();
                        head = self.ident_or("_");
                    } else {
                        break;
                    }
                }
                // `x as f64 <= y`: a `<` followed by `=` is a comparison
                if self.peek() == "<" && self.text_at(1) != "=" {
                    self.bump();
                    while !self.done() {
                        match self.peek() {
                            ">" => {
                                self.bump();
                                break;
                            }
                            "," => {
                                self.bump();
                            }
                            _ => {
                                if self.at(0).is_some_and(|t| {
                                    t.kind == TokKind::Lifetime
                                        || t.kind == TokKind::Int
                                        || t.text(self.src) == "'"
                                }) {
                                    self.bump();
                                } else if self.at(0).is_some_and(|t| t.kind == TokKind::Ident)
                                    || matches!(self.peek(), "&" | "(" | "[")
                                {
                                    self.type_expr();
                                } else {
                                    self.bump();
                                }
                            }
                        }
                    }
                }
                // `Fn(..) -> T` sugar and fn pointers: consume the tail.
                if matches!(head.as_str(), "Fn" | "FnMut" | "FnOnce" | "fn") && self.peek() == "(" {
                    self.skip_balanced();
                    if self.eat("->") {
                        self.type_expr();
                    }
                }
                Ty { head, refd }
            }
        }
    }

    // -- blocks & statements ----------------------------------------------

    fn block(&mut self) -> Block {
        let start = self.pos;
        self.eat("{");
        let mut stmts = Vec::new();
        while !self.done() && self.peek() != "}" {
            stmts.push(self.stmt());
        }
        self.eat("}");
        Block { stmts, toks: start..self.pos }
    }

    fn stmt(&mut self) -> Stmt {
        // leading attributes on statements
        while self.peek() == "#" {
            self.bump();
            if self.peek() == "[" {
                self.skip_balanced();
            }
        }
        if self.eat(";") {
            // stray empty statement
            let id = self.mk(ExprKind::Opaque, self.pos.saturating_sub(1)..self.pos, self.line());
            return Stmt::Expr(id);
        }
        match self.peek() {
            "let" => {
                let line = self.line();
                self.bump();
                let names = self.pattern_names(&["=", ":", ";"]);
                let ty = if self.eat(":") { Some(self.type_expr()) } else { None };
                let init = if self.eat("=") { Some(self.expr(true)) } else { None };
                if self.peek() == "else" {
                    // let-else
                    self.bump();
                    if self.peek() == "{" {
                        self.block();
                    }
                }
                self.eat(";");
                Stmt::Let { names, ty, init, line }
            }
            "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "type" | "macro_rules"
            | "const" | "static" => {
                // `const` could also start a const-block expr; in this
                // workspace const-in-fn is always an item.
                Stmt::Item(Box::new(self.item(false)))
            }
            _ => {
                let expr = self.expr(true);
                self.eat(";");
                Stmt::Expr(expr)
            }
        }
    }

    /// Consume a pattern, collecting likely binding names, stopping at any
    /// of `stops` at depth 0. A name is an identifier that is not a path
    /// segment prefix (`X::`), not a struct/variant head (`X(`/`X {`,
    /// detected by a following `(`/`{`/`::`), and not a field key
    /// (`name:` inside braces is kept — shorthand bindings).
    fn pattern_names(&mut self, stops: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.at(0) {
            let s = t.text(self.src);
            match s {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            if depth == 0 && stops.contains(&s) {
                break;
            }
            if t.kind == TokKind::Ident
                && !matches!(s, "ref" | "mut" | "box" | "_" | "true" | "false" | "None")
                && !s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && self.text_at(1) != "::"
                && self.text_at(1) != "("
            {
                // `field: sub` inside a struct pattern — the key is not a
                // binding, the sub-pattern is. Only inside delimiters: at
                // depth 0 a following `:` is the let type annotation.
                if depth > 0 && self.text_at(1) == ":" && self.text_at(2) != ":" {
                    // skip key
                } else {
                    names.push(s.to_string());
                }
            }
            self.bump();
        }
        names
    }

    // -- expressions ------------------------------------------------------

    #[expect(clippy::cast_possible_truncation, reason = "a source file with 4 billion expressions is unreachable")]
    fn mk(&mut self, kind: ExprKind, toks: Range<usize>, line: u32) -> ExprId {
        self.exprs.push(Expr { kind, toks, line });
        ExprId((self.exprs.len() - 1) as u32)
    }

    /// Parse one expression. `allow_struct` disables struct-literal
    /// parsing in `if`/`while`/`for`/`match` headers.
    fn expr(&mut self, allow_struct: bool) -> ExprId {
        self.assign_expr(allow_struct)
    }

    fn assign_expr(&mut self, allow_struct: bool) -> ExprId {
        let start = self.pos;
        let line = self.line();
        let lhs = self.range_expr(allow_struct);
        let op = match self.peek() {
            "=" if self.text_at(1) != "=" => {
                self.bump();
                Some(None)
            }
            "+=" => {
                self.bump();
                Some(Some(BinOp::Add))
            }
            "-=" => {
                self.bump();
                Some(Some(BinOp::Sub))
            }
            "*=" => {
                self.bump();
                Some(Some(BinOp::Mul))
            }
            "/=" => {
                self.bump();
                Some(Some(BinOp::Div))
            }
            "%=" => {
                self.bump();
                Some(Some(BinOp::Rem))
            }
            "^=" | "|=" | "&=" => {
                self.bump();
                Some(Some(BinOp::Bit))
            }
            // `<<=` / `>>=` arrive as `<` `<` `=` — merge if adjacent.
            "<" | ">" if self.peek() == self.text_at(1) && self.text_at(2) == "=" && self.adjacent(0) && self.adjacent(1) => {
                self.bump();
                self.bump();
                self.bump();
                Some(Some(BinOp::Bit))
            }
            _ => None,
        };
        if let Some(op) = op {
            let rhs = self.assign_expr(allow_struct);
            self.mk(ExprKind::Assign { op, lhs, rhs }, start..self.pos, line)
        } else {
            lhs
        }
    }

    fn range_expr(&mut self, allow_struct: bool) -> ExprId {
        let start = self.pos;
        let line = self.line();
        if matches!(self.peek(), ".." | "..=") {
            self.bump();
            let hi = if self.starts_expr() { Some(self.or_expr(allow_struct)) } else { None };
            return self.mk(ExprKind::RangeLit(None, hi), start..self.pos, line);
        }
        let lo = self.or_expr(allow_struct);
        if matches!(self.peek(), ".." | "..=") {
            self.bump();
            let hi = if self.starts_expr() { Some(self.or_expr(allow_struct)) } else { None };
            return self.mk(ExprKind::RangeLit(Some(lo), hi), start..self.pos, line);
        }
        lo
    }

    /// Whether the current token can begin an expression operand.
    fn starts_expr(&self) -> bool {
        match self.at(0) {
            None => false,
            Some(t) => {
                let s = t.text(self.src);
                !matches!(s, ")" | "]" | "}" | "," | ";" | "=>" | "{") || s == "{"
            }
        }
    }

    /// Binary-operator spine, precedence-climbing. Levels (loose→tight):
    /// `||`, `&&`, comparisons, `|`, `^`, `&`, shifts, `+ -`, `* / %`.
    fn or_expr(&mut self, allow_struct: bool) -> ExprId {
        self.binary_level(0, allow_struct)
    }

    fn binary_level(&mut self, level: u8, allow_struct: bool) -> ExprId {
        if level >= 9 {
            return self.unary_expr(allow_struct);
        }
        let start = self.pos;
        let line = self.line();
        let mut lhs = self.binary_level(level + 1, allow_struct);
        while let Some((op, op_text, n_toks)) = self.binop_at_level(level) {
            for _ in 0..n_toks {
                self.bump();
            }
            let rhs = self.binary_level(level + 1, allow_struct);
            lhs = self.mk(ExprKind::Binary { op, op_text, lhs, rhs }, start..self.pos, line);
        }
        lhs
    }

    /// Identify a binary operator of precedence `level` at the cursor.
    /// Returns (op, text, tokens to consume).
    fn binop_at_level(&self, level: u8) -> Option<(BinOp, &'static str, usize)> {
        let t = self.peek();
        let next = self.text_at(1);
        let adj = self.adjacent(0);
        match level {
            0 => (t == "|" && next == "|" && adj).then_some((BinOp::Logic, "||", 2)),
            1 => (t == "&" && next == "&" && adj).then_some((BinOp::Logic, "&&", 2)),
            2 => match (t, next, adj) {
                ("==", _, _) => Some((BinOp::Eq, "==", 1)),
                ("!=", _, _) => Some((BinOp::Eq, "!=", 1)),
                ("<", "=", true) => Some((BinOp::Cmp, "<=", 2)),
                (">", "=", true) => Some((BinOp::Cmp, ">=", 2)),
                ("<", n, _) if n != "<" => Some((BinOp::Cmp, "<", 1)),
                (">", n, _) if n != ">" => Some((BinOp::Cmp, ">", 1)),
                _ => None,
            },
            3 => (t == "|" && !(next == "|" && adj) && next != "=").then_some((BinOp::Bit, "|", 1)),
            4 => (t == "^").then_some((BinOp::Bit, "^", 1)),
            5 => (t == "&" && !(next == "&" && adj) && next != "=").then_some((BinOp::Bit, "&", 1)),
            6 => match (t, next, adj) {
                ("<", "<", true) if self.text_at(2) != "=" => Some((BinOp::Bit, "<<", 2)),
                (">", ">", true) if self.text_at(2) != "=" => Some((BinOp::Bit, ">>", 2)),
                _ => None,
            },
            7 => match t {
                "+" => Some((BinOp::Add, "+", 1)),
                "-" => Some((BinOp::Sub, "-", 1)),
                _ => None,
            },
            8 => match t {
                "*" => Some((BinOp::Mul, "*", 1)),
                "/" => Some((BinOp::Div, "/", 1)),
                "%" => Some((BinOp::Rem, "%", 1)),
                _ => None,
            },
            _ => None,
        }
    }

    fn unary_expr(&mut self, allow_struct: bool) -> ExprId {
        let start = self.pos;
        let line = self.line();
        match self.peek() {
            "-" | "!" | "*" => {
                self.bump();
                let inner = self.unary_expr(allow_struct);
                self.mk(ExprKind::Unary(inner), start..self.pos, line)
            }
            "&" => {
                self.bump();
                self.eat("mut");
                let inner = self.unary_expr(allow_struct);
                self.mk(ExprKind::Unary(inner), start..self.pos, line)
            }
            _ => self.postfix_expr(allow_struct),
        }
    }

    fn postfix_expr(&mut self, allow_struct: bool) -> ExprId {
        let start = self.pos;
        let line = self.line();
        let mut e = self.operand(allow_struct);
        loop {
            match self.peek() {
                "." => {
                    self.bump();
                    // `.await`, `.0`, `.name`, `.name(...)`, `.name::<T>(...)`
                    let name = if self.at(0).is_some_and(|t| {
                        t.kind == TokKind::Ident || t.kind == TokKind::Int || t.kind == TokKind::Float
                    }) {
                        let s = self.peek().to_string();
                        self.bump();
                        s
                    } else {
                        "_".to_string()
                    };
                    if self.peek() == "::" && self.text_at(1) == "<" {
                        self.bump();
                        self.skip_balanced();
                    }
                    if self.peek() == "(" {
                        let args = self.call_args();
                        e = self.mk(ExprKind::MethodCall { recv: e, name, args }, start..self.pos, line);
                    } else {
                        e = self.mk(ExprKind::Field { recv: e, name }, start..self.pos, line);
                    }
                }
                "(" => {
                    let args = self.call_args();
                    e = self.mk(ExprKind::Call { callee: e, args }, start..self.pos, line);
                }
                "[" => {
                    self.bump();
                    let index = self.expr(true);
                    self.eat("]");
                    e = self.mk(ExprKind::Index { recv: e, index }, start..self.pos, line);
                }
                "?" => {
                    self.bump();
                    e = self.mk(ExprKind::Try(e), start..self.pos, line);
                }
                "as" => {
                    self.bump();
                    self.type_expr();
                    e = self.mk(ExprKind::Cast(e), start..self.pos, line);
                }
                _ => break,
            }
        }
        e
    }

    fn call_args(&mut self) -> Vec<ExprId> {
        self.eat("(");
        let mut args = Vec::new();
        while !self.done() && self.peek() != ")" {
            args.push(self.expr(true));
            if !self.eat(",") {
                break;
            }
        }
        self.eat(")");
        args
    }

    fn operand(&mut self, allow_struct: bool) -> ExprId {
        let start = self.pos;
        let line = self.line();
        let Some(tok) = self.at(0) else {
            return self.mk(ExprKind::Opaque, start..start, line);
        };
        match tok.kind {
            TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => {
                let k = tok.kind;
                self.bump();
                self.mk(ExprKind::Lit(k), start..self.pos, line)
            }
            TokKind::Lifetime => {
                // loop label: `'outer: loop/while/for { .. }`
                self.bump();
                self.eat(":");
                self.operand(allow_struct)
            }
            _ => match self.peek() {
                "true" | "false" => {
                    self.bump();
                    self.mk(ExprKind::Lit(TokKind::Ident), start..self.pos, line)
                }
                "(" => {
                    self.bump();
                    let mut parts = Vec::new();
                    while !self.done() && self.peek() != ")" {
                        parts.push(self.expr(true));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.eat(")");
                    self.mk(ExprKind::Tuple(parts), start..self.pos, line)
                }
                "[" => {
                    self.bump();
                    let mut parts = Vec::new();
                    while !self.done() && self.peek() != "]" {
                        parts.push(self.expr(true));
                        if !self.eat(",") && !self.eat(";") {
                            break;
                        }
                    }
                    self.eat("]");
                    self.mk(ExprKind::Array(parts), start..self.pos, line)
                }
                "{" => {
                    let b = self.block();
                    self.mk(ExprKind::Block(b), start..self.pos, line)
                }
                "unsafe" if self.text_at(1) == "{" => {
                    self.bump();
                    let b = self.block();
                    self.mk(ExprKind::Block(b), start..self.pos, line)
                }
                "if" => self.if_expr(),
                "match" => self.match_expr(),
                "while" => {
                    self.bump();
                    if self.eat("let") {
                        self.pattern_names(&["="]);
                        self.eat("=");
                    }
                    let cond = self.expr(false);
                    let body = self.block();
                    self.mk(ExprKind::While { cond, body }, start..self.pos, line)
                }
                "loop" => {
                    self.bump();
                    let body = self.block();
                    self.mk(ExprKind::Loop(body), start..self.pos, line)
                }
                "for" => {
                    self.bump();
                    let names = self.pattern_names(&["in"]);
                    self.eat("in");
                    let iter = self.expr(false);
                    let body = self.block();
                    self.mk(ExprKind::For { names, iter, body }, start..self.pos, line)
                }
                "return" | "break" => {
                    self.bump();
                    if self.at(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.bump();
                    }
                    let v = if !matches!(self.peek(), ";" | "}" | ")" | "," | "]") && !self.done() {
                        Some(self.expr(allow_struct))
                    } else {
                        None
                    };
                    self.mk(ExprKind::Jump(v), start..self.pos, line)
                }
                "continue" => {
                    self.bump();
                    if self.at(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.bump();
                    }
                    self.mk(ExprKind::Jump(None), start..self.pos, line)
                }
                "move" | "|" => {
                    self.eat("move");
                    if self.eat("|") {
                        if self.peek() != "|" {
                            self.pattern_names(&["|"]);
                        }
                        self.eat("|");
                    }
                    let body = self.expr(allow_struct);
                    self.mk(ExprKind::Closure(body), start..self.pos, line)
                }
                _ if tok.kind == TokKind::Ident || self.peek() == "::" || self.peek() == "<" => {
                    self.path_operand(allow_struct)
                }
                _ => {
                    // Unparseable: consume one balanced token and move on.
                    self.skip_balanced();
                    if self.pos == start {
                        self.bump();
                    }
                    self.mk(ExprKind::Opaque, start..self.pos, line)
                }
            },
        }
    }

    fn if_expr(&mut self) -> ExprId {
        let start = self.pos;
        let line = self.line();
        self.bump(); // if
        if self.eat("let") {
            self.pattern_names(&["="]);
            self.eat("=");
        }
        let cond = self.expr(false);
        let then = self.block();
        let else_ = if self.eat("else") {
            if self.peek() == "if" {
                Some(self.if_expr())
            } else {
                let b_start = self.pos;
                let b_line = self.line();
                let b = self.block();
                Some(self.mk(ExprKind::Block(b), b_start..self.pos, b_line))
            }
        } else {
            None
        };
        self.mk(ExprKind::If { cond, then, else_ }, start..self.pos, line)
    }

    fn match_expr(&mut self) -> ExprId {
        let start = self.pos;
        let line = self.line();
        self.bump(); // match
        let scrut = self.expr(false);
        self.eat("{");
        let mut arms = Vec::new();
        while !self.done() && self.peek() != "}" {
            while self.peek() == "#" {
                self.bump();
                if self.peek() == "[" {
                    self.skip_balanced();
                }
            }
            // the pattern stops at a guard, whose `<` would otherwise
            // read as an opening generic
            let names = self.pattern_names(&["=>", "if"]);
            let guard = if self.eat("if") { Some(self.expr(true)) } else { None };
            self.eat("=>");
            let body = self.expr(true);
            self.eat(",");
            arms.push((names, guard, body));
        }
        self.eat("}");
        self.mk(ExprKind::Match { scrut, arms }, start..self.pos, line)
    }

    fn path_operand(&mut self, allow_struct: bool) -> ExprId {
        let start = self.pos;
        let line = self.line();
        let mut segs: Vec<String> = Vec::new();
        if self.at(0).is_some_and(|t| t.kind == TokKind::Ident) {
            segs.push(self.peek().to_string());
            self.bump();
        }
        loop {
            if self.peek() == "::" {
                if self.text_at(1) == "<" {
                    // turbofish
                    self.bump();
                    self.skip_balanced();
                } else if self.at(1).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.bump();
                    segs.push(self.peek().to_string());
                    self.bump();
                } else {
                    self.bump();
                }
            } else {
                break;
            }
        }
        // macro invocation
        if self.peek() == "!" && matches!(self.text_at(1), "(" | "[" | "{") {
            self.bump();
            self.skip_balanced();
            return self.mk(ExprKind::MacroCall, start..self.pos, line);
        }
        // struct literal: `Path { field: ..., }` — heads are capitalized
        // in this workspace, which disambiguates from block-starts.
        if allow_struct
            && self.peek() == "{"
            && segs
                .last()
                .is_some_and(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        {
            self.bump();
            let mut fields = Vec::new();
            while !self.done() && self.peek() != "}" {
                if matches!(self.peek(), ".." | "..=") {
                    // struct update syntax
                    self.bump();
                    if self.peek() != "}" {
                        self.expr(true);
                    }
                    break;
                }
                let fname = self.ident_or("_");
                if self.eat(":") {
                    let v = self.expr(true);
                    fields.push((fname, v));
                } else {
                    // shorthand: `Struct { name }` — value is a path expr
                    let span = self.pos.saturating_sub(1)..self.pos;
                    let v = self.mk(ExprKind::Path(vec![fname.clone()]), span, line);
                    fields.push((fname, v));
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("}");
            return self.mk(ExprKind::StructLit(fields), start..self.pos, line);
        }
        if segs.is_empty() {
            // lone `::` or `<...>` qualified path — treat as opaque
            self.skip_balanced();
            if self.pos == start {
                self.bump();
            }
            return self.mk(ExprKind::Opaque, start..self.pos, line);
        }
        self.mk(ExprKind::Path(segs), start..self.pos, line)
    }
}

// ---------------------------------------------------------------------------
// Walking helpers shared by the analyses
// ---------------------------------------------------------------------------

/// Visit every function definition in the item tree (including methods in
/// impl/trait blocks and fns in nested modules), with the self type head
/// when inside an impl.
pub fn visit_fns<'a>(items: &'a [Item], ctx: Option<&'a str>, f: &mut impl FnMut(&'a FnDef, Option<&'a str>, bool)) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(def) => f(def, ctx, item.in_test),
            ItemKind::Mod(_, Some(inner)) => visit_fns(inner, ctx, f),
            ItemKind::Impl(self_ty, inner) => visit_fns(inner, Some(self_ty.as_str()), f),
            ItemKind::Trait(inner) => visit_fns(inner, ctx, f),
            _ => {}
        }
    }
}

/// Visit every struct definition in the item tree.
pub fn visit_structs<'a>(items: &'a [Item], f: &mut impl FnMut(&'a StructDef)) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(def) => f(def),
            ItemKind::Mod(_, Some(inner)) => visit_structs(inner, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let (toks, ast) = parse(src);
        assert_eq!(ast.validate(), Ok(()), "coverage: {src:?}");
        assert_eq!(ast.reassemble(src, &toks), src, "reassembly: {src:?}");
    }

    #[test]
    fn escaped_quote_char_literals_lex_as_one_token() {
        // `'\''` and `b'\''` once split into Char + stray Lifetime, which
        // desynchronised every later token's meaning.
        for src in ["let c = '\\'';", "let c = b'\\'';", "let c = '\\\\';", "let u = '\\u{1F600}';"] {
            let toks = tokenize(src);
            let chars: Vec<&str> =
                toks.iter().filter(|t| t.kind == TokKind::Char).map(|t| t.text(src)).collect();
            assert_eq!(chars.len(), 1, "{src:?} lexed as {toks:?}");
            assert!(chars[0].ends_with('\''), "{src:?} char token {:?}", chars[0]);
        }
    }

    #[test]
    fn enum_body_does_not_swallow_following_items() {
        // skip_until once raised depth on a `{` stop token, so an enum
        // consumed everything to the next top-level brace.
        let src = "enum E { A(u32), B { x: u64 } }\npub struct S { pub f: f64 }\nfn g() {}";
        let (_, ast) = parse(src);
        let kinds: Vec<&str> = ast
            .items
            .iter()
            .map(|i| match &i.kind {
                ItemKind::Enum => "enum",
                ItemKind::Struct(_) => "struct",
                ItemKind::Fn(_) => "fn",
                _ => "?",
            })
            .collect();
        assert_eq!(kinds, ["enum", "struct", "fn"]);
        roundtrip(src);
    }

    #[test]
    fn comparisons_after_a_guard_or_cast_do_not_open_generics() {
        // a guard's `<` and a cast's `<=` once read as opening generics,
        // which swallowed every later item into the first fn
        for body in ["match c { c if u32::from(c) < 0x20 => 1, _ => 0 }", "u8::from(x as f64 <= 1.0)"] {
            let src = format!("fn f(c: char, x: u8) -> u8 {{ {body} }}\nfn g() {{}}");
            let (_, ast) = parse(&src);
            assert_eq!(ast.items.len(), 2, "{src}");
            roundtrip(&src);
        }
    }

    #[test]
    fn string_line_continuations_count_lines() {
        let src = "let s = \"a \\\n b\";\nfn g() {}";
        assert_eq!(tokenize(src).last().map(|t| t.line), Some(3));
    }

    #[test]
    fn tokenizer_spans_cover_nontrivia() {
        let src = "fn f() -> u64 { 1.5e-3; a..b; x.0; m >>= 2 }";
        let toks = tokenize(src);
        for w in toks.windows(2) {
            assert!(w[0].hi <= w[1].lo, "overlap: {w:?}");
        }
        let texts: Vec<&str> = toks.iter().map(|t| t.text(src)).collect();
        assert!(texts.contains(&"1.5e-3"));
        assert!(texts.contains(&".."));
        assert!(texts.contains(&"->"));
    }

    #[test]
    fn simple_fn_parses() {
        let src = "pub fn charge(watts: f64, secs: f64) -> f64 { watts * secs }";
        let (_, ast) = parse(src);
        let ItemKind::Fn(f) = &ast.items[0].kind else { panic!("not a fn") };
        assert_eq!(f.name, "charge");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty.head, "f64");
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 1);
        roundtrip(src);
    }

    #[test]
    fn struct_fields_parse() {
        let src = "struct S { pub a: f64, b: Vec<HashMap<u8, u8>>, }";
        let (_, ast) = parse(src);
        let ItemKind::Struct(s) = &ast.items[0].kind else { panic!("not a struct") };
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].1.head, "Vec");
        roundtrip(src);
    }

    #[test]
    fn impl_methods_and_trait_heads() {
        let src = "impl Experiment for FaultSweep { fn run(&self) -> u8 { 0 } }";
        let (_, ast) = parse(src);
        let ItemKind::Impl(self_ty, inner) = &ast.items[0].kind else { panic!() };
        assert_eq!(self_ty, "FaultSweep");
        assert!(matches!(inner[0].kind, ItemKind::Fn(_)));
        roundtrip(src);
    }

    #[test]
    fn generics_shift_ambiguity() {
        roundtrip("fn f(x: Vec<Vec<u8>>) -> u64 { (x.len() as u64) >> 2 }");
        roundtrip("fn g(a: u64) -> u64 { let mut z = a; z <<= 3; z >>= 1; z }");
        roundtrip("fn h(a: u64, b: u64) -> bool { a >= b && a <= b || a != b }");
    }

    #[test]
    fn control_flow_parses() {
        roundtrip(
            "fn f(xs: &[u64]) -> u64 {\n    let mut s = 0;\n    'outer: for (i, x) in xs.iter().enumerate() {\n        if *x > 3 { s += x; } else if *x == 0 { break 'outer; } else { continue; }\n    }\n    match s { 0 => 1, n if n > 10 => n, _ => 2 }\n}",
        );
    }

    #[test]
    fn closures_and_ranges() {
        roundtrip("fn f() -> u64 { (0..10).map(|x| x * 2).filter(|&x| x > 1).sum() }");
        roundtrip("fn g() { let h = move || 3; let _ = h(); }");
    }

    #[test]
    fn struct_literals_and_update() {
        roundtrip("fn f() -> S { S { a: 1, b: 2, ..Default::default() } }");
        roundtrip("fn g(a: u8) -> S { S { a } }");
        // no struct literal in `if` headers: `S {` there is a block
        roundtrip("fn h(s: u8) { if s == 1 { foo(); } }");
    }

    #[test]
    fn macros_are_opaque_but_lossless() {
        roundtrip("fn f() { assert!(x > 0, \"bad {x}\"); let v = vec![1, 2, 3]; write!(out, \"{}\", v.len()).ok(); }");
        roundtrip("macro_rules! m { ($x:expr) => { $x + 1 }; }");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() {} }\nmod proptests { fn c() {} }";
        let (_, ast) = parse(src);
        assert!(!ast.items[0].in_test);
        let ItemKind::Mod(_, Some(inner)) = &ast.items[1].kind else { panic!() };
        assert!(inner[0].in_test);
        let ItemKind::Mod(_, Some(inner2)) = &ast.items[2].kind else { panic!() };
        assert!(inner2[0].in_test, "mod proptests is test code");
        roundtrip(src);
    }

    #[test]
    fn let_else_and_if_let() {
        roundtrip("fn f(o: Option<u8>) -> u8 { let Some(x) = o else { return 0; }; if let Some(y) = o { y } else { x } }");
    }

    #[test]
    fn opaque_recovery_is_lossless() {
        // deliberately weird constructs the parser does not model
        roundtrip("const X: &[u8] = b\"abc\";\nstatic Y: u8 = 1;\ntype Z = fn(u8) -> u8;\nextern crate std;");
        roundtrip("fn f() { let p = &raw const X; }");
    }

    #[test]
    fn unit_struct_and_tuple_struct() {
        let src = "struct A;\nstruct B(pub f64, u64);";
        let (_, ast) = parse(src);
        let ItemKind::Struct(b) = &ast.items[1].kind else { panic!() };
        assert_eq!(b.fields[0].0, "0");
        assert_eq!(b.fields[0].1.head, "f64");
        roundtrip(src);
    }

    #[test]
    fn method_chain_shape() {
        let src = "fn f(m: &B) -> f64 { m.vals().iter().map(|v| v.x).sum::<f64>() / 2.0 }";
        let (_, ast) = parse(src);
        let ItemKind::Fn(f) = &ast.items[0].kind else { panic!() };
        let body = f.body.as_ref().unwrap();
        let Stmt::Expr(expr) = &body.stmts[0] else { panic!("tail expr") };
        let ExprKind::Binary { op: BinOp::Div, .. } = &ast.expr(*expr).kind else { panic!("div") };
        roundtrip(src);
    }
}
