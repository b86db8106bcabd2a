//! Scope-tracked intra-procedural dataflow over the token stream.
//!
//! The `parallel` and `hot` rules need three questions answered about
//! any expression in a fn or closure body:
//!
//! 1. **What is bound locally?** ([`bindings_in`]) — `let` patterns
//!    (including `if let`/`while let`/`let-else`), `for` patterns and
//!    nested closure parameters, with type text recorded for simple
//!    `let name: Ty = …` ascriptions and fn parameters. The parallel
//!    rule uses this to separate a closure's own state from captures.
//! 2. **What is mutated?** ([`mutations_in`]) — `=`/compound
//!    assignments and calls to known mutating methods (`push`,
//!    `fill`, …), each resolved backwards through the receiver path
//!    (`a.b[i].c = …` mutates `a`) to its base identifier.
//! 3. **Where does an allocation land?** ([`assign_target_idents`]) —
//!    the identifier path an allocating expression is assigned into
//!    (`let mut hits_scratch = Vec::new()` → `hits_scratch`), so the
//!    hot-path rule can exempt reserved scratch buffers.
//!
//! All walks are token-local and bail out (returning nothing) on
//! constructs they do not model — conservative in the direction of
//! fewer findings, never more.

use crate::parse::{match_delim, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Names (and, where visible, types) bound within a scope.
#[derive(Debug, Default)]
pub struct Bindings {
    names: BTreeSet<String>,
    types: BTreeMap<String, String>,
}

impl Bindings {
    /// Whether `name` is bound in this scope.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// The recorded type text for `name`, if an ascription was seen.
    pub fn ty(&self, name: &str) -> Option<&str> {
        self.types.get(name).map(String::as_str)
    }

    /// Bind `name` with no type information.
    pub fn insert(&mut self, name: &str) {
        self.names.insert(name.to_owned());
    }

    /// Bind `name` with its written type text.
    pub fn insert_typed(&mut self, name: &str, ty: &str) {
        self.names.insert(name.to_owned());
        self.types.insert(name.to_owned(), ty.to_owned());
    }
}

/// Keywords that can appear inside patterns or path walks but never
/// name a binding.
fn is_non_binding_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut" | "ref" | "let" | "if" | "while" | "else" | "in" | "move" | "box"
    )
}

/// Collect names bound inside a token range (inclusive): `let`/`for`
/// patterns and nested closure parameters. Enum variants in patterns
/// over-bind (`Some(x)` binds both `Some` and `x`); that is the
/// conservative direction — an over-bound name can only suppress a
/// capture finding, not create one.
pub fn bindings_in(tokens: &[Token], masked: &str, range: (usize, usize)) -> Bindings {
    let mut b = Bindings::default();
    let hi = range.1.min(tokens.len().saturating_sub(1));
    let mut k = range.0;
    while k <= hi {
        let t = &tokens[k];
        if t.kind == TokKind::Ident && t.is(masked, "let") {
            k = collect_let(tokens, masked, k, hi, &mut b);
            continue;
        }
        if t.kind == TokKind::Ident && t.is(masked, "for") {
            let mut p = k + 1;
            while p <= hi && !tokens[p].is(masked, "in") && p - k < 24 {
                if tokens[p].kind == TokKind::Ident
                    && !is_non_binding_keyword(tokens[p].text(masked))
                {
                    b.insert(tokens[p].text(masked));
                }
                p += 1;
            }
            k = p;
            continue;
        }
        if t.is(masked, "|") {
            // A nested closure head: idents to the closing pipe. Bail on
            // statement punctuation so bitwise-or does not bind.
            let mut p = k + 1;
            let mut ok = false;
            while p <= hi && p - k < 40 {
                let s = tokens[p].text(masked);
                if s == "|" {
                    ok = true;
                    break;
                }
                if matches!(s, ";" | "{" | "}" | "=") {
                    break;
                }
                p += 1;
            }
            if ok {
                for tok in &tokens[k + 1..p] {
                    if tok.kind == TokKind::Ident && !is_non_binding_keyword(tok.text(masked)) {
                        b.insert(tok.text(masked));
                    }
                }
                k = p + 1;
                continue;
            }
        }
        k += 1;
    }
    b
}

/// Collect one `let` statement's pattern starting at the `let` token;
/// returns the index to resume scanning from.
fn collect_let(tokens: &[Token], masked: &str, at: usize, hi: usize, b: &mut Bindings) -> usize {
    let mut p = at + 1;
    let mut depth = 0i32;
    let mut colon: Option<usize> = None;
    let mut pat_ids: Vec<usize> = Vec::new();
    while p <= hi {
        let s = tokens[p].text(masked);
        if depth <= 0 && matches!(s, "=" | ";" | "else") {
            break;
        }
        match s {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            ":" if depth == 0 && colon.is_none() => colon = Some(p),
            _ => {
                if tokens[p].kind == TokKind::Ident && colon.is_none() && !is_non_binding_keyword(s)
                {
                    pat_ids.push(p);
                }
            }
        }
        p += 1;
    }
    for &id in &pat_ids {
        b.insert(tokens[id].text(masked));
    }
    if let (Some(c), [single]) = (colon, pat_ids.as_slice()) {
        // Simple `let name: Ty = …`: record the type text for the one
        // bound name so slab-typed receivers stay identifiable.
        if let (Some(f), Some(l)) = (tokens.get(c + 1), tokens.get(p.saturating_sub(1))) {
            if f.start <= l.end {
                let ty = masked.get(f.start..l.end).unwrap_or("").trim().to_owned();
                b.insert_typed(tokens[*single].text(masked), &ty);
            }
        }
    }
    p
}

/// A mutation site resolved to the base identifier of the written path.
#[derive(Debug)]
pub struct Mutation {
    /// The leftmost identifier of the assigned/mutated path (`self`
    /// for field writes through the receiver).
    pub base: String,
    /// Token index anchoring the finding.
    pub tok: usize,
}

/// Methods that mutate their receiver in place.
const MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "pop",
    "clear",
    "extend",
    "extend_from_slice",
    "insert",
    "remove",
    "resize",
    "resize_with",
    "truncate",
    "fill",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "swap",
    "copy_from_slice",
    "clone_from",
    "drain",
    "retain",
];

/// Compound assignment operators (merged by the tokenizer).
const COMPOUND_ASSIGN: &[&str] = &["+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "<<=", ">>="];

/// Find direct mutations in a token range: assignments and mutating
/// method calls, each resolved to the mutated path's base identifier.
pub fn mutations_in(tokens: &[Token], masked: &str, range: (usize, usize)) -> Vec<Mutation> {
    let mut out = Vec::new();
    let hi = range.1.min(tokens.len().saturating_sub(1));
    for k in range.0..=hi {
        let s = tokens[k].text(masked);
        let is_assign = s == "="
            && tokens[k].kind == TokKind::Punct
            && !in_binding_statement(tokens, masked, range.0, k);
        let is_compound = COMPOUND_ASSIGN.contains(&s);
        if is_assign || is_compound {
            if let Some(base) = path_base_before(tokens, masked, k) {
                out.push(Mutation { base, tok: k });
            }
            continue;
        }
        if tokens[k].kind == TokKind::Ident
            && MUT_METHODS.contains(&s)
            && k > 0
            && tokens[k - 1].is(masked, ".")
            && tokens.get(k + 1).is_some_and(|t| t.is(masked, "("))
        {
            if let Some(base) = path_base_before(tokens, masked, k - 1) {
                out.push(Mutation { base, tok: k });
            }
        }
    }
    out
}

/// Whether the `=` at `eq` belongs to a `let`/`if let`/`while let`
/// binding rather than an assignment: scan back to the statement
/// boundary and look for a `let` keyword.
fn in_binding_statement(tokens: &[Token], masked: &str, lo: usize, eq: usize) -> bool {
    let mut k = eq;
    let mut steps = 0;
    while k > lo && steps < 64 {
        k -= 1;
        steps += 1;
        let s = tokens[k].text(masked);
        if matches!(s, ";" | "{" | "}") {
            return false;
        }
        if tokens[k].kind == TokKind::Ident && s == "let" {
            return true;
        }
    }
    false
}

/// Walk the path expression ending just before token `at` backwards to
/// its base identifier: `a.b[i].c` → `a`; `*slot` → `slot`;
/// `self.x.row_mut(i)` → `self`. `None` when no path precedes.
pub fn path_base_before(tokens: &[Token], masked: &str, at: usize) -> Option<String> {
    let mut k = at;
    let mut base: Option<usize> = None;
    while k > 0 {
        k -= 1;
        let t = &tokens[k];
        let s = t.text(masked);
        match s {
            "]" | ")" => {
                k = match_delim(tokens, masked, k)?;
                continue;
            }
            "." | "::" | "*" | "&" | "?" => continue,
            _ if t.kind == TokKind::Ident && !is_non_binding_keyword(s) => {
                base = Some(k);
                continue;
            }
            _ => break,
        }
    }
    base.map(|k| tokens[k].text(masked).to_owned())
}

/// All identifiers along the path expression ending just before token
/// `at` — `self.hit_scratch[u]` → `["self", "hit_scratch", "u"]`. Used
/// for name-convention checks like the scratch-buffer exemption.
pub fn path_idents_before(tokens: &[Token], masked: &str, at: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = at;
    while k > 0 {
        k -= 1;
        let t = &tokens[k];
        let s = t.text(masked);
        match s {
            "]" | ")" => {
                // Keep index identifiers: they are part of the written
                // path's text for naming purposes.
                let Some(open) = match_delim(tokens, masked, k) else {
                    break;
                };
                for tok in &tokens[open + 1..k] {
                    if tok.kind == TokKind::Ident {
                        out.push(tok.text(masked).to_owned());
                    }
                }
                k = open;
                continue;
            }
            "." | "::" | "*" | "&" | "?" => continue,
            _ if t.kind == TokKind::Ident && !is_non_binding_keyword(s) => {
                out.push(s.to_owned());
                continue;
            }
            _ => break,
        }
    }
    out
}

/// The identifier path an allocating expression at token `site` is
/// assigned into: the `let` binding, plain-assignment target, or
/// struct-literal field name. Empty when the allocation sits in
/// argument/expression position (not assigned anywhere nameable).
pub fn assign_target_idents(tokens: &[Token], masked: &str, site: usize) -> Vec<String> {
    // Walk back to the statement/field boundary at depth 0.
    let mut k = site;
    let mut depth = 0i32;
    let mut eq: Option<usize> = None;
    let mut boundary = 0usize;
    while k > 0 {
        k -= 1;
        let s = tokens[k].text(masked);
        match s {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                if depth > 0 {
                    depth -= 1;
                } else {
                    boundary = k + 1;
                    break;
                }
            }
            ";" | "," if depth == 0 => {
                boundary = k + 1;
                break;
            }
            "=" if depth == 0 && eq.is_none() => eq = Some(k),
            _ => {}
        }
    }
    let seg = tokens.get(boundary..site).unwrap_or(&[]);
    if seg.first().is_some_and(|t| t.is(masked, "let")) {
        // `let [mut] name …`
        return seg
            .iter()
            .skip(1)
            .find(|t| t.kind == TokKind::Ident && !is_non_binding_keyword(t.text(masked)))
            .map(|t| vec![t.text(masked).to_owned()])
            .unwrap_or_default();
    }
    if let Some(e) = eq {
        return path_idents_before(tokens, masked, e);
    }
    // Struct-literal field init: `name: <alloc>` right after a boundary.
    if seg.len() >= 2 && seg[0].kind == TokKind::Ident && seg[1].is(masked, ":") {
        return vec![seg[0].text(masked).to_owned()];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::tokenize;

    fn all(toks: &[Token]) -> (usize, usize) {
        (0, toks.len().saturating_sub(1))
    }

    #[test]
    fn let_and_for_patterns_bind() {
        let src = "let mut total = 0.0; for (i, v) in xs.iter().enumerate() { }";
        let toks = tokenize(src);
        let b = bindings_in(&toks, src, all(&toks));
        assert!(b.contains("total"));
        assert!(b.contains("i"));
        assert!(b.contains("v"));
        assert!(!b.contains("xs"));
    }

    #[test]
    fn typed_let_records_type_text() {
        let src = "let snap: Slab2 = other.clone();";
        let toks = tokenize(src);
        let b = bindings_in(&toks, src, all(&toks));
        assert_eq!(b.ty("snap"), Some("Slab2"));
    }

    #[test]
    fn mutations_resolve_to_path_base() {
        let src = "row.cqi[s] = v; *slot = 1.0; total += x; out.push(y);";
        let toks = tokenize(src);
        let muts = mutations_in(&toks, src, all(&toks));
        let bases: Vec<&str> = muts.iter().map(|m| m.base.as_str()).collect();
        assert_eq!(bases, vec!["row", "slot", "total", "out"]);
    }

    #[test]
    fn let_initializer_is_not_a_mutation() {
        let src = "let x = 3; if let Some(y) = opt { }";
        let toks = tokenize(src);
        assert!(mutations_in(&toks, src, all(&toks)).is_empty());
    }

    #[test]
    fn alloc_targets_cover_let_assign_and_field_init() {
        let src = "let mut hits_scratch = Vec::new();";
        let toks = tokenize(src);
        let site = toks
            .iter()
            .position(|t| t.is(src, "Vec"))
            .unwrap_or_default();
        assert_eq!(assign_target_idents(&toks, src, site), vec!["hits_scratch"]);

        let src2 = "Row { hits: Vec::new(), }";
        let toks2 = tokenize(src2);
        let site2 = toks2
            .iter()
            .position(|t| t.is(src2, "Vec"))
            .unwrap_or_default();
        assert_eq!(assign_target_idents(&toks2, src2, site2), vec!["hits"]);
    }
}
