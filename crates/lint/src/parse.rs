//! A lightweight recursive-descent parser over the masked token stream.
//!
//! Every rule in [`crate::rules`] reads the file through this module:
//! which `fn` a finding sits in, what a closure binds, where a call's
//! argument list ends, which items are test-only. It supplies exactly
//! that much syntax — no types, no name resolution, no AST — by
//! tokenizing the masked text from [`crate::lexer::mask_source`] (so
//! comments and string bodies are already spaces) and walking the
//! token stream with a few recursive-descent routines:
//!
//! * [`tokenize`] — idents, numbers, string/char/lifetime literals and
//!   punctuation (multi-byte operators like `::`, `..`, `+=` merged),
//!   each with its byte span so findings keep exact lines.
//! * [`parse`] — scans items for `fn` signatures (name, parameter
//!   names + type text, body token range), attaches
//!   `// cellfi-lint: hot` markers to the fn they precede, and records
//!   the line spans of `#[test]` / `#[cfg(test)]` items.
//! * [`match_delim`], [`path_at`], [`closure_in_args`], [`call_sites`],
//!   [`method_call_sites`], [`callee_names`] — the expression-level
//!   probes rules compose.
//!
//! Everything is intra-file and conservative: unparseable corners are
//! skipped, never guessed at, so a weird construct can suppress a
//! finding but not invent one.

use crate::lexer::{is_ident_byte, ScannedFile};

/// Token classes: just enough to tell identifiers from operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (possibly with suffix).
    Num,
    /// String literal (contents masked; quotes kept).
    Str,
    /// Char literal (contents masked).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; multi-byte operators are one token.
    Punct,
}

/// One token with its byte span in the masked (= raw) source.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The token's text in the masked source.
    pub fn text<'a>(&self, masked: &'a str) -> &'a str {
        masked.get(self.start..self.end).unwrap_or("")
    }

    /// Whether the token's text equals `s`.
    pub fn is(&self, masked: &str, s: &str) -> bool {
        self.text(masked) == s
    }
}

/// Multi-byte operators merged into single tokens, longest first.
const PUNCT3: &[&str] = &["..=", "<<=", ">>="];
const PUNCT2: &[&str] = &[
    "::", "..", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
    "&&", "||",
];

/// Tokenize masked source text. Whitespace separates; comment bytes are
/// already spaces, so only code reaches the stream.
pub fn tokenize(masked: &str) -> Vec<Token> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if b == b'_' || b.is_ascii_alphabetic() {
            i += 1;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            toks.push(Token {
                kind: TokKind::Ident,
                start,
                end: i,
            });
            continue;
        }
        if b.is_ascii_digit() {
            i += 1;
            while i < bytes.len() {
                let c = bytes[i];
                if is_ident_byte(c) {
                    i += 1;
                } else if c == b'.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                    // Float point, but not the start of a `..` range.
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Token {
                kind: TokKind::Num,
                start,
                end: i,
            });
            continue;
        }
        if b == b'"' {
            // Masked string body: spaces up to the kept closing quote.
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            i = (i + 1).min(bytes.len());
            toks.push(Token {
                kind: TokKind::Str,
                start,
                end: i,
            });
            continue;
        }
        if b == b'\'' {
            // Masked char literals are '<spaces>'; lifetimes are 'ident.
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            if j > i + 1 && bytes.get(j) == Some(&b'\'') {
                toks.push(Token {
                    kind: TokKind::Char,
                    start,
                    end: j + 1,
                });
                i = j + 1;
            } else {
                i += 1;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Lifetime,
                    start,
                    end: i,
                });
            }
            continue;
        }
        let rest = masked.get(i..).unwrap_or("");
        let merged = PUNCT3
            .iter()
            .chain(PUNCT2.iter())
            .find(|p| rest.starts_with(**p));
        let len = merged.map_or(1, |p| p.len());
        toks.push(Token {
            kind: TokKind::Punct,
            start,
            end: i + len,
        });
        i += len;
    }
    toks
}

/// One parameter of a `fn` signature.
#[derive(Debug)]
pub struct Param {
    /// The bound name (`self` for receiver params).
    pub name: String,
    /// The type text as written (whitespace included).
    pub ty: String,
}

/// One `fn` item found in the file (nested fns included).
#[derive(Debug)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Token indices of the body braces `(open, close)`, inclusive;
    /// `None` for trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether a `// cellfi-lint: hot` marker targets this fn.
    pub hot: bool,
}

/// The parsed view of one file.
#[derive(Debug)]
pub struct Parsed {
    /// The full token stream.
    pub tokens: Vec<Token>,
    /// Every fn item, in file order.
    pub fns: Vec<FnItem>,
    /// Inclusive 1-based line ranges occupied by test-only items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl Parsed {
    /// Whether a 1-based line falls inside a test-only item.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

/// Parse a scanned file: tokenize, scan for fn items (attaching hot
/// markers to the first fn at or after each marker's target line), and
/// locate test-only items.
pub fn parse(scanned: &ScannedFile) -> Parsed {
    let masked = &scanned.masked;
    let tokens = tokenize(masked);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut k = 0;
    while k < tokens.len() {
        if tokens[k].kind != TokKind::Ident || !tokens[k].is(masked, "fn") {
            k += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(k + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            // `fn(...)` pointer type, not an item.
            k += 1;
            continue;
        }
        let name = name_tok.text(masked).to_owned();
        let line = scanned.line_of(tokens[k].start);
        let mut j = k + 2;
        if tokens.get(j).is_some_and(|t| t.is(masked, "<")) {
            j = skip_angles(&tokens, masked, j);
        }
        if !tokens.get(j).is_some_and(|t| t.is(masked, "(")) {
            k += 1;
            continue;
        }
        let Some(params_close) = match_delim(&tokens, masked, j) else {
            k += 1;
            continue;
        };
        let params = split_list(&tokens, masked, j + 1, params_close)
            .into_iter()
            .filter_map(|(a, b)| param_of(&tokens[a..b], masked))
            .collect();
        // Signature tail (return type, where clause) up to the body.
        let b = body_or_semi(&tokens, masked, params_close + 1);
        let body = tokens
            .get(b)
            .filter(|t| t.is(masked, "{"))
            .and_then(|_| match_delim(&tokens, masked, b))
            .map(|end| (b, end));
        fns.push(FnItem {
            name,
            line,
            params,
            body,
            hot: false,
        });
        // Continue from just inside the body so nested items are seen.
        k = body.map_or(b, |(open, _)| open) + 1;
    }
    for &marker in &scanned.hot_markers {
        if let Some(f) = fns
            .iter_mut()
            .filter(|f| f.line >= marker)
            .min_by_key(|f| f.line)
        {
            f.hot = true;
        }
    }
    let test_ranges = test_ranges(scanned, &tokens);
    Parsed {
        tokens,
        fns,
        test_ranges,
    }
}

/// Index of the first `{` or `;` at or after `k` outside `(...)` and
/// `[...]` groups (so `-> [f64; 4]` and further attributes are
/// skipped): where an item's body opens or its declaration ends.
/// `tokens.len()` when neither follows.
fn body_or_semi(tokens: &[Token], masked: &str, mut k: usize) -> usize {
    while let Some(t) = tokens.get(k) {
        match t.text(masked) {
            "(" | "[" => k = match_delim(tokens, masked, k).map_or(k + 1, |c| c + 1),
            "{" | ";" => return k,
            _ => k += 1,
        }
    }
    k
}

/// Line spans of items under `#[test]` or a test-only `#[cfg(...)]`
/// (see [`cfg_is_test_only`]). A span runs from the attribute to the
/// `}` closing the item's body or to its `;` (`use`, `mod x;`).
fn test_ranges(scanned: &ScannedFile, tokens: &[Token]) -> Vec<(usize, usize)> {
    let masked = &scanned.masked;
    let mut ranges = Vec::new();
    let mut k = 0;
    while k + 1 < tokens.len() {
        if !tokens[k].is(masked, "#") || !tokens[k + 1].is(masked, "[") {
            k += 1;
            continue;
        }
        let Some(close) = match_delim(tokens, masked, k + 1) else {
            break;
        };
        let attr = &tokens[k + 2..close];
        let test_only = match attr {
            [t] => t.is(masked, "test"),
            [cfg, open, .., _] if cfg.is(masked, "cfg") && open.is(masked, "(") => {
                match_delim(tokens, masked, k + 3) == Some(close - 1)
                    && cfg_is_test_only(tokens, masked, k + 4, close - 1)
            }
            _ => false,
        };
        if !test_only {
            k = close + 1;
            continue;
        }
        let e = body_or_semi(tokens, masked, close + 1);
        let end = match tokens.get(e) {
            Some(t) if t.is(masked, "{") => match_delim(tokens, masked, e),
            Some(_) => Some(e),
            None => None,
        };
        // An unterminated item runs to the end of the file.
        let end_offset = end.map_or(masked.len().saturating_sub(1), |e| tokens[e].start);
        ranges.push((
            scanned.line_of(tokens[k].start),
            scanned.line_of(end_offset),
        ));
        k = end.map_or(tokens.len(), |e| e + 1);
    }
    ranges
}

/// Whether the cfg predicate in tokens `lo..hi` holds only under
/// `cfg(test)`: it is `test` itself, or an `all(...)` with such an
/// argument. `not(test)` and `any(test, …)` guard production code.
fn cfg_is_test_only(tokens: &[Token], masked: &str, lo: usize, hi: usize) -> bool {
    if hi == lo + 1 {
        return tokens[lo].is(masked, "test");
    }
    tokens[lo].is(masked, "all")
        && match_delim(tokens, masked, lo + 1) == Some(hi - 1)
        && split_list(tokens, masked, lo + 2, hi - 1)
            .into_iter()
            .any(|(a, b)| cfg_is_test_only(tokens, masked, a, b))
}

/// Token index of the delimiter matching the bracket at `at`: forward
/// from a `(`/`[`/`{`, backward from a `)`/`]`/`}`.
pub fn match_delim(tokens: &[Token], masked: &str, at: usize) -> Option<usize> {
    let (same, other, forward) = match tokens.get(at)?.text(masked) {
        "(" => ("(", ")", true),
        "[" => ("[", "]", true),
        "{" => ("{", "}", true),
        ")" => (")", "(", false),
        "]" => ("]", "[", false),
        "}" => ("}", "{", false),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut closes = |k: &usize| {
        let s = tokens[*k].text(masked);
        if s == same {
            depth += 1;
        } else if s == other {
            depth = depth.saturating_sub(1);
            return depth == 0;
        }
        false
    };
    if forward {
        (at..tokens.len()).find(&mut closes)
    } else {
        (0..=at).rev().find(&mut closes)
    }
}

/// Whether the tokens from index `k` spell `path`: an identifier
/// (`HashMap`), a `::`-qualified path (`Instant::now`), or a macro
/// invocation (`format!`).
pub fn path_at(tokens: &[Token], masked: &str, mut k: usize, path: &str) -> bool {
    let is = |k: usize, s: &str| tokens.get(k).is_some_and(|t| t.is(masked, s));
    let (mut rest, bang) = path.strip_suffix('!').map_or((path, false), |p| (p, true));
    // Consume `rest` one identifier token (and `::` token) at a time.
    while let Some(t) = tokens.get(k).filter(|t| t.kind == TokKind::Ident) {
        match rest.strip_prefix(t.text(masked)) {
            Some("") => return !bang || is(k + 1, "!"),
            Some(tail) if tail.starts_with("::") && is(k + 1, "::") => rest = &tail[2..],
            _ => return false,
        }
        k += 2;
    }
    false
}

/// Skip a balanced `<...>` generics group starting at `open`; returns
/// the index just past the closing `>`.
fn skip_angles(tokens: &[Token], masked: &str, open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < tokens.len() {
        match tokens[k].text(masked) {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ => {}
        }
        k += 1;
        if depth <= 0 {
            return k;
        }
    }
    k
}

/// Split the list in tokens `lo..hi` at commas outside `()`, `[]` and
/// `<>` groups into half-open item ranges. A group still open at `hi`
/// swallows the trailing item.
fn split_list(tokens: &[Token], masked: &str, lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut items = Vec::new();
    let mut depth = 0i32;
    let mut item = lo;
    for (k, t) in (lo..).zip(&tokens[lo..hi]) {
        match t.text(masked) {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "," if depth == 0 => {
                items.push((item, k));
                item = k + 1;
            }
            _ => {}
        }
    }
    if depth == 0 {
        items.push((item, hi));
    }
    items
}

/// Extract one parameter from its token segment.
fn param_of(seg: &[Token], masked: &str) -> Option<Param> {
    if seg.is_empty() {
        return None;
    }
    let mut depth = 0i32;
    let mut colon = None;
    for (k, t) in seg.iter().enumerate() {
        match t.text(masked) {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            ":" if depth == 0 => {
                colon = Some(k);
                break;
            }
            _ => {}
        }
    }
    match colon {
        Some(c) => {
            let name = seg
                .get(..c)?
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && !t.is(masked, "mut"))
                .map(|t| t.text(masked).to_owned())?;
            let ty_start = seg.get(c + 1)?.start;
            let ty_end = seg.last()?.end;
            let ty = masked.get(ty_start..ty_end).unwrap_or("").trim().to_owned();
            Some(Param { name, ty })
        }
        None => seg.iter().any(|t| t.is(masked, "self")).then(|| Param {
            name: "self".to_owned(),
            ty: "self".to_owned(),
        }),
    }
}

/// A closure literal found in an argument list.
#[derive(Debug)]
pub struct Closure {
    /// Names bound by the closure head (pattern idents, types filtered
    /// only as far as `mut` — over-binding is conservative here).
    pub params: Vec<String>,
    /// Inclusive token range of the body.
    pub body: (usize, usize),
}

/// The last closure literal at the top level of a call's argument list
/// (`tokens[open]` is the call's `(`; `close` its `)`). Fan-out helpers
/// take the worker closure as their final argument.
pub fn closure_in_args(
    tokens: &[Token],
    masked: &str,
    open: usize,
    close: usize,
) -> Option<Closure> {
    let mut k = open + 1;
    let mut found = None;
    while k < close {
        let s = tokens[k].text(masked);
        match s {
            "(" | "[" | "{" => {
                k = match_delim(tokens, masked, k).map_or(k + 1, |c| c + 1);
                continue;
            }
            "||" => {
                if let Some(cl) = closure_at(tokens, masked, k, k, close) {
                    k = cl.body.1 + 1;
                    found = Some(cl);
                    continue;
                }
            }
            "|" => {
                // Parameter pipe: scan to the closing `|`, bailing out
                // if this is a bitwise-or (statement punctuation first).
                let mut p = k + 1;
                while p < close
                    && !tokens[p].is(masked, "|")
                    && !matches!(tokens[p].text(masked), ";" | "{" | "}" | "=" | "(" | ")")
                    && p - k < 40
                {
                    p += 1;
                }
                if p < close && tokens[p].is(masked, "|") {
                    if let Some(cl) = closure_at(tokens, masked, k, p, close) {
                        k = cl.body.1 + 1;
                        found = Some(cl);
                        continue;
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    found
}

/// Build a [`Closure`] whose head spans `start ..= params_end` (both
/// pipes, or one `||` token) inside a call ending at token `close`.
fn closure_at(
    tokens: &[Token],
    masked: &str,
    start: usize,
    params_end: usize,
    close: usize,
) -> Option<Closure> {
    let params = if start == params_end {
        Vec::new()
    } else {
        tokens
            .get(start + 1..params_end)?
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !t.is(masked, "mut"))
            .map(|t| t.text(masked).to_owned())
            .collect()
    };
    let b = params_end + 1;
    let t = tokens.get(b)?;
    if t.is(masked, "{") {
        let end = match_delim(tokens, masked, b)?;
        return Some(Closure {
            params,
            body: (b, end),
        });
    }
    // Expression body: runs to the next top-level `,` or the call's `)`.
    let mut depth = 0i32;
    let mut k = b;
    while k < close {
        match tokens[k].text(masked) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    Some(Closure {
        params,
        body: (b, k.saturating_sub(1).max(b)),
    })
}

/// Indices of `name(...)` call sites (plain or method) in a token range.
pub fn call_sites(tokens: &[Token], masked: &str, range: (usize, usize), name: &str) -> Vec<usize> {
    (range.0..=range.1.min(tokens.len().saturating_sub(1)))
        .filter(|&k| {
            path_at(tokens, masked, k, name)
                && tokens.get(k + 1).is_some_and(|t| t.is(masked, "("))
                && !(k > 0 && tokens[k - 1].is(masked, "fn"))
        })
        .collect()
}

/// Indices of `.name(...)` method-call sites in a token range.
pub fn method_call_sites(
    tokens: &[Token],
    masked: &str,
    range: (usize, usize),
    name: &str,
) -> Vec<usize> {
    call_sites(tokens, masked, range, name)
        .into_iter()
        .filter(|&k| k > 0 && tokens[k - 1].is(masked, "."))
        .collect()
}

/// Names of everything called as `name(...)`, `.name(...)` or
/// `Self::name(...)` in a body range — the per-file call graph edge set
/// for hot-path propagation. Calls qualified by a foreign type
/// (`UeId::new(...)`) are excluded: matching those by bare name would
/// conflate every type's `new` with every other's.
pub fn callee_names(tokens: &[Token], masked: &str, range: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    for k in range.0..=range.1.min(tokens.len().saturating_sub(1)) {
        if tokens[k].kind == TokKind::Ident
            && tokens.get(k + 1).is_some_and(|t| t.is(masked, "("))
            && !(k > 0 && tokens[k - 1].is(masked, "fn"))
        {
            let foreign_qualified = k > 1
                && tokens[k - 1].is(masked, "::")
                && tokens[k - 2].kind == TokKind::Ident
                && !tokens[k - 2].is(masked, "Self");
            if !foreign_qualified {
                out.push(tokens[k].text(masked).to_owned());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_str(src: &str) -> Parsed {
        parse(&lexer::scan(src))
    }

    #[test]
    fn tokenizer_merges_multibyte_operators() {
        let toks = tokenize("a += b..c ..= d :: e");
        let texts: Vec<&str> = toks
            .iter()
            .map(|t| t.text("a += b..c ..= d :: e"))
            .collect();
        assert_eq!(
            texts,
            vec!["a", "+=", "b", "..", "c", "..=", "d", "::", "e"]
        );
    }

    #[test]
    fn tokenizer_separates_float_from_range() {
        let src = "1.5 + x[0..n]";
        let toks = tokenize(src);
        let texts: Vec<&str> = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(texts, vec!["1.5", "+", "x", "[", "0", "..", "n", "]"]);
    }

    #[test]
    fn fn_items_capture_name_params_and_body() {
        let p = parse_str(
            "impl X { pub fn go<T: Ord>(&mut self, n_sub: usize) -> [f64; 4] { [0.0; 4] } }",
        );
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "go");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "self");
        assert_eq!(f.params[1].name, "n_sub");
        assert_eq!(f.params[1].ty, "usize");
        assert!(f.body.is_some());
    }

    #[test]
    fn hot_marker_attaches_to_next_fn() {
        let p = parse_str("fn cold() {}\n// cellfi-lint: hot\nfn warm() {}\nfn later() {}\n");
        let hot: Vec<&str> = p
            .fns
            .iter()
            .filter(|f| f.hot)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(hot, vec!["warm"]);
    }

    #[test]
    fn closure_in_args_finds_last_argument_closure() {
        let src = "fn f() { for_each_chunk(data, 8, 4, |u, block| { block[0] = u as f64; }); }";
        let p = parse_str(src);
        let sites = call_sites(&p.tokens, src, (0, p.tokens.len() - 1), "for_each_chunk");
        assert_eq!(sites.len(), 1);
        let close = match_delim(&p.tokens, src, sites[0] + 1).unwrap();
        let cl = closure_in_args(&p.tokens, src, sites[0] + 1, close).unwrap();
        assert_eq!(cl.params, vec!["u", "block"]);
    }
}
