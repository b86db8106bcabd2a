//! Source masking: the first stage of `cellfi-lint`.
//!
//! This module produces the view the tokenizer ([`crate::parse`])
//! works from; rules go back to the raw source only to read a string
//! literal's contents:
//!
//! * [`mask_source`] returns a same-length copy of the file in which
//!   comment bytes and string-literal *contents* are replaced by spaces
//!   (string quotes are kept so literal extents stay visible). Byte
//!   offsets in the masked text therefore map 1:1 onto the original,
//!   which is how findings get line numbers.
//! * `collect_directives` extracts `// cellfi-lint: allow(<rules>) — <reason>`
//!   directives and `// cellfi-lint: hot` hot-path markers from the
//!   comments the mask removed.
//!
//! The masker understands line and (nested) block comments, plain and
//! raw string literals, char literals, and the lifetime-vs-char-literal
//! ambiguity. That is enough to be exact on this workspace and safely
//! conservative on anything weirder.

/// A `cellfi-lint: allow(...)` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the directive text sits on.
    pub directive_line: usize,
    /// 1-based line the directive applies to: its own line when the
    /// comment trails code, otherwise the next line holding code.
    pub applies_to_line: usize,
    /// Rule names inside `allow(...)`, as written.
    pub rules: Vec<String>,
    /// Justification text after the closing parenthesis, trimmed.
    pub reason: String,
}

/// The masked view of one source file plus everything the mask removed.
#[derive(Debug)]
pub struct ScannedFile {
    /// The unmodified source, for rules that must read literal contents
    /// (byte offsets in `masked` map 1:1 onto it).
    pub raw: String,
    /// Same length as the input; comments and string contents are spaces.
    pub masked: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// All allow directives, in file order.
    pub allows: Vec<AllowDirective>,
    /// Lines targeted by `// cellfi-lint: hot` markers (the next line
    /// holding code, like allow directives). Each marks the fn item
    /// starting there as a hot-path allocation root (`hot` rule).
    pub hot_markers: Vec<usize>,
}

impl ScannedFile {
    /// 1-based line number of a byte offset into the (masked) source.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

/// Scan one file: mask it and collect its directives.
pub fn scan(source: &str) -> ScannedFile {
    let (masked, comments) = mask_source(source);
    let line_starts = line_starts(source);
    let (allows, hot_markers) = collect_directives(&comments, &masked, &line_starts);
    ScannedFile {
        raw: source.to_owned(),
        masked,
        line_starts,
        allows,
        hot_markers,
    }
}

/// One comment the mask removed: its byte span and original text.
#[derive(Debug)]
pub struct Comment {
    /// Byte offset of the comment opener (`//` or `/*`).
    pub start: usize,
    /// Original comment text, opener included.
    pub text: String,
}

fn line_starts(source: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in source.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Replace comments and string contents with spaces; keep everything
/// byte-aligned with the input. Returns the masked text and the list of
/// removed comments (the allow-directive source).
pub fn mask_source(source: &str) -> (String, Vec<Comment>) {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut comments = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
                comments.push(Comment {
                    start,
                    text: source[start..i].to_owned(),
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
                comments.push(Comment {
                    start,
                    text: source[start..i].to_owned(),
                });
            }
            b'"' => {
                // Plain string literal: keep the quotes, blank the body.
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out[i] = b' ';
                            if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                                out[i + 1] = b' ';
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => i += 1,
                        _ => {
                            out[i] = b' ';
                            i += 1;
                        }
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                // r"..." / r#"..."# — blank the body, keep delimiters.
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while j < bytes.len() {
                    if bytes[j..].starts_with(&closer) {
                        j += closer.len();
                        break;
                    }
                    if bytes[j] != b'\n' {
                        out[j] = b' ';
                    }
                    j += 1;
                }
                i = j;
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is `'ident` not
                // followed by a closing quote; a char literal closes.
                if let Some(end) = char_literal_end(bytes, i) {
                    for k in i + 1..end {
                        if bytes[k] != b'\n' {
                            out[k] = b' ';
                        }
                    }
                    i = end + 1;
                } else {
                    i += 1; // lifetime: leave as-is
                }
            }
            _ => i += 1,
        }
    }
    // out only ever replaces ASCII bytes with spaces, so it stays UTF-8.
    (
        String::from_utf8(out).unwrap_or_else(|_| source.to_owned()),
        comments,
    )
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"` or `r#...#"`, and the `r` must not be part of an identifier
    // (e.g. the trailing r of `var`) — except for the `br`/`cr` raw
    // byte-/C-string prefixes, where the prefix byte itself must start
    // the token.
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        let prefixed = (bytes[i - 1] == b'b' || bytes[i - 1] == b'c')
            && (i < 2 || !is_ident_byte(bytes[i - 2]));
        if !prefixed {
            return false;
        }
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// If a `'` at `i` opens a char literal, return the offset of its
/// closing quote; `None` means it is a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: find the closing quote. Start past the escaped
        // character itself so `'\''` closes at the final quote, not at
        // the quote being escaped.
        let mut j = i + 3;
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then_some(j);
    }
    // `'x'` closes immediately; `'a` (lifetime) does not.
    if bytes.get(i + 2) == Some(&b'\'') && next != b'\'' {
        return Some(i + 2);
    }
    None
}

const DIRECTIVE: &str = "cellfi-lint:";

fn collect_directives(
    comments: &[Comment],
    masked: &str,
    line_starts: &[usize],
) -> (Vec<AllowDirective>, Vec<usize>) {
    let mut allows = Vec::new();
    let mut hot_markers = Vec::new();
    for c in comments {
        // Directives live in plain comments only; doc comments merely
        // *describe* the syntax (as this crate's own docs do).
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find(DIRECTIVE) else {
            continue;
        };
        let rest = c.text[pos + DIRECTIVE.len()..].trim_start();
        let directive_line = line_of(line_starts, c.start);
        let applies_to_line = if line_has_code(masked, line_starts, directive_line) {
            directive_line
        } else {
            next_code_line(masked, line_starts, directive_line)
        };
        // `hot` marks the next fn item as a hot-path allocation root;
        // it has no rule list or reason, so it must not fall through to
        // allow parsing (which would flag it as malformed).
        if rest == "hot" || rest.starts_with("hot ") {
            hot_markers.push(applies_to_line);
            continue;
        }
        let (rules, reason) = parse_allow_body(rest);
        allows.push(AllowDirective {
            directive_line,
            applies_to_line,
            rules,
            reason,
        });
    }
    (allows, hot_markers)
}

/// Parse `allow(rule, rule) — reason`. Unparseable bodies yield an empty
/// rule list, which the rule engine reports as a malformed directive.
fn parse_allow_body(body: &str) -> (Vec<String>, String) {
    let Some(args) = body.strip_prefix("allow") else {
        return (Vec::new(), String::new());
    };
    let args = args.trim_start();
    let Some(open) = args.strip_prefix('(') else {
        return (Vec::new(), String::new());
    };
    let Some(close) = open.find(')') else {
        return (Vec::new(), String::new());
    };
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = open[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
        .trim()
        .to_owned();
    (rules, reason)
}

fn line_of(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

fn line_text<'a>(masked: &'a str, line_starts: &[usize], line: usize) -> &'a str {
    let start = line_starts[line - 1];
    let end = line_starts.get(line).copied().unwrap_or(masked.len());
    &masked[start..end]
}

fn line_has_code(masked: &str, line_starts: &[usize], line: usize) -> bool {
    line_text(masked, line_starts, line)
        .chars()
        .any(|c| !c.is_whitespace())
}

fn next_code_line(masked: &str, line_starts: &[usize], after: usize) -> usize {
    let mut line = after + 1;
    while line <= line_starts.len() {
        if line_has_code(masked, line_starts, line) {
            return line;
        }
        line += 1;
    }
    after
}

/// Whether a byte can continue an identifier (ASCII rules only).
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}
