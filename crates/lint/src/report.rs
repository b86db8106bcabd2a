//! Finding type and output rendering (human text and JSON).

use std::fmt;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family: one of [`crate::rules::RULE_NAMES`] (`determinism`,
    /// `panic`, `units`, `obs`, `structure`, `parallel`, `slab`, `hot`,
    /// `cachegen`) or `lint-allow` for directive hygiene.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Render findings as a JSON array (stable field order, no trailing ws).
///
/// Hand-rolled on purpose: the linter is dependency-free so it can run
/// before anything else in the workspace builds.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"rule\":{},", json_string(f.rule)));
        out.push_str(&format!("\"path\":{},", json_string(&f.path)));
        out.push_str(&format!("\"line\":{},", f.line));
        out.push_str(&format!("\"message\":{}", json_string(&f.message)));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn findings_render_with_stable_fields() {
        let f = Finding {
            rule: "panic",
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            message: "msg".into(),
        };
        let json = to_json(std::slice::from_ref(&f));
        assert!(json.contains("\"rule\":\"panic\""), "{json}");
        assert!(json.contains("\"line\":3"), "{json}");
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:3: [panic] msg");
    }
}
