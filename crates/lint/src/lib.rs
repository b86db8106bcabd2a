//! `cellfi-lint` — CellFi's workspace static-analysis pass.
//!
//! The simulation's headline claims (byte-identical parallel replay,
//! ITU-style link budgets, allocation-free steady state) rest on
//! invariants the compiler cannot see: no nondeterministic iteration or
//! wall-clock reads in engine code, no panics in library crates, no raw
//! dB/linear mixing outside the `cellfi_types::units` newtypes, no
//! captured writes in parallel fan-outs. This crate enforces them with
//! a dependency-free pipeline: [`lexer`] masks comments and string
//! contents, [`parse`] tokenizes and finds items, and every rule in
//! [`rules`] — the one catalogue, with the
//! `// cellfi-lint: allow(<rule>) — <reason>` escape hatch — reads the
//! parsed token stream.
//!
//! Run it with `cargo run -p cellfi-lint` (add `--json` for machine
//! output); `scripts/tier1.sh` runs it on every verification pass.

pub mod dataflow;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

use report::Finding;
use rules::FileContext;
use std::path::Path;

/// Lint one file's source text under its workspace-relative path.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let ctx = FileContext::from_path(rel_path);
    let scanned = lexer::scan(source);
    rules::lint_scanned(&ctx, &scanned)
}

/// Lint the whole workspace under `root`. Returns findings plus the
/// number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = walk::collect_files(root)?;
    let mut findings = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(file)?;
        findings.extend(lint_source(&rel, &source));
    }
    Ok((findings, files.len()))
}
