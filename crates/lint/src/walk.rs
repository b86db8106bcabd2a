//! Workspace file discovery.
//!
//! The scanned set is deliberately explicit rather than "every `.rs`
//! file we can find":
//!
//! * the root crate's `src/` and every `crates/<name>/src/` tree;
//! * **excluding** `vendor/` (third-party stand-ins), `target/`,
//!   any directory named `tests`, `benches`, `examples`, or `fixtures`,
//!   and non-Rust files.
//!
//! The `benchmark/` package sits outside both trees: reading wall
//! clocks is its job.
//!
//! `src/bin/` files **are** collected — rules decide per-file what
//! applies to a binary target (see `FileContext`).
//!
//! Results are sorted so output order is deterministic — the linter
//! holds itself to the determinism rule it enforces.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const EXCLUDED_DIRS: &[&str] = &[
    "vendor", "target", "tests", "benches", "examples", "fixtures",
];

/// Collect every lintable source file under a workspace root, sorted.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_dir(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                walk_dir(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if EXCLUDED_DIRS.contains(&name) {
                continue;
            }
            walk_dir(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether a workspace-relative path would be collected. Mirrors
/// [`collect_files`] for paths passed explicitly on the command line.
pub fn is_lintable(rel_path: &str) -> bool {
    let norm = rel_path.replace('\\', "/");
    if !norm.ends_with(".rs") {
        return false;
    }
    let parts: Vec<&str> = norm.split('/').collect();
    if parts.iter().any(|p| EXCLUDED_DIRS.contains(p)) {
        return false;
    }
    match parts.first() {
        Some(&"src") => true,
        Some(&"crates") => parts.get(2) == Some(&"src"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lintable_paths() {
        assert!(is_lintable("src/lib.rs"));
        assert!(is_lintable("crates/core/src/hopping.rs"));
        assert!(is_lintable("crates/sim/src/bin/exp.rs"));
        assert!(!is_lintable("vendor/rand/src/lib.rs"));
        assert!(!is_lintable("benchmark/src/main.rs"));
        assert!(!is_lintable("crates/lint/tests/fixtures/bad.rs"));
        assert!(!is_lintable("crates/sim/examples/demo.rs"));
        assert!(!is_lintable("tests/determinism.rs"));
        assert!(!is_lintable("README.md"));
    }
}
