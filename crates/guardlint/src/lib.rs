#![forbid(unsafe_code)]
//! guardlint — workspace-native static analysis for the DNS-guard repo.
//!
//! The guard's value is surviving adversarial wire input in front of the
//! ANS, and the chaos/failover suites depend on simulated time being the
//! only clock. guardlint machine-checks those invariants and the
//! workspace's layering on every run, in one pass over every `.rs` file of
//! `crates/`, `src/`, `tests/` and `examples/` and every package manifest:
//!
//! * [`lints::RULES`], one table: per row a path scope, forbidden tokens
//!   (or a line cap), a message, and whether test items count — L1's
//!   panics, L2's clocks and RNGs, L3's relaxed atomics, and the seam,
//!   `core` size, state table, ANS wire path, netsim engine, cargo feature
//!   and testbed rows;
//! * **L1** — no slice/array index on wire input.
//!
//! A finding is exempt only by an inline justification naming its id on
//! its line or in the comment-only lines directly above it, and a
//! justification that exempts nothing is itself a finding (see
//! [`lints`]). Findings print as `file:line [id] message`; any finding
//! makes the CLI exit 1, and `--github` re-renders them as Actions
//! annotations. Zero dependencies by design: the crate carries its own
//! comment/string-aware lexer ([`lexer`]) instead of a Rust parser,
//! because every invariant here is token-shaped.

pub mod findings;
pub mod lexer;
pub mod lints;

use findings::Finding;
use lints::SourceFile;
use std::io;
use std::path::{Path, PathBuf};

/// Result of one full lint run.
pub struct RunResult {
    /// Every finding, canonical order.
    pub findings: Vec<Finding>,
    /// Number of files in the lint set.
    pub files_scanned: usize,
}

/// Collects `.rs` files and package manifests under `dir` recursively,
/// sorted for determinism.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "vendor" || name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn load(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = std::fs::read_to_string(p)?;
        files.push(SourceFile { rel: rel_of(root, p), scrub: lexer::scrub(&src) });
    }
    Ok(files)
}

/// The lint set: the workspace's crates, the umbrella package's `src/`,
/// `tests/` and `examples/`, and its manifest.
fn lint_set_paths(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect(&root.join(dir), &mut out)?;
    }
    if root.join("Cargo.toml").is_file() {
        out.push(root.join("Cargo.toml"));
    }
    Ok(out)
}

/// Runs the full lint pass over the workspace at `root`.
pub fn run(root: &Path) -> io::Result<RunResult> {
    let files = load(root, &lint_set_paths(root)?)?;
    let mut findings: Vec<Finding> = files.iter().flat_map(lints::check).collect();
    findings::sort(&mut findings);
    Ok(RunResult { findings, files_scanned: files.len() })
}
