#![forbid(unsafe_code)]
//! The `guardlint` CLI: walks the workspace, prints findings, and (with
//! `--deny`) fails on any error-severity finding.

use guardlint::findings::to_json;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
guardlint — workspace-native static analysis for the DNS-guard repo

USAGE: guardlint [--root <dir>] [--allowlist <Lint.toml>] [--json] [--github] [--deny]

  --root <dir>        workspace root (default: current directory)
  --allowlist <file>  allowlist path (default: <root>/Lint.toml)
  --json              emit findings as a JSON array on stdout
  --github            emit findings as GitHub Actions ::error/::warning
                      annotations (for PR-line placement in CI)
  --deny              exit non-zero when any error-severity finding
                      remains; stale allowlist entries become errors

Checks: the rule table (L1 panics, L2 clocks and RNGs, seam, core-size,
state-table, ans-wire, netsim-engine, features, testbed), L1 indexing,
L3 relaxed-ordering justification, L6 shared-state escape.";

fn main() {
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut json = false;
    let mut github = false;
    let mut deny = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => usage_error("--root needs a value"),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist = Some(PathBuf::from(v)),
                None => usage_error("--allowlist needs a value"),
            },
            "--json" => json = true,
            "--github" => github = true,
            "--deny" => deny = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let allowlist = allowlist.unwrap_or_else(|| root.join("Lint.toml"));
    let result = match guardlint::run(&root, &allowlist, deny) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("guardlint: {}: {e}", root.display());
            exit(2);
        }
    };

    if json {
        print!("{}", to_json(&result.findings));
    } else {
        for f in &result.findings {
            println!("{}", if github { f.render_github() } else { f.render() });
        }
    }
    let (errors, warnings) = (result.errors(), result.warnings());
    eprintln!(
        "guardlint: {} file(s), {errors} error(s), {warnings} warning(s)",
        result.files_scanned
    );
    if deny && errors > 0 {
        exit(1);
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("guardlint: {msg}\n\n{USAGE}");
    exit(2)
}
