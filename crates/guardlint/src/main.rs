#![forbid(unsafe_code)]
//! The `guardlint` CLI: walks the workspace, prints findings, and exits 1
//! when there is any.

use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
guardlint — workspace-native static analysis for the DNS-guard repo

USAGE: guardlint [--root <dir>] [--github]

  --root <dir>  workspace root (default: current directory)
  --github      emit findings as GitHub Actions ::error annotations
                (for PR-line placement in CI)

Exits 1 on any finding. Checks: the rule table (L1 panics, L2 clocks and
RNGs, L3 relaxed atomics, seam, core-size, state-table, ans-wire,
client-wire, tcp-framing, cookie-alg, netsim-engine, features, testbed)
and L1 indexing. A finding is exempt only by `// lint: <id> — <why>` on its line
or directly above it.";

fn main() {
    let mut root = PathBuf::from(".");
    let mut github = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => usage_error("--root needs a value"),
            },
            "--github" => github = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let result = match guardlint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("guardlint: {}: {e}", root.display());
            exit(2);
        }
    };

    for f in &result.findings {
        println!("{}", if github { f.render_github() } else { f.render() });
    }
    eprintln!(
        "guardlint: {} file(s), {} finding(s)",
        result.files_scanned,
        result.findings.len()
    );
    if !result.findings.is_empty() {
        exit(1);
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("guardlint: {msg}\n\n{USAGE}");
    exit(2)
}
