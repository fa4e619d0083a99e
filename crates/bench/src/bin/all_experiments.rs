//! The one experiment runner: `all_experiments [--out DIR] [NAME…]`.
//!
//! With no names it runs the paper's own evaluation (Tables I–III,
//! Figures 5–7); with names it runs those entries of
//! [`bench::registry::EXPERIMENTS`] in the order given. Exit status: 0 when
//! every acceptance bar and export check held, 1 when any failed (after
//! running everything asked for), 2 for a command line it does not
//! understand.

use bench::registry::{parse_args, run};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = parse_args(&args).unwrap_or_else(|problem| {
        eprint!("{problem}");
        exit(2);
    });
    let failures = run(&plan);
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    if !failures.is_empty() {
        exit(1);
    }
}
