//! Records the compiler version for the benchmark's machine fingerprint.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    println!("cargo:rustc-env=PERF_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
