//! The six workloads and what they have in common.
//!
//! A workload is built from a seed, runs fixed-work *rounds*, checks what
//! the program produced after each one, and keeps count of operations
//! attempted and failed. The runner decides how many rounds to run and turns
//! their samples into metrics; see [`crate::run`].

pub mod guard;
pub mod loopback;
pub mod table3;

use crate::spans::{SpanId, Spans};

/// What one round measured.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Wall time of the measured region, nanoseconds.
    pub ns: f64,
    /// Operations completed in it: datagrams offered (guard workloads),
    /// simulated packets delivered (`table3_sim`), queries answered
    /// (`loopback`).
    pub ops: u64,
    /// Median wall time per operation over the round's samples, µs. A
    /// sample is one query (`loopback`) or the mean of one small batch.
    pub p50_us: f64,
    /// 99th percentile of the same samples, µs.
    pub p99_us: f64,
}

/// One of the six workloads, set up and ready to run rounds.
pub trait Workload {
    /// The workload's name as `BENCHMARK.json` lists it.
    fn name(&self) -> &'static str;

    /// Runs and checks one round. With `trace`, records spans under the
    /// given parent (and, for the guard workloads, replays each batch's
    /// primitives beside the real call).
    fn round(&mut self, trace: Option<(&mut Spans, SpanId)>) -> Round;

    /// Operations attempted so far.
    fn attempted(&self) -> u64;

    /// Operations that failed a correctness check so far.
    fn failed(&self) -> u64;

    /// Descriptions of the first few failures, for the log.
    fn failures(&self) -> &[String];

    /// Workload-specific counts and ratios for the per-layer report:
    /// `(metric name, value)`.
    fn facts(&self) -> Vec<(&'static str, f64)>;
}

/// Names of the six workloads, in report order.
pub const NAMES: [&str; 6] = [
    "spoof_flood",
    "cookie_flood",
    "first_contact",
    "legit_steady",
    "table3_sim",
    "loopback",
];

/// Sets up workload `name` from `seed`.
///
/// # Errors
///
/// When `name` is not one of [`NAMES`], or the loopback sockets cannot be
/// opened.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "table3_sim" => Ok(Box::new(table3::Table3::new(seed))),
        "loopback" => loopback::Loopback::new(seed)
            .map(|w| Box::new(w) as Box<dyn Workload>)
            .map_err(|e| format!("loopback set-up: {e}")),
        _ => guard::spec(name)
            .map(|s| Box::new(guard::GuardWorkload::new(s, seed)) as Box<dyn Workload>)
            .ok_or_else(|| format!("unknown workload {name:?} (known: {})", NAMES.join(", "))),
    }
}

/// Records a failure description, keeping only the first few.
pub(crate) fn note(failures: &mut Vec<String>, what: String) {
    if failures.len() < 8 {
        failures.push(what);
    }
}
