//! Self-pinning and the machine fingerprint.
//!
//! The loopback workload has three threads handing one datagram around;
//! unpinned, its throughput swings sevenfold with the vCPU the scheduler
//! wakes them on (9 K to 67 K queries/s measured on the two-vCPU reference
//! guest). The whole process therefore re-executes itself under
//! `taskset -c <cpu>` before it measures anything, and says so in its log.
//! When that is impossible (no `taskset`, a one-CPU mask it may not change)
//! it runs where it is and reports `pinned_cpu` as null; `compare` then
//! treats the loopback figures as unresolved.

use crate::json::Value;
use std::os::unix::process::CommandExt;
use std::process::Command;

/// Set in the re-executed process so it does not re-execute again.
const PINNED_ENV: &str = "PERF_PINNED_CPU";

/// The CPUs this process may run on, from `/proc/self/status`.
pub fn allowed_cpus() -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<u32>(), hi.trim().parse::<u32>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Makes sure the process runs on one CPU: `want`, or else the highest one
/// allowed (CPU 0 takes most interrupts). Returns the CPU, or `None` when
/// the process could not be pinned. Does not return in the process that
/// re-executes.
pub fn ensure_pinned(want: Option<u32>) -> Option<u32> {
    let allowed = allowed_cpus();
    if let [only] = allowed[..] {
        // Already on one CPU: re-executed, or started under taskset.
        return Some(only);
    }
    if std::env::var_os(PINNED_ENV).is_some() {
        return None; // taskset ran but the mask is still wide: give up
    }
    let cpu = want.or_else(|| allowed.iter().copied().max())?;
    let exe = std::env::current_exe().ok()?;
    // `exec` replaces this process, so there is no child to wait for; it
    // returns only if `taskset` could not be started.
    let err = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, cpu.to_string())
        .exec();
    eprintln!("perf: cannot pin with taskset ({err}); running unpinned");
    None
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and with what the numbers were taken.
pub fn fingerprint(pinned_cpu: Option<u32>, seed: u64) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    // Counted from cpuinfo: `available_parallelism` reads 1 once pinned.
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count() as u64;
    Value::obj()
        .with(
            "pinned_cpu",
            pinned_cpu.map_or(Value::Null, |c| Value::from(u64::from(c))),
        )
        .with("cpu_model", model)
        .with("nproc", nproc)
        .with("rustc", env!("PERF_RUSTC_VERSION"))
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        )
        .with("seed", seed)
        .with(
            "loopback",
            "traffic crossed the host's loopback interface (127.0.0.1), never a real link",
        )
}
