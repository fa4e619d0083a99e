//! The benchmark's one command. See `README.md`.

use perf::json::{self, Value};
use perf::layers::{self, LayerReport};
use perf::probe::Probe;
use perf::report::{self, Metrics};
use perf::run::{self, Samples, MIN_ROUNDS, SETUPS, TRACED_ROUNDS};
use perf::spans::Spans;
use perf::workload::{Workload, NAMES};
use perf::{compare, pin};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
perf — the DNS Guard reproduction's benchmark

  perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One workload, as the benchmark driver runs it. With --trace 0 prints
      the end-to-end metrics, with --trace 1 the per-layer metrics (layer
      microbenchmarks, per-class guard costs, the span breakdown of a traced
      pass) and writes the spans to <target>/perf/trace.jsonl. The last line
      of stdout is one JSON object: correct, attempted, failed, metrics.

  perf [--seed <n>] [--seconds <s>] [--smoke] [--out <report.json>]
      All six workloads with their rounds interleaved, then the traced pass
      and the layer suite; prints every metric by name with its unit and
      writes the report that `compare` reads (default <target>/perf/report.json).
      --smoke runs two rounds of everything.

  perf compare <old.json> <new.json>
      Applies each end-to-end metric's bound per workload; exits non-zero on
      a regression or a higher share of failed operations.

  perf probe
      Prints the host-speed probe's distribution on this machine.

  --cpu <n>   pin to this CPU (default: the highest one allowed)
  workloads:  spoof_flood cookie_flood first_contact legit_steady table3_sim loopback";

/// Sweeps of the layer suite: 32 × 2 048 calls = 65 536 calls per bench.
const LAYER_SWEEPS: usize = 32;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    cpu: Option<u32>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        cpu: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? != "0",
            "--cpu" => a.cpu = Some(value()?.parse().map_err(|e| format!("--cpu: {e}"))?),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// `<target>/perf/<file>`: beside the build, inside the checkout.
fn artifact(file: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perf")))
        .unwrap_or_else(|| PathBuf::from("target/perf"));
    dir.join(file)
}

fn facts(w: &dyn Workload) -> Metrics {
    w.facts()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn wrote(path: &Path, result: std::io::Result<()>) {
    match result {
        Ok(()) => eprintln!("perf: wrote {}", path.display()),
        Err(e) => eprintln!("perf: cannot write {}: {e}", path.display()),
    }
}

fn log_failures(who: &str, failures: &[String]) {
    for f in failures {
        eprintln!("perf: FAILED CHECK ({who}): {f}");
    }
}

/// One workload as the driver runs it.
fn driver(name: &str, a: &Args) -> Result<(), String> {
    let mut probe = Probe::new().map_err(|e| format!("host probe: {e}"))?;
    let budget = Duration::from_secs_f64(a.seconds);
    let (attempted, failed, metrics) = if !a.trace {
        let mut ready = run::setup(name, a.seed, SETUPS, &mut probe)?;
        let samples = run::measure(
            ready.workload.as_mut(),
            &mut probe,
            budget,
            MIN_ROUNDS,
            usize::MAX,
        );
        let metrics = report::end_to_end(&samples, &ready.setup_s);
        eprint!(
            "{}",
            report::table(&format!("{name}: end to end (host-normalised)"), &metrics)
        );
        eprint!(
            "{}",
            report::table("diagnostics", &report::diagnostics(&samples))
        );
        log_failures(name, ready.workload.failures());
        (ready.workload.attempted(), ready.workload.failed(), metrics)
    } else {
        let started = Instant::now();
        let layers = layers::run(a.seed, LAYER_SWEEPS, &mut probe)
            .map_err(|e| format!("layer suite: {e}"))?;
        eprintln!(
            "perf: layer suite took {:.1} s",
            started.elapsed().as_secs_f64()
        );
        let mut ready = run::setup(name, a.seed, 1, &mut probe)?;
        let mut spans = Spans::new();
        let root = spans.open("run", "", 0, None);
        let wspan = spans.open("workload", ready.workload.name(), 0, Some(root));
        let left = budget
            .saturating_sub(started.elapsed())
            .max(Duration::from_secs(1));
        let (plain, traced, ids) = run::measure_traced(
            ready.workload.as_mut(),
            &mut probe,
            left,
            TRACED_ROUNDS,
            &mut spans,
            wspan,
        );
        spans.close(wspan);
        spans.close(root);
        let path = artifact("trace.jsonl");
        eprintln!("perf: {} spans recorded", spans.len());
        wrote(&path, spans.write_jsonl(&path));
        let metrics = report::per_layer(
            &layers,
            &[
                facts(ready.workload.as_ref()),
                report::diagnostics(&plain),
                report::traced(&plain, &traced, &spans, &ids),
            ],
        );
        eprint!(
            "{}",
            report::table(&format!("{name}: per layer (host-normalised)"), &metrics)
        );
        log_failures(name, ready.workload.failures());
        log_failures("layer suite", &layers.failures);
        (
            ready.workload.attempted() + layers.attempted,
            ready.workload.failed() + layers.failed,
            metrics,
        )
    };
    println!(
        "{}",
        report::result_json(attempted, failed, &metrics).encode()
    );
    Ok(())
}

/// All six workloads, rounds interleaved, then traced passes and layers.
fn full(a: &Args, pinned: Option<u32>) -> Result<bool, String> {
    let mut probe = Probe::new().map_err(|e| format!("host probe: {e}"))?;
    let (min_rounds, max_rounds, traced_rounds, sweeps, setups) = if a.smoke {
        (2, 2, 1, 2, 1)
    } else {
        (MIN_ROUNDS, usize::MAX, TRACED_ROUNDS, LAYER_SWEEPS, SETUPS)
    };
    let mut ready = Vec::new();
    for name in NAMES {
        ready.push(run::setup(name, a.seed, setups, &mut probe)?);
    }

    // Round-robin A1 B1 … F1 A2 …: every workload samples the same stretch
    // of host time. `--seconds` is the budget per workload.
    let budget = Duration::from_secs_f64(a.seconds * NAMES.len() as f64);
    let started = Instant::now();
    let mut samples: Vec<Samples> = vec![Samples::default(); NAMES.len()];
    while samples[0].rounds.len() < max_rounds
        && (samples[0].rounds.len() < min_rounds || started.elapsed() < budget)
    {
        for (r, s) in ready.iter_mut().zip(&mut samples) {
            s.rounds.push(run::round(r.workload.as_mut(), &mut probe));
        }
    }

    let layers: LayerReport =
        layers::run(a.seed, sweeps, &mut probe).map_err(|e| format!("layer suite: {e}"))?;
    let mut spans = Spans::new();
    let root = spans.open("run", "", 0, None);
    let mut workloads = Value::obj();
    let mut all_ok = layers.failed == 0;
    for (r, s) in ready.iter_mut().zip(&samples) {
        let name = r.workload.name();
        let wspan = spans.open("workload", name, 0, Some(root));
        let (plain, traced, ids) = run::measure_traced(
            r.workload.as_mut(),
            &mut probe,
            Duration::from_secs_f64(a.seconds),
            traced_rounds,
            &mut spans,
            wspan,
        );
        spans.close(wspan);
        let mut metrics = report::end_to_end(s, &r.setup_s);
        metrics.extend(facts(r.workload.as_ref()));
        metrics.extend(report::diagnostics(s));
        metrics.extend(report::traced(&plain, &traced, &spans, &ids));
        println!("{}", report::table(name, &metrics));
        log_failures(name, r.workload.failures());
        all_ok &= r.workload.failed() == 0;
        workloads = workloads.with(
            name,
            report::result_json(r.workload.attempted(), r.workload.failed(), &metrics),
        );
    }
    spans.close(root);
    println!("{}", report::table("layers", &layers.metrics));
    log_failures("layer suite", &layers.failures);

    let fingerprint = pin::fingerprint(pinned, a.seed);
    println!("fingerprint {}", fingerprint.encode());
    let doc = Value::obj()
        .with("benchmark", "perf")
        .with("seconds_per_workload", a.seconds)
        .with("fingerprint", fingerprint)
        .with("layers", report::metrics_json(&layers.metrics))
        .with("workloads", workloads);
    let out = a.out.clone().unwrap_or_else(|| artifact("report.json"));
    let trace = artifact("trace.jsonl");
    spans
        .check_well_formed()
        .map_err(|e| format!("span tree: {e}"))?;
    wrote(&trace, spans.write_jsonl(&trace));
    let made = out.parent().map_or(Ok(()), std::fs::create_dir_all);
    wrote(
        &out,
        made.and_then(|()| std::fs::write(&out, doc.encode() + "\n")),
    );
    Ok(all_ok)
}

fn compare_files(old: &str, new: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (rows, pass) = compare::compare(&read(old)?, &read(new)?);
    print!("{}", compare::render(&rows));
    println!(
        "{}",
        if pass {
            "PASS"
        } else {
            "FAIL: regression beyond bound or more failed operations"
        }
    );
    Ok(pass)
}

/// `perf probe`: the host-speed probe's own distribution on this machine,
/// for checking `probe::NOMINAL_NS` against another reference guest.
fn calibrate() -> Result<bool, String> {
    pin::ensure_pinned(None);
    let mut probe = Probe::new().map_err(|e| e.to_string())?;
    let mut ns = Vec::new();
    for _ in 0..2000 {
        ns.push(probe.sample().map_err(|e| e.to_string())?);
    }
    for q in [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9] {
        println!(
            "probe p{:<3} {:>10.0} ns",
            (q * 100.0) as u32,
            perf::stats::quantile(&ns, q)
        );
    }
    println!("nominal  {:>10.0} ns", perf::probe::NOMINAL_NS);
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("probe") => calibrate(),
        Some("compare") => match &args[1..] {
            [old, new] => compare_files(old, new),
            _ => Err("compare needs <old.json> <new.json>".to_string()),
        },
        _ => parse_args(&args).and_then(|a| {
            let pinned = pin::ensure_pinned(a.cpu);
            match pinned {
                Some(cpu) => eprintln!("perf: pinned to CPU {cpu}"),
                None => eprintln!("perf: NOT pinned: the loopback figures measure the scheduler"),
            }
            match a.workload.as_deref() {
                Some(name) => driver(name, &a).map(|()| true),
                None => full(&a, pinned),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
