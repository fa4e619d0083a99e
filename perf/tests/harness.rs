//! Harness tests: the benchmark's own promises. Set-up is deterministic,
//! the baseline has no failed operation, the checker can fail, the span tree
//! is well-formed and adds up, and `BENCHMARK.json` says what the code does.

use perf::classes::ClassBenches;
use perf::json::{self, Value};
use perf::report::{self, END_TO_END, PER_LAYER};
use perf::run::Samples;
use perf::spans::Spans;
use perf::workload::guard::{GuardWorkload, SPECS};
use perf::workload::{Workload, NAMES};
use std::process::Command;

const SEED: u64 = 42;

#[test]
fn same_seed_same_ring_same_dispositions() {
    for spec in &SPECS {
        let mut a = GuardWorkload::cold(spec, SEED);
        let mut b = GuardWorkload::cold(spec, SEED);
        assert!(
            a.ring_mut().fingerprint() == b.ring_mut().fingerprint(),
            "{}: rings differ byte for byte",
            spec.name
        );
        a.round(None);
        b.round(None);
        assert_eq!(
            format!("{:?}", a.dispositions()),
            format!("{:?}", b.dispositions()),
            "{}: disposition counts differ",
            spec.name
        );
        assert_eq!(a.failed(), 0, "{}: {:?}", spec.name, a.failures());
        let other = GuardWorkload::cold(spec, SEED + 1).ring_mut().fingerprint();
        assert!(
            a.ring_mut().fingerprint() != other,
            "{}: the seed does not reach the ring",
            spec.name
        );
    }
}

#[test]
fn same_seed_same_allocation_counts() {
    let allocs = || {
        let mut benches = ClassBenches::new(SEED);
        for _ in 0..2 {
            benches.sweep();
            benches.commit(1.0);
        }
        assert_eq!(benches.failed(), 0, "{:?}", benches.failures());
        let counts: Vec<(String, f64)> = benches
            .metrics()
            .into_iter()
            .filter(|(name, _)| name.ends_with("_allocs"))
            .collect();
        assert_eq!(counts.len(), 11);
        counts
    };
    let first = allocs();
    assert_eq!(first, allocs());
    // The forged-cookie drop paths allocate (decode does), the answering
    // paths allocate more: the counter is not reading zero everywhere.
    let get = |name: &str| first.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(get("dnsguard.ext_invalid_allocs") >= 1.0);
    assert!(get("dnsguard.fabricated_ns_allocs") > get("dnsguard.ext_invalid_allocs"));
}

#[test]
fn a_planted_valid_cookie_is_caught() {
    let spec = SPECS.iter().find(|s| s.name == "cookie_flood").unwrap();
    let mut w = GuardWorkload::cold(spec, SEED);
    // Entry 5 lies in the first run of the ring: a forged extension cookie
    // from a spoofed source. Make it the right cookie for that source.
    let factory = w.factory(0).clone();
    w.ring_mut().plant_valid_cookie(5, &factory);
    w.round(None);
    assert!(
        w.failed() > 0,
        "a spoofed datagram reached the ANS unnoticed"
    );
    let log = w.failures().join("\n");
    // The round passes the ring three times, so the datagram is sent thrice.
    assert!(
        log.contains("queries reaching the ANS = 3, expected 0"),
        "{log}"
    );

    let mut clean = GuardWorkload::cold(spec, SEED);
    clean.round(None);
    assert_eq!(clean.failed(), 0, "{:?}", clean.failures());
}

#[test]
fn traced_rounds_are_well_formed_and_reconcile() {
    for spec in &SPECS {
        let mut w = GuardWorkload::cold(spec, SEED);
        let mut spans = Spans::new();
        let root = spans.open("run", "", 0, None);
        let round_id = spans.open("round", spec.name, 0, Some(root));
        let round = w.round(Some((&mut spans, round_id)));
        spans.close(round_id);
        spans.close(root);
        spans
            .check_well_formed()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(w.failed(), 0, "{}: {:?}", spec.name, w.failures());

        let traced = Samples {
            rounds: vec![perf::run::Sample { round, scale: 1.0 }],
        };
        let m = report::traced(&Samples::default(), &traced, &spans, &[round_id]);
        let get = |name: &str| m.iter().find(|(n, _)| n == name).unwrap().1;
        let parts: f64 = m
            .iter()
            .filter(|(n, _)| n.starts_with("span.") && n != "span.guard_ns")
            .map(|(_, v)| v)
            .sum();
        let guard = get("span.guard_ns");
        assert!(guard > 0.0 && parts > 0.0, "{}: no spans summed", spec.name);
        let sum = parts + get("dnsguard.residual_ns");
        assert!(
            (sum - guard).abs() <= guard * 0.01,
            "{}: {sum} vs guard span {guard}",
            spec.name
        );
        // The guard span is the round's measured time.
        assert!(
            (guard * round.ops as f64 - round.ns).abs() <= round.ns * 0.01,
            "{}",
            spec.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);
    for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
        assert!(str_of(w, "why").len() <= 200);
    }

    let e2e: Vec<(String, String, String, f64)> = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                str_of(m, "name"),
                str_of(m, "unit"),
                str_of(m, "better"),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|&(n, u, b, bound)| (n.into(), u.into(), b.into(), bound))
        .collect();
    assert_eq!(e2e, want);

    let layers: Vec<(String, String, String)> = doc
        .get("per_layer")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
        .collect();
    assert_eq!(layers, want);

    let strings = |k: &str| -> Vec<&str> {
        doc.get(k)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("paths"), ["perf"]);
    assert!(strings("command").contains(&"perf/Cargo.toml"));
}

#[test]
fn smoke_run_of_all_six_has_no_failed_operation() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-report.json");
    let run = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr),
    );
    assert!(run.status.success(), "{stdout}\n{stderr}");
    let report = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for name in NAMES {
        let w = report
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{name}");
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{name}");
        for (metric, ..) in END_TO_END {
            let v = w
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{name}.{metric} = {v:?}");
        }
    }
    assert!(
        stdout.contains("loopback interface"),
        "the report says where the traffic went"
    );
    assert!(report
        .get("fingerprint")
        .and_then(|f| f.get("rustc"))
        .is_some());

    // A report compared with itself passes the gate.
    let same = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
}
