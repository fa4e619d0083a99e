//! Model-checked harnesses over the *real* data-plane types.
//!
//! Compiled only under `RUSTFLAGS="--cfg guardcheck"` (the ci.sh
//! `guardcheck` stage): in that configuration `guardcheck::sync`
//! resolves to the modeled primitives, so the production
//! Counter/Histogram/Tracer/StopFlag implementations — not test
//! doubles — run under the interleaving checker. These are the state
//! that threads share: the obs cells and trace ring a guard writes and
//! the telemetry server reads, and the runtime's stop flag.
//!
//! The aggregate test asserts the whole suite explores ≥ 5 000
//! distinct schedules with zero counterexamples; the mutation test
//! proves the checker's teeth by demoting the stop flag's Release
//! store to Relaxed and demanding a replayable data-race trace.
#![cfg(guardcheck)]

use guardcheck::model::{spawn, Checker, ModelCell};
use guardcheck::{CexKind, Report, ScheduleTrace};

/// Harness 1: the obs metrics record path. Counter increments and
/// histogram records are relaxed RMWs; no interleaving may lose one,
/// and count/sum must agree after both recorders are joined.
fn run_metrics() -> Report {
    Checker::new().preemption_bound(3).check(|| {
        let c = obs::metrics::Counter::new();
        let h = obs::metrics::Histogram::new();
        let (c1, h1) = (c.clone(), h.clone());
        let (c2, h2) = (c.clone(), h.clone());
        let t1 = spawn(move || {
            c1.inc();
            h1.record(3);
        });
        let t2 = spawn(move || {
            c2.inc_release();
            h2.record(300);
        });
        t1.join();
        t2.join();
        assert_eq!(c.get(), 2, "no increment may be lost");
        assert_eq!(h.count(), 2, "histogram count matches records");
        assert_eq!(h.sum(), 303, "histogram sum matches records");
    })
}

/// Harness 2: the runtime stop flag. Work published before `stop()`
/// must be visible to any observer of `should_stop()` — the
/// Release/Acquire pair the four runtime components rely on for their
/// final drain.
fn run_stop_flag() -> Report {
    use runtime::stopflag::StopFlag;
    Checker::new().preemption_bound(3).check(|| {
        let flag = StopFlag::new();
        let work = ModelCell::named("pre_stop_work", 0u64);
        let (f, w) = (flag.clone(), work.clone());
        let owner = spawn(move || {
            w.set(42); // plain write published by the Release store
            f.stop();
        });
        if flag.should_stop() {
            assert_eq!(work.get(), 42, "stop observed implies work visible");
        }
        owner.join();
    })
}

/// Harness 3: the tracer ring drain. Two components record while the
/// main thread drains mid-stream; every event is accounted for exactly
/// once (drained now, drained later, or counted dropped).
fn run_tracer_ring() -> Report {
    use obs::trace::{Level, Tracer};
    Checker::new().preemption_bound(3).check(|| {
        let tracer = Tracer::new(2);
        tracer.set_default_level(Level::Debug);
        let ct1 = tracer.component("guard");
        let ct2 = tracer.component("ans");
        let t1 = spawn(move || {
            ct1.event(1, "ans_probe", &[]);
            ct1.event(2, "ans_probe", &[]);
        });
        let t2 = spawn(move || {
            ct2.event(3, "ans_probe", &[]);
        });
        let (mid, mid_dropped) = tracer.drain();
        t1.join();
        t2.join();
        let (rest, rest_dropped) = tracer.drain();
        let accounted = mid.len() as u64 + rest.len() as u64 + mid_dropped + rest_dropped;
        assert_eq!(accounted, 3, "every recorded event drained or counted dropped");
    })
}

fn show(name: &str, r: &Report) {
    println!(
        "guardcheck harness {name}: schedules={} states={} complete={} result={}",
        r.schedules,
        r.states,
        r.complete,
        match &r.counterexample {
            None => "race-free".to_string(),
            Some(cex) => cex.to_string(),
        }
    );
}

/// The acceptance gate: all three harnesses race-free, search space
/// exhausted, and ≥ 5 000 distinct schedules explored in total. The
/// per-harness counts print so the CI stage can surface them.
#[test]
fn three_harnesses_race_free_within_budget() {
    let start = std::time::Instant::now();
    let runs: [(&str, Report); 3] = [
        ("metrics_record_path", run_metrics()),
        ("stop_flag", run_stop_flag()),
        ("tracer_ring", run_tracer_ring()),
    ];
    let mut total_schedules = 0u64;
    let mut total_states = 0u64;
    for (name, report) in &runs {
        show(name, report);
        if let Some(cex) = &report.counterexample {
            // GitHub annotation so the failure lands on the PR line.
            println!("{}", cex.render_github(name));
            panic!("guardcheck harness {name} failed: {cex}");
        }
        assert!(report.complete, "harness {name} must exhaust its bounded search space");
        total_schedules += report.schedules;
        total_states += report.states;
    }
    println!(
        "guardcheck total: schedules={} states={} wall={:?}",
        total_schedules,
        total_states,
        start.elapsed()
    );
    assert!(
        total_schedules >= 5_000,
        "need >= 5000 schedules across harnesses, got {total_schedules}"
    );
}

/// Mutation self-test: demote the stop flag's Release store to Relaxed
/// (via the cfg(guardcheck)-only hook) and the checker must find the
/// data race on the pre-stop work, with a trace that replays to the
/// same failure. This pins that the zero-race verdict above has teeth.
#[test]
fn stop_flag_release_demotion_detected_with_replayable_trace() {
    use runtime::stopflag::StopFlag;
    let body = || {
        let flag = StopFlag::new();
        let work = ModelCell::named("pre_stop_work", 0u64);
        let (f, w) = (flag.clone(), work.clone());
        let owner = spawn(move || {
            w.set(42);
            f.stop_relaxed_for_mutation_test(); // seeded Release→Relaxed demotion
        });
        if flag.should_stop() {
            let _ = work.get();
        }
        owner.join();
    };
    let report = Checker::new().preemption_bound(3).check(body);
    let cex = report
        .counterexample
        .expect("demoted Release store must produce a detectable race");
    assert_eq!(cex.kind, CexKind::DataRace, "got {cex}");
    assert!(cex.message.contains("pre_stop_work"), "names the location: {}", cex.message);

    // The trace replays — through its printed string form, as a CI log
    // consumer would — to the same race.
    let parsed = ScheduleTrace::parse(&cex.trace.to_string()).expect("trace string parses");
    let replay = Checker::replay(&parsed, body);
    let replayed = replay.counterexample.expect("replay reproduces the failure");
    assert_eq!(replayed.kind, CexKind::DataRace);
    assert_eq!(replay.schedules, 1, "replay runs exactly the pinned schedule");
    println!("mutation counterexample: {cex}");
}

/// The un-mutated stop flag is race-free under the same checker
/// configuration as the mutation test — the two together form the
/// detect/no-false-positive pair.
#[test]
fn stop_flag_release_acquire_pair_race_free() {
    let report = run_stop_flag();
    report.assert_ok("stop_flag");
    assert!(report.complete);
}
