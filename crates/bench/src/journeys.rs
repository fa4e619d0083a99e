//! The query-journey experiment behind `BENCH_journeys.json`: per-scheme
//! cold-start worlds whose drained traces are reassembled into causal
//! timelines ([`obs::journey`]), plus one chaos world exercising the
//! alerting engine ([`obs::alert`]) every 10 ms of simulated time.
//!
//! Run via `cargo run --release -p bench --bin all_experiments -- journeys`.
//! Two files are written:
//!
//! * `BENCH_journeys.json` — per-scheme reconstruction coverage, extra-RTT
//!   attribution (the paper's handshake-cost expectation: ≈1 extra round
//!   trip for the DNS-based and modified-DNS schemes, ≈2 for the COOKIE2
//!   redirect and the TC→TCP fallback), stage-latency attribution, the
//!   journey metric histograms (with p50/p95/p99), and the chaos run's
//!   alert transcript;
//! * `BENCH_journeys_trace.json` — a chrome `trace_event` document of the
//!   COOKIE2 run's journeys, loadable in Perfetto.

use crate::experiments::Scheme;
use crate::registry::{Export, Format, Outcome};
use crate::worlds::{
    alert_engine, attach_cookie_guess_flood, attach_lrs, guarded_world, guarded_world_with, observe, run_evaluated,
    stays_silent, LrsParams, Scope, WorldParams, ZoneSel, ALERT_TICK,
};
use dnsguard::config::GuardConfig;
use netsim::engine::FaultPlan;
use netsim::time::SimTime;
use obs::alert::AlertConfig;
use obs::export::{metrics_json, Json};
use obs::journey::JourneyReport;
use server::nodes::AuthNode;
use server::simclient::LrsSimulator;
use std::net::Ipv4Addr;

/// The summary document's file name.
pub const SUMMARY_FILE: &str = "BENCH_journeys.json";
/// The chrome `trace_event` document's file name.
pub const CHROME_TRACE_FILE: &str = "BENCH_journeys_trace.json";

/// Substrings the journey summary must contain, beside one object per
/// [`Scheme::ALL`] entry: per-journey attribution fields, histogram quantiles,
/// and the alert schema (rule + since in the active set, fired-rule list,
/// clean-baseline verdict).
const SUMMARY_KEYS: &[&str] = &[
    "\"experiment\":\"journeys\"",
    "\"reconstruction\":",
    "\"extra_rtt\":",
    "\"mean_handshake_ns\":",
    "\"mean_guard_ns\":",
    "\"mean_ans_ns\":",
    "\"p50\":",
    "\"p95\":",
    "\"p99\":",
    "\"chaos\":",
    "\"fired_rules\":",
    "\"alerts\":",
    "\"history\":",
    "\"baseline_silent\":",
];

/// Substrings a chrome `trace_event` document must contain.
const CHROME_KEYS: &[&str] = &[
    "\"traceEvents\":",
    "\"ph\":\"X\"",
    "\"pid\":",
    "\"tid\":",
    "\"displayTimeUnit\"",
];

/// One scheme's assembled journeys plus the client's ground truth.
pub struct SchemeJourneys {
    /// The journey-scheme label (matches [`obs::journey::Journey::scheme`]).
    pub scheme: &'static str,
    /// Transactions the client completed (ground truth for coverage).
    pub client_completed: u64,
    /// The assembled report.
    pub report: JourneyReport,
    /// The journey-metric snapshot JSON (histograms with quantiles).
    pub metrics_json: Json,
}

impl SchemeJourneys {
    /// Complete journeys per client-completed transaction.
    pub fn reconstruction(&self) -> f64 {
        self.report.reconstruction_ratio(self.client_completed)
    }

    /// The dominant extra-round-trip count among complete journeys — the
    /// number the paper's handshake-cost analysis predicts per scheme.
    pub fn extra_rtt_mode(&self) -> u32 {
        let mut counts = std::collections::BTreeMap::new();
        for j in &self.report.complete {
            *counts.entry(j.extra_round_trips()).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .map(|(rtt, _)| rtt)
            .unwrap_or(0)
    }

    /// Mean `(total, handshake, guard, ans)` nanoseconds over complete
    /// journeys.
    pub fn mean_attribution_ns(&self) -> (u64, u64, u64, u64) {
        let n = self.report.complete.len() as u64;
        if n == 0 {
            return (0, 0, 0, 0);
        }
        let mut total = 0u64;
        let mut hs = 0u64;
        let mut guard = 0u64;
        let mut ans = 0u64;
        for j in &self.report.complete {
            let a = j.attribution();
            total += j.total_ns();
            hs += a.handshake_ns;
            guard += a.guard_ns;
            ans += a.ans_ns;
        }
        (total / n, hs / n, guard / n, ans / n)
    }
}

/// Builds and runs one scheme's cold-start world: a single client with the
/// cookie cache off, so every transaction pays the full handshake.
pub fn run_scheme(scheme: Scheme, seed: u64, duration: SimTime) -> SchemeJourneys {
    let mut world = guarded_world(scheme.world_params(seed));

    let obs = observe(&mut world.sim, Scope::World, &[world.guard]);

    let client = attach_lrs(
        &mut world.sim,
        LrsParams::paced(Ipv4Addr::new(10, 0, 1, 1), 4, SimTime::from_millis(50), SimTime::from_millis(1))
            .with_mode(scheme.lrs_mode())
            .with_cache(false), // cold start: every transaction handshakes
    );
    world.sim.run_until(duration);

    let client_completed = world
        .sim
        .node_ref::<LrsSimulator>(client)
        .unwrap()
        .stats
        .completed;
    let (events, _) = obs.tracer.drain();
    let report = JourneyReport::assemble(&events);
    report.record_into(&obs.registry);
    let journey_samples: Vec<_> = obs
        .registry
        .snapshot()
        .into_iter()
        .filter(|s| s.component == "journey")
        .collect();
    SchemeJourneys {
        scheme: scheme.journey_label(),
        client_completed,
        report,
        metrics_json: metrics_json(&journey_samples),
    }
}

/// The chaos run's outcome: reconstruction coverage under faults plus the
/// alert engine's transcript.
pub struct ChaosJourneys {
    /// Transactions the clients completed.
    pub client_completed: u64,
    /// The assembled report.
    pub report: JourneyReport,
    /// Rules that fired at least once, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The engine's `{"active":...,"history":...}` document at the end.
    pub alerts_json: Json,
}

impl ChaosJourneys {
    /// Complete journeys per client-completed transaction.
    pub fn reconstruction(&self) -> f64 {
        self.report.reconstruction_ratio(self.client_completed)
    }
}

/// A client of the chaos world and of its clean baseline.
fn chaos_client(ip: Ipv4Addr) -> LrsParams {
    LrsParams::paced(ip, 4, SimTime::from_millis(50), SimTime::from_millis(2))
}

/// Drives the chaos world: a guarded DNS-based deployment under a
/// cookie-guessing flood (the 2⁻³² label-guess attack — invalid verifies,
/// never journeys), duplication + reordering on the client links, and a
/// guard–ANS partition, with the alert engine evaluated after the events of
/// every 10 ms of sim time.
pub fn run_chaos(seed: u64, duration: SimTime) -> ChaosJourneys {
    let mut p = WorldParams::new(seed);
    p.zone = ZoneSel::Root;
    p.open_limiters = false;
    // Fast health detection so the partition produces a down/recovered
    // cycle inside the run.
    let mut world = guarded_world_with(p, |c| GuardConfig {
        ans_timeout: SimTime::from_millis(20),
        ans_failure_threshold: 2,
        ans_probe_interval: SimTime::from_millis(50),
        ..c
    });

    let obs = observe(&mut world.sim, Scope::World, &[world.guard]);
    world
        .sim
        .node_ref::<AuthNode>(world.ans)
        .unwrap()
        .attach_obs(&obs);
    let mut engine = alert_engine(&obs, AlertConfig::default());

    let mut clients = Vec::new();
    for ip in [Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1)] {
        let node = attach_lrs(&mut world.sim, chaos_client(ip));
        world.sim.fault_link_both(
            node,
            world.guard,
            FaultPlan::new()
                .duplicate(0.05)
                .reorder(0.2, SimTime::from_micros(100)),
        );
        clients.push(node);
    }
    // The cookie-guessing flood: every guess is an invalid ns_label verify.
    attach_cookie_guess_flood(&mut world.sim, 5_000.0, SimTime::from_millis(300));
    world.sim.partition(
        world.guard,
        world.ans,
        SimTime::from_millis(400),
        SimTime::from_millis(700),
    );

    run_evaluated(&mut world.sim, &obs, &mut engine, duration, ALERT_TICK);

    let client_completed: u64 = clients
        .iter()
        .map(|&c| world.sim.node_ref::<LrsSimulator>(c).unwrap().stats.completed)
        .sum();
    let (events, _) = obs.tracer.drain();
    let report = JourneyReport::assemble(&events);
    ChaosJourneys {
        client_completed,
        report,
        fired_rules: engine.fired_rules(),
        alerts_json: engine.alerts_json(),
    }
}

/// Runs the clean baseline (same world, no flood, no faults, no partition)
/// and returns whether the alert engine stayed silent — the false-positive
/// check.
pub fn clean_baseline_is_silent(seed: u64, duration: SimTime) -> bool {
    let mut p = WorldParams::new(seed);
    p.zone = ZoneSel::Root;
    p.open_limiters = false;
    let mut world = guarded_world(p);
    attach_lrs(&mut world.sim, chaos_client(Ipv4Addr::new(10, 0, 1, 1)));
    stays_silent(&mut world.sim, &[world.guard], AlertConfig::default(), duration)
}

/// The full experiment: every scheme plus chaos plus the clean baseline.
pub struct JourneysRun {
    /// The composed `BENCH_journeys.json` document.
    pub summary_json: Json,
    /// The chrome trace document (`BENCH_journeys_trace.json`).
    pub chrome_trace_json: Json,
    /// Per-scheme results, in [`Scheme::ALL`] order.
    pub schemes: Vec<SchemeJourneys>,
    /// The chaos run.
    pub chaos: ChaosJourneys,
    /// Whether the clean baseline stayed alert-free.
    pub baseline_silent: bool,
}

/// Runs everything and composes the export documents.
pub fn run_all(seed: u64) -> JourneysRun {
    let scheme_duration = SimTime::from_millis(400);
    let schemes: Vec<SchemeJourneys> = Scheme::ALL
        .into_iter()
        .enumerate()
        .map(|(i, s)| run_scheme(s, seed + i as u64, scheme_duration))
        .collect();
    let chaos = run_chaos(seed + 100, SimTime::from_millis(1_000));
    let baseline_silent = clean_baseline_is_silent(seed + 200, SimTime::from_millis(600));

    let scheme_entries = schemes.iter().map(|s| {
        let (total, hs, guard, ans) = s.mean_attribution_ns();
        let entry = Json::obj([
            ("client_completed", s.client_completed.into()),
            ("assembled", s.report.complete.len().into()),
            ("incomplete", s.report.incomplete.len().into()),
            ("orphan_stages", s.report.orphan_stages.into()),
            ("rejected_verifies", s.report.rejected_verifies.into()),
            ("reconstruction", Json::fixed(s.reconstruction(), 4)),
            ("extra_rtt", s.extra_rtt_mode().into()),
            ("mean_total_ns", total.into()),
            ("mean_handshake_ns", hs.into()),
            ("mean_guard_ns", guard.into()),
            ("mean_ans_ns", ans.into()),
            ("metrics", s.metrics_json.clone()),
        ]);
        (s.scheme, entry)
    });
    let chaos_entry = Json::obj([
        ("client_completed", chaos.client_completed.into()),
        ("assembled", chaos.report.complete.len().into()),
        ("incomplete", chaos.report.incomplete.len().into()),
        ("orphan_stages", chaos.report.orphan_stages.into()),
        ("rejected_verifies", chaos.report.rejected_verifies.into()),
        ("reconstruction", Json::fixed(chaos.reconstruction(), 4)),
        ("fired_rules", Json::strs(&chaos.fired_rules)),
        ("alerts", chaos.alerts_json.clone()),
    ]);
    let summary_json = Json::obj([
        ("experiment", "journeys".into()),
        ("seed", seed.into()),
        ("scheme_duration_nanos", scheme_duration.as_nanos().into()),
        ("schemes", Json::obj(scheme_entries)),
        ("chaos", chaos_entry),
        ("baseline_silent", baseline_silent.into()),
    ]);

    // The COOKIE2 run has the richest stage structure (six stages across
    // three correlation ids) — the representative chrome trace.
    let chrome_trace_json = schemes
        .iter()
        .find(|s| s.scheme == "cookie2")
        .map(|s| s.report.chrome_trace_json())
        .unwrap_or_else(|| Json::obj([("traceEvents", Json::Arr(Vec::new()))]));

    JourneysRun {
        summary_json,
        chrome_trace_json,
        schemes,
        chaos,
        baseline_silent,
    }
}

/// The reconstruction bar shared by every journey world: at least 99 % of
/// the client's transactions come back as complete journeys, with no
/// orphan stage.
pub fn reconstruction_failure(world: &str, reconstruction: f64, report: &JourneyReport) -> Option<String> {
    (reconstruction < 0.99 || report.orphan_stages > 0).then(|| {
        format!(
            "{world}: reconstruction {reconstruction:.3} with {} orphan stages is below the bar",
            report.orphan_stages
        )
    })
}

/// The chaos world's bars: reconstruction under faults, and the two rules
/// its flood and partition must trip.
pub fn chaos_failures(chaos: &ChaosJourneys) -> Vec<String> {
    let mut failures: Vec<String> =
        reconstruction_failure("chaos", chaos.reconstruction(), &chaos.report).into_iter().collect();
    for rule in ["spoof_surge", "ans_down"] {
        if !chaos.fired_rules.contains(&rule) {
            failures.push(format!("chaos: {rule} never fired"));
        }
    }
    failures
}

/// The acceptance bars of the whole experiment.
pub fn failures(run: &JourneysRun) -> Vec<String> {
    let mut failures: Vec<String> = run
        .schemes
        .iter()
        .filter_map(|s| reconstruction_failure(s.scheme, s.reconstruction(), &s.report))
        .collect();
    failures.extend(chaos_failures(&run.chaos));
    if !run.baseline_silent {
        failures.push("clean baseline raised alerts".to_string());
    }
    failures
}

/// The registry entry: every scheme, chaos and baseline at the committed
/// seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let mut report = String::new();
    for s in &run.schemes {
        let (total, hs, guard, ans) = s.mean_attribution_ns();
        report.push_str(&format!(
            "{:>8}: {} journeys / {} client tx (coverage {:.3}), extra RTT {}, \
             mean total {:.1}us (handshake {:.1}us, guard {:.1}us, ans {:.1}us)\n",
            s.scheme,
            s.report.complete.len(),
            s.client_completed,
            s.reconstruction(),
            s.extra_rtt_mode(),
            total as f64 / 1e3,
            hs as f64 / 1e3,
            guard as f64 / 1e3,
            ans as f64 / 1e3,
        ));
    }
    report.push_str(&format!(
        "   chaos: {} journeys / {} client tx (coverage {:.3}), alerts fired: {:?}, \
         clean baseline silent: {}\n",
        run.chaos.report.complete.len(),
        run.chaos.client_completed,
        run.chaos.reconstruction(),
        run.chaos.fired_rules,
        run.baseline_silent,
    ));
    Outcome {
        report,
        failures: failures(&run),
        exports: vec![
            Export::new(SUMMARY_FILE, Format::Json, run.summary_json.to_string(), SUMMARY_KEYS)
                .also_require(Scheme::ALL.map(|scheme| format!("\"{}\":{{", scheme.journey_label()))),
            Export::new(CHROME_TRACE_FILE, Format::Json, run.chrome_trace_json.to_string(), CHROME_KEYS),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_runs_reconstruct_with_paper_extra_rtt() {
        for (scheme, expect_rtt) in [(Scheme::NsName, 1), (Scheme::Fabricated, 2), (Scheme::Tcp, 2), (Scheme::Modified, 1)] {
            let r = run_scheme(scheme, 31, SimTime::from_millis(400));
            let scheme = r.scheme;
            assert!(
                r.client_completed > 20,
                "{scheme}: only {} completed",
                r.client_completed
            );
            assert_eq!(reconstruction_failure(scheme, r.reconstruction(), &r.report), None);
            assert_eq!(
                r.extra_rtt_mode(),
                expect_rtt,
                "{scheme}: extra RTTs should match the paper"
            );
            for j in &r.report.complete {
                assert_eq!(
                    j.attribution().total(),
                    j.total_ns(),
                    "{scheme}: attribution classes sum to end-to-end"
                );
            }
            assert!(
                r.metrics_json.to_string().contains("\"p50\""),
                "{scheme}: histograms carry quantiles"
            );
        }
    }

    #[test]
    fn chaos_reconstructs_and_fires_expected_alerts() {
        let c = run_chaos(57, SimTime::from_millis(1_000));
        assert!(c.client_completed > 50, "only {} completed", c.client_completed);
        // Cookie guessing must trip spoof_surge and the partition ans_down,
        // with reconstruction holding through the faults.
        assert_eq!(chaos_failures(&c), Vec::<String>::new());
    }

    #[test]
    fn clean_baseline_fires_nothing() {
        assert!(clean_baseline_is_silent(77, SimTime::from_millis(600)));
    }

    #[test]
    fn exports_are_valid_json() {
        let run = run_all(11);
        let chrome = run.chrome_trace_json.to_string();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(run.summary_json.to_string().contains("\"fired_rules\""));
        assert_eq!(failures(&run), Vec::<String>::new());
    }
}
