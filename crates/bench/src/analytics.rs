//! The traffic-analytics experiment behind `BENCH_analytics.json`: can the
//! guard's streaming sketches tell a spoofed flood from a flash crowd?
//!
//! Three adversarial workloads and a clean baseline — one [`SpoofedFlood`]
//! each, differing only in its [`SourceStrategy`] — drive one guard each
//! (armed with `GuardCore::arm_analytics`; no other experiment arms one),
//! with the alert engine evaluated on a fixed cadence over the registry
//! (exactly what a live deployment's telemetry loop does):
//!
//! 1. **baseline** — a small crowd at 2 K req/s: both analytics rules must
//!    stay silent (the rate floor alone keeps them quiet);
//! 2. **spoof flood** — 50 K req/s from uniformly random spoofed /32s:
//!    the source population explodes, per-source repeats stay at 1, and
//!    entropy is maximal — `spoof_flood` must fire and `flash_crowd` must
//!    not;
//! 3. **flash crowd** — 20 K req/s from a bounded 300-resolver population
//!    with Zipf(1.2) popularity: bounded cardinality, heavy re-querying,
//!    skewed distribution — `flash_crowd` must fire and `spoof_flood`
//!    must not;
//! 4. **botnet** — 3 000 real bots at 4 req/s each: every bot is below any
//!    per-source threshold, but the population surge at onset reads as
//!    `spoof_flood` (a source-population anomaly), never `flash_crowd`.
//!
//! A fifth leg checks the *mergeable* half of the design: two disjoint
//! crowds drive two independent guards, their cumulative sketches are
//! merged through [`FleetAggregator::merged_sketch`], and the fleet-wide
//! estimates are compared against the generators' exact per-source ground
//! truth — total conserved exactly, distinct sources within the HLL's
//! documented ±20 % bound, and every true top talker present in the merged
//! top-K with its count inside the space-saving error bracket
//! (`guaranteed ≤ truth ≤ count`).
//!
//! Run via `cargo run --release -p bench --bin all_experiments --
//! analytics`; the document lands in `BENCH_analytics.json`.
//!
//! [`FleetAggregator::merged_sketch`]: obs::fleet::FleetAggregator::merged_sketch

use crate::registry::{traced_kinds, untraced_kinds, Export, Format, Outcome};
use crate::worlds::{alert_engine, guarded_world, observe, run_evaluated, Scope, WorldParams, PUB};
use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use dnsguard::guard::RemoteGuard;
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use obs::alert::AlertConfig;
use obs::export::Json;
use obs::fleet::FleetAggregator;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The summary document's file name.
pub const SUMMARY_FILE: &str = "BENCH_analytics.json";

/// Substrings the traffic-analytics summary must contain: the global
/// discriminator verdict, all four scenarios with their sketch readings
/// and rule outcomes, and the fleet-merge accuracy fields.
const SUMMARY_KEYS: &[&str] = &[
    "\"experiment\":\"analytics\"",
    "\"discriminator_ok\":",
    "\"baseline\":",
    "\"spoof_flood\":",
    "\"flash_crowd\":",
    "\"botnet\":",
    "\"fleet_merge\":",
    "\"spoof_flood_fired\":",
    "\"flash_crowd_fired\":",
    "\"entropy_norm\":",
    "\"top_share\":",
    "\"top_sources\":",
    "\"distinct_err_pct\":",
    "\"top_bounds_ok\":",
    "\"merged_total\":",
];

/// Alert-evaluation cadence: wide enough to smooth generator tick bursts,
/// narrow enough to catch the botnet's onset window.
const EVAL_MS: u64 = 100;

/// How many true top talkers the merge leg must find in the merged top-K.
const TOP_CHECK: usize = 3;

/// One row of the experiment: a generator against a freshly armed guard,
/// and the verdicts the discriminator must reach on it.
struct Scenario {
    /// The JSON key.
    name: &'static str,
    /// The generator node's own address.
    attacker: Ipv4Addr,
    flood: FloodConfig,
    /// How long the world runs.
    run_ms: u64,
    /// Whether `spoof_flood` must fire.
    spoof_flood: bool,
    /// Whether `flash_crowd` must fire.
    flash_crowd: bool,
}

impl Scenario {
    /// Whether `o` reached the verdicts this scenario requires.
    fn judged_right(&self, o: &ScenarioOutcome) -> bool {
        (o.spoof_flood_fired, o.flash_crowd_fired) == (self.spoof_flood, self.flash_crowd)
    }
}

/// A plain-query generator aimed at the guard.
fn flood(rate: f64, sources: SourceStrategy, duration: Option<SimTime>) -> FloodConfig {
    let qname = "www.foo.com".parse().expect("static qname");
    FloodConfig { target: PUB, rate, sources, payload: AttackPayload::PlainQuery(qname), duration }
}

/// The scenarios, run at seeds `seed`, `seed + 1`, … in this order.
fn scenarios() -> [Scenario; 4] {
    let zipf = |base, count, s| SourceStrategy::Zipf { base, count, s };
    [
        // A small bounded crowd below the analytics rate floor.
        Scenario {
            name: "baseline",
            attacker: Ipv4Addr::new(80, 0, 0, 1),
            flood: flood(2_000.0, zipf(Ipv4Addr::new(110, 0, 0, 1), 120, 1.1), None),
            run_ms: 1_000,
            spoof_flood: false,
            flash_crowd: false,
        },
        // Unbounded source population, repeat rate ≈ 1.
        Scenario {
            name: "spoof_flood",
            attacker: Ipv4Addr::new(66, 0, 0, 1),
            flood: flood(50_000.0, SourceStrategy::Random, None),
            run_ms: 1_000,
            spoof_flood: true,
            flash_crowd: false,
        },
        // A bounded Zipf population re-querying a hot name. Two seconds: the
        // first evaluation windows absorb the crowd's onset (the whole
        // population appearing at once is a new-source burst); the
        // steady-state windows after it are what must read as a crowd.
        Scenario {
            name: "flash_crowd",
            attacker: Ipv4Addr::new(77, 0, 0, 1),
            flood: flood(20_000.0, zipf(Ipv4Addr::new(120, 0, 0, 1), 300, 1.2), None),
            run_ms: 2_000,
            spoof_flood: false,
            flash_crowd: true,
        },
        // 3 000 bots at 4 req/s each: per-bot innocuous, collectively a flood.
        Scenario {
            name: "botnet",
            attacker: Ipv4Addr::new(78, 0, 0, 1),
            flood: flood(
                3_000.0 * 4.0,
                SourceStrategy::Pool { base: Ipv4Addr::new(130, 0, 0, 1), count: 3_000 },
                None,
            ),
            run_ms: 1_000,
            spoof_flood: true,
            flash_crowd: false,
        },
    ]
}

/// Outcome of one traffic scenario.
pub struct ScenarioOutcome {
    /// Scenario name (the JSON key).
    pub name: &'static str,
    /// Datagrams the guard ingested.
    pub datagrams: u64,
    /// Final HLL distinct-source estimate.
    pub distinct: f64,
    /// Final normalized source entropy.
    pub entropy_norm: f64,
    /// Final top-talker traffic share.
    pub top_share: f64,
    /// Whether `spoof_flood` fired at least once.
    pub spoof_flood_fired: bool,
    /// Whether `flash_crowd` fired at least once.
    pub flash_crowd_fired: bool,
    /// Every rule that fired, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The final analytics snapshot document.
    pub analytics_json: Json,
    /// The alert engine's transcript document.
    pub alerts_json: Json,
    /// The kinds the scenario traced.
    pub traced: BTreeSet<&'static str>,
}

/// Runs one scenario in a guarded world with telemetry attached, evaluating
/// the alert rules every [`EVAL_MS`] against a fresh registry snapshot.
fn run_scenario(seed: u64, s: &Scenario) -> ScenarioOutcome {
    // Unbounded guard CPU: the experiment measures the *population*
    // signals, so every emitted datagram must reach the sketch.
    let mut w = guarded_world(WorldParams {
        guard_cpu: CpuConfig::unbounded(),
        ..WorldParams::new(seed)
    });
    let obs = observe(&mut w.sim, Scope::Untraced, &[w.guard]);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().arm_analytics();
    let mut engine = alert_engine(&obs, AlertConfig::default());
    w.sim.add_node(s.attacker, CpuConfig::unbounded(), SpoofedFlood::new(s.flood.clone()));
    let (until, every) = (SimTime::from_millis(s.run_ms), SimTime::from_millis(EVAL_MS));
    run_evaluated(&mut w.sim, &obs, &mut engine, until, every);

    let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    let snap = g.analytics_snapshot();
    let fired = engine.fired_rules();
    ScenarioOutcome {
        name: s.name,
        datagrams: g.stats().udp_datagrams,
        distinct: snap.distinct,
        entropy_norm: snap.entropy_norm,
        top_share: snap.top_share,
        spoof_flood_fired: fired.contains(&"spoof_flood"),
        flash_crowd_fired: fired.contains(&"flash_crowd"),
        fired_rules: fired,
        analytics_json: snap.to_json(),
        alerts_json: engine.alerts_json(),
        traced: traced_kinds(&obs),
    }
}

/// Outcome of the two-site sketch-merge leg.
pub struct MergeOutcome {
    /// Datagrams the two generators emitted (exact ground truth).
    pub sent: u64,
    /// The merged sketch's total (must equal `sent`).
    pub merged_total: u64,
    /// Per-site sketch totals.
    pub site_totals: (u64, u64),
    /// Exact distinct sources across both disjoint pools.
    pub distinct_truth: u64,
    /// The merged HLL estimate.
    pub merged_distinct: f64,
    /// Relative cardinality error in percent.
    pub distinct_err_pct: f64,
    /// True top talkers the check looked for.
    pub top_expected: usize,
    /// How many were present in the merged top-K report.
    pub top_found: usize,
    /// Whether every found talker's count sat inside
    /// `guaranteed ≤ truth ≤ count`.
    pub top_bounds_ok: bool,
    /// The merged analytics snapshot document.
    pub merged_json: Json,
}

/// Runs one site: a guard fed by one crowd, returning the guard's
/// cumulative sketch plus the generator's exact per-source counts.
fn merge_site(seed: u64, config: FloodConfig) -> (obs::sketch::TrafficSketch, Vec<u64>, u64) {
    let mut w = guarded_world(WorldParams {
        guard_cpu: CpuConfig::unbounded(),
        ..WorldParams::new(seed)
    });
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().arm_analytics();
    let crowd = w.sim.add_node(Ipv4Addr::new(81, 0, 0, 1), CpuConfig::unbounded(), SpoofedFlood::new(config));
    // 200 ms past the generator cutoff: every emitted datagram lands.
    w.sim.run_until(SimTime::from_millis(1_200));
    let c = w.sim.node_ref::<SpoofedFlood>(crowd).unwrap();
    let per_source = c.per_source().to_vec();
    let sent = c.sent();
    let sketch = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().analytics_sketch();
    (sketch, per_source, sent)
}

/// Two disjoint crowds through two guards, merged fleet-side and checked
/// against exact ground truth.
pub fn run_merge(seed: u64) -> MergeOutcome {
    let base_a = Ipv4Addr::new(120, 0, 0, 1);
    let base_b = Ipv4Addr::new(140, 0, 0, 1);
    let crowd = |rate, base, count, s| {
        flood(rate, SourceStrategy::Zipf { base, count, s }, Some(SimTime::from_secs(1)))
    };
    let (sketch_a, per_a, sent_a) = merge_site(seed, crowd(20_000.0, base_a, 300, 1.2));
    let (sketch_b, per_b, sent_b) = merge_site(seed + 1, crowd(10_000.0, base_b, 250, 1.0));

    let site_totals = (sketch_a.total(), sketch_b.total());
    let mut agg = FleetAggregator::default();
    let node_a = agg.register_node(0);
    let node_b = agg.register_node(0);
    agg.observe_sketch(node_a, sketch_a);
    agg.observe_sketch(node_b, sketch_b);
    let merged = agg.merged_sketch();

    // Exact union ground truth: the pools are disjoint by construction.
    let mut truth: Vec<(u32, u64)> = Vec::new();
    for (base, per) in [(base_a, &per_a), (base_b, &per_b)] {
        for (i, &count) in per.iter().enumerate() {
            if count > 0 {
                truth.push((u32::from(base).wrapping_add(i as u32), count));
            }
        }
    }
    let distinct_truth = truth.len() as u64;
    truth.sort_by_key(|&(_, count)| std::cmp::Reverse(count));

    let merged_distinct = merged.distinct();
    let distinct_err_pct =
        (merged_distinct - distinct_truth as f64).abs() / distinct_truth as f64 * 100.0;

    let report = merged.top_sources();
    let top_expected = TOP_CHECK.min(truth.len());
    let mut top_found = 0usize;
    let mut top_bounds_ok = true;
    for &(ip, true_count) in truth.iter().take(top_expected) {
        match report.iter().find(|e| e.ip == ip) {
            Some(e) => {
                top_found += 1;
                if !(e.guaranteed() <= true_count && true_count <= e.count) {
                    top_bounds_ok = false;
                }
            }
            None => top_bounds_ok = false,
        }
    }

    MergeOutcome {
        sent: sent_a + sent_b,
        merged_total: merged.total(),
        site_totals,
        distinct_truth,
        merged_distinct,
        distinct_err_pct,
        top_expected,
        top_found,
        top_bounds_ok,
        merged_json: merged.snapshot().to_json(),
    }
}

/// The full experiment: the scenarios plus the merge leg.
pub struct AnalyticsRun {
    /// The composed `BENCH_analytics.json` document.
    pub summary_json: Json,
    /// One outcome per scenario, in table order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// The two-site sketch-merge leg.
    pub merge: MergeOutcome,
}

impl From<&ScenarioOutcome> for Json {
    fn from(o: &ScenarioOutcome) -> Json {
        Json::obj([
            ("name", o.name.into()),
            ("datagrams", o.datagrams.into()),
            ("distinct", Json::fixed(o.distinct, 1)),
            ("entropy_norm", Json::fixed(o.entropy_norm, 4)),
            ("top_share", Json::fixed(o.top_share, 4)),
            ("spoof_flood_fired", o.spoof_flood_fired.into()),
            ("flash_crowd_fired", o.flash_crowd_fired.into()),
            ("fired_rules", Json::strs(&o.fired_rules)),
            ("analytics", o.analytics_json.clone()),
            ("alerts", o.alerts_json.clone()),
        ])
    }
}

impl From<&MergeOutcome> for Json {
    fn from(m: &MergeOutcome) -> Json {
        Json::obj([
            ("sites", 2u64.into()),
            ("sent", m.sent.into()),
            ("merged_total", m.merged_total.into()),
            ("site_totals", Json::Arr(vec![m.site_totals.0.into(), m.site_totals.1.into()])),
            ("distinct_truth", m.distinct_truth.into()),
            ("merged_distinct", Json::fixed(m.merged_distinct, 1)),
            ("distinct_err_pct", Json::fixed(m.distinct_err_pct, 2)),
            ("top_expected", m.top_expected.into()),
            ("top_found", m.top_found.into()),
            ("top_bounds_ok", m.top_bounds_ok.into()),
            ("merged_analytics", m.merged_json.clone()),
        ])
    }
}

/// Runs everything and composes the export document.
pub fn run_all(seed: u64) -> AnalyticsRun {
    let table = scenarios();
    let scenarios: Vec<_> = table.iter().zip(seed..).map(|(s, seed)| run_scenario(seed, s)).collect();
    let merge = run_merge(seed + table.len() as u64);
    let discriminator_ok = table.iter().zip(&scenarios).all(|(s, o)| s.judged_right(o));
    let mut members = vec![
        ("experiment", "analytics".into()),
        ("seed", seed.into()),
        ("discriminator_ok", discriminator_ok.into()),
    ];
    members.extend(scenarios.iter().map(|o| (o.name, o.into())));
    members.push(("fleet_merge", (&merge).into()));
    let summary_json = Json::obj(members);
    AnalyticsRun { summary_json, scenarios, merge }
}

/// The acceptance bars: every scenario got its designed verdict, and the
/// merged sketches conserve the stream exactly, estimate cardinality
/// within the HLL's documented ±20 %, and hold every true top talker
/// inside its error bracket; and the armed guards traced their refreshes.
pub fn failures(run: &AnalyticsRun) -> Vec<String> {
    let m = &run.merge;
    let mut failures = untraced_kinds("analytics", |k| run.scenarios.iter().any(|o| o.traced.contains(k)));
    for (s, o) in scenarios().iter().zip(&run.scenarios) {
        if !s.judged_right(o) {
            failures.push(format!("{} got the wrong verdict: fired {:?}", o.name, o.fired_rules));
        }
    }
    if m.merged_total != m.sent {
        failures.push(format!("merged total {} != {} emitted", m.merged_total, m.sent));
    }
    if m.distinct_err_pct > 20.0 {
        failures.push(format!(
            "merged cardinality {:.1} is {:.2}% off the true {} (bound 20%)",
            m.merged_distinct, m.distinct_err_pct, m.distinct_truth
        ));
    }
    if m.top_found != m.top_expected || !m.top_bounds_ok {
        failures.push(format!(
            "merged top-K holds {}/{} true top talkers, bounds ok: {}",
            m.top_found, m.top_expected, m.top_bounds_ok
        ));
    }
    failures
}

/// The registry entry: the scenarios and the merge leg at the committed
/// seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let mut report = String::new();
    for o in &run.scenarios {
        report.push_str(&format!(
            "   {:>12}: {:>6} datagrams, distinct ~{:.0}, entropy_norm {:.3}, \
             top_share {:.3}, spoof_flood={}, flash_crowd={}\n",
            o.name,
            o.datagrams,
            o.distinct,
            o.entropy_norm,
            o.top_share,
            o.spoof_flood_fired,
            o.flash_crowd_fired,
        ));
    }
    let m = &run.merge;
    report.push_str(&format!(
        "   fleet merge: total {}/{} conserved, distinct {:.0} vs {} ({:.2}% err), \
         top talkers {}/{} found, bounds ok: {}\n",
        m.merged_total,
        m.sent,
        m.merged_distinct,
        m.distinct_truth,
        m.distinct_err_pct,
        m.top_found,
        m.top_expected,
        m.top_bounds_ok,
    ));
    Outcome {
        report,
        failures: failures(&run),
        exports: vec![Export::new(SUMMARY_FILE, Format::Json, run.summary_json.to_string(), SUMMARY_KEYS)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminator_and_merge_meet_the_acceptance_bar() {
        let mut run = run_all(2006);
        for (o, row) in run.scenarios.iter().zip(scenarios()) {
            assert_eq!(
                (o.name, o.spoof_flood_fired, o.flash_crowd_fired),
                (row.name, row.spoof_flood, row.flash_crowd),
                "(scenario, spoof_flood fired, flash_crowd fired); fired {:?}",
                o.fired_rules
            );
        }
        // The same verdicts through the acceptance bars, plus the merge leg:
        // exactness where the design promises it, the documented estimator
        // bounds where it doesn't.
        assert_eq!(failures(&run), Vec::<String>::new());

        assert!(run.summary_json.to_string().contains("\"experiment\":\"analytics\""));

        for o in &mut run.scenarios {
            o.traced.remove("analytics_topk");
        }
        assert_eq!(failures(&run), ["required event kind \"analytics_topk\" was never traced"]);
    }
}
