//! The traffic-analytics experiment behind `BENCH_analytics.json`: can the
//! guard's streaming sketches tell a spoofed flood from a flash crowd?
//!
//! Three adversarial workloads and a clean baseline drive one guard each
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
use crate::report::json_strings;
use crate::worlds::{alert_engine, guarded_world, observe, run_evaluated, GuardedWorld, Scope, WorldParams, PUB};
use attack::botnet::{BotnetConfig, BotnetLowRate};
use attack::flashcrowd::{FlashCrowd, FlashCrowdConfig};
use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use dnsguard::guard::RemoteGuard;
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use obs::alert::{AlertConfig, AlertEngine};
use obs::fleet::{FleetAggregator, FleetAlertConfig};
use obs::Obs;
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

/// One scenario's world: a guarded topology with telemetry attached and a
/// per-node alert engine evaluated over its registry.
struct ScenarioWorld {
    w: GuardedWorld,
    obs: Obs,
    engine: AlertEngine,
}

fn scenario_world(seed: u64) -> ScenarioWorld {
    // Unbounded guard CPU: the experiment measures the *population*
    // signals, so every emitted datagram must reach the sketch.
    let mut w = guarded_world(WorldParams {
        guard_cpu: CpuConfig::unbounded(),
        ..WorldParams::new(seed)
    });
    let obs = observe(&mut w.sim, Scope::Untraced, &[w.guard]);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().arm_analytics();
    let engine = alert_engine(&obs, AlertConfig::default());
    ScenarioWorld { w, obs, engine }
}

impl ScenarioWorld {
    /// Advances the world to `to_ms`, evaluating the alert rules every
    /// [`EVAL_MS`] against a fresh registry snapshot.
    fn run(&mut self, to_ms: u64) {
        let (until, every) = (SimTime::from_millis(to_ms), SimTime::from_millis(EVAL_MS));
        run_evaluated(&mut self.w.sim, &self.obs, &mut self.engine, until, every);
    }
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
    pub analytics_json: String,
    /// The alert engine's transcript document.
    pub alerts_json: String,
    /// The kinds the scenario traced.
    pub traced: BTreeSet<&'static str>,
}

fn finish(name: &'static str, sw: ScenarioWorld) -> ScenarioOutcome {
    let g = sw.w.sim.node_ref::<RemoteGuard>(sw.w.guard).unwrap();
    let snap = g.analytics_snapshot();
    let fired = sw.engine.fired_rules();
    ScenarioOutcome {
        name,
        datagrams: g.stats().udp_datagrams,
        distinct: snap.distinct,
        entropy_norm: snap.entropy_norm,
        top_share: snap.top_share,
        spoof_flood_fired: fired.contains(&"spoof_flood"),
        flash_crowd_fired: fired.contains(&"flash_crowd"),
        fired_rules: fired,
        analytics_json: snap.to_json(),
        alerts_json: sw.engine.alerts_json(),
        traced: traced_kinds(&sw.obs),
    }
}

fn qname() -> dnswire::name::Name {
    "www.foo.com".parse().expect("static qname")
}

/// Clean baseline: a small bounded crowd below the analytics rate floor.
pub fn run_baseline(seed: u64) -> ScenarioOutcome {
    let mut sw = scenario_world(seed);
    sw.w.sim.add_node(
        Ipv4Addr::new(80, 0, 0, 1),
        CpuConfig::unbounded(),
        FlashCrowd::new(FlashCrowdConfig {
            target: PUB,
            rate: 2_000.0,
            source_base: Ipv4Addr::new(110, 0, 0, 1),
            source_count: 120,
            zipf_s: 1.1,
            qname: qname(),
            duration: None,
        }),
    );
    sw.run(1_000);
    finish("baseline", sw)
}

/// Random-spoof flood: unbounded source population, repeat rate ≈ 1.
pub fn run_spoof_flood(seed: u64) -> ScenarioOutcome {
    let mut sw = scenario_world(seed);
    sw.w.sim.add_node(
        Ipv4Addr::new(66, 0, 0, 1),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate: 50_000.0,
            sources: SourceStrategy::Random,
            payload: AttackPayload::PlainQuery(qname()),
            duration: None,
        }),
    );
    sw.run(1_000);
    finish("spoof_flood", sw)
}

/// Flash crowd: bounded Zipf population re-querying a hot name.
pub fn run_flash_crowd(seed: u64) -> ScenarioOutcome {
    let mut sw = scenario_world(seed);
    sw.w.sim.add_node(
        Ipv4Addr::new(77, 0, 0, 1),
        CpuConfig::unbounded(),
        FlashCrowd::new(FlashCrowdConfig {
            target: PUB,
            rate: 20_000.0,
            source_base: Ipv4Addr::new(120, 0, 0, 1),
            source_count: 300,
            zipf_s: 1.2,
            qname: qname(),
            duration: None,
        }),
    );
    // Two seconds: the first evaluation windows absorb the crowd's onset
    // (the whole population appearing at once is a new-source burst); the
    // steady-state windows after it are what must read as a crowd.
    sw.run(2_000);
    finish("flash_crowd", sw)
}

/// Low-and-slow botnet: per-bot innocuous, collectively a flood.
pub fn run_botnet(seed: u64) -> ScenarioOutcome {
    let mut sw = scenario_world(seed);
    sw.w.sim.add_node(
        Ipv4Addr::new(78, 0, 0, 1),
        CpuConfig::unbounded(),
        BotnetLowRate::new(BotnetConfig {
            target: PUB,
            source_base: Ipv4Addr::new(130, 0, 0, 1),
            source_count: 3_000,
            per_source_rate: 4.0,
            qname: qname(),
            duration: None,
        }),
    );
    sw.run(1_000);
    finish("botnet", sw)
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
    pub merged_json: String,
}

/// Runs one site: a guard fed by one crowd, returning the guard's
/// cumulative sketch plus the generator's exact per-source counts.
fn merge_site(seed: u64, config: FlashCrowdConfig) -> (obs::sketch::TrafficSketch, Vec<u64>, u64) {
    let mut w = guarded_world(WorldParams {
        guard_cpu: CpuConfig::unbounded(),
        ..WorldParams::new(seed)
    });
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().arm_analytics();
    let crowd = w.sim.add_node(
        Ipv4Addr::new(81, 0, 0, 1),
        CpuConfig::unbounded(),
        FlashCrowd::new(config),
    );
    // 200 ms past the generator cutoff: every emitted datagram lands.
    w.sim.run_until(SimTime::from_millis(1_200));
    let c = w.sim.node_ref::<FlashCrowd>(crowd).unwrap();
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
    let (sketch_a, per_a, sent_a) = merge_site(
        seed,
        FlashCrowdConfig {
            target: PUB,
            rate: 20_000.0,
            source_base: base_a,
            source_count: 300,
            zipf_s: 1.2,
            qname: qname(),
            duration: Some(SimTime::from_secs(1)),
        },
    );
    let (sketch_b, per_b, sent_b) = merge_site(
        seed + 1,
        FlashCrowdConfig {
            target: PUB,
            rate: 10_000.0,
            source_base: base_b,
            source_count: 250,
            zipf_s: 1.0,
            qname: qname(),
            duration: Some(SimTime::from_secs(1)),
        },
    );

    let site_totals = (sketch_a.total(), sketch_b.total());
    let mut agg = FleetAggregator::new(FleetAlertConfig::default());
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

/// The full experiment: four scenarios plus the merge leg.
pub struct AnalyticsRun {
    /// The composed `BENCH_analytics.json` document.
    pub summary_json: String,
    /// The clean baseline (both rules silent).
    pub baseline: ScenarioOutcome,
    /// The random-spoof flood (`spoof_flood` fires).
    pub flood: ScenarioOutcome,
    /// The Zipf crowd (`flash_crowd` fires).
    pub crowd: ScenarioOutcome,
    /// The botnet (`spoof_flood` fires at onset).
    pub botnet: ScenarioOutcome,
    /// The two-site sketch-merge leg.
    pub merge: MergeOutcome,
    /// Whether every scenario's rule verdict matched its design.
    pub discriminator_ok: bool,
}

fn scenario_json(o: &ScenarioOutcome) -> String {
    format!(
        "{{\"name\":\"{}\",\"datagrams\":{},\"distinct\":{:.1},\
         \"entropy_norm\":{:.4},\"top_share\":{:.4},\
         \"spoof_flood_fired\":{},\"flash_crowd_fired\":{},\"fired_rules\":{},\
         \"analytics\":{},\"alerts\":{}}}",
        o.name,
        o.datagrams,
        o.distinct,
        o.entropy_norm,
        o.top_share,
        o.spoof_flood_fired,
        o.flash_crowd_fired,
        json_strings(&o.fired_rules),
        o.analytics_json,
        o.alerts_json,
    )
}

fn merge_json(m: &MergeOutcome) -> String {
    format!(
        "{{\"sites\":2,\"sent\":{},\"merged_total\":{},\"site_totals\":[{},{}],\
         \"distinct_truth\":{},\"merged_distinct\":{:.1},\"distinct_err_pct\":{:.2},\
         \"top_expected\":{},\"top_found\":{},\"top_bounds_ok\":{},\
         \"merged_analytics\":{}}}",
        m.sent,
        m.merged_total,
        m.site_totals.0,
        m.site_totals.1,
        m.distinct_truth,
        m.merged_distinct,
        m.distinct_err_pct,
        m.top_expected,
        m.top_found,
        m.top_bounds_ok,
        m.merged_json,
    )
}

/// Runs everything and composes the export document.
pub fn run_all(seed: u64) -> AnalyticsRun {
    let baseline = run_baseline(seed);
    let flood = run_spoof_flood(seed + 1);
    let crowd = run_flash_crowd(seed + 2);
    let botnet = run_botnet(seed + 3);
    let merge = run_merge(seed + 4);
    let discriminator_ok = !baseline.spoof_flood_fired
        && !baseline.flash_crowd_fired
        && flood.spoof_flood_fired
        && !flood.flash_crowd_fired
        && crowd.flash_crowd_fired
        && !crowd.spoof_flood_fired
        && botnet.spoof_flood_fired
        && !botnet.flash_crowd_fired;
    let summary_json = format!(
        "{{\"experiment\":\"analytics\",\"seed\":{seed},\
         \"discriminator_ok\":{discriminator_ok},\
         \"baseline\":{},\"spoof_flood\":{},\"flash_crowd\":{},\"botnet\":{},\
         \"fleet_merge\":{}}}",
        scenario_json(&baseline),
        scenario_json(&flood),
        scenario_json(&crowd),
        scenario_json(&botnet),
        merge_json(&merge),
    );
    AnalyticsRun {
        summary_json,
        baseline,
        flood,
        crowd,
        botnet,
        merge,
        discriminator_ok,
    }
}

/// The acceptance bars: every scenario got its designed verdict, and the
/// merged sketches conserve the stream exactly, estimate cardinality
/// within the HLL's documented ±20 %, and hold every true top talker
/// inside its error bracket; and the armed guards traced their refreshes.
pub fn failures(run: &AnalyticsRun) -> Vec<String> {
    let m = &run.merge;
    let scenarios = [&run.baseline, &run.flood, &run.crowd, &run.botnet];
    let mut failures = untraced_kinds("analytics", |k| scenarios.iter().any(|o| o.traced.contains(k)));
    if !run.discriminator_ok {
        failures.push("a scenario got the wrong verdict".to_string());
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

/// The registry entry: the four scenarios and the merge leg at the
/// committed seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let mut report = String::new();
    for o in [&run.baseline, &run.flood, &run.crowd, &run.botnet] {
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
        exports: vec![Export::new(SUMMARY_FILE, Format::Json, run.summary_json, SUMMARY_KEYS)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::export::validate_json;

    #[test]
    fn discriminator_and_merge_meet_the_acceptance_bar() {
        let run = run_all(2006);
        assert!(
            !run.baseline.spoof_flood_fired && !run.baseline.flash_crowd_fired,
            "clean baseline must keep both analytics rules silent: {:?}",
            run.baseline.fired_rules
        );
        assert!(
            run.flood.spoof_flood_fired,
            "random-spoof flood must read as spoofing: {:?}",
            run.flood.fired_rules
        );
        assert!(
            !run.flood.flash_crowd_fired,
            "an unbounded population is no crowd: {:?}",
            run.flood.fired_rules
        );
        assert!(
            run.crowd.flash_crowd_fired && !run.crowd.spoof_flood_fired,
            "the Zipf crowd must read as a crowd, never spoofing: {:?}",
            run.crowd.fired_rules
        );
        assert!(
            run.botnet.spoof_flood_fired && !run.botnet.flash_crowd_fired,
            "the botnet's population surge must read as spoofing: {:?}",
            run.botnet.fired_rules
        );
        // The same verdicts as one flag, plus the merge leg: exactness
        // where the design promises it, the documented estimator bounds
        // where it doesn't.
        assert_eq!(failures(&run), Vec::<String>::new());

        validate_json(&run.summary_json)
            .unwrap_or_else(|off| panic!("BENCH_analytics.json invalid at byte {off}"));
        assert!(run.summary_json.contains("\"experiment\":\"analytics\""));

        let mut run = run;
        for o in [&mut run.baseline, &mut run.flood, &mut run.crowd, &mut run.botnet] {
            o.traced.remove("analytics_topk");
        }
        assert_eq!(failures(&run), ["required event kind \"analytics_topk\" was never traced"]);
    }
}
