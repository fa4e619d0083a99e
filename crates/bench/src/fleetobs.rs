//! The fleet-observability experiment behind `BENCH_fleetobs.json`: the
//! two-site anycast world of [`crate::fleet`], observed not per node but
//! through a [`FleetAggregator`] fed, in-process, what each site's own
//! telemetry holds — metric snapshots and drained trace rings — while
//! three overlapping failures unfold:
//!
//! 1. a cookie-guessing **flood** concentrates on site A (600 ms), driving
//!    the fleet-wide invalid-verify rate over threshold
//!    (`fleet_spoof_surge`) and dwarfing site B's datagram rate
//!    (`site_rate_skew` — the asymmetric-catchment signature);
//! 2. a **catchment shift** (700 ms) moves a deterministic 55 % of
//!    sources — plus a cohort of "joiner" clients whose NS-label handshake
//!    is *in flight* — to site B. Each joiner's challenge was issued by
//!    site A and answered at site B, so only cross-node stitching on the
//!    simulator's one clock can reconstruct those journeys and attribute
//!    the hop as `inter_site` time;
//! 3. site B **crashes** (1400 ms): its poll feed stops, the node ages
//!    into silence and the `node_silent` rule fires on the edge.
//!
//! The acceptance bar is total: *every* joiner whose handshake straddled
//! the shift must come back as a complete cross-node journey
//! (100 % stitched), every journey's stage attribution must sum exactly
//! to its end-to-end time, and the clean two-site baseline must keep the
//! fleet rules silent.
//!
//! Run via `cargo run --release -p bench --bin all_experiments --
//! fleetobs`; the documents land in `BENCH_fleetobs.json` and
//! `BENCH_fleetobs_trace.jsonl`.

use crate::registry::{untraced_kinds, Export, Format, Outcome};
use crate::worlds::{
    attach_cookie_guess_flood, attach_lrs, fleet_world, observe, paced_clients, run_stepped, FleetWorld,
    LrsParams, Scope,
};
use netsim::engine::{FaultPlan, NodeId, Simulator};
use netsim::time::SimTime;
use obs::export::{event_json, metrics_json, Json};
use obs::fleet::FleetAggregator;
use obs::trace::Value;
use obs::Obs;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The summary document's file name.
pub const SUMMARY_FILE: &str = "BENCH_fleetobs.json";
/// The collector trace's file name.
pub const TRACE_FILE: &str = "BENCH_fleetobs_trace.jsonl";

/// Substrings the fleet-observability summary must contain: the stitching
/// and attribution fields, the merged fleet snapshot, the collector's own
/// metrics, and the clean-baseline verdict.
const SUMMARY_KEYS: &[&str] = &[
    "\"experiment\":\"fleetobs\"",
    "\"spanning_expected\":",
    "\"spanning_stitched\":",
    "\"stitch_ratio_pct\":",
    "\"attribution_exact\":",
    "\"inter_site_positive\":",
    "\"node_silent\":",
    "\"merged\":",
    "\"collector\":",
    "\"component\":\"fleet\"",
    "\"name\":\"stitched_journeys\"",
    "\"name\":\"nodes_reporting\"",
    "\"fired_rules\":",
    "\"alerts\":",
    "\"baseline_silent\":",
];

/// Verified workload clients warmed up at site A before the chaos.
const WARM_CLIENTS: u8 = 16;
/// Clients attached mid-flood so their first handshake straddles the
/// catchment shift: challenged by site A, answering at site B.
const JOINERS: u8 = 8;
/// Fraction of warm-client and attacker sources the shift moves.
const SHIFT_FRACTION: f64 = 0.55;
/// Collector poll cadence (snapshot + trace drain).
const POLL_MS: u64 = 10;
/// Rule-evaluation cadence: a multiple of the poll so rates are computed
/// over a window wide enough to smooth client pacing bursts.
const EVAL_MS: u64 = 50;

fn joiner_ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 7, i, 1)
}

/// Warm cohort: cookie-cached, paced slowly enough that the clean
/// two-site baseline stays under the `site_rate_skew` load floor.
fn warm_clients(w: &mut FleetWorld, n: u8) -> Vec<NodeId> {
    paced_clients(&mut w.sim, n, 1, SimTime::from_millis(150), SimTime::from_millis(50)).0
}

/// Joiners sit 20 ms (one way) from the sites, so a handshake started at
/// 665 ms is challenged by site A before the 700 ms shift and answered by
/// the client after it — the retry lands at site B.
fn attach_joiners(w: &mut FleetWorld, n: u8) -> Vec<NodeId> {
    let rtt = SimTime::from_millis(40);
    (1..=n)
        .map(|c| {
            let (wait, pace) = (SimTime::from_millis(150), SimTime::from_millis(25));
            let id = attach_lrs(&mut w.sim, LrsParams::paced(joiner_ip(c), 1, wait, pace).with_cache(false));
            w.sim.connect_rtt(id, w.site_a, rtt);
            w.sim.connect_rtt(id, w.site_b, rtt);
            id
        })
        .collect()
}

/// One site as the collector polls it.
struct Site {
    guard: NodeId,
    obs: Obs,
    /// The aggregator's id for the site.
    node: u32,
}

/// The collector and the sites it polls, site A first.
struct Collector {
    agg: FleetAggregator,
    /// The collector's own telemetry: `fleet.*` metrics and its trace.
    obs: Obs,
    sites: [Site; 2],
    /// Ground truth for the acceptance bar: the joiners site A challenged.
    /// Every one of them must later stitch across the shift.
    challenged: BTreeSet<Ipv4Addr>,
}

/// Attaches a collector to both sites.
fn collector(w: &mut FleetWorld) -> Collector {
    let obs = observe(&mut w.sim, Scope::Site, &[]);
    let mut agg = FleetAggregator::default();
    agg.attach_obs(&obs);
    let sites = [w.site_a, w.site_b].map(|guard| Site {
        guard,
        obs: observe(&mut w.sim, Scope::Site, &[guard]),
        node: agg.register_node(),
    });
    Collector { agg, obs, sites, challenged: BTreeSet::new() }
}

impl Collector {
    /// The poll tick: drain every live site into the aggregator and
    /// snapshot its registry; every [`EVAL_MS`], also run the fleet rules
    /// over the window since the last evaluation. A crashed site is simply
    /// never polled — it ages into `node_silent` on its own.
    fn poll(&mut self, sim: &Simulator) {
        let t_ns = sim.now().as_nanos();
        for (i, site) in self.sites.iter().enumerate() {
            if sim.is_crashed(site.guard) {
                continue;
            }
            let (events, _) = site.obs.tracer.drain();
            for e in events.iter().filter(|e| i == 0 && e.kind == "fabricated_ns") {
                if let Some(Value::Ip(ip)) = e.field("src") {
                    if (1..=JOINERS).any(|c| joiner_ip(c) == ip) {
                        self.challenged.insert(ip);
                    }
                }
            }
            self.agg.observe_trace(site.node, &events);
            self.agg.observe_snapshot(site.node, t_ns, site.obs.registry.snapshot());
        }
        if (t_ns / 1_000_000).is_multiple_of(EVAL_MS) {
            self.agg.evaluate(t_ns);
        }
    }

    /// Advances the world to `until`, polling every [`POLL_MS`].
    fn run(&mut self, sim: &mut Simulator, until: SimTime) {
        run_stepped(sim, until, SimTime::from_millis(POLL_MS), |sim| self.poll(sim));
    }
}

/// Outcome of the chaos run.
pub struct FleetObsOutcome {
    /// Warm verified clients.
    pub clients: usize,
    /// Joiner clients whose handshake straddled the shift.
    pub joiners: usize,
    /// Joiners site A actually challenged before the shift (ground
    /// truth; must equal `joiners`).
    pub spanning_expected: usize,
    /// Joiners reconstructed as complete cross-node journeys.
    pub spanning_stitched: usize,
    /// All complete journeys (both sites, warm and joiner).
    pub journeys_complete: usize,
    /// Whether every journey's stage attribution summed exactly to its
    /// end-to-end time.
    pub attribution_exact: bool,
    /// Whether every cross-node journey carried positive `inter_site`
    /// time.
    pub inter_site_positive: bool,
    /// Largest `inter_site` hop attributed (nanoseconds).
    pub max_inter_site_ns: u64,
    /// Invalid-verdict verifies the assembler set aside (the flood).
    pub rejected_verifies: u64,
    /// Terminal stages with no matching open journey.
    pub orphan_stages: u64,
    /// Trace events the aggregator ingested across both sites.
    pub trace_events: usize,
    /// Whether site B was held silent at the end of the run.
    pub node_b_silent: bool,
    /// Fleet rules that fired at least once, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The aggregator's alert transcript document.
    pub alerts_json: Json,
    /// The order-independent fleet-wide merged snapshot document.
    pub merged_json: Json,
    /// The collector's own telemetry (`fleet.*` metrics).
    pub collector_json: Json,
    /// The collector trace (JSONL): `journey_stitch`, `node_silent` and
    /// alert transitions.
    pub trace_jsonl: String,
    /// The kinds of the collector's own trace.
    pub traced: BTreeSet<&'static str>,
}

/// Runs the chaos scenario: flood at 600 ms, joiners at 665 ms, shift at
/// 700 ms, site B crash at 1400 ms, end at 1600 ms.
pub fn run_chaos(seed: u64) -> FleetObsOutcome {
    let mut w = fleet_world(seed, true);
    let mut c = collector(&mut w);
    let warm = warm_clients(&mut w, WARM_CLIENTS);
    let ms = SimTime::from_millis;

    // Warm-up: the cohort handshakes and settles into cookie-cached
    // steady state at site A.
    c.run(&mut w.sim, ms(600));

    // The cookie-guessing flood concentrates on site A's catchment.
    let attacker = attach_cookie_guess_flood(&mut w.sim, 6_000.0, ms(1_000));
    c.run(&mut w.sim, ms(665));

    // Joiners: first query reaches site A ≈685 ms (challenge issued
    // pre-shift), the challenge reaches the client ≈705 ms (retry sent
    // post-shift).
    let joiners = attach_joiners(&mut w, JOINERS);
    c.run(&mut w.sim, ms(700));

    // BGP reconverges: 55 % of warm/attack sources and every joiner now
    // land at site B.
    let plan = FaultPlan::new().catchment_shift(SHIFT_FRACTION, w.site_b);
    for &client in &warm {
        w.sim.fault_link(client, w.site_a, plan);
    }
    w.sim.fault_link(attacker, w.site_a, plan);
    // Every joiner moves: their in-flight handshakes straddle the shift.
    let joiner_plan = FaultPlan::new().catchment_shift(1.0, w.site_b);
    for &j in &joiners {
        w.sim.fault_link(j, w.site_a, joiner_plan);
    }
    c.run(&mut w.sim, ms(1_400));

    // Site B crashes; the collector's polls stop reaching it and the
    // node ages into silence.
    w.sim.crash(w.site_b);
    c.run(&mut w.sim, ms(1_600));

    let Collector { mut agg, obs: obs_fleet, sites, challenged } = c;
    let node_b = sites[1].node;
    let report = agg.stitch();

    let joiner_set: BTreeSet<Ipv4Addr> = (1..=JOINERS).map(joiner_ip).collect();
    let mut spanning_src: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut attribution_exact = true;
    let mut inter_site_positive = true;
    let mut max_inter_site_ns = 0u64;
    for j in &report.complete {
        let a = j.attribution();
        if a.total() != j.total_ns() {
            attribution_exact = false;
        }
        if j.spans_nodes() {
            if a.inter_site_ns == 0 {
                inter_site_positive = false;
            }
            max_inter_site_ns = max_inter_site_ns.max(a.inter_site_ns);
            if joiner_set.contains(&j.src) {
                spanning_src.insert(j.src);
            }
        }
    }

    let (fleet_events, _) = obs_fleet.tracer.drain();
    let trace_jsonl: String = fleet_events
        .iter()
        .map(|e| event_json(e).to_string())
        .collect::<Vec<_>>()
        .join("\n");

    FleetObsOutcome {
        clients: warm.len(),
        joiners: JOINERS as usize,
        spanning_expected: challenged.len(),
        spanning_stitched: spanning_src.len(),
        journeys_complete: report.complete.len(),
        attribution_exact,
        inter_site_positive,
        max_inter_site_ns,
        rejected_verifies: report.rejected_verifies,
        orphan_stages: report.orphan_stages,
        trace_events: agg.event_count(),
        node_b_silent: agg.is_node_silent(node_b),
        fired_rules: agg.fired_rules(),
        alerts_json: agg.alerts_json(),
        merged_json: agg.merged_snapshot_json(),
        collector_json: metrics_json(&obs_fleet.registry.snapshot()),
        trace_jsonl,
        traced: fleet_events.iter().map(|e| e.kind).collect(),
    }
}

/// Runs the clean two-site baseline (warm clients, polls at the same
/// cadence, no flood, no shift, no crash) and returns whether
/// every fleet rule stayed silent.
pub fn fleetobs_baseline_is_silent(seed: u64, duration: SimTime) -> bool {
    let mut w = fleet_world(seed, true);
    let mut c = collector(&mut w);
    warm_clients(&mut w, WARM_CLIENTS);
    c.run(&mut w.sim, duration);
    let agg = c.agg;
    if !agg.is_silent() {
        eprintln!("baseline fired: {:?}", agg.history());
    }
    agg.is_silent()
}

/// The full experiment: the chaos run plus the silent baseline.
pub struct FleetObsRun {
    /// The composed `BENCH_fleetobs.json` document.
    pub summary_json: Json,
    /// The collector trace (`BENCH_fleetobs_trace.jsonl`).
    pub trace_jsonl: String,
    /// The chaos outcome.
    pub chaos: FleetObsOutcome,
    /// Whether the clean two-site baseline stayed alert-free.
    pub baseline_silent: bool,
}

impl From<&FleetObsOutcome> for Json {
    fn from(o: &FleetObsOutcome) -> Json {
        let stitch_ratio_pct =
            (100 * o.spanning_stitched).checked_div(o.spanning_expected).unwrap_or(0);
        Json::obj([
            ("nodes", 2u64.into()),
            ("clients", o.clients.into()),
            ("joiners", o.joiners.into()),
            ("spanning_expected", o.spanning_expected.into()),
            ("spanning_stitched", o.spanning_stitched.into()),
            ("stitch_ratio_pct", stitch_ratio_pct.into()),
            ("journeys_complete", o.journeys_complete.into()),
            ("attribution_exact", o.attribution_exact.into()),
            ("inter_site_positive", o.inter_site_positive.into()),
            ("max_inter_site_ns", o.max_inter_site_ns.into()),
            ("rejected_verifies", o.rejected_verifies.into()),
            ("orphan_stages", o.orphan_stages.into()),
            ("trace_events", o.trace_events.into()),
            ("node_silent", o.node_b_silent.into()),
            ("fired_rules", Json::strs(&o.fired_rules)),
            ("alerts", o.alerts_json.clone()),
            ("merged", o.merged_json.clone()),
            ("collector", o.collector_json.clone()),
        ])
    }
}

/// Runs everything and composes the export documents.
pub fn run_all(seed: u64) -> FleetObsRun {
    let chaos = run_chaos(seed);
    let baseline_silent = fleetobs_baseline_is_silent(seed + 2, SimTime::from_millis(600));
    let summary_json = Json::obj([
        ("experiment", "fleetobs".into()),
        ("seed", seed.into()),
        ("chaos", (&chaos).into()),
        ("baseline_silent", baseline_silent.into()),
    ]);
    let trace_jsonl = chaos.trace_jsonl.clone();
    FleetObsRun {
        summary_json,
        trace_jsonl,
        chaos,
        baseline_silent,
    }
}

/// The chaos run's bars. The stitching bar is total: site A challenged
/// every joiner before the shift, and every one of them came back as a
/// complete cross-node journey with exact, positive attribution.
pub fn chaos_failures(o: &FleetObsOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if o.spanning_expected < o.joiners {
        failures.push(format!(
            "only {}/{} joiners were challenged by site A",
            o.spanning_expected, o.joiners
        ));
    }
    if o.spanning_stitched != o.spanning_expected {
        failures.push(format!(
            "{}/{} straddling joiners stitched",
            o.spanning_stitched, o.spanning_expected
        ));
    }
    if !o.attribution_exact || !o.inter_site_positive {
        failures.push(
            "stage attribution must sum exactly and cross-node hops must carry time".to_string(),
        );
    }
    for rule in obs::vocab::rules(true) {
        if !o.fired_rules.contains(&rule) {
            failures.push(format!("rule {rule} never fired"));
        }
    }
    if !o.node_b_silent {
        failures.push("crashed site B not held silent".to_string());
    }
    failures.extend(untraced_kinds("fleetobs", |k| o.traced.contains(k)));
    failures
}

/// The acceptance bars of the whole experiment.
pub fn failures(run: &FleetObsRun) -> Vec<String> {
    let mut failures = chaos_failures(&run.chaos);
    if !run.baseline_silent {
        failures.push("clean two-site baseline raised alerts".to_string());
    }
    failures
}

/// The registry entry: the chaos run and the baseline at the committed
/// seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let o = &run.chaos;
    let report = format!(
        "   {}/{} straddling joiners stitched across both sites, \
         {} journeys complete, max inter-site hop {:.1} ms\n\
         \x20  attribution exact: {}, site B held silent after crash: {}, \
         fleet rules fired: {:?}\n\
         \x20  clean two-site baseline silent: {}\n",
        o.spanning_stitched,
        o.spanning_expected,
        o.journeys_complete,
        o.max_inter_site_ns as f64 / 1e6,
        o.attribution_exact,
        o.node_b_silent,
        o.fired_rules,
        run.baseline_silent,
    );
    Outcome {
        report,
        failures: failures(&run),
        exports: vec![
            Export::new(SUMMARY_FILE, Format::Json, run.summary_json.to_string(), SUMMARY_KEYS),
            Export::new(TRACE_FILE, Format::Jsonl, run.trace_jsonl, &[]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::validate;

    #[test]
    fn chaos_stitches_every_straddling_joiner() {
        let o = run_chaos(2006);
        assert_eq!(chaos_failures(&o), Vec::<String>::new());
        assert_eq!(o.joiners, JOINERS as usize);
        assert!(o.max_inter_site_ns > 0);
        assert!(o.rejected_verifies > 1_000, "the flood must be visible");
        // The trace, fresh and as committed, reads back line by line into
        // events of the vocabulary that write out as the same bytes — the
        // `state` of an `alert` line included, which a collector once lost.
        let trace = Export::new(TRACE_FILE, Format::Jsonl, String::new(), &[]);
        let committed = include_str!("../../../BENCH_fleetobs_trace.jsonl");
        assert!(committed.contains("\"state\":\"firing\"") && committed.contains("\"state\":\"cleared\""));
        for doc in [&o.trace_jsonl[..], committed] {
            assert_eq!(validate(&trace, doc), Vec::<String>::new());
        }
    }

    #[test]
    fn baseline_fires_nothing() {
        assert!(fleetobs_baseline_is_silent(2008, SimTime::from_millis(600)));
    }

    #[test]
    fn full_run_exports_valid_json_and_each_missed_bar_is_reported() {
        let mut run = run_all(2006);
        assert!(run.summary_json.to_string().contains("\"experiment\":\"fleetobs\""));
        assert_eq!(failures(&run), Vec::<String>::new());

        run.chaos.spanning_stitched -= 1;
        assert_eq!(failures(&run), ["7/8 straddling joiners stitched"]);

        run.chaos.spanning_expected -= 1;
        run.chaos.attribution_exact = false;
        run.chaos.fired_rules.retain(|r| *r != "node_silent");
        run.chaos.node_b_silent = false;
        run.chaos.traced.remove("journey_stitch");
        run.baseline_silent = false;
        assert_eq!(
            failures(&run),
            [
                "only 7/8 joiners were challenged by site A",
                "stage attribution must sum exactly and cross-node hops must carry time",
                "rule node_silent never fired",
                "crashed site B not held silent",
                "required event kind \"journey_stitch\" was never traced",
                "clean two-site baseline raised alerts",
            ]
        );
    }
}
