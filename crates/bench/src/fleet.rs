//! The anycast-fleet experiment behind `BENCH_fleet.json`: two guard
//! sites fronting the same public address, a BGP catchment shift moving
//! half the verified clients from site A to site B mid-flood, and the
//! handshake-storm amplitude measured under two cookie regimes:
//!
//! * **MD5 per site** — the paper's vendor construction with an
//!   independent secret at each site. A shifted client's cached cookie is
//!   gibberish at the new site: every one of them re-handshakes at once,
//!   Rate-Limiter1 (shared with the flood) drops a chunk of the storm, and
//!   previously-verified clients stall — the failure mode that keeps
//!   single-key vendor cookies out of anycast deployments.
//! * **Shared SipHash-2-4** — the interoperable draft-sury-toorop cookie
//!   with one fleet-wide secret distributed over the authenticated
//!   replication channel. The shifted clients' cookies verify at site B
//!   on arrival: zero re-handshakes, no RL pressure, service continues.
//!
//! A third scenario rotates the fleet key *during* the shift: the pushed
//! key state carries the previous epoch, so the grace window is
//! fleet-wide and no verified client is dropped.
//!
//! Run via `cargo run --release -p bench --bin all_experiments -- fleet`;
//! the document lands in `BENCH_fleet.json`.

use crate::registry::{Export, Format, Outcome};
use crate::report::json_strings;
use crate::worlds::{
    attach_cookie_guess_flood, completions, traced_obs, verified_clients, PUB, SUBNET,
};
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use dnsguard::FleetConfig;
use guardhash::cookie::CookieAlg;
use netsim::engine::{CpuConfig, FaultPlan, NodeId, Simulator};
use netsim::time::SimTime;
use obs::alert::{AlertConfig, AlertEngine, SharedAlertEngine};
use obs::Obs;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

/// The summary document's file name.
pub const SUMMARY_FILE: &str = "BENCH_fleet.json";

/// Substrings the fleet summary must contain: both cookie regimes and the
/// rotation run, the shift/storm outcome fields, the `catchment_shift`
/// rule in some transcript, and the clean-baseline verdict.
const SUMMARY_KEYS: &[&str] = &[
    "\"experiment\":\"fleet\"",
    "\"md5_per_site\":",
    "\"shared_siphash\":",
    "\"rotation_mid_shift\":",
    "\"re_handshakes\":",
    "\"cookie2_invalid\":",
    "\"rl1_dropped\":",
    "\"amplification_milli\":",
    "\"spoofed_to_ans\":",
    "\"fleet_keys_applied\":",
    "\"fired_rules\":",
    "\"catchment_shift\"",
    "\"baseline_silent\":",
];

/// Site A's (the key master's) replication address.
pub const SITE_A: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);
/// Site B's (the member's) replication address.
pub const SITE_B: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 3);
/// Site A's private ANS.
pub const ANS_A: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 11);
/// Site B's private ANS.
pub const ANS_B: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 12);

/// Number of verified workload clients.
const CLIENTS: u8 = 40;
/// Fraction of source addresses the mid-flood catchment shift moves.
const SHIFT_FRACTION: f64 = 0.55;

/// Handles into a two-site anycast world.
pub struct FleetWorld {
    /// The simulator.
    pub sim: Simulator,
    /// Site A: owns the route for [`PUB`] and the `COOKIE2` subnet.
    pub site_a: NodeId,
    /// Site B: receives only catchment-shifted traffic.
    pub site_b: NodeId,
    /// Site A's ANS node.
    pub ans_a: NodeId,
    /// Site B's ANS node.
    pub ans_b: NodeId,
}

/// Builds the two-site topology. Both guards advertise [`PUB`]; the
/// simulator's routing table sends it to site A (the "normal" BGP
/// catchment), and a [`FaultPlan::catchment_shift`] later moves a subset
/// of sources to site B. Each site forwards to its own ANS.
///
/// `shared` selects the cookie regime: one SipHash-2-4 secret distributed
/// by the fleet channel, or the paper's MD5 with an independent secret per
/// site.
pub fn fleet_world(seed: u64, shared: bool) -> FleetWorld {
    let (_, _, foo_com) = paper_hierarchy();
    let authority = Authority::new(vec![foo_com]);
    let mut sim = Simulator::new(seed);

    let base = |ans: Ipv4Addr| {
        let mut c = GuardConfig {
            subnet_base: SUBNET,
            ..GuardConfig::new(PUB, ans)
        }
        .with_mode(SchemeMode::DnsBased);
        // Tight global cookie budget: the re-handshake storm and the flood
        // compete for it, which is exactly the paper's reflector bound
        // turning a routing event into a denial of verified service.
        c.rl1_global_rate = 120.0;
        c
    };
    let interval = SimTime::from_millis(20);
    let (a_cfg, b_cfg) = if shared {
        (
            base(ANS_A)
                .with_cookie_alg(CookieAlg::SipHash24)
                .with_fleet(FleetConfig::master(SITE_A, vec![SITE_B]).with_interval(interval)),
            base(ANS_B)
                .with_cookie_alg(CookieAlg::SipHash24)
                .with_fleet(FleetConfig::member(SITE_B, SITE_A).with_interval(interval)),
        )
    } else {
        let mut b = base(ANS_B);
        b.key_seed = 4242; // Independent vendor secret at each site.
        (base(ANS_A), b)
    };

    let cpu = CpuConfig {
        max_backlog: SimTime::from_millis(5),
    };
    let site_a = sim.add_node(
        PUB,
        cpu,
        RemoteGuard::new(a_cfg, AuthorityClassifier::new(authority.clone())),
    );
    sim.add_subnet(SUBNET, 24, site_a);
    sim.add_address(SITE_A, site_a);
    let site_b = sim.add_node(
        SITE_B,
        cpu,
        RemoteGuard::new(b_cfg, AuthorityClassifier::new(authority.clone())),
    );
    let ans_a = sim.add_node(
        ANS_A,
        cpu,
        AuthNode::with_costs(ANS_A, authority.clone(), ServerCosts::ans_simulator()),
    );
    let ans_b = sim.add_node(
        ANS_B,
        cpu,
        AuthNode::with_costs(ANS_B, authority, ServerCosts::ans_simulator()),
    );
    // Site B forwards from the anycast address, so its ANS replies to
    // [`PUB`] — which the routing table hands to site A. Pin the return
    // path: everything ANS-B sends toward site A's catchment belongs at B.
    sim.fault_link(ans_b, site_a, FaultPlan::new().catchment_shift(1.0, site_b));
    FleetWorld {
        sim,
        site_a,
        site_b,
        ans_a,
        ans_b,
    }
}

/// Alert thresholds for the fleet runs: with a warmed fleet of verified
/// clients the steady-state handshake rate is ~0, so a *sustained* 50/s
/// of first-contact responses is already a storm.
fn fleet_alert_config() -> AlertConfig {
    AlertConfig { handshake_per_sec: 50.0 }
}

fn attach_alerting(w: &mut FleetWorld) -> (Obs, SharedAlertEngine) {
    // Observe site B: it is where shifted clients land, so it owns the
    // whole storm story (re-handshakes, RL1 pressure, cookie verdicts).
    let obs = traced_obs();
    w.sim.attach_obs(&obs);
    w.sim
        .node_mut::<RemoteGuard>(w.site_b)
        .unwrap()
        .attach_obs(&obs);
    let mut engine = AlertEngine::new(fleet_alert_config());
    engine.attach_obs(&obs);
    let engine = obs::alert::shared(engine);
    w.sim
        .attach_alert_engine(engine.clone(), obs.registry.clone(), SimTime::from_millis(10));
    (obs, engine)
}

/// Outcome of one catchment-shift scenario.
pub struct ShiftOutcome {
    /// Verified clients in the world.
    pub clients: usize,
    /// Clients the shift moved to site B (deterministic membership).
    pub shifted: usize,
    /// Shifted clients that completed at least one transaction between the
    /// shift and the end of the flood.
    pub continued: usize,
    /// First-contact handshakes site B sent after the shift (fabricated
    /// NS + TC + grants) — the storm amplitude. Zero when cookies are
    /// interoperable.
    pub re_handshakes: u64,
    /// `COOKIE2` requests site B rejected as invalid — shifted clients
    /// presenting cookies minted under a key site B does not hold.
    pub cookie2_invalid: u64,
    /// Requests dropped by site B's Rate-Limiter1 (storm + flood
    /// competing for the cookie-response budget).
    pub rl1_dropped: u64,
    /// Site B's unverified amplification ratio × 1000 (paper bound ≤ 1500).
    pub amplification_milli: u64,
    /// Queries that reached either ANS unverified — must be zero.
    pub spoofed_to_ans: u64,
    /// Key epochs site B applied from the fleet channel.
    pub fleet_keys_applied: u64,
    /// Rules that fired at least once, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The alert engine's final transcript document.
    pub alerts_json: String,
}

/// Runs the catchment-shift scenario: warm `CLIENTS` verified clients at
/// site A, light a cookie-guessing flood, then shift `SHIFT_FRACTION` of
/// sources to site B mid-flood. When `rotate_mid_shift` is set the master
/// additionally rotates the fleet key while the shift is in progress.
pub fn run_shift(seed: u64, shared: bool, rotate_mid_shift: bool) -> ShiftOutcome {
    let mut w = fleet_world(seed, shared);
    let (_obs, engine) = attach_alerting(&mut w);
    let clients = verified_clients(&mut w.sim, CLIENTS);

    // Warm-up: every client handshakes at site A and caches its cookie.
    // Long enough that the whole cohort clears RL1's tight budget — the
    // scenario measures *re*-handshakes of verified clients, so nobody may
    // still be on their first contact when the catchment moves.
    w.sim.run_until(SimTime::from_millis(600));

    // The 2⁻³² cookie-guess flood: eats RL-relevant budget and shows up as
    // invalid verifies, without itself inflating the handshake counters.
    let attacker = attach_cookie_guess_flood(&mut w.sim, 6_000.0, SimTime::from_millis(1_000));

    // BGP reconverges at 700 ms: a deterministic 55% of source addresses —
    // verified clients and flood sources alike — now land at site B.
    let shift_at = SimTime::from_millis(700);
    w.sim.run_until(shift_at);
    let plan = FaultPlan::new().catchment_shift(SHIFT_FRACTION, w.site_b);
    for &c in &clients {
        w.sim.fault_link(c, w.site_a, plan);
    }
    w.sim.fault_link(attacker, w.site_a, plan);
    let at_shift = completions(&w.sim, &clients);
    let b_at_shift = w.sim.node_ref::<RemoteGuard>(w.site_b).unwrap().stats();

    if rotate_mid_shift {
        // The operator rotates the fleet secret while the catchment is
        // split; the next sync tick pushes the new epoch (with the old key
        // riding along as grace) to site B.
        w.sim.run_until(SimTime::from_millis(900));
        w.sim
            .node_mut::<RemoteGuard>(w.site_a)
            .unwrap()
            .rotate_key();
    }

    w.sim.run_until(SimTime::from_millis(1_600));
    let at_end = completions(&w.sim, &clients);

    // Membership is a pure function of the client address, so the
    // experiment knows exactly who moved without sampling anything.
    let shifted: Vec<usize> = (0..clients.len())
        .filter(|&i| plan.shifts_source(Ipv4Addr::new(10, 0, i as u8 + 1, 1)))
        .collect();
    let continued = shifted
        .iter()
        .filter(|&&i| at_end[i] > at_shift[i])
        .count();

    let a_stats = w.sim.node_ref::<RemoteGuard>(w.site_a).unwrap().stats();
    let site_b_ref = w.sim.node_ref::<RemoteGuard>(w.site_b).unwrap();
    let b_stats = site_b_ref.stats();
    let amp = site_b_ref.traffic_unverified.amplification();
    let ans_total = w.sim.node_ref::<AuthNode>(w.ans_a).unwrap().total_queries()
        + w.sim.node_ref::<AuthNode>(w.ans_b).unwrap().total_queries();
    let forwarded = a_stats.forwarded + b_stats.forwarded;
    let spoofed_to_ans = ans_total.saturating_sub(forwarded)
        + a_stats.plain_forwarded
        + b_stats.plain_forwarded;

    let handshakes = |s: &dnsguard::guard::GuardStats| {
        s.fabricated_ns_sent + s.tc_sent + s.grants_sent
    };
    let guard = engine.lock();
    ShiftOutcome {
        clients: clients.len(),
        shifted: shifted.len(),
        continued,
        re_handshakes: handshakes(&b_stats) - handshakes(&b_at_shift),
        cookie2_invalid: b_stats.cookie2_invalid,
        rl1_dropped: b_stats.rl1_dropped,
        amplification_milli: (amp * 1000.0) as u64,
        spoofed_to_ans,
        fleet_keys_applied: b_stats.fleet_keys_applied,
        fired_rules: guard.fired_rules(),
        alerts_json: guard.alerts_json(),
    }
}

/// Runs the clean fleet baseline (two sites, fleet sync, clients, no shift
/// and no flood) and returns whether the alert engine stayed silent.
pub fn fleet_baseline_is_silent(seed: u64, duration: SimTime) -> bool {
    let mut w = fleet_world(seed, true);
    let (_obs, engine) = attach_alerting(&mut w);
    verified_clients(&mut w.sim, 5);
    w.sim.run_until(duration);
    let silent = engine.lock().is_silent();
    silent
}

/// The full experiment: both cookie regimes under the same shift, the
/// rotation-mid-shift run, and the clean baseline.
pub struct FleetRun {
    /// The composed `BENCH_fleet.json` document.
    pub summary_json: String,
    /// The MD5-per-site (handshake storm) outcome.
    pub md5_per_site: ShiftOutcome,
    /// The shared-SipHash (interoperable) outcome.
    pub shared_siphash: ShiftOutcome,
    /// Shared SipHash with a key rotation mid-shift.
    pub rotation_mid_shift: ShiftOutcome,
    /// Whether the clean fleet baseline stayed alert-free.
    pub baseline_silent: bool,
}

fn outcome_json(o: &ShiftOutcome) -> String {
    format!(
        "{{\"clients\":{},\"shifted\":{},\"continued\":{},\
         \"re_handshakes\":{},\"cookie2_invalid\":{},\"rl1_dropped\":{},\
         \"amplification_milli\":{},\"spoofed_to_ans\":{},\
         \"fleet_keys_applied\":{},\"fired_rules\":{},\"alerts\":{}}}",
        o.clients,
        o.shifted,
        o.continued,
        o.re_handshakes,
        o.cookie2_invalid,
        o.rl1_dropped,
        o.amplification_milli,
        o.spoofed_to_ans,
        o.fleet_keys_applied,
        json_strings(&o.fired_rules),
        o.alerts_json,
    )
}

/// Runs everything and composes the export document.
pub fn run_all(seed: u64) -> FleetRun {
    let md5_per_site = run_shift(seed, false, false);
    let shared_siphash = run_shift(seed, true, false);
    let rotation_mid_shift = run_shift(seed + 1, true, true);
    let baseline_silent = fleet_baseline_is_silent(seed + 2, SimTime::from_millis(600));

    let summary_json = format!(
        "{{\"experiment\":\"fleet\",\"seed\":{seed},\
         \"md5_per_site\":{},\"shared_siphash\":{},\
         \"rotation_mid_shift\":{},\"baseline_silent\":{baseline_silent}}}",
        outcome_json(&md5_per_site),
        outcome_json(&shared_siphash),
        outcome_json(&rotation_mid_shift),
    );
    FleetRun {
        summary_json,
        md5_per_site,
        shared_siphash,
        rotation_mid_shift,
        baseline_silent,
    }
}

/// The bar every scenario shares: nothing spoofed reaches either ANS.
fn spoofed_failure(regime: &str, o: &ShiftOutcome) -> Option<String> {
    (o.spoofed_to_ans != 0)
        .then(|| format!("{regime}: {} spoofed queries reached an ANS", o.spoofed_to_ans))
}

/// The paper's reflector bound (≤ 1.5, asserted at ≤ 1.6) on site B's
/// unverified traffic.
fn amplification_failure(regime: &str, o: &ShiftOutcome) -> Option<String> {
    (o.amplification_milli > 1_600).then(|| {
        format!("{regime}: amplification {} breaks the paper bound", o.amplification_milli)
    })
}

/// The bars of a shift under interoperable cookies (shared SipHash, with
/// or without a rotation mid-shift): at least 95 % of the shifted clients
/// continue at site B, and none of them re-handshakes.
pub fn interop_failures(regime: &str, o: &ShiftOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if (o.continued as f64) < o.shifted as f64 * 0.95 {
        failures.push(format!(
            "{regime}: only {}/{} shifted clients continued",
            o.continued, o.shifted
        ));
    }
    if o.re_handshakes != 0 {
        failures.push(format!(
            "{regime}: {} re-handshakes despite interoperable cookies",
            o.re_handshakes
        ));
    }
    failures.extend(spoofed_failure(regime, o));
    failures
}

/// The bars of the MD5-per-site baseline: it must show the storm the
/// shared secret removes.
pub fn storm_failures(o: &ShiftOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if o.re_handshakes == 0 || !o.fired_rules.contains(&"handshake_storm") {
        failures.push("md5 per site: no handshake storm".to_string());
    }
    failures.extend(spoofed_failure("md5 per site", o));
    failures
}

/// The acceptance bars of the whole experiment.
pub fn failures(run: &FleetRun) -> Vec<String> {
    let mut failures = interop_failures("shared siphash", &run.shared_siphash);
    failures.extend(amplification_failure("shared siphash", &run.shared_siphash));
    failures.extend(storm_failures(&run.md5_per_site));
    failures.extend(interop_failures("rotation mid-shift", &run.rotation_mid_shift));
    if !run.baseline_silent {
        failures.push("clean fleet baseline raised alerts".to_string());
    }
    failures
}

/// The registry entry: the three shifts and the baseline at the committed
/// seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let mut report = String::new();
    for (label, o) in [
        ("md5 per site", &run.md5_per_site),
        ("shared siphash", &run.shared_siphash),
        ("rotation mid-shift", &run.rotation_mid_shift),
    ] {
        report.push_str(&format!(
            "   {label:>18}: {}/{} shifted clients continued, re-handshakes {}, \
             cookie2 invalid {}, rl1 dropped {}, spoofed_to_ans {}, alerts fired: {:?}\n",
            o.continued,
            o.shifted,
            o.re_handshakes,
            o.cookie2_invalid,
            o.rl1_dropped,
            o.spoofed_to_ans,
            o.fired_rules,
        ));
    }
    report.push_str(&format!("   clean fleet baseline silent: {}\n", run.baseline_silent));
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
    fn shared_siphash_shift_causes_no_handshake_storm() {
        let o = run_shift(41, true, false);
        assert!(o.shifted >= 10, "the shift must move a real cohort: {}", o.shifted);
        // Interoperable cookies verify at the new site without a handshake.
        assert_eq!(interop_failures("shared siphash", &o), Vec::<String>::new());
        assert_eq!(o.cookie2_invalid, 0, "no shifted cookie may be rejected");
        assert!(o.fleet_keys_applied >= 1, "site B must have synced the key");
        assert!(
            o.fired_rules.contains(&"catchment_shift"),
            "the shift itself must be alertable: {:?}",
            o.fired_rules
        );
        assert!(
            !o.fired_rules.contains(&"handshake_storm"),
            "no storm under shared cookies: {:?}",
            o.fired_rules
        );
        assert_eq!(amplification_failure("shared siphash", &o), None);
        validate_json(&o.alerts_json).unwrap();
    }

    #[test]
    fn md5_per_site_shift_storms() {
        let o = run_shift(41, false, false);
        assert!(o.shifted >= 10);
        assert!(
            o.cookie2_invalid > 0,
            "per-site secrets must reject the shifted cookies"
        );
        // Shifted clients are forced into fresh handshakes, the storm is
        // alertable, and even mid-storm nothing spoofed passes.
        assert_eq!(storm_failures(&o), Vec::<String>::new());
    }

    #[test]
    fn rotation_mid_shift_drops_no_verified_client() {
        let o = run_shift(43, true, true);
        // Grace must cover the rotation: no stall, no re-handshake.
        assert_eq!(interop_failures("rotation mid-shift", &o), Vec::<String>::new());
        assert!(
            o.fleet_keys_applied >= 2,
            "site B must apply both the initial and the rotated epoch: {}",
            o.fleet_keys_applied
        );
    }

    #[test]
    fn fleet_baseline_fires_nothing() {
        assert!(fleet_baseline_is_silent(53, SimTime::from_millis(600)));
    }

    #[test]
    fn full_run_exports_valid_json_and_each_missed_bar_is_reported() {
        let mut run = run_all(11);
        validate_json(&run.summary_json)
            .unwrap_or_else(|off| panic!("BENCH_fleet.json invalid at byte {off}"));
        assert!(run.summary_json.contains("\"md5_per_site\""));
        assert!(run.summary_json.contains("\"shared_siphash\""));
        assert!(run.summary_json.contains("\"rotation_mid_shift\""));
        assert_eq!(failures(&run), Vec::<String>::new());

        run.shared_siphash.re_handshakes = 1;
        run.shared_siphash.amplification_milli = 1_601;
        run.md5_per_site.fired_rules.clear();
        run.rotation_mid_shift.continued = 0;
        run.rotation_mid_shift.spoofed_to_ans = 2;
        run.baseline_silent = false;
        assert_eq!(
            failures(&run),
            [
                "shared siphash: 1 re-handshakes despite interoperable cookies".to_string(),
                "shared siphash: amplification 1601 breaks the paper bound".to_string(),
                "md5 per site: no handshake storm".to_string(),
                format!(
                    "rotation mid-shift: only 0/{} shifted clients continued",
                    run.rotation_mid_shift.shifted
                ),
                "rotation mid-shift: 2 spoofed queries reached an ANS".to_string(),
                "clean fleet baseline raised alerts".to_string(),
            ]
        );
    }
}
