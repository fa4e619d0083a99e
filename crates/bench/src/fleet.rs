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
//! * **Shared SipHash-2-4** — the guard's SipHash cookie, which every site
//!   holding its key accepts, with one `key_seed` at both sites. A
//!   generation's key is a function of the seed, so the sites hold the same
//!   key without exchanging a message. The shifted clients' cookies verify
//!   at site B on arrival: zero re-handshakes, no RL pressure, service
//!   continues.
//!
//! A third scenario rotates the key at both sites *during* the shift, as
//! RFC 9018 rotates anycast secrets: each site keeps the previous
//! generation's key, so the grace window is fleet-wide and no verified
//! client is dropped.
//!
//! Run via `cargo run --release -p bench --bin all_experiments -- fleet`;
//! the document lands in `BENCH_fleet.json`.

use crate::registry::{Export, Format, Outcome};
use crate::worlds::{
    alert_engine, attach_cookie_guess_flood, completions, fleet_world, observe, run_evaluated,
    stays_silent, unverified_at_ans, verified_clients, Scope, ALERT_TICK,
};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{FaultPlan, Simulator};
use netsim::time::SimTime;
use obs::alert::AlertConfig;
use obs::export::Json;

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
    "\"fired_rules\":",
    "\"catchment_shift\"",
    "\"baseline_silent\":",
];

/// Number of verified workload clients.
const CLIENTS: u8 = 40;
/// Fraction of source addresses the mid-flood catchment shift moves.
const SHIFT_FRACTION: f64 = 0.55;

/// Alert thresholds for the fleet runs: with a warmed fleet of verified
/// clients the steady-state handshake rate is ~0, so a *sustained* 50/s
/// of first-contact responses is already a storm.
fn fleet_alert_config() -> AlertConfig {
    AlertConfig { handshake_per_sec: 50.0 }
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
    /// Site A's and site B's key generations at the end of the run.
    pub generations: [u64; 2],
    /// Rules that fired at least once, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The alert engine's final transcript document.
    pub alerts_json: Json,
}

/// Runs the catchment-shift scenario: warm `CLIENTS` verified clients at
/// site A, light a cookie-guessing flood, then shift `SHIFT_FRACTION` of
/// sources to site B mid-flood. When `rotate_mid_shift` is set the operator
/// additionally rotates the key at both sites while the shift is in
/// progress.
pub fn run_shift(seed: u64, shared: bool, rotate_mid_shift: bool) -> ShiftOutcome {
    let mut w = fleet_world(seed, shared);
    // Observe site B: it is where shifted clients land, so it owns the
    // whole storm story (re-handshakes, RL1 pressure, cookie verdicts).
    let obs = observe(&mut w.sim, Scope::World, &[w.site_b]);
    let mut engine = alert_engine(&obs, fleet_alert_config());
    let mut run_until = |sim: &mut Simulator, until| run_evaluated(sim, &obs, &mut engine, until, ALERT_TICK);
    let (clients, ips) = verified_clients(&mut w.sim, CLIENTS);

    // Warm-up: every client handshakes at site A and caches its cookie.
    // Long enough that the whole cohort clears RL1's tight budget — the
    // scenario measures *re*-handshakes of verified clients, so nobody may
    // still be on their first contact when the catchment moves.
    run_until(&mut w.sim, SimTime::from_millis(600));

    // The 2⁻³² cookie-guess flood: eats RL-relevant budget and shows up as
    // invalid verifies, without itself inflating the handshake counters.
    let attacker = attach_cookie_guess_flood(&mut w.sim, 6_000.0, SimTime::from_millis(1_000));

    // BGP reconverges at 700 ms: a deterministic 55% of source addresses —
    // verified clients and flood sources alike — now land at site B.
    let shift_at = SimTime::from_millis(700);
    run_until(&mut w.sim, shift_at);
    let plan = FaultPlan::new().catchment_shift(SHIFT_FRACTION, w.site_b);
    for &c in &clients {
        w.sim.fault_link(c, w.site_a, plan);
    }
    w.sim.fault_link(attacker, w.site_a, plan);
    let at_shift = completions(&w.sim, &clients);
    let b_at_shift = w.sim.node_ref::<RemoteGuard>(w.site_b).unwrap().stats();

    if rotate_mid_shift {
        // The operator rotates the fleet secret while the catchment is
        // split, at every site; each keeps the old key as grace.
        run_until(&mut w.sim, SimTime::from_millis(900));
        for site in [w.site_a, w.site_b] {
            w.sim.node_mut::<RemoteGuard>(site).unwrap().rotate_key();
        }
    }

    run_until(&mut w.sim, SimTime::from_millis(1_600));
    let at_end = completions(&w.sim, &clients);

    // Membership is a pure function of the client address, so the
    // experiment knows exactly who moved without sampling anything.
    let shifted: Vec<usize> = (0..clients.len())
        .filter(|&i| plan.shifts_source(ips[i]))
        .collect();
    let continued = shifted
        .iter()
        .filter(|&&i| at_end[i] > at_shift[i])
        .count();

    let generation = |site| w.sim.node_ref::<RemoteGuard>(site).unwrap().cookie_factory().generation();
    let generations = [generation(w.site_a), generation(w.site_b)];
    let site_b_ref = w.sim.node_ref::<RemoteGuard>(w.site_b).unwrap();
    let b_stats = site_b_ref.stats();
    let amp = site_b_ref.traffic_unverified.amplification();

    let handshakes = |s: &dnsguard::guard::GuardStats| {
        s.fabricated_ns_sent + s.tc_sent + s.grants_sent
    };
    ShiftOutcome {
        clients: clients.len(),
        shifted: shifted.len(),
        continued,
        re_handshakes: handshakes(&b_stats) - handshakes(&b_at_shift),
        cookie2_invalid: b_stats.cookie2_invalid,
        rl1_dropped: b_stats.rl1_dropped,
        amplification_milli: (amp * 1000.0) as u64,
        spoofed_to_ans: unverified_at_ans(&w.sim, &[w.site_a, w.site_b], &[w.ans_a, w.ans_b]),
        generations,
        fired_rules: engine.fired_rules(),
        alerts_json: engine.alerts_json(),
    }
}

/// Runs the clean fleet baseline (two sites, clients, no shift and no
/// flood) and returns whether the alert engine stayed silent.
pub fn fleet_baseline_is_silent(seed: u64, duration: SimTime) -> bool {
    let mut w = fleet_world(seed, true);
    verified_clients(&mut w.sim, 5);
    stays_silent(&mut w.sim, &[w.site_b], fleet_alert_config(), duration)
}

/// The full experiment: both cookie regimes under the same shift, the
/// rotation-mid-shift run, and the clean baseline.
pub struct FleetRun {
    /// The composed `BENCH_fleet.json` document.
    pub summary_json: Json,
    /// The MD5-per-site (handshake storm) outcome.
    pub md5_per_site: ShiftOutcome,
    /// The shared-SipHash (interoperable) outcome.
    pub shared_siphash: ShiftOutcome,
    /// Shared SipHash with a key rotation mid-shift.
    pub rotation_mid_shift: ShiftOutcome,
    /// Whether the clean fleet baseline stayed alert-free.
    pub baseline_silent: bool,
}

impl From<&ShiftOutcome> for Json {
    fn from(o: &ShiftOutcome) -> Json {
        Json::obj([
            ("clients", o.clients.into()),
            ("shifted", o.shifted.into()),
            ("continued", o.continued.into()),
            ("re_handshakes", o.re_handshakes.into()),
            ("cookie2_invalid", o.cookie2_invalid.into()),
            ("rl1_dropped", o.rl1_dropped.into()),
            ("amplification_milli", o.amplification_milli.into()),
            ("spoofed_to_ans", o.spoofed_to_ans.into()),
            ("key_generations", Json::Arr(o.generations.iter().map(|&g| g.into()).collect())),
            ("fired_rules", Json::strs(&o.fired_rules)),
            ("alerts", o.alerts_json.clone()),
        ])
    }
}

/// Runs everything and composes the export document.
pub fn run_all(seed: u64) -> FleetRun {
    let md5_per_site = run_shift(seed, false, false);
    let shared_siphash = run_shift(seed, true, false);
    let rotation_mid_shift = run_shift(seed + 1, true, true);
    let baseline_silent = fleet_baseline_is_silent(seed + 2, SimTime::from_millis(600));

    let summary_json = Json::obj([
        ("experiment", "fleet".into()),
        ("seed", seed.into()),
        ("md5_per_site", (&md5_per_site).into()),
        ("shared_siphash", (&shared_siphash).into()),
        ("rotation_mid_shift", (&rotation_mid_shift).into()),
        ("baseline_silent", baseline_silent.into()),
    ]);
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
/// or without a rotation mid-shift): both sites end at one key generation,
/// at least 95 % of the shifted clients continue at site B, and none of
/// them re-handshakes.
pub fn interop_failures(regime: &str, o: &ShiftOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    let [a, b] = o.generations;
    if a != b {
        failures.push(format!("{regime}: site B at key generation {b}, site A at {a}"));
    }
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
        exports: vec![Export::new(SUMMARY_FILE, Format::Json, run.summary_json.to_string(), SUMMARY_KEYS)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_siphash_shift_causes_no_handshake_storm() {
        let o = run_shift(41, true, false);
        assert!(o.shifted >= 10, "the shift must move a real cohort: {}", o.shifted);
        // Interoperable cookies verify at the new site without a handshake.
        assert_eq!(interop_failures("shared siphash", &o), Vec::<String>::new());
        assert_eq!(o.cookie2_invalid, 0, "no shifted cookie may be rejected");
        assert_eq!(o.generations, [0, 0]);
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
        assert_eq!(o.generations, [1, 1], "both sites rotated once");
    }

    #[test]
    fn fleet_baseline_fires_nothing() {
        assert!(fleet_baseline_is_silent(53, SimTime::from_millis(600)));
    }

    #[test]
    fn full_run_exports_valid_json_and_each_missed_bar_is_reported() {
        let mut run = run_all(11);
        let summary = run.summary_json.to_string();
        assert!(summary.contains("\"md5_per_site\""));
        assert!(summary.contains("\"shared_siphash\""));
        assert!(summary.contains("\"rotation_mid_shift\""));
        assert_eq!(failures(&run), Vec::<String>::new());

        run.shared_siphash.re_handshakes = 1;
        run.shared_siphash.amplification_milli = 1_601;
        run.md5_per_site.fired_rules.clear();
        run.rotation_mid_shift.continued = 0;
        run.rotation_mid_shift.generations = [1, 0];
        run.rotation_mid_shift.spoofed_to_ans = 2;
        run.baseline_silent = false;
        assert_eq!(
            failures(&run),
            [
                "shared siphash: 1 re-handshakes despite interoperable cookies".to_string(),
                "shared siphash: amplification 1601 breaks the paper bound".to_string(),
                "md5 per site: no handshake storm".to_string(),
                "rotation mid-shift: site B at key generation 0, site A at 1".to_string(),
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
