//! The spoof-or-crowd experiment behind `BENCH_analytics.json`: does the
//! alert engine tell a spoofed flood from a crowd of real newcomers by the
//! paper's own test of a source, whether it comes back with the cookie
//! sent to the address it used?
//!
//! Each row drives one guarded world (the DNS-based scheme, limiters open
//! unless the row says otherwise, unbounded guard CPU) with a workload
//! whose ground truth its generator knows, and evaluates the alert engine
//! every 100 ms over the registry, as a live deployment's telemetry
//! loop does. The engine runs at [`AlertConfig::default`], the
//! `handshake_per_sec` floor of 2 000/s the live guard ships with, so every
//! row but `baseline` offers more first contacts than that.
//!
//! | row | workload (ground truth) | must fire | must not fire |
//! |---|---|---|---|
//! | `baseline` | a forged Zipf crowd at 40/s, below the floor | — | `spoof_flood`, `flash_crowd` |
//! | `spoof_uniform` | forged uniformly random sources, 50 000/s | `spoof_flood` | `flash_crowd` |
//! | `spoof_zipf` | forged Zipf over 300 addresses, 20 000/s | `spoof_flood` | `flash_crowd` |
//! | `botnet` | a pool of 3 000 addresses that never reads a reply, 12 000/s | `spoof_flood` | `flash_crowd` |
//! | `real_crowd` | a ramp of new simulated LRS clients, 30 every 10 ms | `flash_crowd` | `spoof_flood` |
//! | `rl2_flood` | four verified zombies presenting their real cookie, 5 000/s each | `rl2_saturation` | `spoof_flood`, `flash_crowd` |
//! | `spoof_case_cycler` | a forged flood at 5 000/s beside one verified source that presents its label in eight letter cases in turn, 12 000/s | `spoof_flood` | `flash_crowd` |
//! | `spoof_memo_churn` | a forged flood at 5 000/s beside four verified zombies, 12 000/s each, whose addresses share one set of the verdict memo | `spoof_flood` | `flash_crowd` |
//!
//! Every forged flood is an open-loop [`SpoofedFlood`]: no source ever
//! returns a cookie, so its first-contact answers are never proven. A real
//! client proves its address once, and the verdict memo keeps it from
//! proving it again, so a crowd reads as one only while newcomers arrive.
//! The last two rows are verified sources trying to prove more than once
//! while a flood runs: the cycler's case variants are one memo entry, and
//! the churning zombies, which do evict each other and prove again, are
//! counted only as fast as Rate-Limiter2 admits them.
//!
//! Run via `cargo run --release -p bench --bin all_experiments --
//! analytics`; the document lands in `BENCH_analytics.json`.

use crate::registry::{Export, Format, Outcome};
use crate::worlds::{
    alert_engine, attach_lrs, guarded_world_with, observe, run_stepped, GuardedWorld, LrsParams, Scope, WorldParams,
    PUB,
};
use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use dnsguard::config::GuardConfig;
use dnsguard::guard::RemoteGuard;
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use obs::alert::AlertConfig;
use obs::export::Json;
use std::net::Ipv4Addr;

/// The summary document's file name.
pub const SUMMARY_FILE: &str = "BENCH_analytics.json";

/// Substrings the summary must contain: the global verdict, every row,
/// and each row's evidence.
const SUMMARY_KEYS: &[&str] = &[
    "\"experiment\":\"analytics\"",
    "\"verdicts_ok\":",
    "\"baseline\":",
    "\"spoof_uniform\":",
    "\"spoof_zipf\":",
    "\"botnet\":",
    "\"real_crowd\":",
    "\"rl2_flood\":",
    "\"spoof_case_cycler\":",
    "\"spoof_memo_churn\":",
    "\"handshakes\":",
    "\"proofs\":",
    "\"proof_share\":",
    "\"fired_rules\":",
];

/// How long every row runs.
const RUN_MS: u64 = 1_000;

/// Alert-evaluation cadence: wide enough to smooth generator tick bursts.
const EVAL_MS: u64 = 100;

/// How often the `real_crowd` ramp adds clients.
const RAMP_MS: u64 = 10;

/// How many clients the `real_crowd` ramp adds every [`RAMP_MS`]: 3 000/s,
/// each of whose first contacts is a handshake, above the floor.
const ARRIVALS: u32 = 30;

/// One of the generators driving a row's guard.
#[derive(Clone, Copy)]
enum Part {
    /// An open-loop plain-query flood from forged sources.
    Forged { rate: f64, sources: SourceStrategy },
    /// [`ARRIVALS`] new paced LRS clients every [`RAMP_MS`], each at its own
    /// address.
    Newcomers,
    /// `count` zombies at their real addresses, each sending `rate`
    /// queries/s that carry its valid cookie label, against a guard whose
    /// Rate-Limiter2 admits 100/s per source; with `one_set`, addresses
    /// that share one set of the guard's verdict memo.
    Zombies { count: u8, rate: f64, one_set: bool },
    /// One verified source sending `rate` queries/s in all, that carry its
    /// valid cookie label in eight letter cases in turn.
    CaseCycler { rate: f64 },
}

/// One row: generators against a fresh guard, and the rules they must and
/// must not fire.
struct Scenario {
    /// The JSON key.
    name: &'static str,
    parts: Vec<Part>,
    must_fire: &'static [&'static str],
    must_not_fire: &'static [&'static str],
}

/// The two rules every row judges.
const SPLIT: &[&str] = &["spoof_flood", "flash_crowd"];

/// What a flood beside verified sources forges: a fresh source per query.
const BESIDE: Part = Part::Forged { rate: 5_000.0, sources: SourceStrategy::Random };

/// The rows, run at seeds `seed`, `seed + 1`, … in this order.
fn scenarios() -> [Scenario; 8] {
    let zipf = |base, count, s| SourceStrategy::Zipf { base, count, s };
    let spoofed = |name, parts| Scenario { name, parts, must_fire: &["spoof_flood"], must_not_fire: &["flash_crowd"] };
    let forged = |name, rate, sources| spoofed(name, vec![Part::Forged { rate, sources }]);
    [
        Scenario {
            name: "baseline",
            parts: vec![Part::Forged { rate: 40.0, sources: zipf(Ipv4Addr::new(110, 0, 0, 1), 120, 1.1) }],
            must_fire: &[],
            must_not_fire: SPLIT,
        },
        forged("spoof_uniform", 50_000.0, SourceStrategy::Random),
        forged("spoof_zipf", 20_000.0, zipf(Ipv4Addr::new(120, 0, 0, 1), 300, 1.2)),
        // 3 000 bots at 4 req/s each: per-bot innocuous, collectively a flood.
        forged("botnet", 3_000.0 * 4.0, SourceStrategy::Pool { base: Ipv4Addr::new(130, 0, 0, 1), count: 3_000 }),
        Scenario {
            name: "real_crowd",
            parts: vec![Part::Newcomers],
            must_fire: &["flash_crowd"],
            must_not_fire: &["spoof_flood"],
        },
        Scenario {
            name: "rl2_flood",
            parts: vec![Part::Zombies { count: 4, rate: 5_000.0, one_set: false }],
            must_fire: &["rl2_saturation"],
            must_not_fire: SPLIT,
        },
        // Each source at more than twice the flood's rate: were either
        // counted per query, the flood would read as a crowd.
        spoofed("spoof_case_cycler", vec![BESIDE, Part::CaseCycler { rate: 12_000.0 }]),
        spoofed("spoof_memo_churn", vec![BESIDE, Part::Zombies { count: 4, rate: 12_000.0, one_set: true }]),
    ]
}

/// A plain-query generator aimed at the guard for `qname`.
fn flood(rate: f64, sources: SourceStrategy, qname: &str) -> SpoofedFlood {
    let qname = qname.parse().expect("static qname");
    SpoofedFlood::new(FloodConfig { target: PUB, rate, sources, payload: AttackPayload::PlainQuery(qname), duration: None })
}

/// Outcome of one row.
pub struct ScenarioOutcome {
    /// Row name (the JSON key).
    pub name: &'static str,
    /// Datagrams the guard ingested.
    pub datagrams: u64,
    /// First-contact answers: fabricated NS, TC and grants.
    pub handshakes: u64,
    /// Sources that proved their address: fresh valid verdicts of every
    /// scheme, and completed TCP handshakes.
    pub proofs: u64,
    /// Every rule that fired, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The alert engine's transcript document.
    pub alerts_json: Json,
}

impl ScenarioOutcome {
    /// Proofs per handshake over the whole run; `None` without handshakes.
    pub fn proof_share(&self) -> Option<f64> {
        (self.handshakes > 0).then(|| self.proofs as f64 / self.handshakes as f64)
    }
}

/// `hex` with its letters in the cases `variant`'s bits pick, one bit a
/// letter.
fn cased(hex: &str, variant: u32) -> String {
    let mut letters = 0;
    let mut upper = |c: char| {
        let letter = letters;
        letters += u32::from(c.is_ascii_alphabetic());
        c.is_ascii_alphabetic() && variant >> letter & 1 == 1
    };
    hex.chars().map(|c| if upper(c) { c.to_ascii_uppercase() } else { c }).collect()
}

/// The guard's cookie label for `src`: the name a verified source asks.
fn cookie_label(guard: &RemoteGuard, src: Ipv4Addr) -> String {
    guard.cookie_factory().generate(src).ns_label_suffix()
}

/// Adds `part`'s generators to `w`.
fn attach(w: &mut GuardedWorld, part: Part) {
    let unbounded = CpuConfig::unbounded();
    match part {
        Part::Forged { rate, sources } => {
            w.sim.add_node(Ipv4Addr::new(66, 0, 0, 1), unbounded, flood(rate, sources, "www.foo.com"));
        }
        Part::Zombies { count, rate, one_set } => {
            let guard = w.sim.node_ref::<RemoteGuard>(w.guard).expect("guard node");
            let first = Ipv4Addr::new(44, 0, 0, 1);
            let set = guard.memo_set(first);
            let zombies: Vec<_> = (u32::from(first)..)
                .map(Ipv4Addr::from)
                .filter(|&ip| !one_set || guard.memo_set(ip) == set)
                .take(count.into())
                .map(|ip| (ip, cookie_label(guard, ip)))
                .collect();
            for (zombie, hex) in zombies {
                let label = format!("PR{hex}com");
                w.sim.add_node(zombie, unbounded, flood(rate, SourceStrategy::Fixed(zombie), &label));
            }
        }
        Part::CaseCycler { rate } => {
            // The first address whose label has three letters: eight cases.
            let guard = w.sim.node_ref::<RemoteGuard>(w.guard).expect("guard node");
            let (cycler, hex) = (u32::from(Ipv4Addr::new(45, 0, 0, 1))..)
                .map(|ip| (Ipv4Addr::from(ip), cookie_label(guard, Ipv4Addr::from(ip))))
                .find(|(_, hex)| hex.chars().filter(char::is_ascii_alphabetic).count() >= 3)
                .expect("a label with three letters");
            for variant in 0..8 {
                let label = format!("PR{}com", cased(&hex, variant));
                let node = Ipv4Addr::new(67, 0, 0, 1 + variant as u8);
                w.sim.add_node(node, unbounded, flood(rate / 8.0, SourceStrategy::Fixed(cycler), &label));
            }
        }
        Part::Newcomers => {}
    }
}

/// Runs one row with telemetry attached.
fn run_scenario(seed: u64, s: &Scenario) -> ScenarioOutcome {
    let zombies = s.parts.iter().any(|p| matches!(p, Part::Zombies { .. }));
    let mut w = guarded_world_with(WorldParams { guard_cpu: CpuConfig::unbounded(), ..WorldParams::new(seed) }, |c| {
        if zombies {
            GuardConfig { rl2_per_source_rate: 100.0, ..c }
        } else {
            c
        }
    });
    let obs = observe(&mut w.sim, Scope::Untraced, &[w.guard]);
    let mut engine = alert_engine(&obs, AlertConfig::default());
    for &part in &s.parts {
        attach(&mut w, part);
    }
    let arriving = if s.parts.iter().any(|p| matches!(p, Part::Newcomers)) { ARRIVALS } else { 0 };
    let (until, every) = (SimTime::from_millis(RUN_MS), SimTime::from_millis(RAMP_MS));
    let mut arrivals = 0u32;
    run_stepped(&mut w.sim, until, every, |sim| {
        let (wait, pace) = (SimTime::from_millis(10), SimTime::from_millis(100));
        for _ in 0..arriving {
            arrivals += 1;
            let ip = Ipv4Addr::from(u32::from(Ipv4Addr::new(150, 0, 0, 0)) + arrivals);
            attach_lrs(sim, LrsParams::paced(ip, 1, wait, pace));
        }
        if sim.now().as_nanos() % (EVAL_MS * 1_000_000) == 0 {
            engine.evaluate(sim.now().as_nanos(), &obs.registry.snapshot());
        }
    });

    let g = w.sim.node_ref::<RemoteGuard>(w.guard).expect("guard node");
    let st = g.stats();
    ScenarioOutcome {
        name: s.name,
        datagrams: st.udp_datagrams,
        handshakes: st.fabricated_ns_sent + st.tc_sent + st.grants_sent,
        proofs: st.ext_proofs + st.ns_label_proofs + st.cookie2_proofs + g.proxy_stats().accepted,
        fired_rules: engine.fired_rules(),
        alerts_json: engine.alerts_json(),
    }
}

/// The full experiment.
pub struct AnalyticsRun {
    /// The composed `BENCH_analytics.json` document.
    pub summary_json: Json,
    /// One outcome per row, in table order.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl From<&ScenarioOutcome> for Json {
    fn from(o: &ScenarioOutcome) -> Json {
        Json::obj([
            ("name", o.name.into()),
            ("datagrams", o.datagrams.into()),
            ("handshakes", o.handshakes.into()),
            ("proofs", o.proofs.into()),
            ("proof_share", o.proof_share().map(|share| Json::fixed(share, 3)).into()),
            ("fired_rules", Json::strs(&o.fired_rules)),
            ("alerts", o.alerts_json.clone()),
        ])
    }
}

/// What `o` got wrong of `s`'s bar, one line per rule.
fn misses(s: &Scenario, o: &ScenarioOutcome) -> Vec<String> {
    let missed = s.must_fire.iter().filter(|r| !o.fired_rules.contains(r));
    let wrong = s.must_not_fire.iter().filter(|r| o.fired_rules.contains(r));
    let missed = missed.map(|r| format!("{}: {r} never fired (fired {:?})", o.name, o.fired_rules));
    missed.chain(wrong.map(|r| format!("{}: {r} fired", o.name))).collect()
}

/// Runs every row and composes the export document.
pub fn run_all(seed: u64) -> AnalyticsRun {
    let table = scenarios();
    let scenarios: Vec<_> = table.iter().zip(seed..).map(|(s, seed)| run_scenario(seed, s)).collect();
    let verdicts_ok = table.iter().zip(&scenarios).all(|(s, o)| misses(s, o).is_empty());
    let mut members = vec![
        ("experiment", "analytics".into()),
        ("seed", seed.into()),
        ("handshake_per_sec", Json::fixed(AlertConfig::default().handshake_per_sec, 1)),
        ("verdicts_ok", verdicts_ok.into()),
    ];
    members.extend(scenarios.iter().map(|o| (o.name, o.into())));
    AnalyticsRun { summary_json: Json::obj(members), scenarios }
}

/// The acceptance bar: every row fired what its ground truth calls for and
/// nothing it rules out.
pub fn failures(run: &AnalyticsRun) -> Vec<String> {
    scenarios().iter().zip(&run.scenarios).flat_map(|(s, o)| misses(s, o)).collect()
}

/// The registry entry: every row at the committed seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let mut report = String::new();
    for o in &run.scenarios {
        report.push_str(&format!(
            "   {:>17}: {:>6} datagrams, {:>6} handshakes, {:>5} proofs (share {}), fired {:?}\n",
            o.name,
            o.datagrams,
            o.handshakes,
            o.proofs,
            o.proof_share().map_or("-".to_string(), |share| format!("{share:.3}")),
            o.fired_rules,
        ));
    }
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
    fn every_row_reads_its_ground_truth() {
        let mut run = run_all(2006);
        assert_eq!(failures(&run), Vec::<String>::new());
        for o in &run.scenarios {
            let proofs = match o.name {
                "real_crowd" | "rl2_flood" => 1..=u64::MAX,
                // One address proves itself once, in whatever case.
                "spoof_case_cycler" => 1..=1,
                // Evicted zombies prove again, at most as fast as
                // Rate-Limiter2 admits them.
                "spoof_memo_churn" => 5..=4 * 100 * RUN_MS / 1_000 + 4 * 100,
                _ => 0..=0,
            };
            assert!(proofs.contains(&o.proofs), "{}: {} proofs", o.name, o.proofs);
        }
        assert!(run.summary_json.to_string().contains("\"verdicts_ok\":true"));

        // The bar reads the rules: a crowd that read as spoofing fails it.
        let crowd = run.scenarios.iter_mut().find(|o| o.name == "real_crowd").expect("row");
        crowd.fired_rules.push("spoof_flood");
        assert_eq!(failures(&run), ["real_crowd: spoof_flood fired"]);
    }
}
