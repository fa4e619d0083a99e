//! The high-availability experiment behind `BENCH_failover.json`: a
//! primary–standby guard pair crash-tested mid-attack, a checkpoint-age
//! sweep over crash-restart recovery, and a flood-rate sweep of verified
//! service and amplification under Rate-Limiter1.
//!
//! Run via `cargo run --release -p bench --bin all_experiments -- ha`; the
//! composed document lands in `BENCH_failover.json`.
//!
//! Three scenarios:
//!
//! * **Crash mid-attack** — ten cookie-verified clients plus a
//!   cookie-guessing flood and a plain-query flood; the primary crashes at
//!   400 ms; the standby must declare it dead via missed heartbeats, claim
//!   the guarded address, and keep serving the verified clients from the
//!   replicated cookie/grant state — no fresh cookie round-trip. The
//!   alert transcript must show `failover_triggered`, `checkpoint_lag`,
//!   and `rl1_saturation`, and no spoofed query may reach the ANS
//!   across the transition.
//! * **Checkpoint-age sweep** — a single guard checkpointing on a cadence
//!   crashes and restarts from its last snapshot; the sweep varies the
//!   cadence (plus a no-checkpoint cold restart) and reports snapshot age
//!   at restore, stale entries dropped, and post-restore completions.
//! * **Flood sweep** — flood rates from zero to far past Rate-Limiter1
//!   capacity; reports verified completions, which must stay within 1 % of
//!   the unattacked row's, and the unverified amplification ratio (paper
//!   bound: ≤ 1.5, asserted at ≤ 1.6).

use crate::registry::{Export, Format, Outcome};
use crate::worlds::{
    alert_engine, attach_cookie_guess_flood, attach_flood, completions, guarded_world, guarded_world_with, ha_world,
    observe, paced_clients, run_evaluated, stays_silent, unverified_at_ans, verified_clients,
    GuardedWorld, Scope, WorldParams, ZoneSel, ALERT_TICK, PUB,
};
use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use dnsguard::classify::AuthorityClassifier;
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, Simulator};
use netsim::time::SimTime;
use obs::alert::AlertConfig;
use obs::export::Json;
use server::authoritative::Authority;
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

/// The summary document's file name.
pub const SUMMARY_FILE: &str = "BENCH_failover.json";

/// Substrings the failover summary must contain: the crash outcome, both
/// sweeps, and the clean-baseline verdict.
const SUMMARY_KEYS: &[&str] = &[
    "\"experiment\":\"failover\"",
    "\"crash\":",
    "\"took_over\":",
    "\"spoofed_to_ans\":",
    "\"fired_rules\":",
    "\"checkpoint_sweep\":",
    "\"age_at_restore_nanos\":",
    "\"flood_sweep\":",
    "\"amplification_milli\":",
    "\"baseline_silent\":",
];

/// The crash-mid-attack outcome.
pub struct CrashFailover {
    /// Verified clients in the world.
    pub clients: usize,
    /// Clients that completed at least one transaction between the crash
    /// and the end of the flood — i.e. continued through the takeover on
    /// their cached cookies while the flood ran.
    pub continued: usize,
    /// Whether the standby claimed the guarded address.
    pub took_over: bool,
    /// Nanoseconds from the crash to the `failover_triggered` alert.
    pub takeover_after_crash_nanos: Option<u64>,
    /// Transactions completed after the crash (all clients).
    pub post_crash_completed: u64,
    /// Queries that reached the ANS without a guard forwarding them, plus
    /// unverified plain-forwards — must be zero.
    pub spoofed_to_ans: u64,
    /// Rules that fired at least once, in first-fire order.
    pub fired_rules: Vec<&'static str>,
    /// The alert engine's final transcript document.
    pub alerts_json: Json,
}

/// Crash-mid-attack: warm ten verified clients, light up a cookie-guessing
/// flood and a plain-query flood, crash the primary at 400 ms, and let the
/// standby detect, take over, and serve through the rest.
pub fn run_crash_failover(seed: u64) -> CrashFailover {
    let mut w = ha_world(seed);

    // Observe the *standby*: it owns the interesting half of the story
    // (heartbeat age, takeover, post-takeover saturation). The primary is
    // read via its stats snapshot instead of the registry.
    let obs = observe(&mut w.sim, Scope::World, &[w.standby]);
    let mut engine = alert_engine(&obs, AlertConfig::default());
    let mut run_until = |sim: &mut Simulator, until| run_evaluated(sim, &obs, &mut engine, until, ALERT_TICK);

    let (clients, _) = verified_clients(&mut w.sim, 10);
    run_until(&mut w.sim, SimTime::from_millis(300));

    // The 2⁻³² cookie-label guess flood (invalid verifies) ...
    attach_cookie_guess_flood(&mut w.sim, 4_000.0, SimTime::from_millis(900));
    // ... plus a plain-query flood far past RL1 capacity, so RL1 saturates.
    w.sim.add_node(
        Ipv4Addr::new(66, 0, 0, 67),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate: 30_000.0,
            sources: SourceStrategy::Random,
            payload: AttackPayload::PlainQuery("www.foo.com".parse().expect("static name")),
            duration: Some(SimTime::from_millis(800)),
        }),
    );

    let crash_at = SimTime::from_millis(400);
    run_until(&mut w.sim, crash_at);
    let at_crash = completions(&w.sim, &clients);
    w.sim.crash(w.primary);
    // Floods end at 1100/1200 ms; measure continuation while they rage.
    run_until(&mut w.sim, SimTime::from_millis(1_200));
    let at_flood_end = completions(&w.sim, &clients);
    run_until(&mut w.sim, SimTime::from_millis(1_500));
    let at_end = completions(&w.sim, &clients);

    let took_over = w.sim.node_ref::<RemoteGuard>(w.standby).unwrap().has_taken_over();

    let continued = at_flood_end
        .iter()
        .zip(&at_crash)
        .filter(|(end, start)| end > start)
        .count();
    let post_crash_completed: u64 =
        at_end.iter().sum::<u64>() - at_crash.iter().sum::<u64>();

    let takeover_after_crash_nanos = engine
        .history()
        .iter()
        .find(|t| t.rule == "failover_triggered" && t.firing)
        .map(|t| t.t_nanos.saturating_sub(crash_at.as_nanos()));
    CrashFailover {
        clients: clients.len(),
        continued,
        took_over,
        takeover_after_crash_nanos,
        post_crash_completed,
        spoofed_to_ans: unverified_at_ans(&w.sim, &[w.primary, w.standby], &[w.ans]),
        fired_rules: engine.fired_rules(),
        alerts_json: engine.alerts_json(),
    }
}

/// One point of the checkpoint-age sweep.
pub struct AgePoint {
    /// Checkpoint cadence (`None` = no checkpointing; cold restart).
    pub interval_nanos: Option<u64>,
    /// Snapshot age at the moment of restore.
    pub age_at_restore_nanos: Option<u64>,
    /// Restores performed by the fresh guard (1 when a snapshot existed).
    pub restores: u64,
    /// Checkpointed forward-table entries dropped as past-deadline.
    pub stale_fwd: u64,
    /// Checkpointed stash entries dropped as expired.
    pub stale_stash: u64,
    /// Client completions after the restart.
    pub post_restore_completed: u64,
}

fn run_age_point(seed: u64, interval: Option<SimTime>) -> AgePoint {
    let GuardedWorld { mut sim, guard: guard_id, .. } = guarded_world_with(
        WorldParams { zone: ZoneSel::Foo, open_limiters: false, ..WorldParams::new(seed) },
        |config| match interval {
            Some(i) => config.with_checkpoint_interval(i),
            None => config,
        },
    );
    let authority = Authority::new(vec![paper_hierarchy().2]);
    let config = sim.node_ref::<RemoteGuard>(guard_id).unwrap().config().clone();

    let (clients, _) = paced_clients(&mut sim, 5, 2, SimTime::from_millis(80), SimTime::from_millis(2));

    // Crash off the housekeeping grid so snapshot ages differ by cadence.
    sim.run_until(SimTime::from_millis(530));
    let before: u64 = completions(&sim, &clients).iter().sum();
    sim.crash(guard_id);
    let cp = sim.node_ref::<RemoteGuard>(guard_id).unwrap().latest_checkpoint().cloned();
    let restore_at = SimTime::from_millis(560);
    sim.run_until(restore_at);
    let fresh = match &cp {
        Some(cp) => RemoteGuard::restore_from_checkpoint(
            config,
            AuthorityClassifier::new(authority),
            cp,
            restore_at,
        ),
        // lint: testbed — a cold restart: the crashed guard's replacement
        // when no checkpoint was taken to restore from.
        None => RemoteGuard::new(config, AuthorityClassifier::new(authority)),
    };
    sim.restart_with(guard_id, fresh);
    sim.run_until(SimTime::from_millis(1_000));

    let after: u64 = completions(&sim, &clients).iter().sum();
    let stats = sim.node_ref::<RemoteGuard>(guard_id).unwrap().stats();
    AgePoint {
        interval_nanos: interval.map(|i| i.as_nanos()),
        age_at_restore_nanos: cp
            .as_ref()
            .map(|c| restore_at.as_nanos().saturating_sub(c.taken_at_nanos)),
        restores: stats.restores,
        stale_fwd: stats.restore_stale_fwd,
        stale_stash: stats.restore_stale_stash,
        post_restore_completed: after.saturating_sub(before),
    }
}

/// Sweeps checkpoint cadence (100 ms, 300 ms, none) over a crash-restart.
pub fn run_checkpoint_age_sweep(seed: u64) -> Vec<AgePoint> {
    [
        Some(SimTime::from_millis(100)),
        Some(SimTime::from_millis(300)),
        None,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, interval)| run_age_point(seed + i as u64, interval))
    .collect()
}

/// One point of the flood sweep.
pub struct FloodPoint {
    /// Plain-query flood rate (req/s).
    pub attack_rate: f64,
    /// Verified-client completions during the flood window.
    pub verified_completed: u64,
    /// Unverified amplification ratio × 1000 (paper bound ≤ 1500).
    pub amplification_milli: u64,
}

fn run_flood_point(seed: u64, rate: f64) -> FloodPoint {
    // Root zone: referral answers → the NS-label cookie variant, the world
    // the paper's amplification bound (< 1.5) was measured in.
    let GuardedWorld { mut sim, guard: guard_id, .. } =
        guarded_world(WorldParams { open_limiters: false, ..WorldParams::new(seed) });
    let (clients, _) = paced_clients(&mut sim, 3, 2, SimTime::from_millis(60), SimTime::from_millis(2));

    sim.run_until(SimTime::from_millis(300));
    let before: u64 = completions(&sim, &clients).iter().sum();
    if rate > 0.0 {
        attach_flood(&mut sim, Ipv4Addr::new(66, 0, 0, 66), rate);
    }
    sim.run_until(SimTime::from_millis(1_000));
    let after: u64 = completions(&sim, &clients).iter().sum();
    let amp = sim.node_ref::<RemoteGuard>(guard_id).unwrap().traffic_unverified.amplification();
    FloodPoint {
        attack_rate: rate,
        verified_completed: after.saturating_sub(before),
        amplification_milli: (amp * 1000.0) as u64,
    }
}

/// Sweeps flood rate from quiet through below Rate-Limiter1 capacity to
/// just past and far past it.
pub fn run_flood_sweep(seed: u64) -> Vec<FloodPoint> {
    [0.0, 5_000.0, 13_000.0, 60_000.0]
        .into_iter()
        .enumerate()
        .map(|(i, rate)| run_flood_point(seed + i as u64, rate))
        .collect()
}

/// Runs the clean HA baseline (pair + clients, no faults) and
/// returns whether the alert engine stayed silent.
pub fn ha_baseline_is_silent(seed: u64, duration: SimTime) -> bool {
    let mut w = ha_world(seed);
    verified_clients(&mut w.sim, 3);
    stays_silent(&mut w.sim, &[w.standby], AlertConfig::default(), duration)
}

/// The full experiment: crash failover, checkpoint-age sweep, flood sweep,
/// clean baseline.
pub struct FailoverRun {
    /// The composed `BENCH_failover.json` document.
    pub summary_json: Json,
    /// The crash-mid-attack outcome.
    pub crash: CrashFailover,
    /// The checkpoint-age sweep.
    pub sweep: Vec<AgePoint>,
    /// The flood sweep.
    pub flood: Vec<FloodPoint>,
    /// Whether the clean HA baseline stayed alert-free.
    pub baseline_silent: bool,
}

/// Runs everything and composes the export document.
pub fn run_all(seed: u64) -> FailoverRun {
    let crash = run_crash_failover(seed);
    let sweep = run_checkpoint_age_sweep(seed + 100);
    let flood = run_flood_sweep(seed + 200);
    let baseline_silent = ha_baseline_is_silent(seed + 300, SimTime::from_millis(600));

    let sweep_json = sweep.iter().map(|p| {
        Json::obj([
            ("interval_nanos", p.interval_nanos.into()),
            ("age_at_restore_nanos", p.age_at_restore_nanos.into()),
            ("restores", p.restores.into()),
            ("stale_fwd", p.stale_fwd.into()),
            ("stale_stash", p.stale_stash.into()),
            ("post_restore_completed", p.post_restore_completed.into()),
        ])
    });
    let flood_json = flood.iter().map(|p| {
        Json::obj([
            ("attack_rate", Json::float(p.attack_rate)),
            ("verified_completed", p.verified_completed.into()),
            ("amplification_milli", p.amplification_milli.into()),
        ])
    });
    let crash_json = Json::obj([
        ("clients", crash.clients.into()),
        ("continued", crash.continued.into()),
        ("took_over", crash.took_over.into()),
        ("takeover_after_crash_nanos", crash.takeover_after_crash_nanos.into()),
        ("post_crash_completed", crash.post_crash_completed.into()),
        ("spoofed_to_ans", crash.spoofed_to_ans.into()),
        ("fired_rules", Json::strs(&crash.fired_rules)),
        ("alerts", crash.alerts_json.clone()),
    ]);
    let summary_json = Json::obj([
        ("experiment", "failover".into()),
        ("seed", seed.into()),
        ("crash", crash_json),
        ("checkpoint_sweep", Json::Arr(sweep_json.collect())),
        ("flood_sweep", Json::Arr(flood_json.collect())),
        ("baseline_silent", baseline_silent.into()),
    ]);

    FailoverRun {
        summary_json,
        crash,
        sweep,
        flood,
        baseline_silent,
    }
}

/// The crash-mid-attack bars: the standby takes over, at least 99 % of the
/// verified clients continue on their cached cookies, nothing spoofed
/// reaches the ANS across the transition, and the three HA rules fire.
pub fn crash_failures(crash: &CrashFailover) -> Vec<String> {
    let mut failures = Vec::new();
    if !crash.took_over {
        failures.push("standby never took over".to_string());
    }
    if (crash.continued as f64) < crash.clients as f64 * 0.99 {
        failures.push(format!(
            "only {}/{} verified clients continued",
            crash.continued, crash.clients
        ));
    }
    if crash.spoofed_to_ans != 0 {
        failures.push(format!("{} spoofed queries reached the ANS", crash.spoofed_to_ans));
    }
    for rule in ["failover_triggered", "checkpoint_lag", "rl1_saturation"] {
        if !crash.fired_rules.contains(&rule) {
            failures.push(format!("{rule} never fired"));
        }
    }
    failures
}

/// The flood sweep's bars: at every rate the verified clients complete
/// within 1 % of what they complete unattacked, and at every attacked rate
/// the unverified amplification stays within the paper's bound.
pub fn flood_failures(flood: &[FloodPoint]) -> Vec<String> {
    let Some(quiet) = flood.iter().find(|p| p.attack_rate == 0.0) else {
        return vec!["flood sweep has no unattacked row".to_string()];
    };
    let mut failures = Vec::new();
    for p in flood {
        if p.verified_completed.abs_diff(quiet.verified_completed) * 100 > quiet.verified_completed {
            failures.push(format!(
                "flood {} req/s: {} verified completions, unattacked {}",
                p.attack_rate, p.verified_completed, quiet.verified_completed
            ));
        }
        if p.attack_rate > 0.0 && p.amplification_milli > 1_600 {
            failures.push(format!(
                "flood {} req/s: amplification {} breaks the paper bound",
                p.attack_rate, p.amplification_milli
            ));
        }
    }
    failures
}

/// The acceptance bars of the whole experiment.
pub fn failures(run: &FailoverRun) -> Vec<String> {
    let mut failures = crash_failures(&run.crash);
    failures.extend(flood_failures(&run.flood));
    if !run.baseline_silent {
        failures.push("clean HA baseline raised alerts".to_string());
    }
    failures
}

/// The registry entry: all three scenarios and the baseline at the
/// committed seed.
pub fn experiment() -> Outcome {
    let run = run_all(2006);
    let ms_or = |n: Option<u64>, none: &str| {
        n.map_or(none.to_string(), |n| format!("{} ms", n / 1_000_000))
    };
    let mut report = format!(
        "   crash: took_over={}, {}/{} clients continued, takeover after {} us, \
         spoofed_to_ans={}, alerts fired: {:?}\n",
        run.crash.took_over,
        run.crash.continued,
        run.crash.clients,
        run.crash
            .takeover_after_crash_nanos
            .map_or("?".to_string(), |n| (n / 1_000).to_string()),
        run.crash.spoofed_to_ans,
        run.crash.fired_rules,
    );
    for p in &run.sweep {
        report.push_str(&format!(
            "   checkpoint interval {:>9}: age at restore {:>9}, restores {}, \
             stale fwd/stash {}/{}, post-restore completed {}\n",
            ms_or(p.interval_nanos, "none"),
            ms_or(p.age_at_restore_nanos, "cold"),
            p.restores,
            p.stale_fwd,
            p.stale_stash,
            p.post_restore_completed,
        ));
    }
    for p in &run.flood {
        report.push_str(&format!(
            "   flood {:>7.0} req/s: verified completed {:>4}, amplification {:.3}\n",
            p.attack_rate,
            p.verified_completed,
            p.amplification_milli as f64 / 1000.0,
        ));
    }
    report.push_str(&format!("   clean HA baseline silent: {}\n", run.baseline_silent));
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
    fn crash_failover_keeps_verified_clients_alive() {
        let c = run_crash_failover(41);
        assert_eq!(crash_failures(&c), Vec::<String>::new());
        assert!(
            c.fired_rules.contains(&"spoof_surge"),
            "the cookie-guess flood must be alertable too: {:?}",
            c.fired_rules
        );
        let takeover = c.takeover_after_crash_nanos.expect("takeover alert fired");
        // Detection bound: miss threshold (3) × interval (20 ms), plus one
        // interval of phase slack and the 10 ms alert cadence.
        assert!(
            takeover <= SimTime::from_millis(100).as_nanos(),
            "takeover after {takeover} ns exceeds the heartbeat budget"
        );
        // The flood runs steadily from before the crash to 1 100 ms, so
        // each rule it trips fires once and clears once.
        let history = match c.alerts_json.get("history") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("no alert history: {other:?}"),
        };
        let firing = history.iter().filter(|t| t.get("state").and_then(Json::as_str) == Some("firing"));
        let mut fired: Vec<&str> = firing.filter_map(|t| t.get("rule").and_then(Json::as_str)).collect();
        fired.sort_unstable();
        let before = fired.len();
        fired.dedup();
        assert_eq!(fired.len(), before, "a rule fired twice: {history:?}");
    }

    #[test]
    fn checkpoint_sweep_restores_and_cold_restart_does_not() {
        let sweep = run_checkpoint_age_sweep(43);
        assert_eq!(sweep.len(), 3);
        let fast = &sweep[0];
        let slow = &sweep[1];
        let cold = &sweep[2];
        assert_eq!(fast.restores, 1, "cadenced guard restores from snapshot");
        assert_eq!(slow.restores, 1);
        assert_eq!(cold.restores, 0, "no checkpoint → cold restart");
        assert!(cold.age_at_restore_nanos.is_none());
        let fa = fast.age_at_restore_nanos.unwrap();
        let sa = slow.age_at_restore_nanos.unwrap();
        assert!(
            fa < sa,
            "tighter cadence must yield a younger snapshot ({fa} vs {sa})"
        );
        for p in &sweep {
            assert!(
                p.post_restore_completed > 0,
                "clients recover after restart (interval {:?})",
                p.interval_nanos
            );
        }
    }

    #[test]
    fn flood_sweep_keeps_verified_service_and_amplification_bounded() {
        let flood = run_flood_sweep(47);
        assert_eq!(flood_failures(&flood), Vec::<String>::new());
        assert!(flood[0].verified_completed > 0, "verified clients complete unattacked");
    }

    #[test]
    fn ha_baseline_fires_nothing() {
        assert!(ha_baseline_is_silent(53, SimTime::from_millis(600)));
    }

    #[test]
    fn full_run_exports_valid_json_and_each_missed_bar_is_reported() {
        let mut run = run_all(11);
        let summary = run.summary_json.to_string();
        assert!(summary.contains("\"checkpoint_sweep\""));
        assert!(summary.contains("\"flood_sweep\""));
        assert_eq!(failures(&run), Vec::<String>::new());

        run.crash.took_over = false;
        run.crash.continued = 9;
        run.crash.spoofed_to_ans = 3;
        run.crash.fired_rules.retain(|r| *r != "rl1_saturation");
        // One struck sweep row: 2 % short of the unattacked completions and
        // past the amplification bound.
        let quiet = run.flood[0].verified_completed;
        let struck = quiet - quiet / 50;
        let top = run.flood.last_mut().unwrap();
        top.verified_completed = struck;
        top.amplification_milli = 1_601;
        run.baseline_silent = false;
        assert_eq!(
            failures(&run),
            [
                "standby never took over",
                "only 9/10 verified clients continued",
                "3 spoofed queries reached the ANS",
                "rl1_saturation never fired",
                format!("flood 60000 req/s: {struck} verified completions, unattacked {quiet}").as_str(),
                "flood 60000 req/s: amplification 1601 breaks the paper bound",
                "clean HA baseline raised alerts",
            ]
        );
    }
}
