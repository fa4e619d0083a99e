//! High-availability chaos suite: primary–standby failover under attack,
//! key rotation across a checkpoint/restore cycle in every scheme mode,
//! and admission-control shed priority under a synthetic surge.

mod common;

use bench::worlds::{alert_engine, run_evaluated, ALERT_TICK};
use common::{WorldBuilder, PRIV, PUB};
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::SchemeMode;
use dnsguard::guard::RemoteGuard;
use dnsguard::{GuardConfig, HaConfig};
use netsim::engine::{CpuConfig, FaultPlan, Simulator};
use netsim::time::SimTime;
use obs::alert::AlertConfig;
use obs::trace::Level;
use obs::Obs;
use server::authoritative::Authority;
use server::nodes::AuthNode;
use server::simclient::{CookieMode, LrsSimConfig, LrsSimulator};
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

/// The acceptance chaos test: the primary guard crashes mid spoof-flood,
/// the standby takes over within the heartbeat-detection budget, zero
/// spoofed packets reach the ANS across the transition, and at least 99%
/// of the verified sources keep completing without a fresh cookie
/// exchange (their cached cookies keep verifying on the standby).
#[test]
fn primary_crash_mid_flood_fails_over_cleanly() {
    let c = bench::failover::run_crash_failover(2006);
    assert_eq!(bench::failover::crash_failures(&c), Vec::<String>::new());
    // Heartbeat budget: miss threshold (3) × replication interval (20 ms),
    // one interval of phase slack, plus the 10 ms alert-sampling cadence.
    let takeover = c
        .takeover_after_crash_nanos
        .expect("failover_triggered must appear in the alert history");
    assert!(
        takeover <= SimTime::from_millis(100).as_nanos(),
        "takeover detected after {} ms — outside the heartbeat budget",
        takeover / 1_000_000
    );
}

/// A cookie granted *before* a key rotation still verifies after a crash
/// and checkpoint-restore, in all four scheme modes: the checkpoint
/// carries the rotated key pair and generation, so the generation bit
/// routes the old cookie to the previous key.
#[test]
fn rotation_survives_checkpoint_restore_in_every_scheme() {
    for (scheme, referral, mode, lrs_mode) in [
        ("ns_label", true, SchemeMode::DnsBased, CookieMode::Plain),
        ("cookie2", false, SchemeMode::DnsBased, CookieMode::Plain),
        ("tcp", false, SchemeMode::TcpBased, CookieMode::Plain),
        ("ext", false, SchemeMode::ModifiedOnly, CookieMode::Extension),
    ] {
        let mut w = WorldBuilder::new(91)
            .referral(referral)
            .mode(mode)
            .lrs_mode(lrs_mode)
            .wait(SimTime::from_millis(100))
            .concurrency(1)
            .tweak(|c| c.checkpoint_interval = Some(SimTime::from_millis(100)))
            .build();

        // Warm: the client completes and caches its generation-0 cookie.
        w.sim.run_until(SimTime::from_millis(250));
        assert!(w.completed() > 0, "{scheme}: no completions before rotation");
        w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().rotate_key();

        // Run past at least one post-rotation checkpoint, then crash.
        w.sim.run_until(SimTime::from_millis(460));
        let completed_mid = w.completed();
        assert!(
            completed_mid > 0,
            "{scheme}: client must keep completing across the rotation"
        );
        w.sim.crash(w.guard);
        let cp = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().latest_checkpoint().cloned();
        let cp = cp.unwrap_or_else(|| panic!("{scheme}: no checkpoint taken"));
        assert!(
            cp.key.generation >= 1,
            "{scheme}: checkpoint must capture the post-rotation key state"
        );

        // Brief outage, then restore from the snapshot.
        let restore_at = SimTime::from_millis(465);
        w.sim.run_until(restore_at);
        let mut config = common::open_config(mode);
        config.checkpoint_interval = Some(SimTime::from_millis(100));
        let (root, _, foo_com) = paper_hierarchy();
        let zone = if referral { root } else { foo_com };
        let fresh = RemoteGuard::restore_from_checkpoint(
            config,
            AuthorityClassifier::new(Authority::new(vec![zone])),
            &cp,
            restore_at,
        );
        w.sim.restart_with(w.guard, fresh);
        w.sim.run_until(SimTime::from_millis(900));

        assert!(
            w.completed() > completed_mid + 20,
            "{scheme}: client must resume after the restore ({} → {})",
            completed_mid,
            w.completed()
        );
        let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
        assert!(
            g.cookie_factory().generation() >= 1,
            "{scheme}: restore must preserve the rotated generation"
        );
        // The restored guard's counters start at zero, so everything below
        // is post-restore traffic: the cached pre-rotation cookie must
        // verify (generation bit → previous key), never be rejected.
        let s = g.stats();
        let (valid, invalid) = match scheme {
            "ns_label" => (s.ns_cookie_valid, s.ns_cookie_invalid),
            "cookie2" => (s.cookie2_valid, s.cookie2_invalid),
            "tcp" => (s.tc_sent, 0),
            _ => (s.ext_valid, s.ext_invalid),
        };
        assert!(valid > 0, "{scheme}: no verified traffic after restore");
        assert_eq!(
            invalid, 0,
            "{scheme}: a pre-rotation cookie was rejected after restore"
        );
    }
}

/// Admission shed priority under a synthetic surge: unverified requests
/// are shed while no cookie-verified query is refused, the
/// `admission_shedding` alert fires, and the unverified amplification
/// stays inside the paper's bound.
#[test]
fn surge_sheds_unverified_before_any_verified_query() {
    let (root, _, _) = paper_hierarchy();
    let authority = Authority::new(vec![root]);
    let mut sim = Simulator::new(67);
    let config = GuardConfig::new(PUB, PRIV)
        .with_mode(SchemeMode::DnsBased)
        .with_admission();
    let guard = sim.add_node(
        PUB,
        CpuConfig {
            max_backlog: SimTime::from_millis(5),
        },
        RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
    );
    sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);
    sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority));

    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    obs.tracer.adopt_into(&obs.registry);
    sim.node_mut::<RemoteGuard>(guard).unwrap().attach_obs(&obs);
    let mut engine = alert_engine(&obs, AlertConfig::default());

    let lrs_ip = Ipv4Addr::new(10, 0, 0, 7);
    let mut lrs_config = LrsSimConfig::new(lrs_ip, PUB, "www.foo.com".parse().unwrap());
    lrs_config.concurrency = 2;
    lrs_config.wait = SimTime::from_millis(60);
    lrs_config.pace = SimTime::from_millis(2);
    let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(lrs_config));

    // Warm the verified client, then surge far past RL1 capacity.
    run_evaluated(&mut sim, &obs, &mut engine, SimTime::from_millis(300), ALERT_TICK);
    let before = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed;
    assert!(before > 0, "client must be verified before the surge");
    {
        use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 66),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 60_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
                duration: None,
            }),
        );
    }
    run_evaluated(&mut sim, &obs, &mut engine, SimTime::from_millis(1_000), ALERT_TICK);

    let after = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed;
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    let s = g.stats();
    assert!(
        s.admission_shed > 1_000,
        "the surge must shed unverified load: {} shed",
        s.admission_shed
    );
    assert_eq!(
        s.rl2_dropped, 0,
        "no cookie-verified query may be refused while unverified load is shed"
    );
    assert!(
        after > before,
        "the verified client must keep completing through the surge"
    );
    let amp = g.traffic_unverified.amplification();
    assert!(
        amp <= 1.6,
        "unverified amplification {amp:.3} breaks the paper bound"
    );
    assert!(
        engine.fired_rules().contains(&"admission_shedding"),
        "admission_shedding must fire: {:?}",
        engine.fired_rules()
    );
}

/// Regression for the resync-request storm: on a badly lossy replication
/// channel nearly every delta that survives is out of sequence. Answering
/// each one with a `ResyncReq` made the primary ship a full snapshot per
/// miss — a self-amplifying storm on exactly the link that is already
/// struggling. The standby must instead pace its requests with exponential
/// backoff, and recover promptly once the channel heals.
#[test]
fn lossy_replication_channel_backs_off_resync_requests() {
    let (_, _, foo_com) = paper_hierarchy();
    let authority = Authority::new(vec![foo_com]);
    let mut sim = Simulator::new(97);
    let repl_primary = Ipv4Addr::new(10, 99, 0, 2);
    let repl_standby = Ipv4Addr::new(10, 99, 0, 3);
    let primary_cfg = GuardConfig::new(PUB, PRIV)
        .with_mode(SchemeMode::DnsBased)
        .with_ha(HaConfig::primary(repl_primary, repl_standby));
    let standby_cfg = GuardConfig::new(PUB, PRIV)
        .with_mode(SchemeMode::DnsBased)
        .with_ha(HaConfig::standby(repl_standby, repl_primary));
    let cpu = CpuConfig {
        max_backlog: SimTime::from_millis(5),
    };
    let primary = sim.add_node(
        PUB,
        cpu,
        RemoteGuard::new(primary_cfg, AuthorityClassifier::new(authority.clone())),
    );
    sim.add_address(repl_primary, primary);
    let standby = sim.add_node(
        repl_standby,
        cpu,
        RemoteGuard::new(standby_cfg, AuthorityClassifier::new(authority)),
    );

    // Warm: the standby syncs over a clean channel.
    sim.run_until(SimTime::from_millis(200));

    // Degrade the primary→standby direction for two seconds: of every three
    // messages the primary sends (one per 20 ms tick), the first two are
    // lost. Every delta that gets through is a sequence gap, and the
    // snapshot that answers a request leaves on the tick after one that got
    // through, so it is lost too: a per-miss requester would fire at every
    // surviving delta while a backed-off one stays quiet. The standby never
    // misses the three heartbeats in a row that would promote it.
    let lossy = FaultPlan::new().loss(1.0);
    for burst in 0..33 {
        let at = SimTime::from_millis(210 + 60 * burst);
        sim.run_until(at);
        sim.fault_link(primary, standby, lossy);
        sim.run_until(at + SimTime::from_millis(40));
        sim.fault_link(primary, standby, FaultPlan::new());
        sim.run_until(at + SimTime::from_millis(60));
    }

    let s = sim.node_ref::<RemoteGuard>(standby).unwrap().stats();
    assert_eq!(s.failover_takeovers, 0, "the primary never fell silent");
    assert!(
        s.repl_resyncs >= 1,
        "the loss must produce at least one sequence gap"
    );
    // Backoff pacing bound: one conversation is paced 20, 40, 80, … ms up
    // to the 1 s cap, and each snapshot that survives the loss resets it.
    // Even with every reset the two-second window cannot fit many
    // requests; without backoff there would be one per surviving delta.
    assert!(
        s.repl_resyncs <= 15,
        "resync requests must be paced by backoff, got {}",
        s.repl_resyncs
    );
    assert!(
        s.heartbeats_seen > s.repl_resyncs,
        "plenty of out-of-sequence traffic arrived ({} packets) yet only {} \
         resyncs were sent",
        s.heartbeats_seen,
        s.repl_resyncs
    );

    // The channel is healed: the next answered request resynchronises the
    // standby and in-sequence deltas resume.
    let applied_before = s.repl_deltas_applied;
    sim.run_until(SimTime::from_millis(4_500));
    let s = sim.node_ref::<RemoteGuard>(standby).unwrap().stats();
    assert!(
        s.repl_deltas_applied > applied_before + 5,
        "the standby must resume applying replication after the heal: {} → {}",
        applied_before,
        s.repl_deltas_applied
    );
}

/// Restoring from a checkpoint taken long ago never replays expired
/// forwarding state: every in-flight entry is past its deadline and is
/// dropped, while the cookie key state still restores.
#[test]
fn stale_checkpoint_drops_all_forwarding_state() {
    let mut w = WorldBuilder::new(93)
        .tweak(|c| c.checkpoint_interval = Some(SimTime::from_millis(100)))
        .build();
    w.sim.run_until(SimTime::from_millis(450));
    w.sim.crash(w.guard);
    let cp = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().latest_checkpoint().cloned();
    let cp = cp.expect("checkpoint exists");

    // Restore far past the ANS-timeout deadline (1 s by default).
    let restore_at = SimTime::from_millis(450) + SimTime::from_secs(3);
    w.sim.run_until(restore_at);
    let fresh = RemoteGuard::restore_from_checkpoint(
        common::open_config(SchemeMode::DnsBased),
        AuthorityClassifier::new(Authority::new(vec![paper_hierarchy().0])),
        &cp,
        restore_at,
    );
    w.sim.restart_with(w.guard, fresh);
    let s = w.guard_stats();
    assert_eq!(s.restores, 1);
    assert_eq!(
        s.restore_stale_fwd,
        cp.fwd.len() as u64,
        "every checkpointed forward entry is past-deadline and must drop"
    );
    assert_eq!(
        s.restore_stale_stash,
        cp.stash.len() as u64,
        "every checkpointed stash entry is expired and must drop"
    );
    // Service still recovers — cookies live in the key state, not the
    // forwarding tables.
    let before = w.completed();
    w.sim.run_for(SimTime::from_millis(300));
    assert!(w.completed() > before, "client recovers after a stale restore");
}
