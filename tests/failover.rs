//! High-availability chaos suite: primary–standby failover under attack,
//! key rotation across a checkpoint/restore cycle in every scheme mode,
//! verified service under a flood far past Rate-Limiter1's capacity,
//! replication over a lossy channel, and checkpoints and snapshots that
//! carry a key generation, never a key.

use bench::worlds::{
    attach_flood, attach_lrs, guard_stats, guarded_world_with, ha_world, lrs_stats, GuardedWorld, HaWorld, LrsParams,
    WorldParams, ZoneSel, PRIV, PUB,
};
use dnsguard::checkpoint::GuardCheckpoint;
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::SchemeMode;
use dnsguard::guard::{GuardCore, Leg, Outputs, RemoteGuard};
use dnsguard::ha::{encode_repl, repl_secret, HaConfig, REPL_PORT};
use dnsguard::GuardConfig;
use guardhash::cookie::{CookieAlg, CookieFactory, SecretKey};
use netsim::engine::{CpuConfig, FaultPlan};
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use netsim::NodeId;
use server::authoritative::Authority;
use server::nodes::ServerCosts;
use server::simclient::CookieMode;
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

/// The limiters open and the guard on an unbounded CPU.
fn open(seed: u64, zone: ZoneSel, mode: SchemeMode) -> WorldParams {
    WorldParams {
        zone,
        mode,
        guard_cpu: CpuConfig::unbounded(),
        ..WorldParams::new(seed)
    }
}

/// A client at `10.0.0.7` carrying cookies as `mode` says, with `slots`
/// requests in flight, each abandoned after `wait` and followed `pace`
/// later by the next; 2 µs a packet.
fn client(mode: CookieMode, slots: u32, wait: SimTime, pace: SimTime) -> LrsParams {
    LrsParams {
        ip: Ipv4Addr::new(10, 0, 0, 7),
        mode,
        cookie_cache: true,
        concurrency: slots,
        wait,
        pace,
        per_packet_cost: SimTime::from_micros(2),
    }
}

/// The guard `p` describes (`GuardConfig`'s own TCP connection lifetime,
/// then `configure`'s edit) in front of a free ANS on an unbounded CPU,
/// and `client`.
fn world(p: WorldParams, configure: impl FnOnce(GuardConfig) -> GuardConfig, client: LrsParams) -> (GuardedWorld, NodeId) {
    let p = WorldParams {
        ans_cpu: CpuConfig::unbounded(),
        ans_costs: ServerCosts::free(),
        ..p
    };
    let mut w = guarded_world_with(p, |c| {
        configure(GuardConfig {
            tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
            ..c
        })
    });
    let lrs = attach_lrs(&mut w.sim, client);
    (w, lrs)
}

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
    for (scheme, zone, mode, lrs_mode) in [
        ("ns_label", ZoneSel::Root, SchemeMode::DnsBased, CookieMode::Plain),
        ("cookie2", ZoneSel::Foo, SchemeMode::DnsBased, CookieMode::Plain),
        ("tcp", ZoneSel::Foo, SchemeMode::TcpBased, CookieMode::Plain),
        ("ext", ZoneSel::Foo, SchemeMode::ModifiedOnly, CookieMode::Extension),
    ] {
        let (mut w, lrs) = world(
            open(91, zone, mode),
            |c| c.with_checkpoint_interval(SimTime::from_millis(100)),
            client(lrs_mode, 1, SimTime::from_millis(100), SimTime::ZERO),
        );

        // Warm: the client completes and caches its generation-0 cookie.
        w.sim.run_until(SimTime::from_millis(250));
        assert!(lrs_stats(&w.sim, lrs).completed > 0, "{scheme}: no completions before rotation");
        w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().rotate_key();

        // Run past at least one post-rotation checkpoint, then crash.
        w.sim.run_until(SimTime::from_millis(460));
        let completed_mid = lrs_stats(&w.sim, lrs).completed;
        assert!(
            completed_mid > 0,
            "{scheme}: client must keep completing across the rotation"
        );
        w.sim.crash(w.guard);
        let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
        let (config, cp) = (g.config().clone(), g.latest_checkpoint().cloned());
        let cp = cp.unwrap_or_else(|| panic!("{scheme}: no checkpoint taken"));
        assert!(
            cp.key_generation >= 1,
            "{scheme}: checkpoint must capture the post-rotation key state"
        );

        // Brief outage, then restore from the snapshot.
        let restore_at = SimTime::from_millis(465);
        w.sim.run_until(restore_at);
        let (root, _, foo_com) = paper_hierarchy();
        let zone = if zone == ZoneSel::Root { root } else { foo_com };
        let fresh = RemoteGuard::restore_from_checkpoint(
            config,
            AuthorityClassifier::new(Authority::new(vec![zone])),
            &cp,
            restore_at,
        );
        w.sim.restart_with(w.guard, fresh);
        w.sim.run_until(SimTime::from_millis(900));

        assert!(
            lrs_stats(&w.sim, lrs).completed > completed_mid + 20,
            "{scheme}: client must resume after the restore ({} → {})",
            completed_mid,
            lrs_stats(&w.sim, lrs).completed
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

/// A surge far past Rate-Limiter1's capacity costs the verified client
/// nothing: Rate-Limiter1 alone bounds the unverified load, the client
/// completes as many transactions as it does unattacked, no
/// cookie-verified query is refused, and the unverified amplification
/// stays inside the paper's bound.
#[test]
fn surge_leaves_verified_service_as_it_is_unattacked() {
    let run = |flood: bool| {
        let p = WorldParams {
            open_limiters: false,
            ..WorldParams::new(67)
        };
        let verified = client(CookieMode::Plain, 2, SimTime::from_millis(60), SimTime::from_millis(2));
        let (GuardedWorld { mut sim, guard, .. }, lrs) = world(p, |c| c, verified);
        // Warm the verified client, then surge (or not).
        sim.run_until(SimTime::from_millis(300));
        let before = lrs_stats(&sim, lrs).completed;
        assert!(before > 0, "client must be verified before the surge");
        if flood {
            attach_flood(&mut sim, Ipv4Addr::new(66, 0, 0, 66), 60_000.0);
        }
        sim.run_until(SimTime::from_millis(1_000));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        (lrs_stats(&sim, lrs).completed - before, g.stats(), g.traffic_unverified.amplification())
    };
    let (quiet, ..) = run(false);
    let (completed, s, amp) = run(true);
    assert!(s.rl1_dropped > 1_000, "the surge must saturate RL1: {} dropped", s.rl1_dropped);
    assert_eq!(s.rl2_dropped, 0, "no cookie-verified query may be refused");
    assert_eq!(completed, quiet, "the surge must cost the verified client nothing");
    assert!(amp <= 1.6, "unverified amplification {amp:.3} breaks the paper bound");
}

/// What a standby must hold to take over, as `g`'s checkpoint at `now`
/// lists it: the key generation, the forwards, the stash, the allocators
/// and whether detection is engaged.
fn held(g: &RemoteGuard, now: SimTime) -> impl PartialEq + std::fmt::Debug {
    let cp = g.checkpoint(now);
    (cp.key_generation, cp.fwd, cp.stash, cp.next_txid, cp.next_qid, cp.active)
}

/// A badly lossy replication channel: the standby installs every snapshot
/// that gets through and asks for nothing, and the first one after the
/// heal leaves it holding what the primary holds, a key rotated mid-loss
/// included.
#[test]
fn lossy_replication_channel_installs_every_surviving_snapshot() {
    let HaWorld { mut sim, primary, standby, .. } = ha_world(97);

    // Warm: the standby syncs over a clean channel.
    sim.run_until(SimTime::from_millis(200));
    let warm = guard_stats(&sim, standby).repl_deltas_applied;
    assert!(warm >= 9, "one snapshot per 20 ms tick: {warm}");

    // Degrade the primary→standby direction for two seconds: of every three
    // messages the primary sends (one per 20 ms tick), the first two are
    // lost. The standby never misses the three heartbeats in a row that
    // would promote it. The primary rotates its key half way through.
    let lossy = FaultPlan::new().loss(1.0);
    for burst in 0..33 {
        let at = SimTime::from_millis(210 + 60 * burst);
        sim.run_until(at);
        sim.fault_link(primary, standby, lossy);
        if burst == 16 {
            sim.node_mut::<RemoteGuard>(primary).unwrap().rotate_key();
        }
        sim.run_until(at + SimTime::from_millis(40));
        sim.fault_link(primary, standby, FaultPlan::new());
        sim.run_until(at + SimTime::from_millis(60));
    }

    let (p, s) = (guard_stats(&sim, primary), guard_stats(&sim, standby));
    assert_eq!(s.failover_takeovers, 0, "the primary never fell silent");
    assert_eq!((p.heartbeats_seen, p.repl_rejected), (0, 0), "the standby sent the primary nothing");
    assert_eq!(s.repl_deltas_applied, s.heartbeats_seen, "every snapshot that got through was installed");
    // The third tick of each of the 33 bursts, and the warm-up's last
    // snapshot, still in flight at 200 ms.
    assert_eq!(s.repl_deltas_applied - warm, 34, "one snapshot in three survives the loss");

    // The channel is healed: the next snapshot brings the standby level.
    sim.run_until(SimTime::from_millis(2_500));
    let now = sim.now();
    let p_guard = sim.node_ref::<RemoteGuard>(primary).unwrap();
    let s_guard = sim.node_ref::<RemoteGuard>(standby).unwrap();
    assert_eq!(s_guard.cookie_factory().generation(), 1);
    assert_eq!(held(s_guard, now), held(p_guard, now));
    let s = s_guard.stats();
    assert_eq!(s.repl_deltas_applied, s.heartbeats_seen);
    assert_eq!(p_guard.stats().heartbeats_seen, 0);
}

/// Restoring from a checkpoint taken long ago never replays expired
/// forwarding state: every in-flight entry is past its deadline and is
/// dropped, while the cookie key state still restores.
#[test]
fn stale_checkpoint_drops_all_forwarding_state() {
    let (mut w, lrs) = world(
        open(93, ZoneSel::Root, SchemeMode::DnsBased),
        |c| c.with_checkpoint_interval(SimTime::from_millis(100)),
        client(CookieMode::Plain, 1, SimTime::from_millis(10), SimTime::ZERO),
    );
    w.sim.run_until(SimTime::from_millis(450));
    w.sim.crash(w.guard);
    let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    // The restarted guard takes no checkpoints of its own.
    let config = GuardConfig {
        checkpoint_interval: None,
        ..g.config().clone()
    };
    let cp = g.latest_checkpoint().cloned().expect("checkpoint exists");

    // Restore far past the ANS-timeout deadline (1 s by default).
    let restore_at = SimTime::from_millis(450) + SimTime::from_secs(3);
    w.sim.run_until(restore_at);
    let fresh = RemoteGuard::restore_from_checkpoint(
        config,
        AuthorityClassifier::new(Authority::new(vec![paper_hierarchy().0])),
        &cp,
        restore_at,
    );
    w.sim.restart_with(w.guard, fresh);
    let s = guard_stats(&w.sim, w.guard);
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
    let before = lrs_stats(&w.sim, lrs).completed;
    w.sim.run_for(SimTime::from_millis(300));
    assert!(lrs_stats(&w.sim, lrs).completed > before, "client recovers after a stale restore");
}

/// A bare guard of the paper's root zone under `config`.
fn core(config: GuardConfig) -> GuardCore {
    GuardCore::new(config, AuthorityClassifier::new(Authority::new(vec![paper_hierarchy().0])))
}

/// A seed whose eight bytes read differently either way round.
const SEED: u64 = 0x0123_4567_89AB_CDEF;

/// A checkpoint is written to disk and a snapshot crosses the network, so
/// neither may carry a key: after one rotation, the encoding holds no
/// eight-byte window of the current or the previous key, and not the seed
/// every key derives from.
#[test]
fn a_checkpoint_holds_no_key_material() {
    let mut guard = core(GuardConfig { key_seed: SEED, ..GuardConfig::new(PUB, PRIV) });
    guard.rotate_key();
    let wire = guard.checkpoint(SimTime::from_secs(1)).encode();
    let leaks = |secret: &[u8]| secret.windows(8).filter(|w| wire.windows(8).any(|v| v == *w)).count();
    for generation in [1, 0] {
        let key = SecretKey::for_generation(SEED, generation);
        assert_eq!(leaks(key.as_bytes()), 0, "generation {generation}'s key is in the checkpoint");
    }
    assert_eq!(leaks(&SEED.to_le_bytes()) + leaks(&SEED.to_be_bytes()), 0, "the seed is in the checkpoint");
    assert_eq!(GuardCheckpoint::decode(&wire).map(|cp| cp.key_generation), Ok(1));
}

/// A generation is read off disk or the wire, so the last one there is
/// must install at once, from a checkpoint and from a snapshot alike: the
/// restored keys verify their own cookies and the previous generation's,
/// and reject one minted at generation 0.
#[test]
fn a_checkpoint_or_snapshot_at_the_last_generation_restores_at_once() {
    let config = GuardConfig { key_seed: SEED, ..GuardConfig::new(PUB, PRIV) };
    let now = SimTime::from_secs(1);
    let cp = GuardCheckpoint { key_generation: u64::MAX, ..core(config.clone()).checkpoint(now) };

    let mut restored = core(config.clone());
    restored.apply_checkpoint(&GuardCheckpoint::decode(&cp.encode()).expect("decodes"), now);

    let (primary, standby_addr) = (Ipv4Addr::new(10, 99, 0, 2), Ipv4Addr::new(10, 99, 0, 3));
    let mut standby = core(GuardConfig { ha: Some(HaConfig::standby(standby_addr, primary)), ..config });
    let wire = encode_repl(&cp, &repl_secret(SEED));
    let snapshot = Packet::udp(Endpoint::new(primary, REPL_PORT), Endpoint::new(standby_addr, REPL_PORT), wire);
    standby.handle_packet(now, Leg::Client, snapshot, &mut Outputs::default());
    assert_eq!(standby.stats().repl_deltas_applied, 1);

    let ip = Ipv4Addr::new(192, 0, 2, 77);
    let before = CookieFactory::at_generation(SEED, u64::MAX - 1, CookieAlg::default()).generate(ip);
    let first = CookieFactory::from_seed(SEED).generate(ip);
    for (name, guard) in [("checkpoint", &restored), ("snapshot", &standby)] {
        let keys = guard.cookie_factory();
        assert_eq!(keys.generation(), u64::MAX, "{name}");
        assert!(keys.verify(ip, &keys.generate(ip)), "{name}: its own cookie");
        assert!(keys.verify(ip, &before), "{name}: the previous generation's cookie");
        assert!(!keys.verify(ip, &first), "{name}: generation 0's cookie");
    }
}
