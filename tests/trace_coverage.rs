//! Trace-coverage suite: every guard decision kind that the scenarios
//! below can reach is asserted to actually appear in a drained trace.
//!
//! This is the executable half of guardlint's L5 family — the lint proves
//! each emitted kind is *referenced* somewhere; these tests prove the
//! reference is a real observation, not a dead string.

mod common;

use common::WorldBuilder;
use dnsguard::config::SchemeMode;
use dnsguard::guard::RemoteGuard;
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use obs::trace::Level;
use obs::Obs;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

fn drained_kinds(obs: &Obs) -> BTreeSet<&'static str> {
    let (events, dropped) = obs.tracer.drain();
    assert_eq!(dropped, 0, "trace ring dropped events; raise the capacity");
    events.iter().map(|e| e.kind).collect()
}

/// A primary crash must be *visible*: the standby's tracer carries
/// `peer_down` when the heartbeat-miss threshold trips and `takeover`
/// when it claims the guarded address.
#[test]
fn failover_emits_peer_down_and_takeover_events() {
    let mut w = bench::worlds::ha_world(41);
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    w.sim
        .node_mut::<RemoteGuard>(w.standby)
        .unwrap()
        .attach_obs(&obs);

    // Warm the replication channel, then kill the primary.
    w.sim.run_until(SimTime::from_millis(200));
    w.sim.crash(w.primary);
    w.sim.run_until(SimTime::from_millis(600));

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("peer_down"),
        "missed heartbeats must emit peer_down: {kinds:?}"
    );
    assert!(
        kinds.contains("takeover"),
        "claiming the address must emit takeover: {kinds:?}"
    );
}

/// Checkpoint/restore round-trip: the periodic `checkpoint` event marks
/// each snapshot the guard emits, and applying one emits `restore`.
#[test]
fn checkpoint_and_restore_emit_paired_events() {
    let mut w = WorldBuilder::new(42)
        .tweak(|c| c.checkpoint_interval = Some(SimTime::from_millis(50)))
        .build();
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().attach_obs(&obs);
    w.sim.run_until(SimTime::from_millis(300));

    // Feed the snapshot straight back: same guard, same tracer.
    let g = w.sim.node_mut::<RemoteGuard>(w.guard).unwrap();
    let cp = g.latest_checkpoint().cloned().expect("checkpoint taken");
    g.apply_checkpoint(&cp, SimTime::from_millis(300));

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("checkpoint"),
        "periodic snapshots must emit checkpoint: {kinds:?}"
    );
    assert!(
        kinds.contains("restore"),
        "applying a snapshot must emit restore: {kinds:?}"
    );
}

/// An ANS outage emits `ans_down` when the health monitor declares it and
/// debug-level `ans_probe` for the backoff probes that eventually detect
/// recovery.
#[test]
fn ans_outage_emits_down_and_probe_events() {
    let mut w = WorldBuilder::new(43)
        .wait(SimTime::from_millis(60))
        .tweak(|c| {
            c.ans_timeout = SimTime::from_millis(50);
            c.ans_failure_threshold = 2;
            c.ans_probe_interval = SimTime::from_millis(100);
        })
        .build();
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Debug);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().attach_obs(&obs);

    w.sim.run_until(SimTime::from_millis(100));
    w.sim.crash(w.ans);
    w.sim.run_until(SimTime::from_millis(900));

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("ans_down"),
        "declaring the ANS down must emit ans_down: {kinds:?}"
    );
    assert!(
        kinds.contains("ans_probe"),
        "health probes must emit ans_probe: {kinds:?}"
    );
}

/// The TCP scheme's proxied requests emit debug-level `proxy_relay` with
/// the relay token alongside the info-level accept event.
#[test]
fn tcp_scheme_emits_proxy_relay_events() {
    let mut w = WorldBuilder::new(44).mode(SchemeMode::TcpBased).build();
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Debug);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().attach_obs(&obs);
    w.sim.run_until(SimTime::from_millis(200));
    assert!(w.completed() > 0, "TCP clients must complete");

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("proxy_relay"),
        "relayed TCP requests must emit proxy_relay: {kinds:?}"
    );
}

/// A fleet member that applies a key epoch pushed over the replication
/// channel traces the application as `fleet_key_rotate` — the event an
/// operator correlates with a catchment shift to confirm the grace window
/// was live when the routes moved.
#[test]
fn fleet_key_sync_emits_fleet_key_rotate_events() {
    let mut w = bench::worlds::fleet_world(46, true);
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    w.sim
        .node_mut::<RemoteGuard>(w.site_b)
        .unwrap()
        .attach_obs(&obs);

    // A few sync intervals: the master announces epoch 0, the member
    // applies it.
    w.sim.run_until(SimTime::from_millis(200));

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("fleet_key_rotate"),
        "applying a pushed fleet key must emit fleet_key_rotate: {kinds:?}"
    );
}

/// Re-routing a source to another site mid-simulation traces as
/// `catchment_shift` on the netsim side, one event per re-routed
/// datagram.
#[test]
fn catchment_shift_emits_routing_events() {
    use bench::worlds::{attach_lrs, LrsParams};
    use netsim::engine::FaultPlan;

    let mut w = bench::worlds::fleet_world(47, true);
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    w.sim.attach_obs(&obs);
    let client = attach_lrs(
        &mut w.sim,
        LrsParams {
            ip: Ipv4Addr::new(10, 0, 7, 1),
            mode: server::simclient::CookieMode::Plain,
            cookie_cache: true,
            concurrency: 1,
            wait: SimTime::from_millis(150),
            pace: SimTime::from_millis(5),
            per_packet_cost: SimTime::ZERO,
        },
    );
    // The whole catchment moves at once: every datagram from the client
    // re-routes to site B.
    w.sim
        .fault_link(client, w.site_a, FaultPlan::new().catchment_shift(1.0, w.site_b));
    w.sim.run_until(SimTime::from_millis(200));

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("catchment_shift"),
        "re-routed datagrams must emit catchment_shift: {kinds:?}"
    );
}

/// A flood that saturates RL1 moves the admission controller off the
/// Normal tier, and the transition itself is traced as `tier_change`.
#[test]
fn admission_surge_emits_tier_change_event() {
    let mut w = WorldBuilder::new(45)
        .tweak(|c| {
            // The builder opens the limiters wide; restore the deployment
            // defaults so the flood genuinely saturates RL1 and builds
            // admission pressure.
            c.rl1_global_rate = 10_000.0;
            c.rl1_per_source_rate = 100.0;
            c.admission = true;
        })
        .build();
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().attach_obs(&obs);
    w.sim.run_until(SimTime::from_millis(200));
    {
        use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
        w.sim.add_node(
            Ipv4Addr::new(66, 0, 0, 66),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: common::PUB,
                rate: 60_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
                duration: None,
            }),
        );
    }
    w.sim.run_until(SimTime::from_millis(800));

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("tier_change"),
        "the surge must move the admission tier and trace it: {kinds:?}"
    );
}
