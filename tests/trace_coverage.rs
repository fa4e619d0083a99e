//! Trace-coverage suite: every guard decision kind that the scenarios
//! below can reach is asserted to actually appear in a drained trace.
//!
//! This is the executable half of guardlint's L5 family — the lint proves
//! each emitted kind is *referenced* somewhere; these tests prove the
//! reference is a real observation, not a dead string.

use bench::worlds::{
    attach_lrs, guarded_world_with, lrs_stats, observe, GuardedWorld, LrsParams, Scope, WorldParams, PRIV, PUB,
};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use netsim::NodeId;
use obs::trace::Level;
use obs::Obs;
use server::nodes::ServerCosts;
use server::simclient::CookieMode;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// A guard on an unbounded CPU (limiters open, `GuardConfig`'s own TCP
/// connection lifetime, then `configure`'s edit) in front of a free ANS
/// serving the root zone, and one closed-loop client (`wait`, 2 µs a
/// packet) at `10.0.0.7`.
fn world(
    seed: u64,
    mode: SchemeMode,
    wait: SimTime,
    configure: impl FnOnce(GuardConfig) -> GuardConfig,
) -> (GuardedWorld, NodeId) {
    let unbounded = CpuConfig::unbounded();
    let p = WorldParams {
        mode,
        guard_cpu: unbounded,
        ans_cpu: unbounded,
        ans_costs: ServerCosts::free(),
        ..WorldParams::new(seed)
    };
    let mut w = guarded_world_with(p, |c| {
        configure(GuardConfig {
            tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
            ..c
        })
    });
    let lrs = attach_lrs(
        &mut w.sim,
        LrsParams {
            ip: Ipv4Addr::new(10, 0, 0, 7),
            mode: CookieMode::Plain,
            cookie_cache: true,
            concurrency: 1,
            wait,
            pace: SimTime::ZERO,
            per_packet_cost: SimTime::from_micros(2),
        },
    );
    (w, lrs)
}

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
    let obs = observe(&mut w.sim, Scope::Site, &[w.standby]);

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
    let (mut w, _) = world(42, SchemeMode::DnsBased, SimTime::from_millis(10), |c| {
        c.with_checkpoint_interval(SimTime::from_millis(50))
    });
    let obs = observe(&mut w.sim, Scope::Site, &[w.guard]);
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
    let (mut w, _) = world(43, SchemeMode::DnsBased, SimTime::from_millis(60), |c| GuardConfig {
        ans_timeout: SimTime::from_millis(50),
        ans_failure_threshold: 2,
        ans_probe_interval: SimTime::from_millis(100),
        ..c
    });
    let obs = observe(&mut w.sim, Scope::Site, &[w.guard]);
    obs.tracer.set_default_level(Level::Debug);

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
    let (mut w, lrs) = world(44, SchemeMode::TcpBased, SimTime::from_millis(10), |c| c);
    let obs = observe(&mut w.sim, Scope::Site, &[w.guard]);
    obs.tracer.set_default_level(Level::Debug);
    w.sim.run_until(SimTime::from_millis(200));
    assert!(lrs_stats(&w.sim, lrs).completed > 0, "TCP clients must complete");

    let kinds = drained_kinds(&obs);
    assert!(
        kinds.contains("proxy_relay"),
        "relayed TCP requests must emit proxy_relay: {kinds:?}"
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
    let obs = observe(&mut w.sim, Scope::World, &[]);
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
