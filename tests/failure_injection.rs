//! Failure injection: packet loss on the requester–guard path. Cookie
//! exchanges span multiple round trips, so every scheme must survive losing
//! any message of the handshake and recover through its retry timers.

use bench::worlds::{
    attach_lrs, attach_stub, guard_stats, guarded_hierarchy, guarded_world_with, lrs_stats, GuardedWorld, LrsParams,
    Stub, WorldParams, ZoneSel, PRIV, PUB, RESOLVER,
};
use dnsguard::config::{GuardConfig, SchemeMode};
use netsim::engine::{CpuConfig, LinkParams};
use netsim::time::SimTime;
use netsim::NodeId;
use server::nodes::ServerCosts;
use server::simclient::CookieMode;
use std::net::Ipv4Addr;

/// The requester–guard link: 200 µs each way, losing `loss` of it.
fn lossy(loss: f64) -> LinkParams {
    LinkParams {
        delay: SimTime::from_micros(200),
        loss,
    }
}

/// A guard on an unbounded CPU (`GuardConfig`'s own TCP connection
/// lifetime) in front of a free ANS.
fn params(seed: u64, zone: ZoneSel, mode: SchemeMode, open_limiters: bool) -> WorldParams {
    WorldParams {
        zone,
        mode,
        guard_cpu: CpuConfig::unbounded(),
        ans_cpu: CpuConfig::unbounded(),
        ans_costs: ServerCosts::free(),
        open_limiters,
        ..WorldParams::new(seed)
    }
}

/// `GuardConfig`'s own TCP connection lifetime, not the testbed's.
fn own_lifetime(c: GuardConfig) -> GuardConfig {
    GuardConfig {
        tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
        ..c
    }
}

/// [`params`]' world with the limiters open and one closed-loop client
/// (5 ms wait, 2 µs a packet) at `10.0.0.7` on a [`lossy`] link.
fn lossy_world(seed: u64, zone: ZoneSel, mode: SchemeMode, lrs_mode: CookieMode, loss: f64) -> (GuardedWorld, NodeId) {
    let mut w = guarded_world_with(params(seed, zone, mode, true), own_lifetime);
    let lrs = attach_lrs(
        &mut w.sim,
        LrsParams {
            ip: Ipv4Addr::new(10, 0, 0, 7),
            mode: lrs_mode,
            cookie_cache: true,
            concurrency: 1,
            wait: SimTime::from_millis(5),
            pace: SimTime::ZERO,
            per_packet_cost: SimTime::from_micros(2),
        },
    );
    w.sim.connect(lrs, w.guard, lossy(loss));
    (w, lrs)
}

#[test]
fn schemes_recover_from_10_percent_loss() {
    for (seed, zone, mode, lrs_mode) in [
        (1u64, ZoneSel::Root, SchemeMode::DnsBased, CookieMode::Plain),
        (2, ZoneSel::Foo, SchemeMode::DnsBased, CookieMode::Plain),
        (3, ZoneSel::Foo, SchemeMode::ModifiedOnly, CookieMode::Extension),
    ] {
        let (mut w, lrs) = lossy_world(seed, zone, mode, lrs_mode, 0.10);
        w.sim.run_until(SimTime::from_secs(1));
        assert!(
            lrs_stats(&w.sim, lrs).completed > 200,
            "mode {mode:?}: completed {} under 10% loss",
            lrs_stats(&w.sim, lrs).completed
        );
        assert!(lrs_stats(&w.sim, lrs).timeouts > 0, "mode {mode:?}: loss actually bit");
        assert_eq!(
            guard_stats(&w.sim, w.guard).spoofed_dropped(),
            0,
            "mode {mode:?}: retries must never look like spoofs"
        );
    }
}

#[test]
fn heavy_loss_degrades_but_does_not_wedge() {
    let (mut w, lrs) = lossy_world(4, ZoneSel::Root, SchemeMode::DnsBased, CookieMode::Plain, 0.40);
    w.sim.run_until(SimTime::from_secs(1));
    assert!(
        lrs_stats(&w.sim, lrs).completed > 20,
        "still making progress at 40% loss: {}",
        lrs_stats(&w.sim, lrs).completed
    );
    assert!(lrs_stats(&w.sim, lrs).timeouts > 50, "timeouts observed: {}", lrs_stats(&w.sim, lrs).timeouts);
}

#[test]
fn stock_resolver_survives_lossy_guarded_path() {
    use dnswire::message::Message;
    use dnswire::types::{Rcode, RrType};
    use netsim::packet::{Endpoint, Packet, DNS_PORT};

    let mut w = guarded_hierarchy(params(5, ZoneSel::Root, SchemeMode::DnsBased, false), own_lifetime);
    w.sim.connect(w.resolver, w.guard, lossy(0.25));
    // The stub's link to the resolver is clean: the loss is the resolver's
    // to retry through.
    let me = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 9000);
    let query = Message::query(7, "www.foo.com".parse().unwrap(), RrType::A).encode();
    let ask = Packet::udp(me, Endpoint::new(RESOLVER, DNS_PORT), query);
    let stub = attach_stub(&mut w.sim, me.ip, [(SimTime::ZERO, ask)]);
    w.sim.run_until(SimTime::from_secs(5));
    let reply = w
        .sim
        .node_ref::<Stub>(stub)
        .unwrap()
        .reply()
        .expect("resolution eventually completed despite 25% loss");
    assert_eq!(reply.header.rcode, Rcode::NoError);
}
