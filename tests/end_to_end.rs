//! Cross-crate integration: a *stock* recursive resolver (crate `server`)
//! resolving through a guarded root server (crate `dnsguard`), end to end —
//! the transparency claim of the DNS-based and TCP-based schemes: "Neither
//! ANS nor LRS needs to be modified."

use bench::worlds::{attach_stub, guarded_hierarchy, HierarchyWorld, Stub, WorldParams, PRIV, PUB, RESOLVER};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use dnswire::message::Message;
use dnswire::rdata::RData;
use dnswire::types::{Rcode, RrType};
use netsim::engine::{CpuConfig, Simulator};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use netsim::NodeId;
use server::nodes::ServerCosts;
use server::recursive::RecursiveResolver;
use server::zone::{ROOT_SERVER, WWW_ADDR};
use std::net::Ipv4Addr;

/// Attaches a stub at `10.0.0.<host>` asking the resolver for `qname` once.
fn ask(sim: &mut Simulator, host: u8, port: u16, id: u16, qname: &str) -> NodeId {
    let me = Endpoint::new(Ipv4Addr::new(10, 0, 0, host), port);
    let query = Message::query(id, qname.parse().unwrap(), RrType::A).encode();
    attach_stub(sim, me.ip, [(SimTime::ZERO, Packet::udp(me, Endpoint::new(RESOLVER, DNS_PORT), query))])
}

/// The stub's first reply.
fn reply(sim: &Simulator, stub: NodeId) -> Option<Message> {
    sim.node_ref::<Stub>(stub).unwrap().reply()
}

/// Builds: guarded root (running `mode`, the limiters at their defaults, on
/// unbounded CPUs, free ANS costs and `GuardConfig`'s own TCP connection
/// lifetime) + real com & foo.com servers + a stock recursive resolver +
/// one stub.
fn guarded_root(seed: u64, mode: SchemeMode) -> (Simulator, NodeId, NodeId, NodeId) {
    let unbounded = CpuConfig::unbounded();
    let p = WorldParams {
        mode,
        guard_cpu: unbounded,
        ans_cpu: unbounded,
        ans_costs: ServerCosts::free(),
        open_limiters: false,
        ..WorldParams::new(seed)
    };
    let HierarchyWorld { mut sim, guard, resolver } = guarded_hierarchy(p, |c| GuardConfig {
        tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
        ..c
    });
    let stub = ask(&mut sim, 1, 5353, 99, "www.foo.com");
    (sim, guard, resolver, stub)
}

#[test]
fn stock_resolver_resolves_through_guarded_root() {
    let (mut sim, guard, lrs, stub) = guarded_root(1, SchemeMode::DnsBased);
    sim.run();

    let reply = reply(&sim, stub).expect("stub received an answer");
    assert_eq!(reply.header.rcode, Rcode::NoError);
    assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR), "correct final answer");

    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert!(g.stats().fabricated_ns_sent >= 1, "guard fabricated the com NS name");
    assert!(g.stats().ns_cookie_valid >= 1, "resolver round-tripped the cookie");
    assert_eq!(g.stats().spoofed_dropped(), 0, "no false positives");

    let resolver = sim.node_ref::<RecursiveResolver>(lrs).unwrap();
    assert_eq!(resolver.stats().servfails, 0);
    assert_eq!(resolver.stats().timeouts, 0);
}

#[test]
fn stock_resolver_resolves_through_tcp_guarded_root() {
    // The TCP-based scheme: the guard answers the resolver's first UDP
    // query with TC, the resolver retries over TCP as any resolver does,
    // and the guard's proxy relays that query to the root ANS.
    let (mut sim, guard, lrs, stub) = guarded_root(5, SchemeMode::TcpBased);
    sim.run();

    let reply = reply(&sim, stub).expect("stub received an answer");
    assert_eq!(reply.header.rcode, Rcode::NoError);
    assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR), "correct final answer");

    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert!(g.stats().tc_sent >= 1, "guard redirected the resolver to TCP");
    assert!(g.proxy_stats().requests_relayed >= 1, "the proxy relayed the TCP query");
    assert_eq!(g.stats().spoofed_dropped(), 0, "no false positives");

    let resolver = sim.node_ref::<RecursiveResolver>(lrs).unwrap();
    assert!(resolver.stats().tcp_fallbacks >= 1, "resolver retried over TCP");
    assert_eq!(resolver.stats().servfails, 0);
    assert_eq!(resolver.stats().timeouts, 0);
}

#[test]
fn resolver_cache_skips_guard_on_repeat() {
    let (mut sim, _guard, lrs, _stub) = guarded_root(2, SchemeMode::DnsBased);
    sim.run();
    let upstream_before = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().upstream_sent;

    // Second stub asks the same question: answered from the resolver cache.
    let stub2 = ask(&mut sim, 2, 5454, 99, "www.foo.com");
    sim.run();
    let reply = reply(&sim, stub2).unwrap();
    assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
    assert_eq!(
        sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().upstream_sent,
        upstream_before,
        "no new upstream traffic"
    );
}

#[test]
fn resolver_reuses_fabricated_ns_for_sibling_names() {
    // After resolving www.foo.com, the resolver holds the fabricated com NS
    // (long TTL). Resolving another .com name must reuse that cookie name
    // rather than starting from the root again with a plain query.
    let (mut sim, guard, _lrs, _stub) = guarded_root(3, SchemeMode::DnsBased);
    sim.run();
    let fabricated_before = sim
        .node_ref::<RemoteGuard>(guard)
        .unwrap()
        .stats()
        .fabricated_ns_sent;

    let stub3 = ask(&mut sim, 3, 5555, 99, "foo.com");
    sim.run();
    let reply = reply(&sim, stub3).unwrap();
    assert_eq!(reply.header.rcode, Rcode::NoError, "sibling name resolved");
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert_eq!(
        g.stats().fabricated_ns_sent, fabricated_before,
        "cached cookie NS reused; guard not consulted for a new cookie"
    );
}

#[test]
fn spoofed_flood_cannot_reach_root_ans_while_resolver_works() {
    let (mut sim, guard, _lrs, stub) = guarded_root(4, SchemeMode::DnsBased);
    use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
    sim.add_node(
        Ipv4Addr::new(66, 0, 0, 1),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: ROOT_SERVER,
            rate: 50_000.0,
            sources: SourceStrategy::Random,
            payload: AttackPayload::CookieLabelGuess {
                zone_suffix: "com".into(),
                parent: dnswire::Name::root(),
            },
            duration: Some(SimTime::from_millis(100)),
        }),
    );
    sim.run_until(SimTime::from_millis(200));
    assert!(reply(&sim, stub).is_some(), "legitimate resolution completed under attack");
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert!(g.stats().ns_cookie_invalid > 3_000, "guesses dropped");
    assert_eq!(g.stats().ns_cookie_valid as i64 - 1, 0, "only the resolver's real cookie passed");
}
