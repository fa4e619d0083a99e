//! Cross-crate integration: a *stock* recursive resolver (crate `server`)
//! resolving through a guarded root server (crate `dnsguard`), end to end —
//! the transparency claim of the DNS-based and TCP-based schemes: "Neither
//! ANS nor LRS needs to be modified."

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use dnswire::message::Message;
use dnswire::rdata::RData;
use dnswire::types::{Rcode, RrType};
use netsim::engine::{Context, CpuConfig, Node, Simulator};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use server::authoritative::Authority;
use server::nodes::AuthNode;
use server::recursive::{RecursiveResolver, ResolverConfig};
use server::zone::{paper_hierarchy, COM_SERVER, FOO_SERVER, ROOT_SERVER, WWW_ADDR};
use std::net::Ipv4Addr;

const ROOT_PRIVATE: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
const LRS_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);

/// One-shot stub client.
struct Stub {
    me: Endpoint,
    lrs: Endpoint,
    qname: &'static str,
    reply: Option<Message>,
}

impl Node for Stub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let q = Message::query(99, self.qname.parse().unwrap(), RrType::A);
        ctx.send(Packet::udp(self.me, self.lrs, q.encode()));
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        self.reply = Message::decode(&pkt.payload).ok();
    }
}

/// Builds: guarded root (running `mode`) + real com & foo.com servers + a
/// stock recursive resolver + one stub.
fn guarded_hierarchy(
    seed: u64,
    mode: SchemeMode,
) -> (Simulator, netsim::NodeId, netsim::NodeId, netsim::NodeId) {
    let (root, com, foo_com) = paper_hierarchy();
    let root_authority = Authority::new(vec![root]);

    let mut sim = Simulator::new(seed);
    // The guard owns the advertised root-server address.
    let config = GuardConfig::new(ROOT_SERVER, ROOT_PRIVATE).with_mode(mode);
    let guard = sim.add_node(
        ROOT_SERVER,
        CpuConfig::unbounded(),
        RemoteGuard::new(config, AuthorityClassifier::new(root_authority.clone())),
    );
    sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);
    sim.add_node(
        ROOT_PRIVATE,
        CpuConfig::unbounded(),
        AuthNode::new(ROOT_PRIVATE, root_authority),
    );
    // Unguarded com and foo.com servers at their real addresses.
    sim.add_node(
        COM_SERVER,
        CpuConfig::unbounded(),
        AuthNode::new(COM_SERVER, Authority::new(vec![com])),
    );
    sim.add_node(
        FOO_SERVER,
        CpuConfig::unbounded(),
        AuthNode::new(FOO_SERVER, Authority::new(vec![foo_com])),
    );
    // A stock recursive resolver with the guarded root as its hint.
    let lrs = sim.add_node(
        LRS_IP,
        CpuConfig::unbounded(),
        RecursiveResolver::new(ResolverConfig::new(LRS_IP, vec![ROOT_SERVER])),
    );
    let stub_ip = Ipv4Addr::new(10, 0, 0, 1);
    let stub = sim.add_node(
        stub_ip,
        CpuConfig::unbounded(),
        Stub {
            me: Endpoint::new(stub_ip, 5353),
            lrs: Endpoint::new(LRS_IP, DNS_PORT),
            qname: "www.foo.com",
            reply: None,
        },
    );
    (sim, guard, lrs, stub)
}

#[test]
fn stock_resolver_resolves_through_guarded_root() {
    let (mut sim, guard, lrs, stub) = guarded_hierarchy(1, SchemeMode::DnsBased);
    sim.run();

    let reply = sim
        .node_ref::<Stub>(stub)
        .unwrap()
        .reply
        .clone()
        .expect("stub received an answer");
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
    let (mut sim, guard, lrs, stub) = guarded_hierarchy(5, SchemeMode::TcpBased);
    sim.run();

    let reply = sim
        .node_ref::<Stub>(stub)
        .unwrap()
        .reply
        .clone()
        .expect("stub received an answer");
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
    let (mut sim, _guard, lrs, _stub) = guarded_hierarchy(2, SchemeMode::DnsBased);
    sim.run();
    let upstream_before = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().upstream_sent;

    // Second stub asks the same question: answered from the resolver cache.
    let stub2_ip = Ipv4Addr::new(10, 0, 0, 2);
    let stub2 = sim.add_node(
        stub2_ip,
        CpuConfig::unbounded(),
        Stub {
            me: Endpoint::new(stub2_ip, 5454),
            lrs: Endpoint::new(LRS_IP, DNS_PORT),
            qname: "www.foo.com",
            reply: None,
        },
    );
    sim.run();
    let reply = sim.node_ref::<Stub>(stub2).unwrap().reply.clone().unwrap();
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
    let (mut sim, guard, _lrs, _stub) = guarded_hierarchy(3, SchemeMode::DnsBased);
    sim.run();
    let fabricated_before = sim
        .node_ref::<RemoteGuard>(guard)
        .unwrap()
        .stats()
        .fabricated_ns_sent;

    let stub3_ip = Ipv4Addr::new(10, 0, 0, 3);
    let stub3 = sim.add_node(
        stub3_ip,
        CpuConfig::unbounded(),
        Stub {
            me: Endpoint::new(stub3_ip, 5555),
            lrs: Endpoint::new(LRS_IP, DNS_PORT),
            qname: "foo.com",
            reply: None,
        },
    );
    sim.run();
    let reply = sim.node_ref::<Stub>(stub3).unwrap().reply.clone().unwrap();
    assert_eq!(reply.header.rcode, Rcode::NoError, "sibling name resolved");
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert_eq!(
        g.stats().fabricated_ns_sent, fabricated_before,
        "cached cookie NS reused; guard not consulted for a new cookie"
    );
}

#[test]
fn spoofed_flood_cannot_reach_root_ans_while_resolver_works() {
    let (mut sim, guard, _lrs, stub) = guarded_hierarchy(4, SchemeMode::DnsBased);
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
    let reply = sim.node_ref::<Stub>(stub).unwrap().reply.clone();
    assert!(reply.is_some(), "legitimate resolution completed under attack");
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert!(g.stats().ns_cookie_invalid > 3_000, "guesses dropped");
    assert_eq!(g.stats().ns_cookie_valid as i64 - 1, 0, "only the resolver's real cookie passed");
}
