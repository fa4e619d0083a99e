//! Integration: the full modified-DNS deployment of Figure 3(a) — an
//! unmodified recursive resolver behind a transparent *local* guard,
//! talking to an ANS behind a *remote* guard. Both guards are firewall
//! modules; neither the LRS nor the ANS changes.

use bench::worlds::{
    attach_lrs, attach_stub, guarded_world_with, GuardedWorld, LrsParams, Stub, WorldParams, ZoneSel, PRIV, PUB,
};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use dnsguard::local_guard::{LocalGuard, HOLD};
use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::{Rcode, RrType};
use netsim::engine::{Context, CpuConfig, Node, Simulator};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use netsim::NodeId;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::recursive::{RecursiveResolver, ResolverConfig};
use server::simclient::CookieMode;
use server::zone::{paper_hierarchy, FOO_SERVER, WWW_ADDR};
use std::net::Ipv4Addr;

const LRS_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);

/// The remote side: a modified-DNS guard (limiters at their defaults,
/// `GuardConfig`'s own TCP connection lifetime, unbounded CPUs) in front of
/// a free ANS serving foo.com.
fn remote(seed: u64) -> GuardedWorld {
    let unbounded = CpuConfig::unbounded();
    let p = WorldParams {
        zone: ZoneSel::Foo,
        mode: SchemeMode::ModifiedOnly,
        guard_cpu: unbounded,
        ans_cpu: unbounded,
        ans_costs: ServerCosts::free(),
        open_limiters: false,
        ..WorldParams::new(seed)
    };
    guarded_world_with(p, |c| GuardConfig {
        tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
        ..c
    })
}

/// Puts `host` behind a transparent local guard that owns [`LRS_ADDR`] and
/// taps its egress. Returns the local guard's node.
fn local_guard(sim: &mut Simulator, host: NodeId) -> NodeId {
    let local = sim.add_node(LRS_ADDR, CpuConfig::unbounded(), LocalGuard::new(host, LRS_ADDR));
    sim.set_gateway(host, local);
    local
}

/// A stock resolver at [`LRS_ADDR`] (registered at a private address)
/// behind a [`local_guard`], with `server` as its only hint. Returns the
/// local guard's node.
fn resolver_behind_local_guard(sim: &mut Simulator, server: Ipv4Addr) -> NodeId {
    let resolver = RecursiveResolver::new(ResolverConfig::new(LRS_ADDR, vec![server]));
    let resolver = sim.add_node(Ipv4Addr::new(10, 255, 0, 53), CpuConfig::unbounded(), resolver);
    local_guard(sim, resolver)
}

/// A stub application at `10.0.0.<host>` asking the resolver for `qname`
/// once. Its queries also pass the local guard (it owns [`LRS_ADDR`]),
/// which relays them in.
fn ask(sim: &mut Simulator, host: u8, port: u16, id: u16, qname: &str) -> NodeId {
    let me = Endpoint::new(Ipv4Addr::new(10, 0, 0, host), port);
    let query = Message::query(id, qname.parse().unwrap(), RrType::A).encode();
    attach_stub(sim, me.ip, [(SimTime::ZERO, Packet::udp(me, Endpoint::new(LRS_ADDR, DNS_PORT), query))])
}

#[test]
fn unmodified_resolver_through_local_and_remote_guards() {
    let GuardedWorld {
        mut sim,
        guard: remote,
        ans,
    } = remote(42);
    let local = resolver_behind_local_guard(&mut sim, PUB);
    let stub = ask(&mut sim, 2, 3333, 4, "www.foo.com");

    sim.run();

    let reply = sim.node_ref::<Stub>(stub).unwrap().reply().expect("stub got an answer");
    assert_eq!(reply.header.rcode, Rcode::NoError);
    assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));

    let lg = sim.node_ref::<LocalGuard>(local).unwrap();
    assert_eq!(lg.stats().cookies_cached, 1, "one cookie exchange with the remote guard");
    assert!(lg.stats().stamped >= 1, "queries stamped with the cached cookie");

    let rg = sim.node_ref::<RemoteGuard>(remote).unwrap();
    assert!(rg.stats().ext_valid >= 1, "remote guard verified the cookie");
    assert_eq!(rg.stats().ext_invalid, 0);
    assert_eq!(rg.stats().grants_sent, 1);

    // The ANS never saw the extension — AuthNode answered plain queries.
    assert!(sim.node_ref::<AuthNode>(ans).unwrap().udp_queries() >= 1);
}

#[test]
fn second_query_reuses_cookie_without_new_grant() {
    let GuardedWorld {
        mut sim,
        guard: remote,
        ..
    } = remote(43);
    let local = resolver_behind_local_guard(&mut sim, PUB);

    for (i, qname) in ["www.foo.com", "foo.com"].iter().enumerate() {
        let stub = ask(&mut sim, 10 + i as u8, 4444, 9, qname);
        sim.run();
        assert!(sim.node_ref::<Stub>(stub).unwrap().reply().is_some(), "query {qname} answered");
    }
    let lg = sim.node_ref::<LocalGuard>(local).unwrap();
    assert_eq!(lg.stats().grants_requested, 1, "single cookie exchange across queries");
    let rg = sim.node_ref::<RemoteGuard>(remote).unwrap();
    assert_eq!(rg.stats().grants_sent, 1);
}

/// A bare client behind a [`local_guard`] querying `server` for `www.foo.com`
/// twice, the second time 10 ms after the first. Returns the client's node
/// and the local guard's.
fn bare_client(sim: &mut Simulator, server: Ipv4Addr) -> (NodeId, NodeId) {
    let me = Endpoint::new(LRS_ADDR, 7777);
    let query = |id, at| {
        let wire = Message::iterative_query(id, "www.foo.com".parse().unwrap(), RrType::A).encode();
        (at, Packet::udp(me, Endpoint::new(server, DNS_PORT), wire))
    };
    let queries = [query(31, SimTime::ZERO), query(32, SimTime::from_millis(10))];
    let client = attach_stub(sim, Ipv4Addr::new(10, 255, 0, 1), queries);
    (client, local_guard(sim, client))
}

#[test]
fn cookie_exchange_then_stamped_queries() {
    let mut sim = remote(1).sim;
    let (client, local) = bare_client(&mut sim, PUB);
    sim.run_until(SimTime::from_millis(50));
    let reply = sim.node_ref::<Stub>(client).unwrap().reply().unwrap();
    assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
    assert!(
        cookie_ext::find_cookie(&reply).is_none(),
        "extension stripped before the LRS sees it"
    );
    let guard = sim.node_ref::<LocalGuard>(local).unwrap();
    assert_eq!(guard.stats().grants_requested, 1);
    assert_eq!(guard.stats().cookies_cached, 1);
    assert_eq!(guard.stats().stamped, 2, "held release + second query");
    assert_eq!(guard.cached_cookies(), 1);
}

/// A spoofer who guesses the probe's id wins that one query and nothing
/// else: the forged answer (no extension) reaches the LRS, the real grant
/// that follows it matches no held query and is dropped, and the next
/// query is probed, granted and released stamped.
#[test]
fn a_forged_reply_costs_one_query_not_the_zone() {
    let mut sim = remote(1).sim;
    let (client, local) = bare_client(&mut sim, PUB);
    let forged_addr = Ipv4Addr::new(6, 6, 6, 6);
    let mut forged = Message::iterative_query(31, "www.foo.com".parse().unwrap(), RrType::A).response();
    forged.answers.push(Record::a("www.foo.com".parse().unwrap(), forged_addr, 60));
    let spoof = Packet::udp(Endpoint::new(PUB, DNS_PORT), Endpoint::new(LRS_ADDR, 7777), forged.encode());
    attach_stub(&mut sim, Ipv4Addr::new(66, 6, 6, 6), [(SimTime::from_micros(1), spoof)]);
    sim.run_until(SimTime::from_millis(50));

    let stub = sim.node_ref::<Stub>(client).unwrap();
    let replies: Vec<(u16, Vec<RData>)> = stub
        .replies
        .iter()
        .map(|pkt| Message::decode(&pkt.payload).unwrap())
        .map(|m| (m.header.id, m.answers.into_iter().map(|r| r.rdata).collect()))
        .collect();
    assert_eq!(replies, [(31, vec![RData::A(forged_addr)]), (32, vec![RData::A(WWW_ADDR)])]);
    let stats = sim.node_ref::<LocalGuard>(local).unwrap().stats();
    assert_eq!((stats.grants_requested, stats.cookies_cached, stats.stamped), (2, 1, 1));
}

/// Two queries with one id, from two ports of the LRS, to one server the
/// local guard holds no cookie for: each is held under its own port, and
/// each port gets its own answer once its probe is granted.
#[test]
fn one_id_from_two_ports_is_answered_on_each() {
    let mut sim = remote(3).sim;
    let ports = [7777, 7778];
    let queries = ports.map(|port| {
        let wire = Message::iterative_query(31, "www.foo.com".parse().unwrap(), RrType::A).encode();
        (SimTime::ZERO, Packet::udp(Endpoint::new(LRS_ADDR, port), Endpoint::new(PUB, DNS_PORT), wire))
    });
    let client = attach_stub(&mut sim, Ipv4Addr::new(10, 255, 0, 1), queries);
    let local = local_guard(&mut sim, client);
    sim.run_until(SimTime::from_millis(50));

    let replies = &sim.node_ref::<Stub>(client).unwrap().replies;
    for port in ports {
        let answers: Vec<_> = replies
            .iter()
            .filter(|pkt| pkt.dst.port == port)
            .map(|pkt| Message::decode(&pkt.payload).unwrap().answers)
            .collect();
        assert_eq!(answers.len(), 1, "port {port}: one reply");
        assert_eq!(answers[0].first().map(|r| &r.rdata), Some(&RData::A(WWW_ADDR)), "port {port}");
    }
    let guard = sim.node_ref::<LocalGuard>(local).unwrap();
    assert_eq!((guard.stats().grants_requested, guard.stats().stamped), (2, 2), "each query probed and released");
}

/// The local guard holds a query behind its probe for [`HOLD`]: a grant
/// that comes within it releases the query stamped, and one that comes
/// after the sweep past it matches nothing and is dropped.
#[test]
fn a_held_query_is_released_within_its_hold_and_dropped_after() {
    let late = HOLD + SimTime::from_secs(1);
    for (grant_at, released) in [(HOLD - SimTime::from_millis(1), true), (late, false)] {
        let mut sim = Simulator::new(4);
        let me = Endpoint::new(LRS_ADDR, 7777);
        let message = Message::iterative_query(31, "www.foo.com".parse().unwrap(), RrType::A);
        let query = Packet::udp(me, Endpoint::new(PUB, DNS_PORT), message.encode());
        let client = attach_stub(&mut sim, Ipv4Addr::new(10, 255, 0, 1), [(SimTime::ZERO, query)]);
        let local = local_guard(&mut sim, client);
        // The server: a stub that sends its grant when the script says.
        let mut grant = message.response();
        cookie_ext::attach_cookie(&mut grant, COOKIE, 3_600);
        let grant = Packet::udp(Endpoint::new(PUB, DNS_PORT), me, grant.encode());
        let server = attach_stub(&mut sim, PUB, [(grant_at, grant)]);
        sim.run_until(late + SimTime::from_secs(1));

        let cookies: Vec<_> = sim.node_ref::<Stub>(server).unwrap().replies.iter()
            .map(|pkt| cookie_ext::find_cookie(&Message::decode(&pkt.payload).unwrap()).map(|c| c.cookie))
            .collect();
        let expected = if released { vec![Some([0; 16]), Some(COOKIE)] } else { vec![Some([0; 16])] };
        assert_eq!(cookies, expected, "grant at {grant_at:?}: the probe, then the release if held");
        assert!(sim.node_ref::<Stub>(client).unwrap().replies.is_empty(), "a grant is never delivered");
        let stats = sim.node_ref::<LocalGuard>(local).unwrap().stats();
        assert_eq!(stats.cookies_cached, u64::from(released));
    }
}

/// A pure grant from another address, to the held query's LRS port under
/// its id, releases nothing and leaves the query held: the forger is sent
/// nothing and the server's own grant, after it, releases the query.
#[test]
fn a_grant_from_another_address_leaves_the_query_held() {
    let mut sim = Simulator::new(5);
    let me = Endpoint::new(LRS_ADDR, 7777);
    let message = Message::iterative_query(31, "www.foo.com".parse().unwrap(), RrType::A);
    let query = Packet::udp(me, Endpoint::new(PUB, DNS_PORT), message.encode());
    let client = attach_stub(&mut sim, Ipv4Addr::new(10, 255, 0, 1), [(SimTime::ZERO, query)]);
    let local = local_guard(&mut sim, client);
    let mut grant = message.response();
    cookie_ext::attach_cookie(&mut grant, COOKIE, 3_600);
    let forger = Ipv4Addr::new(6, 6, 6, 6);
    let [forged, real] = [(forger, 1), (PUB, 2)]
        .map(|(from, ms)| (SimTime::from_millis(ms), Packet::udp(Endpoint::new(from, DNS_PORT), me, grant.encode())));
    let forger = attach_stub(&mut sim, forger, [forged]);
    let server = attach_stub(&mut sim, PUB, [real]);
    sim.run_until(SimTime::from_millis(10));

    assert!(sim.node_ref::<Stub>(forger).unwrap().replies.is_empty(), "nothing sent to the forger");
    let cookies: Vec<_> = sim.node_ref::<Stub>(server).unwrap().replies.iter()
        .map(|pkt| cookie_ext::find_cookie(&Message::decode(&pkt.payload).unwrap()).map(|c| c.cookie))
        .collect();
    assert_eq!(cookies, [Some([0; 16]), Some(COOKIE)], "the probe, then the release");
    assert!(sim.node_ref::<Stub>(client).unwrap().replies.is_empty(), "a grant is never delivered");
    let stats = sim.node_ref::<LocalGuard>(local).unwrap().stats();
    assert_eq!((stats.cookies_cached, stats.stamped), (1, 1));
}

#[test]
fn incapable_server_pass_through() {
    // No remote guard: the bare ANS at its own address ignores the
    // extension, so it answers each probe as it would the query.
    let mut sim = Simulator::new(2);
    let (_, _, foo) = paper_hierarchy();
    sim.add_node(FOO_SERVER, CpuConfig::unbounded(), AuthNode::new(FOO_SERVER, Authority::new(vec![foo])));
    let (client, local) = bare_client(&mut sim, FOO_SERVER);
    sim.run_until(SimTime::from_millis(50));
    let replies = &sim.node_ref::<Stub>(client).unwrap().replies;
    assert_eq!(replies.len(), 2, "both queries answered");
    for pkt in replies {
        assert_eq!(Message::decode(&pkt.payload).unwrap().answers[0].rdata, RData::A(WWW_ADDR));
    }
    let guard = sim.node_ref::<LocalGuard>(local).unwrap();
    assert_eq!(guard.cached_cookies(), 0);
    assert_eq!(guard.stats().grants_requested, 2, "each query probed: no verdict outlives it");
}

/// The cookie [`ScriptedGuard`] grants.
const COOKIE: [u8; 16] = [0x5C; 16];

/// The name server [`ScriptedGuard`] refers `www.foo.com` to, without glue.
const FOO_NS: &str = "ns1.foo.com";

/// A modified-DNS guard reduced to its script: it grants [`COOKIE`] to a
/// zero-cookie probe; to a query stamped with it, it answers `www.foo.com`
/// with a referral of `foo.com` to [`FOO_NS`] without glue, and any other
/// name with an address. It keeps every datagram it is sent.
#[derive(Default)]
struct ScriptedGuard {
    received: Vec<Vec<u8>>,
}

impl Node for ScriptedGuard {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.received.push(pkt.payload.clone());
        let mut query = Message::decode(&pkt.payload).unwrap();
        let ext = cookie_ext::strip_cookie(&mut query);
        let mut reply = query.response();
        let asked = query.question().unwrap().name.clone();
        match ext {
            Some(ext) if ext.is_request() => cookie_ext::attach_cookie(&mut reply, COOKIE, 3_600),
            Some(ext) if ext.cookie == COOKIE && asked == "www.foo.com".parse().unwrap() => {
                let ns = Record::ns("foo.com".parse().unwrap(), FOO_NS.parse().unwrap(), 60);
                reply.authorities.push(ns);
            }
            Some(ext) if ext.cookie == COOKIE => reply.answers.push(Record::a(asked, FOO_SERVER, 60)),
            _ => return,
        }
        ctx.send(Packet::udp(pkt.dst, pkt.src, reply.encode()));
    }
}

/// The datagrams `guard`, a [`ScriptedGuard`], was sent, their transaction
/// ids zeroed.
fn guard_wire(sim: &Simulator, guard: NodeId) -> Vec<Vec<u8>> {
    let received = &sim.node_ref::<ScriptedGuard>(guard).unwrap().received;
    received.iter().map(|wire| [&[0, 0], &wire[2..]].concat()).collect()
}

/// The three drivers of the cookie client speak one protocol: a plain
/// client behind the local guard and the simulated LRS in extension mode
/// put the same datagrams on one scripted guard's wire — probe, released
/// query, the referral's name server asked stamped, and a second query and
/// its chase stamped from the cache — but for the transaction ids each
/// client picks.
#[test]
fn the_local_guard_and_the_simulated_lrs_send_the_same_datagrams() {
    let mut local = Simulator::new(1);
    let guard = local.add_node(PUB, CpuConfig::unbounded(), ScriptedGuard::default());
    // What the LRS does, on a fixed schedule: each `www.foo.com` query is
    // referred, and the referral's name server asked next.
    let me = Endpoint::new(LRS_ADDR, 7777);
    let query = |id, name: &str, at| {
        let wire = Message::iterative_query(id, name.parse().unwrap(), RrType::A).encode();
        (SimTime::from_millis(at), Packet::udp(me, Endpoint::new(PUB, DNS_PORT), wire))
    };
    let queries = [query(31, "www.foo.com", 0), query(32, FOO_NS, 5), query(33, "www.foo.com", 10), query(34, FOO_NS, 12)];
    let client = attach_stub(&mut local, Ipv4Addr::new(10, 255, 0, 1), queries);
    local_guard(&mut local, client);
    local.run_until(SimTime::from_millis(50));
    let sent = guard_wire(&local, guard);

    let mut lrs = Simulator::new(1);
    let lrs_guard = lrs.add_node(PUB, CpuConfig::unbounded(), ScriptedGuard::default());
    // One slot, 10 ms between requests: the second is stamped at ~11 ms,
    // and the third, at ~22 ms, is past the end of the run.
    let ten = SimTime::from_millis(10);
    attach_lrs(&mut lrs, LrsParams::paced(LRS_ADDR, 1, ten, ten).with_mode(CookieMode::Extension));
    lrs.run_until(SimTime::from_millis(15));

    let cookie_of = |wire: &Vec<u8>| cookie_ext::find_cookie(&Message::decode(wire).unwrap()).map(|c| c.cookie);
    let cookies: Vec<_> = sent.iter().map(cookie_of).collect();
    let stamped = Some(COOKIE);
    assert_eq!(cookies, [Some([0; 16]), stamped, stamped, stamped, stamped], "probe, release, chase, stamped, chase");
    assert_eq!(sent, guard_wire(&lrs, lrs_guard));
}
