//! `GuardCore` on its own: no simulator, no socket, no clock but the one the
//! test hands it.
//!
//! Every scenario is written once against [`Guard`] and played twice: to a
//! bare [`GuardCore`] whose out-buffer the test drains itself, and to a
//! [`RemoteGuard`] node in a simulated world whose only other node is a tap
//! that owns the default route. What each emits and counts must be equal —
//! the simulator driver adds nothing and loses nothing.

use dnsguard::checkpoint::{FwdState, GuardCheckpoint, StashState, STASH_TTL};
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode, KEY_ROTATION_INTERVAL};
use dnsguard::guard::{GuardCore, GuardStats, Leg, Output, Outputs, RemoteGuard, WINDOW};
use dnsguard::ha::{HaConfig, REPL_INTERVAL, REPL_PORT};
use dnswire::cookie_ext;
use dnswire::framing::{frame, take_frame};
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::RrType;
use guardhash::cookie::CookieFactory;
use netsim::engine::{Context, CpuConfig, Node, NodeId, Simulator};
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::tcp::{TcpEvent, TcpHost};
use netsim::time::SimTime;
use server::authoritative::Authority;
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

const PUBLIC: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const SUBNET: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 0);
const ANS: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
const CLIENT: Endpoint = Endpoint {
    ip: Ipv4Addr::new(10, 0, 0, 9),
    port: 4242,
};

/// One-way delay of every simulated link: what the simulated guard's clock
/// reads when a packet offered at `t` reaches it is `t + LINK`.
const LINK: SimTime = SimTime::from_micros(50);
/// Time between offered packets: ample for the guard's charged CPU and both
/// link crossings, and never on a housekeeping-window boundary.
const GAP: SimTime = SimTime::from_micros(700);

/// A guard a scenario can be played to.
trait Guard {
    /// Offers `pkt` and returns what the guard sent because of it, in order.
    /// A packet whose source is the ANS address arrives on the upstream leg.
    fn offer(&mut self, pkt: Packet) -> Vec<Packet>;
    /// Lets `d` pass with nothing offered; returns what the guard sent.
    fn idle(&mut self, d: SimTime) -> Vec<Packet>;
    fn stats(&self) -> GuardStats;
    fn cookies(&self) -> CookieFactory;
    /// The newest checkpoint the driver kept.
    fn latest_checkpoint(&self) -> Option<GuardCheckpoint>;
}

/// The core, driven by hand.
struct Direct {
    core: GuardCore,
    out: Outputs,
    now: SimTime,
    next_window: SimTime,
    /// Every checkpoint the core emitted, oldest first.
    checkpoints: Vec<GuardCheckpoint>,
}

impl Direct {
    /// Advances the clock, keeping the housekeeping window a driver owes.
    fn pass(&mut self, d: SimTime) {
        self.now += d;
        while self.next_window <= self.now {
            self.core.on_window(self.next_window, &mut self.out);
            self.next_window += WINDOW;
        }
    }

    /// Advances the clock by `d` and returns what the guard sent, running
    /// only the last housekeeping window the leap spans. For a guard offered
    /// nothing and keeping no checkpoint cadence, the windows skipped would
    /// do nothing the last one does not: a week of windows is six million.
    fn leap(&mut self, d: SimTime) -> Vec<Packet> {
        self.now += d;
        self.next_window = self.next_window.max(WINDOW * (self.now.as_nanos() / WINDOW.as_nanos()));
        self.pass(SimTime::ZERO);
        self.sent()
    }

    /// The out-buffer as the packets a driver would send; checkpoints are
    /// kept aside.
    fn sent(&mut self) -> Vec<Packet> {
        let me = Endpoint::new(PUBLIC, DNS_PORT);
        let drained = self.out.drain().filter_map(|output| match output {
            Output::Packet(pkt) => Some(pkt),
            Output::ToAns(wire) => Some(Packet::udp(me, Endpoint::new(ANS, DNS_PORT), wire)),
            Output::Checkpoint(cp) => {
                self.checkpoints.push(*cp);
                None
            }
            claim => panic!("a standalone guard claimed {claim:?}"),
        });
        drained.collect()
    }
}

impl Guard for Direct {
    fn offer(&mut self, pkt: Packet) -> Vec<Packet> {
        let leg = if pkt.src.ip == ANS { Leg::Upstream } else { Leg::Client };
        self.core.handle_packet(self.now + LINK, leg, pkt, &mut self.out);
        self.pass(GAP);
        self.sent()
    }

    fn idle(&mut self, d: SimTime) -> Vec<Packet> {
        self.pass(d);
        self.sent()
    }

    fn stats(&self) -> GuardStats {
        self.core.stats()
    }

    fn cookies(&self) -> CookieFactory {
        self.core.cookie_factory().clone()
    }

    fn latest_checkpoint(&self) -> Option<GuardCheckpoint> {
        self.checkpoints.last().cloned()
    }
}

/// Keeps whatever reaches it: with the default route, everything the guard
/// sends anywhere.
#[derive(Default)]
struct Tap {
    got: Vec<Packet>,
}

impl Node for Tap {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        self.got.push(pkt);
    }
}

/// The same core behind its simulator driver.
struct Simulated {
    sim: Simulator,
    guard: NodeId,
    tap: NodeId,
}

impl Simulated {
    fn sent(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.sim.node_mut::<Tap>(self.tap).unwrap().got)
    }
}

impl Guard for Simulated {
    fn offer(&mut self, pkt: Packet) -> Vec<Packet> {
        self.sim.inject(self.tap, pkt);
        self.idle(GAP)
    }

    fn idle(&mut self, d: SimTime) -> Vec<Packet> {
        self.sim.run_for(d);
        self.sent()
    }

    fn stats(&self) -> GuardStats {
        self.sim.node_ref::<RemoteGuard>(self.guard).unwrap().stats()
    }

    fn cookies(&self) -> CookieFactory {
        self.sim.node_ref::<RemoteGuard>(self.guard).unwrap().cookie_factory().clone()
    }

    fn latest_checkpoint(&self) -> Option<GuardCheckpoint> {
        self.sim.node_ref::<RemoteGuard>(self.guard).unwrap().latest_checkpoint().cloned()
    }
}

/// Which zone the protected ANS serves: under the root a query for
/// `www.foo.com` is a referral, under `foo.com` it is answered.
#[derive(Clone, Copy)]
enum Zone {
    Root,
    Foo,
}

fn parts(mode: SchemeMode, zone: Zone) -> (GuardConfig, AuthorityClassifier) {
    let (root, _, foo_com) = paper_hierarchy();
    let zone = match zone {
        Zone::Root => root,
        Zone::Foo => foo_com,
    };
    let config = GuardConfig {
        subnet_base: SUBNET,
        ..GuardConfig::new(PUBLIC, ANS)
    }
    .with_mode(mode);
    (config, AuthorityClassifier::new(Authority::new(vec![zone])))
}

fn direct(mode: SchemeMode, zone: Zone) -> Direct {
    let (config, classifier) = parts(mode, zone);
    direct_with(config, classifier)
}

fn direct_with(config: GuardConfig, classifier: AuthorityClassifier) -> Direct {
    Direct {
        core: GuardCore::new(config, classifier),
        out: Outputs::default(),
        now: SimTime::ZERO,
        next_window: WINDOW,
        checkpoints: Vec::new(),
    }
}

fn simulated(mode: SchemeMode, zone: Zone) -> Simulated {
    let (config, classifier) = parts(mode, zone);
    simulated_with(config, classifier)
}

fn simulated_with(config: GuardConfig, classifier: AuthorityClassifier) -> Simulated {
    let mut sim = Simulator::new(7);
    sim.set_default_delay(LINK);
    let guard = sim.add_node(PUBLIC, CpuConfig::unbounded(), RemoteGuard::new(config, classifier));
    sim.add_subnet(SUBNET, 24, guard);
    let tap = sim.add_node(Ipv4Addr::new(192, 0, 2, 1), CpuConfig::unbounded(), Tap::default());
    sim.add_subnet(Ipv4Addr::UNSPECIFIED, 0, tap);
    Simulated { sim, guard, tap }
}

/// The bytes of the newest checkpoint `guard`'s driver kept.
fn kept(guard: &dyn Guard) -> Option<Vec<u8>> {
    guard.latest_checkpoint().map(|cp| cp.encode())
}

/// Plays `scenario` to both guards; the transcript (everything sent, in
/// order), the counters and the checkpoint kept must agree. Returns the
/// transcript and counters for the scenario's own assertions.
fn same_on_both(
    mode: SchemeMode,
    zone: Zone,
    scenario: impl Fn(&mut dyn Guard) -> Vec<Packet>,
) -> (Vec<Packet>, GuardStats) {
    let (mut core, mut node) = (direct(mode, zone), simulated(mode, zone));
    let (by_core, by_node) = (scenario(&mut core), scenario(&mut node));
    assert_eq!(by_core, by_node, "the two drivers sent different packets");
    assert_eq!(core.stats(), node.stats(), "the two drivers counted differently");
    assert_eq!(kept(&core), kept(&node), "the two drivers kept different checkpoints");
    let stats = core.stats();
    assert_eq!(stats.disposition_total(), stats.udp_datagrams);
    (by_core, stats)
}

fn name(text: &str) -> Name {
    text.parse().unwrap()
}

fn from(src: Endpoint, dst: Ipv4Addr, msg: &Message) -> Packet {
    Packet::udp(src, Endpoint::new(dst, DNS_PORT), msg.encode())
}

fn query(id: u16, qname: &str) -> Message {
    Message::iterative_query(id, name(qname), RrType::A)
}

/// The ANS's answer to what the guard forwarded in `forward`.
fn ans_answers(forward: &Packet, records: &[Record]) -> Packet {
    assert_eq!(forward.dst, Endpoint::new(ANS, DNS_PORT), "not a forward: {forward:?}");
    let mut resp = Message::decode(&forward.payload).unwrap().response();
    resp.answers.extend_from_slice(records);
    Packet::udp(forward.dst, forward.src, resp.encode())
}

/// One of each way a datagram is dropped, whatever the scheme: bytes that
/// are not DNS, a response from somewhere that is not the ANS, an ANS
/// response to nothing the guard asked, a forged extension cookie, a wrong
/// `COOKIE2` address, and one source's plain queries past Rate-Limiter1.
fn every_drop(guard: &mut dyn Guard, sent: &mut Vec<Packet>) {
    let stranger = Endpoint::new(Ipv4Addr::new(203, 0, 113, 5), 999);
    let mut response = query(77, "www.foo.com");
    response.header.response = true;
    let mut forged = query(78, "www.foo.com");
    cookie_ext::attach_cookie(&mut forged, [0xAB; 16], 0);
    // One address of the 253 is the stranger's `COOKIE2`; this is not it.
    let wrong_cookie2 = Ipv4Addr::new(198, 41, 0, 200);
    let drops = [
        Packet::udp(stranger, Endpoint::new(PUBLIC, DNS_PORT), vec![0xFF; 9]),
        from(stranger, PUBLIC, &response),
        from(Endpoint::new(ANS, DNS_PORT), PUBLIC, &response),
        from(stranger, PUBLIC, &forged),
        from(stranger, wrong_cookie2, &query(79, "www.foo.com")),
    ];
    for pkt in drops {
        sent.extend(guard.offer(pkt));
    }
    for id in 0..14 {
        sent.extend(guard.offer(from(stranger, PUBLIC, &query(100 + id, "www.foo.com"))));
    }
}

#[test]
fn modified_dns_scheme_is_the_same_on_both_drivers() {
    let real = Record::a(name("www.foo.com"), Ipv4Addr::new(192, 0, 2, 80), 60);
    let (sent, stats) = same_on_both(SchemeMode::ModifiedOnly, Zone::Foo, |guard| {
        let mut sent = Vec::new();
        // First contact: the question back, with a cookie.
        let grant = guard.offer(from(CLIENT, PUBLIC, &query(1, "www.foo.com")));
        let granted = cookie_ext::find_cookie(&Message::decode(&grant[0].payload).unwrap());
        let mut verified = query(2, "www.foo.com");
        cookie_ext::attach_cookie(&mut verified, granted.unwrap().cookie, 0);
        // Verified query → forward → the ANS answers → relay.
        let forward = guard.offer(from(CLIENT, PUBLIC, &verified));
        let relay = guard.offer(ans_answers(&forward[0], std::slice::from_ref(&real)));
        sent.extend([grant, forward, relay].concat());
        every_drop(guard, &mut sent);
        sent.extend(guard.idle(WINDOW));
        sent
    });
    let relay = Message::decode(&sent[2].payload).unwrap();
    assert_eq!((sent[2].dst, relay.header.id), (CLIENT, 2));
    assert_eq!(relay.answers, std::slice::from_ref(&real));
    assert_eq!((stats.grants_sent, stats.ext_valid, stats.relayed_responses), (11, 1, 1));
    assert_eq!((stats.unparseable, stats.resp_foreign, stats.resp_unmatched), (1, 1, 1));
    assert_eq!((stats.ext_invalid, stats.cookie2_invalid), (1, 1));
    assert!(stats.rl1_dropped >= 1, "{stats:?}");
}

#[test]
fn ns_name_scheme_is_the_same_on_both_drivers() {
    let glue = Record::a(name("a.gtld-servers.net"), Ipv4Addr::new(192, 5, 6, 30), 60);
    let (sent, stats) = same_on_both(SchemeMode::DnsBased, Zone::Root, |guard| {
        let mut sent = Vec::new();
        // First contact: a referral to a name that carries the cookie.
        let referral = guard.offer(from(CLIENT, PUBLIC, &query(1, "www.foo.com")));
        let fabricated = Message::decode(&referral[0].payload).unwrap();
        let RData::Ns(cookie_name) = &fabricated.authorities[0].rdata else {
            panic!("no NS in {fabricated}");
        };
        // The requester resolves that name: verified, restored, forwarded;
        // the ANS's referral comes back as the cookie name's address.
        let ask = Message::iterative_query(2, cookie_name.clone(), RrType::A);
        let forward = guard.offer(from(CLIENT, PUBLIC, &ask));
        let restored = Message::decode(&forward[0].payload).unwrap();
        assert_eq!(restored.questions[0].name, name("com"));
        let relay = guard.offer(ans_answers(&forward[0], std::slice::from_ref(&glue)));
        // A forged cookie label is dropped.
        let forged = guard.offer(from(CLIENT, PUBLIC, &query(3, "PR00000000com")));
        sent.extend([referral, forward, relay, forged].concat());
        every_drop(guard, &mut sent);
        sent
    });
    let relay = Message::decode(&sent[2].payload).unwrap();
    assert_eq!((sent[2].dst, relay.header.id), (CLIENT, 2));
    assert_eq!(relay.answers[0].rdata, glue.rdata);
    assert_eq!((stats.fabricated_ns_sent, stats.ns_cookie_valid, stats.ns_cookie_invalid), (11, 1, 1));
    assert_eq!(stats.relayed_responses, 1);
}

#[test]
fn fabricated_ns_ip_scheme_is_the_same_on_both_drivers() {
    let real = Record::a(name("www.foo.com"), Ipv4Addr::new(192, 0, 2, 80), 60);
    let (sent, stats) = same_on_both(SchemeMode::DnsBased, Zone::Foo, |guard| {
        let referral = guard.offer(from(CLIENT, PUBLIC, &query(1, "www.foo.com")));
        let fabricated = Message::decode(&referral[0].payload).unwrap();
        let RData::Ns(cookie_name) = &fabricated.authorities[0].rdata else {
            panic!("no NS in {fabricated}");
        };
        // The cookie name's query is forwarded as the original; the real
        // answer is stashed and the requester is sent to `COOKIE2`.
        let ask = Message::iterative_query(2, cookie_name.clone(), RrType::A);
        let forward = guard.offer(from(CLIENT, PUBLIC, &ask));
        let redirect = guard.offer(ans_answers(&forward[0], std::slice::from_ref(&real)));
        let RData::A(cookie2) = Message::decode(&redirect[0].payload).unwrap().answers[0].rdata else {
            panic!("no COOKIE2 address");
        };
        // Asking there is the third verification; the stash answers.
        let served = guard.offer(from(CLIENT, cookie2, &query(3, "www.foo.com")));
        [referral, forward, redirect, served].concat()
    });
    let served = Message::decode(&sent[3].payload).unwrap();
    assert_eq!((sent[3].dst, served.header.id), (CLIENT, 3));
    assert_eq!(served.answers, std::slice::from_ref(&real));
    assert_eq!((stats.cookie2_valid, stats.stash_hits, stats.forwarded), (1, 1, 1));
}

#[test]
fn tcp_scheme_is_the_same_on_both_drivers() {
    let real = Record::a(name("www.foo.com"), Ipv4Addr::new(192, 0, 2, 80), 60);
    let (_, stats) = same_on_both(SchemeMode::TcpBased, Zone::Foo, |guard| {
        // First contact: come back over TCP.
        let mut sent = guard.offer(from(CLIENT, PUBLIC, &query(1, "www.foo.com")));
        assert!(Message::decode(&sent[0].payload).unwrap().header.truncated);
        // The requester does: handshake with the proxy, one framed query.
        let mut tcp = TcpHost::new(8);
        let (key, syn) = tcp.connect(CLIENT, Endpoint::new(PUBLIC, DNS_PORT));
        let mut to_guard = vec![syn];
        let mut framed = frame(&query(2, "www.foo.com").encode());
        let mut answer = None;
        while let Some(pkt) = to_guard.pop() {
            for reply in guard.offer(pkt) {
                sent.push(reply.clone());
                if reply.proto == Proto::Udp {
                    // The proxied query on its way to the ANS.
                    to_guard.push(ans_answers(&reply, std::slice::from_ref(&real)));
                    continue;
                }
                for event in tcp.on_segment(&reply, &mut to_guard) {
                    if let TcpEvent::Data(_, mut bytes) = event {
                        answer = take_frame(&mut bytes).map(|m| Message::decode(&m).unwrap());
                    }
                }
            }
            if tcp.is_established(&key) {
                to_guard.extend(framed.take().and_then(|framed| tcp.send(key, framed)));
            }
        }
        let answer = answer.expect("an answer over TCP");
        assert_eq!(answer.answers, std::slice::from_ref(&real));
        assert_eq!(answer.header.id, 2, "the id the client sent, not the one the guard forwarded under");
        sent
    });
    assert_eq!((stats.tc_sent, stats.forwarded, stats.relayed_responses), (1, 1, 1));
}

/// The forward table is matched on id *and* question, and looked at before
/// it is touched: an answer from the ANS address under the right id but to
/// another question is not relayed and does not use the entry up.
#[test]
fn right_id_wrong_question_is_not_relayed_and_the_real_answer_still_is() {
    let mut guard = direct(SchemeMode::ModifiedOnly, Zone::Foo);
    let mut verified = query(0x5151, "wWw.Foo.com");
    cookie_ext::attach_cookie(&mut verified, guard.cookies().generate(CLIENT.ip).0, 0);
    let forward = guard.offer(from(CLIENT, PUBLIC, &verified));
    let asked = Message::decode(&forward[0].payload).unwrap();

    let answer = |qname: &str, addr: Ipv4Addr| {
        let mut resp = Message::query(asked.header.id, name(qname), RrType::A).response();
        resp.answers.push(Record::a(name(qname), addr, 60));
        Packet::udp(forward[0].dst, forward[0].src, resp.encode())
    };
    let poisoned = guard.offer(answer("evil.foo.com", Ipv4Addr::new(6, 6, 6, 6)));
    assert!(poisoned.is_empty(), "relayed {poisoned:?}");
    assert_eq!((guard.stats().resp_unmatched, guard.stats().relayed_responses), (1, 0));

    // Names compare without case, so does the match.
    let relayed = guard.offer(answer("www.foo.COM", Ipv4Addr::new(2, 2, 2, 2)));
    let resp = Message::decode(&relayed[0].payload).unwrap();
    assert_eq!((relayed[0].dst, resp.header.id), (CLIENT, 0x5151));
    assert_eq!(resp.answers[0].rdata, RData::A(Ipv4Addr::new(2, 2, 2, 2)));
    let again = guard.offer(answer("www.foo.com", Ipv4Addr::new(2, 2, 2, 2)));
    assert!(again.is_empty(), "one forward, one relay");
    assert_eq!((guard.stats().resp_unmatched, guard.stats().relayed_responses), (2, 1));
}

/// ANS health is counted on a matched response only. A response-flagged
/// datagram from the ANS address under an id or a question the guard never
/// forwarded — all an off-path spoofer of that address can send — leaves a
/// guard that its expired forwards drove down where it is; the answer to the
/// guard's own probe brings it back.
#[test]
fn an_unmatched_upstream_response_does_not_recover_a_down_ans() {
    let (mut config, classifier) = parts(SchemeMode::ModifiedOnly, Zone::Foo);
    config.ans_timeout = SimTime::from_millis(20);
    config.ans_failure_threshold = 2;
    let mut guard = direct_with(config, classifier);
    let obs = obs::Obs::new();
    obs.tracer.set_default_level(obs::trace::Level::Info);
    guard.core.attach_obs(&obs);
    let recovered = |obs: &obs::Obs| obs.tracer.drain().0.iter().any(|e| e.kind == "ans_recovered");

    // Two verified forwards nothing answers; the next window expires both,
    // declares the ANS down and probes it.
    for id in [1, 2] {
        let mut verified = query(id, "www.foo.com");
        cookie_ext::attach_cookie(&mut verified, guard.cookies().generate(CLIENT.ip).0, 0);
        assert_eq!(guard.offer(from(CLIENT, PUBLIC, &verified)).len(), 1, "forwarded");
    }
    let probe = guard.idle(WINDOW);
    assert_eq!((guard.stats().ans_down_events, guard.stats().ans_probes, probe.len()), (1, 1, 1));

    // Right address, an id and a question of nobody's.
    let mut stray = query(0x0BAD, "nobody.asked.this").response();
    stray.answers.push(Record::a(name("nobody.asked.this"), Ipv4Addr::new(6, 6, 6, 6), 60));
    let unmatched = guard.stats().resp_unmatched;
    assert!(guard.offer(from(Endpoint::new(ANS, DNS_PORT), PUBLIC, &stray)).is_empty());
    assert_eq!(guard.stats().resp_unmatched, unmatched + 1);
    assert_eq!(guard.stats().ans_recoveries, 0, "an unmatched response proves nothing");
    assert!(!recovered(&obs));

    assert!(guard.offer(ans_answers(&probe[0], &[])).is_empty(), "a probe's answer goes nowhere");
    assert_eq!(guard.stats().ans_recoveries, 1);
    assert!(recovered(&obs));
}

/// An off-path forger of the ANS's answers has seen one forward's id and
/// knows what the next verified client asks. While that client's forward is
/// in flight it answers from the ANS address under each of the 256 ids
/// after the one it saw. Sequential ids would put the forward among them;
/// the keyed ids do not, so nothing forged is relayed, and the ANS's own
/// answer still is.
#[test]
fn a_forger_racing_the_next_ids_from_the_ans_address_relays_nothing() {
    let mut guard = direct(SchemeMode::ModifiedOnly, Zone::Foo);
    let seen = guard.offer(verified_by(&guard, CLIENT));
    let seen = Message::decode(&seen[0].payload).unwrap().header.id;
    let victim = Endpoint::new(Ipv4Addr::new(10, 0, 0, 10), 5_353);
    let forward = guard.offer(verified_by(&guard, victim));

    let unmatched = guard.stats().resp_unmatched;
    for guess in 1..=256 {
        let mut forged = query(seen.wrapping_add(guess), "www.foo.com").response();
        forged.answers.push(Record::a(name("www.foo.com"), Ipv4Addr::new(6, 6, 6, 6), 60));
        let relayed = guard.offer(from(Endpoint::new(ANS, DNS_PORT), PUBLIC, &forged));
        assert!(relayed.is_empty(), "the guess {guess} after the seen id was relayed: {relayed:?}");
    }
    assert_eq!(guard.stats().resp_unmatched, unmatched + 256);

    let real = Record::a(name("www.foo.com"), Ipv4Addr::new(192, 0, 2, 80), 60);
    let relayed = guard.offer(ans_answers(&forward[0], std::slice::from_ref(&real)));
    let answer = Message::decode(&relayed[0].payload).unwrap();
    assert_eq!((relayed[0].dst, answer.answers), (victim, vec![real]));
}

/// A verified query from `client` carrying the extension cookie `guard`
/// issues it now.
fn verified_by(guard: &Direct, client: Endpoint) -> Packet {
    let mut verified = query(1, "www.foo.com");
    cookie_ext::attach_cookie(&mut verified, guard.cookies().generate(client.ip).0, 0);
    from(client, PUBLIC, &verified)
}

/// A cookie the guard has verified (and so memoized) stops verifying the
/// moment a checkpoint installs a generation two past the one that issued
/// it. A memo that outlived the key change would still accept it.
#[test]
fn a_memoized_cookie_dies_when_a_checkpoint_installs_generation_2() {
    let mut guard = direct(SchemeMode::ModifiedOnly, Zone::Foo);
    let pkt = verified_by(&guard, CLIENT);
    for _ in 0..2 {
        assert_eq!(guard.offer(pkt.clone()).len(), 1, "verified and forwarded");
    }
    let checkpoint = GuardCheckpoint { key_generation: 2, ..guard.core.checkpoint(guard.now) };
    guard.core.apply_checkpoint(&checkpoint, guard.now);
    assert_eq!(guard.cookies().generation(), 2);
    assert!(guard.offer(pkt).is_empty(), "a cookie of generation 0 was forwarded");
    let stats = guard.stats();
    assert_eq!((stats.ext_valid, stats.ext_invalid, stats.forwarded), (2, 1, 2));
}

/// A memoized cookie lives exactly as long as the factory's verdict: it is
/// accepted through one rotation's grace window and rejected after the
/// second — whether it was memoized before the first rotation or, first
/// presented in the grace window, after it. (A memo that trusted an entry
/// for one generation past the one that verified it would accept the late
/// one at generation 2.)
#[test]
fn a_memoized_cookie_survives_one_rotation_and_not_two() {
    let mut guard = direct(SchemeMode::ModifiedOnly, Zone::Foo);
    let late = Endpoint::new(Ipv4Addr::new(10, 0, 0, 10), 4242);
    let (early, late) = (verified_by(&guard, CLIENT), verified_by(&guard, late));
    let mut forwarded = Vec::new();
    for generation in 0..3 {
        let mut offer = |pkt: &Packet| (0..2).map(|_| guard.offer(pkt.clone()).len()).sum::<usize>();
        let early = offer(&early);
        forwarded.push((early, if generation == 0 { 0 } else { offer(&late) }));
        guard.core.rotate_key();
    }
    assert_eq!(forwarded, [(2, 0), (2, 2), (0, 0)], "generation 0, 1 (grace), 2");
    let stats = guard.stats();
    assert_eq!((stats.ext_valid, stats.ext_invalid), (6, 4));
}

/// Scheduled rotation is weekly (section III.E): none a window before the
/// week, one at it, and the next a week after that.
#[test]
fn the_key_rotates_once_a_week() {
    let mut guard = direct(SchemeMode::ModifiedOnly, Zone::Foo);
    let mut generations = Vec::new();
    for _ in 0..2 {
        assert!(guard.leap(KEY_ROTATION_INTERVAL - WINDOW).is_empty());
        generations.push(guard.cookies().generation());
        assert!(guard.leap(WINDOW).is_empty());
        generations.push(guard.cookies().generation());
    }
    assert_eq!(generations, [0, 1, 1, 2]);
}

/// A cookie outlives one weekly rotation, in the generation bit's grace
/// window, and not two.
#[test]
fn a_cookie_outlives_one_weekly_rotation_and_not_two() {
    let mut guard = direct(SchemeMode::ModifiedOnly, Zone::Foo);
    let pkt = verified_by(&guard, CLIENT);
    let mut forwarded = Vec::new();
    for _ in 0..3 {
        forwarded.push(guard.offer(pkt.clone()).len());
        assert!(guard.leap(KEY_ROTATION_INTERVAL).is_empty());
    }
    assert_eq!(forwarded, [1, 1, 0], "generation 0, 1 (grace), 2");
    assert_eq!(guard.cookies().generation(), 3);
    let stats = guard.stats();
    assert_eq!((stats.ext_valid, stats.ext_invalid), (2, 1));
}

/// Two fleet sites built from one config share its `key_seed` and nothing
/// else: no datagram passes between them. Each rotates on its own weekly
/// schedule and on an operator's `rotate_key` applied to both, and each
/// accepts the cookies the other issues at every step.
#[test]
fn fleet_sites_sharing_a_seed_accept_each_others_cookies_without_a_message() {
    let mut sites = [direct(SchemeMode::ModifiedOnly, Zone::Foo), direct(SchemeMode::ModifiedOnly, Zone::Foo)];
    let other = Endpoint::new(Ipv4Addr::new(10, 0, 0, 10), 4242);
    let mut generations = Vec::new();
    for step in 0..4 {
        for site in &mut sites {
            match step {
                0 => {}
                1 | 2 => assert!(site.leap(KEY_ROTATION_INTERVAL).is_empty()),
                _ => site.core.rotate_key(),
            }
        }
        let [a, b] = &mut sites;
        let (to_b, to_a) = (verified_by(a, CLIENT), verified_by(b, other));
        assert_eq!(b.offer(to_b).len(), 1, "step {step}: site A's cookie at site B");
        assert_eq!(a.offer(to_a).len(), 1, "step {step}: site B's cookie at site A");
        generations.push([a.cookies().generation(), b.cookies().generation()]);
    }
    assert_eq!(generations, [[0, 0], [1, 1], [2, 2], [3, 3]]);
    assert!(sites.iter().all(|site| site.stats().ext_invalid == 0));
}

/// The `evict` events of `table` traced since the last drain, as the value
/// of their `field`.
fn evictions(obs: &obs::Obs, table: &'static str, field: &str) -> Vec<obs::trace::Value> {
    let (events, dropped) = obs.tracer.drain();
    assert_eq!(dropped, 0, "the trace ring overflowed");
    let of_table = events.iter().filter(|e| {
        e.kind == "evict" && e.field("table") == Some(obs::trace::Value::Str(table))
    });
    of_table.map(|e| e.field(field).expect("an evict event names what went")).collect()
}

/// A transaction id that comes round while its forward is still waiting
/// overwrites it. That is traced as an eviction and counted beside the
/// registry, not in it.
#[test]
fn a_forward_overwritten_by_id_reuse_is_traced_and_counted() {
    let (mut config, classifier) = parts(SchemeMode::ModifiedOnly, Zone::Foo);
    // Room and patience for every id at once; nothing answers.
    config.fwd_bytes_max = usize::MAX;
    config.ans_timeout = SimTime::from_secs(3_600);
    let mut core = GuardCore::new(config, classifier);
    let obs = obs::Obs::new();
    obs.tracer.set_default_level(obs::trace::Level::Info);
    core.attach_obs(&obs);
    let mut verified = query(7, "www.foo.com");
    cookie_ext::attach_cookie(&mut verified, core.cookie_factory().generate(CLIENT.ip).0, 0);
    let pkt = from(CLIENT, PUBLIC, &verified);

    let mut out = Outputs::default();
    let (mut wire_ids, mut overwritten) = (Vec::new(), Vec::new());
    for n in 0..=u64::from(u16::MAX) {
        core.handle_packet(SimTime::from_micros(100 * n), Leg::Client, pkt.clone(), &mut out);
        for output in out.drain() {
            if let Output::ToAns(wire) = output {
                wire_ids.push(u16::from_be_bytes([wire[0], wire[1]]));
            }
        }
        if n % 1_024 == 0 || n == u64::from(u16::MAX) {
            overwritten.extend(evictions(&obs, "fwd", "txid"));
        }
    }
    // Every id was in flight when the 65 536th forward took the first one's
    // again; the event names it as the ANS saw it.
    assert_eq!(core.stats().forwarded, 65_536);
    assert_eq!(wire_ids.first(), wire_ids.last());
    assert_eq!(overwritten, [obs::trace::Value::U64(u64::from(wire_ids[0]))]);
    assert_eq!(core.lossy_evictions(), (0, 0, 1));
    assert_eq!(core.stats().fwd_evicted, 0, "not the byte bound's doing");
    assert_eq!(core.table_bytes(), 65_535 * 88);
}

/// More unrefilled Rate-Limiter1 buckets than their sets hold: each source
/// forgotten early is traced by address and counted.
#[test]
fn a_lossy_limiter_eviction_is_traced_and_counted() {
    let (mut config, classifier) = parts(SchemeMode::TcpBased, Zone::Foo);
    config.rl1_global_rate = 1e12;
    config.rl1_per_source_rate = 1.0; // a spent token takes a second to return
    let mut core = GuardCore::new(config, classifier);
    let obs = obs::Obs::new();
    obs.tracer.set_default_level(obs::trace::Level::Info);
    core.attach_obs(&obs);

    let mut out = Outputs::default();
    let sprayed = |n: u32| Ipv4Addr::from(0x2D00_0000 + n);
    for n in 0..6_000u32 {
        let src = Endpoint::new(sprayed(n), 5_353);
        let now = SimTime::from_micros(50 * u64::from(n));
        core.handle_packet(now, Leg::Client, from(src, PUBLIC, &query(9, "www.foo.com")), &mut out);
        out.drain();
    }
    assert_eq!(core.stats().tc_sent, 6_000, "every sprayed source was answered");
    let forgotten = evictions(&obs, "rl1", "src");
    let (rl1, rl2, fwd) = core.lossy_evictions();
    assert!(rl1 > 0, "6 000 unrefilled buckets overflow some of 1 024 three-bucket sets");
    assert_eq!((forgotten.len() as u64, rl2, fwd), (rl1, 0, 0));
    for src in forgotten {
        let obs::trace::Value::Ip(src) = src else {
            panic!("an rl1 eviction names {src:?}");
        };
        assert!((0..6_000).any(|n| sprayed(n) == src), "{src} was never admitted");
    }
}

/// The extension-cookie guard of `foo.com`, configured by `tweak`, behind
/// each driver.
fn both_with(tweak: impl Fn(&mut GuardConfig)) -> (Direct, Simulated) {
    let (mut config, classifier) = parts(SchemeMode::ModifiedOnly, Zone::Foo);
    tweak(&mut config);
    (direct_with(config.clone(), classifier.clone()), simulated_with(config, classifier))
}

/// A checkpoint is an output. With a cadence of one window the guard emits
/// one snapshot per window, numbered 1, 2, 3, … and taken at the window's
/// instant, and counts each; the simulator driver keeps the newest, and it
/// is the last one the bare core emitted, byte for byte.
#[test]
fn a_checkpoint_cadence_emits_snapshots_that_both_drivers_keep() {
    let (mut core, mut node) = both_with(|c| c.checkpoint_interval = Some(WINDOW));
    for guard in [&mut core as &mut dyn Guard, &mut node] {
        // A forward nobody answers, so every snapshot holds a table entry.
        let mut verified = query(1, "www.foo.com");
        cookie_ext::attach_cookie(&mut verified, guard.cookies().generate(CLIENT.ip).0, 0);
        assert_eq!(guard.offer(from(CLIENT, PUBLIC, &verified)).len(), 1, "forwarded");
        assert!(guard.idle(WINDOW * 4).is_empty(), "a checkpoint is not a packet");
    }
    let emitted: Vec<_> = core.checkpoints.iter().map(|cp| (cp.seq, cp.taken_at_nanos)).collect();
    let windows: Vec<_> = (1..=4).map(|n| (n, n * WINDOW.as_nanos())).collect();
    assert_eq!(emitted, windows);
    assert_eq!((core.stats().checkpoints_taken, node.stats().checkpoints_taken), (4, 4));
    assert_eq!(core.stats(), node.stats());
    assert_eq!(core.checkpoints[3].fwd.len(), 1, "the unanswered forward is in the snapshot");
    assert_eq!(kept(&node), Some(core.checkpoints[3].encode()));
}

/// With no cadence a guard emits no checkpoint and its staleness gauge
/// stays 0, so `checkpoint_lag` cannot fire. An HA standby emits none even
/// with a cadence while it waits (its state ages off heartbeats); once
/// promoted it checkpoints like any primary, one cadence after the
/// takeover.
#[test]
fn no_cadence_or_a_waiting_standby_emits_no_checkpoint() {
    let (mut core, mut node) = both_with(|_| {});
    let (core_obs, node_obs) = (obs::Obs::new(), obs::Obs::new());
    core.core.attach_obs(&core_obs);
    node.sim.node_mut::<RemoteGuard>(node.guard).unwrap().attach_obs(&node_obs);
    for guard in [&mut core as &mut dyn Guard, &mut node] {
        assert!(guard.idle(SimTime::from_millis(450)).is_empty());
        assert_eq!((kept(guard), guard.stats().checkpoints_taken), (None, 0));
    }
    let age_gauge = |bundle: &obs::Obs| {
        let age = bundle.registry.snapshot().into_iter().filter(|s| s.name == "checkpoint_age_nanos");
        age.map(|s| s.value).collect::<Vec<_>>()
    };
    for bundle in [&core_obs, &node_obs] {
        assert_eq!(age_gauge(bundle), [obs::metrics::SampleValue::Gauge(0)]);
    }

    // The bare core ticks replication only when told to: until then, this
    // standby waits.
    let (mut config, classifier) = parts(SchemeMode::ModifiedOnly, Zone::Foo);
    config.ha = Some(HaConfig::standby(PUBLIC, Ipv4Addr::new(10, 50, 0, 1)));
    config.checkpoint_interval = Some(WINDOW);
    let mut standby = direct_with(config, classifier);
    let standby_obs = obs::Obs::new();
    standby.core.attach_obs(&standby_obs);
    assert!(standby.idle(WINDOW * 4).is_empty());
    assert_eq!((kept(&standby), standby.stats().checkpoints_taken), (None, 0));
    assert_eq!(age_gauge(&standby_obs), [obs::metrics::SampleValue::Gauge(0)]);
    // Three silent replication ticks promote it at 460 ms.
    for _ in 0..3 {
        assert!(standby.idle(REPL_INTERVAL).is_empty());
        standby.core.on_ha_tick(standby.now, &mut standby.out);
    }
    let claims: Vec<_> = standby.out.drain().collect();
    assert!(matches!(claims[..], [Output::ClaimAddress(PUBLIC), Output::ClaimSubnet(SUBNET, 24)]), "{claims:?}");
    assert!(standby.idle(WINDOW * 2).is_empty());
    let taken: Vec<_> = standby.checkpoints.iter().map(|cp| cp.taken_at_nanos).collect();
    assert_eq!(taken, [SimTime::from_millis(600).as_nanos()], "the 500 ms window is too soon after");
}

const REPL_PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 1);
const REPL_STANDBY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 2);

/// An HA pair of bare cores in front of `foo.com` under the DNS-based
/// scheme. Clients are played to the primary; [`Pair::tick`] runs it to its
/// next replication tick and hands the standby what it sent.
struct Pair {
    primary: Direct,
    standby: Direct,
}

impl Pair {
    fn new() -> Pair {
        let (config, classifier) = parts(SchemeMode::DnsBased, Zone::Foo);
        let side = |ha| direct_with(GuardConfig { ha: Some(ha), ..config.clone() }, classifier.clone());
        Pair {
            primary: side(HaConfig::primary(REPL_PRIMARY, REPL_STANDBY)),
            standby: side(HaConfig::standby(REPL_STANDBY, REPL_PRIMARY)),
        }
    }

    /// Runs the primary to its next replication tick and delivers every
    /// replication packet it sends there to the standby one link later;
    /// returns when that was.
    fn tick(&mut self) -> SimTime {
        let interval = REPL_INTERVAL.as_nanos();
        let due = SimTime::from_nanos((self.primary.now.as_nanos() / interval + 1) * interval);
        self.primary.idle(due - self.primary.now);
        self.primary.core.on_ha_tick(due, &mut self.primary.out);
        let sent = self.primary.sent();
        assert!(!sent.is_empty() && sent.iter().all(|p| p.dst == Endpoint::new(REPL_STANDBY, REPL_PORT)));
        let at = due + LINK;
        self.standby.idle(at - self.standby.now);
        for pkt in sent {
            self.standby.core.handle_packet(at, Leg::Client, pkt, &mut self.standby.out);
        }
        assert!(self.standby.sent().is_empty(), "a standby sends its primary nothing");
        at
    }
}

/// What a standby must hold to take over: the key generation, the forwards, the
/// stash, the allocators and whether detection is engaged.
type Held = (u64, Vec<FwdState>, Vec<StashState>, u16, u64, bool);

fn held(guard: &Direct) -> Held {
    let cp = guard.core.checkpoint(guard.now);
    (cp.key_generation, cp.fwd, cp.stash, cp.next_txid, cp.next_qid, cp.active)
}

/// `src`'s first contact under `id`: the cookie name it is referred to.
fn referred(guard: &mut Direct, src: Endpoint, id: u16) -> Name {
    let referral = guard.offer(from(src, PUBLIC, &query(id, "www.foo.com")));
    let fabricated = Message::decode(&referral[0].payload).unwrap();
    let RData::Ns(cookie_name) = &fabricated.authorities[0].rdata else {
        panic!("no NS in {fabricated}");
    };
    cookie_name.clone()
}

/// `src` resolves `cookie_name` under `id`: verified and forwarded.
fn verified_forward(guard: &mut Direct, src: Endpoint, cookie_name: &Name, id: u16) -> Vec<Packet> {
    guard.offer(from(src, PUBLIC, &Message::iterative_query(id, cookie_name.clone(), RrType::A)))
}

/// The ANS answers `forward`: the guard stashes the real answer and sends
/// the requester to the `COOKIE2` address this returns.
fn stashed(guard: &mut Direct, forward: &Packet) -> Ipv4Addr {
    let real = Record::a(name("www.foo.com"), Ipv4Addr::new(192, 0, 2, 80), 60);
    let redirect = guard.offer(ans_answers(forward, &[real]));
    let RData::A(cookie2) = Message::decode(&redirect[0].payload).unwrap().answers[0].rdata else {
        panic!("no COOKIE2 address");
    };
    cookie2
}

/// A `COOKIE2` stash entry served and issued again inside one replication
/// interval is on the standby after the tick, as it is on the primary.
#[test]
fn a_stash_entry_served_and_reissued_within_a_tick_reaches_the_standby() {
    let mut pair = Pair::new();
    pair.tick();
    let guard = &mut pair.primary;
    let cookie_name = referred(guard, CLIENT, 1);
    let forward = verified_forward(guard, CLIENT, &cookie_name, 2);
    let cookie2 = stashed(guard, &forward[0]);
    assert_eq!(guard.offer(from(CLIENT, cookie2, &query(3, "www.foo.com"))).len(), 1, "served");
    let forward = verified_forward(guard, CLIENT, &cookie_name, 4);
    assert_eq!(stashed(guard, &forward[0]), cookie2, "issued again");
    pair.tick();
    assert_eq!(held(&pair.primary).2.len(), 1);
    assert_eq!(held(&pair.standby), held(&pair.primary));
}

/// The entries of `state` that the staleness rule keeps at `at`: a standby
/// installs no forward past `ans_timeout` and no stash entry past
/// `STASH_TTL`, while the primary holds them until its next housekeeping
/// window.
fn live(mut state: Held, at: SimTime, ans_timeout: SimTime) -> Held {
    let age = |created: u64| at.saturating_sub(SimTime::from_nanos(created));
    state.1.retain(|f| age(f.created_nanos) < ans_timeout);
    state.2.retain(|s| age(s.created_nanos) < STASH_TTL);
    state
}

/// Where one source is in the `COOKIE2` exchange.
#[derive(Clone)]
enum Walk {
    Fresh,
    Referred(Name),
    Forwarded(Name, Packet),
    Redirected(Name, Ipv4Addr),
}

/// Takes `src` one step further through the exchange: first contact, the
/// cookie name's query, the ANS's answer (stashed), the query at `COOKIE2`
/// (served), then the cookie name's query again. A step the guard does not
/// take (a limiter drop, a cookie two rotations old) starts it over.
fn step(guard: &mut Direct, src: Endpoint, walk: Walk, id: u16) -> Walk {
    match walk {
        Walk::Fresh => Walk::Referred(referred(guard, src, id)),
        Walk::Referred(cookie_name) => {
            let forward = verified_forward(guard, src, &cookie_name, id).into_iter().find(|p| p.dst.ip == ANS);
            forward.map_or(Walk::Fresh, |forward| Walk::Forwarded(cookie_name, forward))
        }
        Walk::Forwarded(cookie_name, forward) => {
            let real = Record::a(name("www.foo.com"), Ipv4Addr::new(192, 0, 2, 80), 60);
            let redirect = guard.offer(ans_answers(&forward, &[real]));
            let redirect = redirect.first().map(|p| Message::decode(&p.payload).unwrap());
            match redirect.as_ref().and_then(|m| m.answers.first()).map(|r| &r.rdata) {
                Some(RData::A(cookie2)) => Walk::Redirected(cookie_name, *cookie2),
                _ => Walk::Referred(cookie_name),
            }
        }
        Walk::Redirected(cookie_name, cookie2) => {
            guard.offer(from(src, cookie2, &query(id, "www.foo.com")));
            Walk::Referred(cookie_name)
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

    /// Three sources walk the `COOKIE2` exchange in any interleaving, with
    /// idle stretches and key rotations between; after every replication
    /// tick the standby holds what the primary does.
    #[test]
    fn a_standby_mirrors_its_primary_after_every_tick(
        ops in proptest::collection::vec((0u8..11, 0u8..3, 0u64..60), 1..64),
    ) {
        let mut pair = Pair::new();
        let ans_timeout = pair.primary.core.config().ans_timeout;
        let mut walks = [Walk::Fresh, Walk::Fresh, Walk::Fresh];
        for (n, (op, s, ms)) in ops.into_iter().chain([(7, 0, 0)]).enumerate() {
            let guard = &mut pair.primary;
            let src = Endpoint::new(Ipv4Addr::new(10, 0, 0, 10 + s), 4242);
            let walk = &mut walks[s as usize];
            match op {
                0..=6 => *walk = step(guard, src, walk.clone(), n as u16),
                7 | 8 => {
                    let delivered = pair.tick();
                    let primary = live(held(&pair.primary), delivered, ans_timeout);
                    proptest::prop_assert_eq!(held(&pair.standby), primary);
                }
                9 => {
                    guard.idle(SimTime::from_millis(ms * 20));
                }
                _ => guard.core.rotate_key(),
            }
        }
    }
}
