//! The guard's datagram front decides on a borrowed view and builds an owned
//! message only for what it rewrites. Two things must hold: the in-place
//! paths (the forward of a verified extension query, the relay of a
//! pass-through answer, the three first-contact answers written over the
//! query) emit byte for byte what decode → mutate → encode emitted before
//! them, and the drop dispositions count and trace exactly as they did.

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::{GuardStats, RemoteGuard};
use dnswire::cookie_ext;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::name::Name;
use dnswire::question::Question;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::{Rcode, RrClass, RrType};
use netsim::engine::{Context, CpuConfig, Node, NodeId, Simulator};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use obs::trace::Value;
use proptest::prelude::*;
use server::authoritative::Authority;
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

const PUBLIC: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const SUBNET: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 0);
const ANS: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

/// The forward the in-place one replaced: decode, strip the cookie, take the
/// upstream id, encode.
fn reference_forward(received: &[u8], txid: u16) -> Vec<u8> {
    let mut msg = Message::decode(received).unwrap();
    cookie_ext::strip_cookie(&mut msg);
    msg.header.id = txid;
    msg.encode()
}

/// The relay the in-place one replaced: decode, restore the requester's id,
/// encode within one UDP payload.
fn reference_relay(received: &[u8], orig_txid: u16) -> Vec<u8> {
    let mut msg = Message::decode(received).unwrap();
    msg.header.id = orig_txid;
    msg.encode_with_limit(MAX_UDP_PAYLOAD).unwrap().0
}

/// A first-contact answer as the owned route built it: decode, start the
/// response, `change` it, encode.
fn reference_reply(received: &[u8], change: impl FnOnce(&mut Message)) -> Vec<u8> {
    let mut reply = Message::decode(received).unwrap().into_response();
    change(&mut reply);
    reply.encode()
}

fn reference_tc(received: &[u8]) -> Vec<u8> {
    reference_reply(received, |tc| tc.header.truncated = true)
}

fn reference_grant(received: &[u8], cookie: [u8; 16], ttl: u32) -> Vec<u8> {
    reference_reply(received, |grant| cookie_ext::attach_cookie(grant, cookie, ttl))
}

/// The fabricated referral for `target` (the zone cut, or the query name of
/// a non-referral): its NS is `target` with `PR` + the first four cookie
/// bytes in hex put in front of its first label.
fn reference_fabricated(received: &[u8], target: &Name, cookie: [u8; 16], ttl: u32) -> Vec<u8> {
    let hex = guardhash::md5::to_hex(&cookie[..4]);
    let label = [b"PR", hex.as_bytes(), target.first_label().unwrap()].concat();
    let ns = Record::ns(target.clone(), target.with_first_label(label).unwrap(), ttl);
    reference_reply(received, |referral| referral.authorities.push(ns))
}

/// Sends its datagrams one per millisecond and keeps what comes back.
struct Client {
    outbox: Vec<Packet>,
    replies: Vec<Vec<u8>>,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.outbox.len() as u64 {
            ctx.set_timer(SimTime::from_millis(i), i);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        ctx.send(self.outbox[tag as usize].clone());
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        self.replies.push(pkt.payload);
    }
}

/// An ANS that keeps what the guard forwards and answers the n-th query with
/// the n-th scripted datagram, renumbered to the query's id.
struct ScriptedAns {
    answers: Vec<Vec<u8>>,
    received: Vec<Vec<u8>>,
    sent: Vec<Vec<u8>>,
}

impl Node for ScriptedAns {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(mut answer) = self.answers.get(self.received.len()).cloned() {
            answer[..2].copy_from_slice(&pkt.payload[..2]);
            self.sent.push(answer.clone());
            ctx.send(Packet::udp(pkt.dst, pkt.src, answer));
        }
        self.received.push(pkt.payload);
    }
}

struct World {
    sim: Simulator,
    guard: NodeId,
    ans: NodeId,
    client: NodeId,
}

/// Guard (root zone classifier, so `www.foo.com` is a referral) between one
/// client and a scripted ANS. `outbox` is built from the guard's cookie for
/// the client.
fn world(
    mode: SchemeMode,
    answers: Vec<Vec<u8>>,
    outbox: impl FnOnce([u8; 16]) -> Vec<Packet>,
) -> World {
    world_with(mode, answers, outbox, |config| config)
}

/// [`world`] whose guard is built from `configure`'s edit of its
/// configuration.
fn world_with(
    mode: SchemeMode,
    answers: Vec<Vec<u8>>,
    outbox: impl FnOnce([u8; 16]) -> Vec<Packet>,
    configure: impl FnOnce(GuardConfig) -> GuardConfig,
) -> World {
    let (root, ..) = paper_hierarchy();
    let config = GuardConfig {
        subnet_base: SUBNET,
        ..GuardConfig::new(PUBLIC, ANS)
    }
    .with_mode(mode);
    let guard = RemoteGuard::new(configure(config), AuthorityClassifier::new(Authority::new(vec![root])));
    let cookie = guard.cookie_factory().generate(CLIENT).0;
    let mut sim = Simulator::new(7);
    let guard = sim.add_node(PUBLIC, CpuConfig::unbounded(), guard);
    sim.add_subnet(SUBNET, 24, guard);
    let scripted = ScriptedAns {
        answers,
        received: Vec::new(),
        sent: Vec::new(),
    };
    let ans = sim.add_node(ANS, CpuConfig::unbounded(), scripted);
    let client = Client {
        outbox: outbox(cookie),
        replies: Vec::new(),
    };
    let client = sim.add_node(CLIENT, CpuConfig::unbounded(), client);
    World {
        sim,
        guard,
        ans,
        client,
    }
}

fn to_guard(dst: Ipv4Addr, payload: Vec<u8>) -> Packet {
    Packet::udp(
        Endpoint::new(CLIENT, 4242),
        Endpoint::new(dst, DNS_PORT),
        payload,
    )
}

fn name(text: &str) -> Name {
    text.parse().unwrap()
}

/// Sends `queries` (already carrying the valid cookie) through the guard,
/// answers the n-th with `answers[n]`, and checks both legs against the
/// references. Returns how many replies the client got.
fn assert_both_legs_match_the_references(
    queries: impl FnOnce([u8; 16]) -> Vec<Vec<u8>>,
    answers: Vec<Vec<u8>>,
) -> usize {
    let mut sent = Vec::new();
    let mut w = world(SchemeMode::ModifiedOnly, answers, |cookie| {
        sent = queries(cookie);
        sent.iter().map(|q| to_guard(PUBLIC, q.clone())).collect()
    });
    w.sim.run_until(SimTime::from_millis(sent.len() as u64 + 50));
    let ans = w.sim.node_ref::<ScriptedAns>(w.ans).unwrap();
    let client = w.sim.node_ref::<Client>(w.client).unwrap();
    assert_eq!(ans.received.len(), sent.len(), "every verified query is forwarded");
    assert_eq!(client.replies.len(), ans.sent.len(), "every answer is relayed");
    for ((query, forwarded), (answer, reply)) in sent
        .iter()
        .zip(&ans.received)
        .zip(ans.sent.iter().zip(&client.replies))
    {
        let txid = u16::from_be_bytes([forwarded[0], forwarded[1]]);
        assert_eq!(forwarded, &reference_forward(query, txid), "forward leg");
        let orig = u16::from_be_bytes([query[0], query[1]]);
        assert_eq!(reply, &reference_relay(answer, orig), "relay leg");
    }
    let stats = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().stats();
    assert_eq!(stats.ext_valid, sent.len() as u64);
    assert_eq!(stats.disposition_total(), stats.udp_datagrams);
    client.replies.len()
}

fn with_cookie(mut query: Message, cookie: [u8; 16]) -> Vec<u8> {
    cookie_ext::attach_cookie(&mut query, cookie, 0);
    query.encode()
}

#[test]
fn in_place_paths_match_reencode_for_every_paper_hierarchy_answer() {
    // Every owner name of the three zones, a name below each apex that does
    // not exist and one outside, under every type the zones hold or lack.
    let (root, com, foo) = paper_hierarchy();
    let mut questions = Vec::new();
    let mut answers = Vec::new();
    for zone in [root, com, foo] {
        let mut names: Vec<Name> = zone.iter().map(|r| r.name.clone()).collect();
        names.push(zone.apex().child("nope").unwrap());
        names.push(name("elsewhere.example"));
        names.sort();
        names.dedup();
        let authority = Authority::new(vec![zone]);
        for qname in names {
            for qtype in [RrType::A, RrType::Ns, RrType::Soa, RrType::Mx, RrType::Txt] {
                let query = Message::iterative_query(0, qname.clone(), qtype);
                let (answer, _) = authority.answer(&query);
                answers.push(answer.encode_with_limit(MAX_UDP_PAYLOAD).unwrap().0);
                questions.push(Question::new(qname.clone(), qtype));
            }
        }
    }
    assert!(questions.len() >= 60, "{}", questions.len());
    let relayed = assert_both_legs_match_the_references(
        |cookie| {
            questions
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let query = Message::iterative_query(0x4000 + i as u16, q.name.clone(), q.qtype);
                    with_cookie(query, cookie)
                })
                .collect()
        },
        answers,
    );
    assert_eq!(relayed, questions.len());
}

#[test]
fn shapes_the_fast_paths_decline_still_match_the_references() {
    let question = || Message::query(0x1234, name("wWw.Foo.com"), RrType::A);
    let answer_to = |asked: Message, records: usize| {
        let mut resp = asked.response();
        for i in 0..records {
            let txt = RData::Txt(vec![vec![b'x'; 100]]);
            resp.answers.push(Record::new(name(&format!("h{i}.foo.com")), 60, txt));
        }
        resp.encode()
    };
    let answer = |records| answer_to(question(), records);
    // The guard relays an answer only to the question it forwarded; the
    // pointer-named query below asks for `x`.
    let answer_x = answer_to(Message::query(0, name("x"), RrType::A), 1);
    let oversized = answer(6);
    assert!(oversized.len() > MAX_UDP_PAYLOAD);
    let relayed = assert_both_legs_match_the_references(
        |cookie| {
            let bare = with_cookie(question(), cookie);
            let mut two_questions = question();
            two_questions.questions.push(Question::new(name("foo.com"), RrType::Ns));
            let mut extra_record = question();
            extra_record.authorities.push(Record::ns(name("com"), name("a.gtld-servers.net"), 5));
            let mut cookie_not_last = question();
            cookie_ext::attach_cookie(&mut cookie_not_last, cookie, 0);
            cookie_not_last.additionals.push(Record::a(name("x.y"), Ipv4Addr::LOCALHOST, 1));
            // A question name that is a pointer into the header: id 0x0178
            // and zero flags spell "x." at offset 0.
            let mut compressed = vec![1, b'x', 0, 0, 0, 1, 0, 0, 0, 0, 0, 1];
            compressed.extend_from_slice(&[0xC0, 0x00, 0, 1, 0, 1]);
            compressed.extend_from_slice(&bare[12 + 17..]);
            vec![
                bare.clone(),
                with_cookie(two_questions, cookie),
                with_cookie(extra_record, cookie),
                cookie_not_last.encode(),
                compressed,
                bare,
            ]
        },
        vec![answer(1), answer(0), answer(2), answer(1), answer_x, oversized],
    );
    assert_eq!(relayed, 6);
}

/// Plain queries in the shapes the reply writer tells apart, few enough for
/// one source's Rate-Limiter1 burst: the received question section stands
/// (mixed case, records behind it, a name at the 255-byte limit) or does not
/// (two questions, a question name that is a pointer).
fn first_contact_queries() -> Vec<Vec<u8>> {
    let query = |id, qname: &str| Message::iterative_query(id, name(qname), RrType::A);
    let mut with_opt = query(3, "www.foo.com");
    // An empty EDNS(0) OPT record offering a 1232-byte payload.
    with_opt.additionals.push(Record {
        name: Name::root(),
        rtype: RrType::Opt,
        class: RrClass::Other(1232),
        ttl: 0,
        rdata: RData::Unknown(Vec::new()),
    });
    let mut with_records = Message::query(4, name("www.Foo.com"), RrType::Mx);
    with_records.answers.push(Record::a(name("foo.com"), Ipv4Addr::LOCALHOST, 5));
    with_records.additionals.push(Record::ns(name("com"), name("ns.Foo.com"), 5));
    let mut two_questions = query(5, "www.foo.com");
    two_questions.questions.push(Question::new(name("foo.com"), RrType::Ns));
    let long = format!("{0}.{0}.{0}.{1}.com", "x".repeat(63), "y".repeat(57));
    assert_eq!(name(&long).wire_len(), 255);
    // Id 0x0178 and a zero flags byte spell "x." at offset 0; the question
    // name points there.
    let mut compressed = vec![1, b'x', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
    compressed.extend_from_slice(&[0xC0, 0x00, 0, 1, 0, 1]);
    vec![
        query(1, "www.foo.com").encode(),
        query(2, "wWw.fOo.COM").encode(),
        with_opt.encode(),
        with_records.encode(),
        two_questions.encode(),
        query(6, &long).encode(),
        compressed,
    ]
}

/// Runs `queries` from the one client through a guard in `mode` and returns
/// the replies, the guard's counters and the client's cookie.
fn first_contact(mode: SchemeMode, queries: &[Vec<u8>]) -> (Vec<Vec<u8>>, GuardStats, [u8; 16]) {
    let mut granted = [0; 16];
    let mut w = world(mode, Vec::new(), |cookie| {
        granted = cookie;
        queries.iter().map(|q| to_guard(PUBLIC, q.clone())).collect()
    });
    w.sim.run_until(SimTime::from_millis(queries.len() as u64 + 50));
    let replies = w.sim.node_ref::<Client>(w.client).unwrap().replies.clone();
    let stats = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().stats();
    assert_eq!(stats.disposition_total(), stats.udp_datagrams);
    assert_eq!(stats.udp_datagrams, queries.len() as u64);
    (replies, stats, granted)
}

#[test]
fn tc_written_over_the_query_matches_the_owned_encode() {
    let queries = first_contact_queries();
    let (replies, stats, _) = first_contact(SchemeMode::TcpBased, &queries);
    assert_eq!(stats.tc_sent, queries.len() as u64);
    let expected: Vec<_> = queries.iter().map(|q| reference_tc(q)).collect();
    assert_eq!(replies, expected);
    // No amplification: a literal single question comes back at its own size.
    assert_eq!(replies[0].len(), queries[0].len());
}

#[test]
fn grants_written_over_the_query_match_the_owned_encode() {
    // The plain queries, and the same asking for a cookie: the request
    // record is cut off and the grant appended where it stood.
    let ttl = GuardConfig::new(PUBLIC, ANS).cookie_ttl;
    let mut queries = first_contact_queries();
    let asking = |q: &Vec<u8>| with_cookie(Message::decode(q).unwrap(), cookie_ext::ZERO_COOKIE);
    let requests: Vec<_> = queries.iter().take(2).map(asking).collect();
    queries.extend(requests);
    let (replies, stats, cookie) = first_contact(SchemeMode::ModifiedOnly, &queries);
    assert_eq!(stats.grants_sent, queries.len() as u64);
    let expected: Vec<_> = queries.iter().map(|q| reference_grant(q, cookie, ttl)).collect();
    assert_eq!(replies, expected);
    assert_eq!(replies[7].len(), queries[7].len(), "request and grant are one size");
}

#[test]
fn fabricated_referrals_written_over_the_query_match_the_owned_encode() {
    let ttl = GuardConfig::new(PUBLIC, ANS).fabricated_ns_ttl;
    let mut queries = first_contact_queries();
    // Outside every delegation of the root zone: the query name itself is
    // the target, and its owner is a pointer to the question.
    queries.push(Message::iterative_query(8, name("Ns.Example.ORG"), RrType::A).encode());
    let (replies, stats, cookie) = first_contact(SchemeMode::DnsBased, &queries);
    assert_eq!(stats.fabricated_ns_sent, queries.len() as u64);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            // The zone's own `com`, whatever case the query spelled it in —
            // so under `COM` the owner goes out literally.
            let qname = Message::decode(q).unwrap().questions[0].name.clone();
            let target = if qname.is_subdomain_of(&name("com")) { name("com") } else { qname };
            reference_fabricated(q, &target, cookie, ttl)
        })
        .collect();
    assert_eq!(replies, expected);
    let literal_owner = Message::decode(&replies[1]).unwrap();
    assert!(literal_owner.authorities[0].name.eq_case_sensitive(&name("com")));
    assert!(literal_owner.questions[0].name.eq_case_sensitive(&name("wWw.fOo.COM")));
}

#[test]
fn a_name_too_long_for_the_cookie_label_is_forwarded_unprotected() {
    // `PR` + 8 hex digits in front of a 54-byte first label make 64 bytes,
    // and they make a name of 246 bytes one of 256. Neither is allowed, so no
    // referral is fabricated: the query goes to the ANS as it came.
    let label_too_long = format!("{}.org", "l".repeat(54));
    let name_too_long = format!("{1}.{0}.{0}.{0}.org", "x".repeat(63), "y".repeat(48));
    assert_eq!(name(&name_too_long).wire_len(), 246);
    let queries: Vec<_> = [label_too_long, name_too_long]
        .iter()
        .zip(1..)
        .map(|(qname, id)| Message::iterative_query(id, name(qname), RrType::A).encode())
        .collect();
    let mut w = world(SchemeMode::DnsBased, Vec::new(), |_| {
        queries.iter().map(|q| to_guard(PUBLIC, q.clone())).collect()
    });
    w.sim.run_until(SimTime::from_millis(50));
    let stats = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().stats();
    assert_eq!((stats.plain_forwarded, stats.forwarded), (2, 2));
    assert_eq!(stats.fabricated_ns_sent, 0);
    assert_eq!(stats.disposition_total(), stats.udp_datagrams, "one bucket each");
    let forwarded = &w.sim.node_ref::<ScriptedAns>(w.ans).unwrap().received;
    let renumbered: Vec<_> = queries
        .iter()
        .zip(forwarded)
        .map(|(q, f)| [&f[..2], &q[2..]].concat())
        .collect();
    assert_eq!(forwarded, &renumbered);
    assert!(w.sim.node_ref::<Client>(w.client).unwrap().replies.is_empty());
}

fn arb_name() -> impl Strategy<Value = Name> {
    let label = (0usize..6).prop_map(|i| [&b"a"[..], b"B", b"foo", b"Foo", b"com", b"www"][i]);
    proptest::collection::vec(label, 0..5).prop_map(|labels| Name::from_labels(labels).unwrap())
}

fn arb_record() -> impl Strategy<Value = Record> {
    let rdata = prop_oneof![
        any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
        arb_name().prop_map(RData::Ns),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..120), 1..3)
            .prop_map(RData::Txt),
    ];
    (arb_name(), any::<u32>(), rdata).prop_map(|(name, ttl, rdata)| Record::new(name, ttl, rdata))
}

fn arb_response() -> impl Strategy<Value = Message> {
    let records = || proptest::collection::vec(arb_record(), 0..5);
    (arb_name(), records(), records(), records(), any::<bool>(), 0u8..6).prop_map(
        |(qname, answers, authorities, additionals, aa, rcode)| {
            let mut resp = Message::query(0, qname, RrType::A).response();
            resp.header.authoritative = aa;
            resp.header.rcode = Rcode::from(rcode);
            resp.answers = answers;
            resp.authorities = authorities;
            resp.additionals = additionals;
            resp
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary responses, some past 512 bytes, behind verified queries
    /// for the names they answer: both legs equal the references.
    #[test]
    fn in_place_paths_match_reencode_for_generated_traffic(
        exchanges in proptest::collection::vec((any::<u16>(), arb_response()), 1..12),
    ) {
        let answers = exchanges.iter().map(|(_, resp)| resp.encode()).collect();
        let relayed = assert_both_legs_match_the_references(
            |cookie| {
                exchanges
                    .iter()
                    .map(|(id, resp)| {
                        let qname = resp.questions[0].name.clone();
                        with_cookie(Message::query(*id, qname, RrType::A), cookie)
                    })
                    .collect()
            },
            answers,
        );
        prop_assert_eq!(relayed, exchanges.len());
    }
}

/// One drop disposition: the datagrams, the counter that takes them, and the
/// trace event each leaves.
struct Drop {
    mode: SchemeMode,
    outbox: fn([u8; 16]) -> Vec<Packet>,
    counted: fn(&GuardStats) -> u64,
    /// How many of the datagrams are *not* dropped, when that is known
    /// beforehand.
    dropped: Option<u64>,
    kind: &'static str,
    fields: &'static [(&'static str, &'static str)],
}

const N: u16 = 40;

fn plain(i: u16) -> Message {
    Message::iterative_query(i, name("www.foo.com"), RrType::A)
}

const DROPS: [Drop; 4] = [
    // One source, N plain queries in N ms: Rate-Limiter1's per-source burst
    // answers the first few and drops the rest.
    Drop {
        mode: SchemeMode::DnsBased,
        outbox: |_| (0..N).map(|i| to_guard(PUBLIC, plain(i).encode())).collect(),
        counted: |s| s.rl1_dropped,
        dropped: None,
        kind: "rl_drop",
        fields: &[("limiter", "rl1")],
    },
    Drop {
        mode: SchemeMode::ModifiedOnly,
        outbox: |cookie| {
            let forged = cookie.map(|b| !b);
            (0..N).map(|i| to_guard(PUBLIC, with_cookie(plain(i), forged))).collect()
        },
        counted: |s| s.ext_invalid,
        dropped: Some(0),
        kind: "verify",
        fields: &[("scheme", "ext"), ("verdict", "invalid")],
    },
    Drop {
        mode: SchemeMode::DnsBased,
        outbox: |_| {
            let forged = |i: u16| Message::iterative_query(i, name(&format!("PR{i:08x}com")), RrType::A);
            (0..N).map(|i| to_guard(PUBLIC, forged(i).encode())).collect()
        },
        counted: |s| s.ns_cookie_invalid,
        dropped: Some(0),
        kind: "verify",
        fields: &[("scheme", "ns_label"), ("verdict", "invalid")],
    },
    // Every COOKIE2 address of the /24 but the right one and the public one.
    Drop {
        mode: SchemeMode::DnsBased,
        outbox: |_| {
            (1..=254u8)
                .map(|host| to_guard(Ipv4Addr::new(198, 41, 0, host), plain(host as u16).encode()))
                .filter(|pkt| pkt.dst.ip != PUBLIC)
                .collect()
        },
        counted: |s| s.cookie2_invalid,
        dropped: Some(1),
        kind: "verify",
        fields: &[("scheme", "cookie2"), ("verdict", "invalid")],
    },
];

#[test]
fn each_drop_disposition_counts_and_traces_as_before() {
    for drop in &DROPS {
        let obs = obs::Obs::new();
        obs.tracer.set_default_level(obs::trace::Level::Info);
        let mut w = world(drop.mode, Vec::new(), drop.outbox);
        w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().attach_obs(&obs);
        w.sim.run_until(SimTime::from_millis(400));

        let offered = w.sim.node_ref::<Client>(w.client).unwrap().outbox.len() as u64;
        let replies = w.sim.node_ref::<Client>(w.client).unwrap().replies.len() as u64;
        let stats = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().stats();
        let dropped = (drop.counted)(&stats);
        let label = format!("{} {:?}", drop.kind, drop.fields);
        match drop.dropped {
            // Rate-Limiter1: what was not dropped was answered, and most was.
            None => assert!(dropped > offered / 2 && replies > 0, "{label}: {dropped} of {offered}"),
            Some(all_but) => assert_eq!((dropped, replies), (offered - all_but, 0), "{label}"),
        }
        assert_eq!(stats.udp_datagrams, offered, "{label}");
        assert_eq!(stats.disposition_total(), offered, "{label}");
        // Only the one right COOKIE2 guess gets past the guard.
        assert_eq!(dropped + replies + stats.forwarded, offered, "{label}");
        let at_ans = w.sim.node_ref::<ScriptedAns>(w.ans).unwrap().received.len() as u64;
        assert_eq!(at_ans, stats.forwarded, "{label}");

        let (events, lost) = obs.tracer.drain();
        assert_eq!(lost, 0);
        let matching = events
            .iter()
            .filter(|e| e.kind == drop.kind)
            .filter(|e| drop.fields.iter().all(|&(k, v)| e.field(k) == Some(Value::Str(v))))
            .inspect(|e| assert_eq!(e.field("src"), Some(Value::Ip(CLIENT)), "{label}"))
            .count() as u64;
        assert_eq!(matching, dropped, "{label}: one event per drop");
    }
}

/// The guard keeps forwarding while its health monitor judges the ANS
/// down: the monitor only probes, and the requester's own retry bounds the
/// wait.
#[test]
fn a_verified_query_is_forwarded_while_the_ans_is_down() {
    let query = |id, cookie| {
        let query = Message::query(id, name("wWw.foo.com"), RrType::A);
        to_guard(PUBLIC, with_cookie(query, cookie))
    };
    // Two queries the silent ANS never answers mark it down (threshold 2,
    // time-out 50 ms); the third arrives while it is down.
    let mut third = None;
    let mut w = world_with(
        SchemeMode::ModifiedOnly,
        Vec::new(),
        |cookie| {
            third = Some(query(0x7003, cookie));
            vec![query(0x7001, cookie), query(0x7002, cookie)]
        },
        |cfg| GuardConfig {
            ans_timeout: SimTime::from_millis(50),
            ans_failure_threshold: 2,
            ..cfg
        },
    );
    w.sim.run_until(SimTime::from_millis(300));
    assert!(w.sim.node_ref::<RemoteGuard>(w.guard).unwrap().ans_is_down());
    w.sim.inject(w.client, third.unwrap());
    w.sim.run_until(SimTime::from_millis(310));

    let guard = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    assert_eq!(guard.stats().ext_valid, 3);
    assert_eq!(guard.stats().disposition_total(), guard.stats().udp_datagrams);
    let forwarded = &w.sim.node_ref::<ScriptedAns>(w.ans).unwrap().received;
    let from_clients = forwarded
        .iter()
        .filter(|q| Message::decode(q).unwrap().question().is_some_and(|q| !q.name.is_root()));
    assert_eq!(from_clients.count(), 3, "the third was forwarded too");
    assert!(w.sim.node_ref::<Client>(w.client).unwrap().replies.is_empty(), "nothing answers for the ANS");
}
