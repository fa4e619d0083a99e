//! Bytes, not behaviour: what `GuardCore` sends upstream and relays back on a
//! verified source's path — written without ever building a `Message` — is
//! compared with the owned route it replaced (decode, edit, encode), kept
//! here as the oracle. Queries come in every shape the view tells apart: one
//! spelled-out question, a question name ending in a compression pointer,
//! two questions, records besides the cookie, mixed case.

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::{GuardCore, GuardStats, Leg, Output, Outputs};
use dnswire::cookie_ext::{attach_cookie, strip_cookie};
use dnswire::header::Header;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::question::Question;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::{Rcode, RrClass, RrType};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use proptest::prelude::*;
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
const NOW: SimTime = SimTime::from_millis(1);

/// Which zone the protected ANS serves: the root refers `com` and below, the
/// `foo.com` zone answers.
#[derive(Debug, Clone, Copy)]
enum Zone {
    Root,
    Foo,
}

fn guard(mode: SchemeMode, zone: Zone) -> GuardCore {
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
    GuardCore::new(config, AuthorityClassifier::new(Authority::new(vec![zone])))
}

/// Hands `payload` to the guard and returns everything it asked for.
fn offer(core: &mut GuardCore, leg: Leg, dst: Ipv4Addr, payload: Vec<u8>) -> Vec<Output> {
    let src = match leg {
        Leg::Client => CLIENT,
        Leg::Upstream => Endpoint::new(ANS, DNS_PORT),
    };
    let mut out = Outputs::default();
    core.handle_packet(NOW, leg, Packet::udp(src, Endpoint::new(dst, DNS_PORT), payload), &mut out);
    out.drain().collect()
}

/// The one datagram the guard forwarded to the ANS.
fn forwarded(outputs: Vec<Output>) -> Vec<u8> {
    match <[Output; 1]>::try_from(outputs) {
        Ok([Output::ToAns(wire)]) => wire,
        other => panic!("not one forward: {other:?}"),
    }
}

/// The one packet the guard sent to the client.
fn relayed(outputs: Vec<Output>) -> Packet {
    match <[Output; 1]>::try_from(outputs) {
        Ok([Output::Packet(pkt)]) => pkt,
        other => panic!("not one relay: {other:?}"),
    }
}

fn txid_of(wire: &[u8]) -> u16 {
    u16::from_be_bytes([wire[0], wire[1]])
}

/// The `COOKIE2` address of the client: the guard's own arithmetic, as a
/// requester learns it from the redirect.
fn cookie2_of(core: &GuardCore) -> Ipv4Addr {
    let base = u32::from(SUBNET);
    let pub_off = u32::from(PUBLIC) - base - 1;
    let y = core.cookie_factory().generate_subnet_offset(CLIENT.ip, 253);
    Ipv4Addr::from(base + 1 + if y >= pub_off { y + 1 } else { y })
}

/// 0x20-style mixed case over the names the zones know.
fn arb_qname() -> impl Strategy<Value = Name> {
    const NAMES: [&str; 6] = ["www.foo.com", "wWw.Foo.cOm", "com", "FOO.com", "a.b.c.d.example.org", "x"];
    (0..NAMES.len()).prop_map(|i| NAMES[i].parse().unwrap())
}

/// How a query datagram departs from one spelled-out question and nothing
/// else.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// The question name ends in a pointer (to the zero octet in the high
    /// byte of QDCOUNT) instead of a root octet.
    pointer: bool,
    second_question: bool,
    edns: bool,
    recursion_desired: bool,
}

/// One spelled-out question and nothing else.
const PLAIN: Shape = Shape {
    pointer: false,
    second_question: false,
    edns: false,
    recursion_desired: false,
};

fn arb_shape() -> impl Strategy<Value = Shape> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(pointer, second_question, edns, recursion_desired)| Shape {
            pointer,
            second_question,
            edns,
            recursion_desired,
        },
    )
}

/// The query for `qname` in `shape`, with the extension cookie if given.
fn query_wire(id: u16, qname: Name, qtype: RrType, shape: Shape, cookie: Option<[u8; 16]>) -> Vec<u8> {
    let mut query = Message::iterative_query(id, qname, qtype);
    query.header.recursion_desired = shape.recursion_desired;
    if shape.second_question {
        query.questions.push(Question::new("foo.com".parse().unwrap(), RrType::Ns));
    }
    if shape.edns {
        // An empty EDNS(0) OPT record offering a 1232-byte payload.
        query.additionals.push(Record {
            name: Name::root(),
            rtype: RrType::Opt,
            class: RrClass::Other(1232),
            ttl: 0,
            rdata: RData::Unknown(Vec::new()),
        });
    }
    if let Some(cookie) = cookie {
        attach_cookie(&mut query, cookie, 0);
    }
    let mut wire = query.encode();
    if shape.pointer {
        let root_octet = 12 + query.questions[0].name.wire_len() - 1;
        wire.splice(root_octet..=root_octet, [0xC0, 0x04]);
        Message::decode(&wire).expect("the pointer shape is well-formed");
    }
    wire
}

/// Records an ANS might answer with: addresses under any owner, and the
/// types a relay must leave out.
fn arb_record() -> impl Strategy<Value = Record> {
    let owner = (0..4usize).prop_map(|i| -> Name {
        ["www.foo.com", "a.gtld-servers.net", "com", "PR0a1b2c3dcom"][i].parse().unwrap()
    });
    (owner, any::<u32>(), 0u32..100_000, 0..5u8).prop_map(|(owner, bits, ttl, kind)| match kind {
        0 | 1 => Record::a(owner, Ipv4Addr::from(bits), ttl),
        2 => Record::ns(owner.clone(), owner, ttl),
        3 => Record::new(owner, ttl, RData::Aaaa(Ipv4Addr::from(bits).to_ipv6_mapped())),
        _ => Record::txt(owner, bits.to_be_bytes().to_vec(), ttl),
    })
}

/// The answer, authority and additional sections of an ANS answer.
fn arb_sections() -> impl Strategy<Value = [Vec<Record>; 3]> {
    let section = |most| proptest::collection::vec(arb_record(), 0..most);
    (section(3), section(2), section(3)).prop_map(|(answers, authorities, additionals)| {
        [answers, authorities, additionals]
    })
}

/// The ANS's answer to `forward`: its question back, with these sections.
fn upstream_answer(forward: &[u8], sections: &[Vec<Record>; 3]) -> Vec<u8> {
    let mut answer = Message::decode(forward).unwrap().into_response();
    let [answers, authorities, additionals] = sections.clone();
    (answer.answers, answer.authorities, answer.additionals) = (answers, authorities, additionals);
    answer.encode()
}

/// The cookie-name answer as it used to be built: an owned message under
/// the requester's id, SERVFAIL when there is nothing to pass on.
fn reference_cookie_name_reply(id: u16, cookie_question: Question, answers: Vec<Record>) -> Vec<u8> {
    let mut reply = Message {
        header: Header {
            id,
            response: true,
            authoritative: true,
            ..Header::default()
        },
        questions: vec![cookie_question],
        answers,
        ..Message::default()
    };
    if reply.answers.is_empty() {
        reply.header.rcode = Rcode::ServFail;
    }
    reply.encode()
}

/// The cookie-name query a requester sends for `original` once it holds the
/// fabricated referral, and that query's question.
fn cookie_name_query(core: &GuardCore, id: u16, original: &Name, shape: Shape) -> (Vec<u8>, Question) {
    let hex = core.cookie_factory().generate(CLIENT.ip).ns_label_suffix();
    let first = String::from_utf8(original.first_label().unwrap().to_vec()).unwrap();
    let cookie_name = original.with_first_label(format!("pR{hex}{first}")).unwrap();
    let wire = query_wire(id, cookie_name, RrType::Txt, shape, None);
    let question = Message::decode(&wire).unwrap().questions.swap_remove(0);
    (wire, question)
}

fn conserved(stats: &GuardStats) {
    assert_eq!(stats.disposition_total(), stats.udp_datagrams);
}

proptest! {
    /// A verified extension query goes upstream as decode → strip the cookie
    /// → renumber → encode would send it, and a pass-through answer comes
    /// back as received under the requester's id.
    #[test]
    fn extension_forward_and_relay(
        id in any::<u16>(),
        qname in arb_qname(),
        shape in arb_shape(),
        sections in arb_sections(),
    ) {
        let mut core = guard(SchemeMode::ModifiedOnly, Zone::Foo);
        let cookie = core.cookie_factory().generate(CLIENT.ip).0;
        let query = query_wire(id, qname, RrType::A, shape, Some(cookie));
        let forward = forwarded(offer(&mut core, Leg::Client, PUBLIC, query.clone()));

        let mut owned = Message::decode(&query).unwrap();
        strip_cookie(&mut owned);
        owned.header.id = txid_of(&forward);
        prop_assert_eq!(&forward, &owned.encode());

        let answer = upstream_answer(&forward, &sections);
        let relay = relayed(offer(&mut core, Leg::Upstream, PUBLIC, answer.clone()));
        let mut expected = answer;
        expected[..2].copy_from_slice(&id.to_be_bytes());
        prop_assert_eq!((relay.src.ip, relay.dst, relay.payload), (PUBLIC, CLIENT, expected));
        prop_assert_eq!((core.stats().ext_valid, core.stats().relayed_responses), (1, 1));
        conserved(&core.stats());
    }

    /// A query to the source's `COOKIE2` address goes upstream as decode →
    /// renumber → encode would send it, whether or not the stash holds
    /// another name's answer.
    #[test]
    fn cookie2_forward(
        id in any::<u16>(),
        qname in arb_qname(),
        shape in arb_shape(),
        stash_first in any::<bool>(),
    ) {
        let mut core = guard(SchemeMode::DnsBased, Zone::Foo);
        if stash_first {
            // A completed first exchange for another name leaves its answer
            // stashed, so this query's name has to be looked up.
            let other: Name = "ftp.foo.com".parse().unwrap();
            let (ask, _) = cookie_name_query(&core, 1, &other, PLAIN);
            let forward = forwarded(offer(&mut core, Leg::Client, PUBLIC, ask));
            let real = Record::a(other, Ipv4Addr::new(192, 0, 2, 21), 60);
            let answer = upstream_answer(&forward, &[vec![real], vec![], vec![]]);
            relayed(offer(&mut core, Leg::Upstream, PUBLIC, answer));
        }
        let cookie2 = cookie2_of(&core);
        let query = query_wire(id, qname, RrType::A, shape, None);
        let forward = forwarded(offer(&mut core, Leg::Client, cookie2, query.clone()));
        let mut owned = Message::decode(&query).unwrap();
        owned.header.id = txid_of(&forward);
        prop_assert_eq!(&forward, &owned.encode());
        prop_assert_eq!((core.stats().cookie2_valid, core.stats().stash_hits), (1, 0));
        conserved(&core.stats());
    }

    /// A cookie-name query goes upstream as the restored name's address
    /// query, and the ANS's answer comes back as the cookie name's: every
    /// address of the additional section, then of the answer section, under
    /// the cookie name — or SERVFAIL when there is none. Under the root the
    /// restored name is referred (`ReferralCookie`); under `foo.com` it is
    /// answered, stashed, and the requester redirected (`Fabricated`), and
    /// what the stash then serves is the answer section as decoded.
    #[test]
    fn cookie_name_forward_and_relay(
        id in any::<u16>(),
        zone in prop_oneof![Just(Zone::Root), Just(Zone::Foo)],
        shape in arb_shape(),
        sections in arb_sections(),
    ) {
        let mut core = guard(SchemeMode::DnsBased, zone);
        let original: Name = match zone {
            Zone::Root => "cOm".parse().unwrap(),
            Zone::Foo => "Www.foo.com".parse().unwrap(),
        };
        let (ask, cookie_question) = cookie_name_query(&core, id, &original, shape);
        let forward = forwarded(offer(&mut core, Leg::Client, PUBLIC, ask));
        let restored = Message::iterative_query(txid_of(&forward), original.clone(), RrType::A);
        prop_assert_eq!(&forward, &restored.encode());
        prop_assert!(Message::decode(&forward).unwrap().questions[0].name.eq_case_sensitive(&original));

        let answer = upstream_answer(&forward, &sections);
        let relay = relayed(offer(&mut core, Leg::Upstream, PUBLIC, answer.clone()));
        let owned = Message::decode(&answer).unwrap();
        let expected = match zone {
            Zone::Root => {
                let glue = owned.additionals.into_iter().chain(owned.answers);
                let name = &cookie_question.name;
                let glue = glue.filter(|r| r.rtype == RrType::A).map(|r| Record { name: name.clone(), ..r });
                let glue: Vec<Record> = glue.collect();
                reference_cookie_name_reply(id, cookie_question, glue)
            }
            Zone::Foo => {
                let redirect = Record::a(cookie_question.name.clone(), cookie2_of(&core), 0);
                let ttl = Message::decode(&relay.payload).unwrap().answers[0].ttl;
                reference_cookie_name_reply(id, cookie_question, vec![Record { ttl, ..redirect }])
            }
        };
        prop_assert_eq!((relay.src.ip, relay.dst, &relay.payload), (PUBLIC, CLIENT, &expected));
        prop_assert_eq!((core.stats().ns_cookie_valid, core.stats().relayed_responses), (1, 1));

        if let Zone::Foo = zone {
            // The third exchange is served from the stash: the answer section
            // of the ANS's answer, as the owned decode holds it.
            let plain = Message::iterative_query(id, original, RrType::A);
            let cookie2 = cookie2_of(&core);
            let served = relayed(offer(&mut core, Leg::Client, cookie2, plain.encode()));
            let served = Message::decode(&served.payload).unwrap();
            let (kept, cut) = (served.answers.len(), served.header.truncated);
            prop_assert_eq!(&served.answers[..], &sections[0][..kept]);
            prop_assert!(cut || kept == sections[0].len());
            prop_assert_eq!(core.stats().stash_hits, 1);
        }
        conserved(&core.stats());
    }
}

/// An ANS answer with no address to pass on is SERVFAIL under the cookie
/// name, not an empty NOERROR.
#[test]
fn referral_without_an_address_is_servfail() {
    let mut core = guard(SchemeMode::DnsBased, Zone::Root);
    let (ask, cookie_question) = cookie_name_query(&core, 9, &"com".parse().unwrap(), PLAIN);
    let forward = forwarded(offer(&mut core, Leg::Client, PUBLIC, ask));
    let ns = Record::ns("com".parse().unwrap(), "a.gtld-servers.net".parse().unwrap(), 60);
    let answer = upstream_answer(&forward, &[vec![], vec![ns], vec![]]);
    let relay = relayed(offer(&mut core, Leg::Upstream, PUBLIC, answer));
    assert_eq!(relay.payload, reference_cookie_name_reply(9, cookie_question, vec![]));
    assert_eq!(Message::decode(&relay.payload).unwrap().header.rcode, Rcode::ServFail);
}

/// A cookie label that verifies but leaves nothing to restore (`PR` + the
/// cookie and no first label behind it) is one drop in one bucket: invalid,
/// nothing forwarded, nothing answered.
#[test]
fn unrestorable_cookie_name_is_one_invalid_disposition() {
    let mut core = guard(SchemeMode::DnsBased, Zone::Root);
    let hex = core.cookie_factory().generate(CLIENT.ip).ns_label_suffix();
    let bare: Name = format!("PR{hex}.com").parse().unwrap();
    let query = Message::iterative_query(5, bare, RrType::A).encode();
    assert!(offer(&mut core, Leg::Client, PUBLIC, query).is_empty());
    let stats = core.stats();
    assert_eq!((stats.ns_cookie_invalid, stats.ns_cookie_valid, stats.forwarded), (1, 0, 0));
    conserved(&stats);
}
