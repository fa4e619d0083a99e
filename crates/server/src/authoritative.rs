//! Pure authoritative answering logic: given zones and a question, produce
//! the referral, answer, NODATA or NXDOMAIN response.
//!
//! There is one zone walk ([`Authority`]'s private `walk`): it classifies
//! the question and hands the records it selects, *borrowed* from the zone
//! and in answer order, to whoever asked. Two callers give it a place to put
//! them. [`Authority::answer`] clones them into an owned [`Message`] — the
//! form the recursive resolver's in-process authority, the attack tooling
//! and the benchmark hold an answer in. [`Authority::answer_wire`] pushes
//! them into a [`Writer`] over the query's own buffer, so a served datagram
//! is parsed once as a view, its question name is the only thing built, and
//! the reply leaves in the bytes the query came in.
//!
//! Servers answer through an [`AnswerCache`] in front of `answer_wire`: a
//! query whose bytes after its id match a held one is answered by copying
//! the held reply behind the query's own id. Both the simulated
//! [`AuthNode`](crate::nodes::AuthNode) (UDP and TCP) and the real-socket
//! `runtime::ans::ToyAns` own one.

use crate::zone::Zone;
use dnswire::error::WireResult;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::name::Name;
use dnswire::question::Question;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::{Rcode, RrType};
use dnswire::view::MessageView;
use dnswire::writer::{ReplyStart, Section, Writer};

/// How an authority classified its response — used by tests, the guard
/// (which treats referral and non-referral answers differently), and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// The answer section holds records for the query name.
    Authoritative,
    /// Delegation: NS records in the authority section plus glue.
    Referral,
    /// Name exists but has no records of the queried type.
    NoData,
    /// Name does not exist.
    NxDomain,
    /// This server is not authoritative for the name at all.
    NotAuth,
}

impl AnswerKind {
    /// Whether a response of this kind carries AA: everything answered out
    /// of a zone's own data, as opposed to a referral or a refusal.
    fn is_authoritative(self) -> bool {
        matches!(self, AnswerKind::Authoritative | AnswerKind::NoData | AnswerKind::NxDomain)
    }
}

/// A set of zones served by one authoritative name server.
///
/// # Examples
///
/// ```
/// use server::authoritative::{AnswerKind, Authority};
/// use server::zone::paper_hierarchy;
/// use dnswire::message::Message;
/// use dnswire::types::RrType;
///
/// let (root, _, _) = paper_hierarchy();
/// let authority = Authority::new(vec![root]);
/// let query = Message::iterative_query(1, "www.foo.com".parse()?, RrType::A);
/// let (response, kind) = authority.answer(&query);
/// assert_eq!(kind, AnswerKind::Referral);
/// assert!(response.is_referral());
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Authority {
    zones: Vec<Zone>,
}

impl Authority {
    /// Creates an authority serving `zones`.
    pub fn new(zones: Vec<Zone>) -> Self {
        Authority { zones }
    }

    /// The deepest zone whose apex is a suffix of `name`.
    pub fn best_zone(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }

    /// Answers `query`, returning the response and its classification.
    ///
    /// The caller applies UDP truncation via
    /// [`Message::encode_with_limit`] as transport dictates.
    pub fn answer(&self, query: &Message) -> (Message, AnswerKind) {
        let mut response = query.response();
        let (kind, rcode) = self.walk(query.question(), |section, record| {
            let records = match section {
                Section::Answer => &mut response.answers,
                Section::Authority => &mut response.authorities,
                Section::Additional => &mut response.additionals,
            };
            records.push(record.clone());
        });
        response.header.rcode = rcode;
        response.header.authoritative = kind.is_authoritative();
        (response, kind)
    }

    /// Answers the query in `query`, the buffer `start` was taken from
    /// ([`MessageView::reply_start`]), in that buffer: byte for byte what
    /// decode → [`Authority::answer`] → `encode_with_limit(limit)` gives
    /// (`usize::MAX` for a transport without a limit), without the owned
    /// query, the owned response or a copy of any record.
    ///
    /// # Errors
    ///
    /// [`dnswire::WireError::TooLarge`] if the question section alone
    /// exceeds `limit`.
    ///
    /// [`MessageView::reply_start`]: dnswire::view::MessageView::reply_start
    pub fn answer_wire(&self, query: Vec<u8>, start: ReplyStart, limit: usize) -> WireResult<Vec<u8>> {
        let mut reply = Writer::over(query, start);
        reply.limit(limit);
        let question = reply.question();
        let (kind, rcode) = self.walk(question.as_ref(), |section, record| reply.push(section, record));
        reply.header.rcode = rcode;
        reply.header.authoritative = kind.is_authoritative();
        reply.finish_limited().map(|(wire, _)| wire)
    }

    /// The zone walk: classifies `question` and hands `select` each record
    /// of the response, borrowed from the zone, sections in order. Returns
    /// the classification and the response code that goes with it.
    fn walk<'z>(
        &'z self,
        question: Option<&Question>,
        mut select: impl FnMut(Section, &'z Record),
    ) -> (AnswerKind, Rcode) {
        let Some(question) = question else {
            return (AnswerKind::NotAuth, Rcode::FormErr);
        };
        let qname = &question.name;
        let qtype = question.qtype;

        let Some(zone) = self.best_zone(qname) else {
            return (AnswerKind::NotAuth, Rcode::Refused);
        };

        // Delegation below a zone cut → referral (not authoritative): the
        // cut's NS records, then the glue of each in the same order.
        if let Some((_cut, ns_records)) = zone.delegation_for(qname) {
            for ns in ns_records {
                select(Section::Authority, ns);
            }
            for ns in ns_records {
                if let RData::Ns(ns_name) = &ns.rdata {
                    for glue in zone.glue(ns_name) {
                        select(Section::Additional, glue);
                    }
                }
            }
            return (AnswerKind::Referral, Rcode::NoError);
        }

        // Exact-type match.
        if let Some(records) = zone.lookup(qname, qtype) {
            for record in records {
                select(Section::Answer, record);
            }
            return (AnswerKind::Authoritative, Rcode::NoError);
        }

        // CNAME chain within the zone (bounded).
        if qtype != RrType::Cname {
            let mut current = qname;
            let mut followed = 0;
            let mut aliased = false;
            while let Some(cnames) = zone.lookup(current, RrType::Cname) {
                aliased = true;
                for cname in cnames {
                    select(Section::Answer, cname);
                }
                let Some(RData::Cname(target)) = cnames.first().map(|r| &r.rdata) else {
                    break;
                };
                current = target;
                followed += 1;
                if followed > 8 {
                    break;
                }
                if let Some(records) = zone.lookup(current, qtype) {
                    for record in records {
                        select(Section::Answer, record);
                    }
                    return (AnswerKind::Authoritative, Rcode::NoError);
                }
            }
            if aliased {
                // CNAME present but target unresolved here.
                return (AnswerKind::Authoritative, Rcode::NoError);
            }
        }

        // Name exists (possibly only as an empty non-terminal) → NODATA,
        // else NXDOMAIN. Both carry the SOA for negative caching.
        select(Section::Authority, zone.soa());
        if zone.name_exists(qname) || qname == zone.apex() {
            (AnswerKind::NoData, Rcode::NoError)
        } else {
            (AnswerKind::NxDomain, Rcode::NxDomain)
        }
    }
}

/// Entries an [`AnswerCache`] holds: a direct-mapped table of this many
/// slots, each one query and its reply of at most [`MAX_UDP_PAYLOAD`] bytes.
pub const SLOTS: usize = 256;

/// The transport a query came over: it sets the reply's size limit and
/// whether a response-flagged datagram is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Replies truncate at [`MAX_UDP_PAYLOAD`]; a response-flagged
    /// datagram is not answered, so a server cannot be made to reflect.
    Udp,
    /// Replies have no limit; every parseable message is answered.
    Tcp,
}

impl Transport {
    fn limit(self) -> usize {
        match self {
            Transport::Udp => MAX_UDP_PAYLOAD,
            Transport::Tcp => usize::MAX,
        }
    }
}

/// What [`AnswerCache::reply`] did with a datagram.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A held reply behind the query's id, without a parse or a zone walk.
    Cached(Vec<u8>),
    /// [`Authority::answer_wire`]'s reply.
    Fresh(Vec<u8>),
    /// A response-flagged datagram over UDP: not answered.
    Response,
    /// Not a DNS message: not answered.
    Unparseable,
    /// A query whose answer failed: its question section alone passes the
    /// transport's limit.
    Failed,
}

impl Reply {
    /// Whether the datagram was a query the server served, answered or
    /// not: what a server charges and counts.
    pub fn is_query(&self) -> bool {
        matches!(self, Reply::Cached(_) | Reply::Fresh(_) | Reply::Failed)
    }

    /// The reply's bytes, if there is one to send.
    pub fn into_wire(self) -> Option<Vec<u8>> {
        match self {
            Reply::Cached(wire) | Reply::Fresh(wire) => Some(wire),
            Reply::Response | Reply::Unparseable | Reply::Failed => None,
        }
    }
}

/// One held answer: the query's bytes after its id and the reply's.
#[derive(Debug)]
struct Entry {
    transport: Transport,
    key: Vec<u8>,
    reply: Vec<u8>,
}

/// A packet cache in front of [`Authority::answer_wire`], owned by one
/// server: the one way a server answers a datagram.
///
/// The key is the transport and the query's bytes after its 2-byte id. The
/// reply's bytes after the id are a function of that key alone — the
/// `Writer` takes the header from the query's and copies the question as
/// it lies, and the zone walk reads an immutable [`Authority`] — so a hit is
/// byte for byte what `answer_wire` returns. The one way a parse reads the
/// id is a compression pointer to offset 0 or 1; a query holding the bytes
/// of one anywhere is answered but not held. A hit compares the whole key,
/// so a colliding or forged query can only miss.
///
/// The table is direct-mapped over [`SLOTS`] slots and allocated on the
/// first store. A query or reply over [`MAX_UDP_PAYLOAD`] bytes is answered
/// but not held, so a server holds at most `SLOTS` queries and replies of at
/// most that size.
///
/// # Examples
///
/// ```
/// use server::authoritative::{AnswerCache, Authority, Reply, Transport};
/// use server::zone::paper_hierarchy;
/// use dnswire::message::Message;
/// use dnswire::types::RrType;
///
/// let (_, _, foo) = paper_hierarchy();
/// let authority = Authority::new(vec![foo]);
/// let mut cache = AnswerCache::default();
/// let ask = |id| Message::query(id, "www.foo.com".parse().unwrap(), RrType::A).encode();
/// let Reply::Fresh(first) = cache.reply(&authority, ask(1), Transport::Udp) else { panic!() };
/// let Reply::Cached(second) = cache.reply(&authority, ask(2), Transport::Udp) else { panic!() };
/// assert_eq!(second[..2], [0, 2], "under the asker's id");
/// assert_eq!(first[2..], second[2..]);
/// ```
#[derive(Debug, Default)]
pub struct AnswerCache {
    slots: Vec<Option<Entry>>,
}

impl AnswerCache {
    /// Answers the datagram `query` that came over `transport`: from the
    /// held reply when its bytes after the id match one, else through
    /// [`Authority::answer_wire`], whose reply is then held.
    pub fn reply(&mut self, authority: &Authority, mut query: Vec<u8>, transport: Transport) -> Reply {
        let key = query.get(2..).unwrap_or_default();
        let slot = slot_of(transport, key);
        let held = self.slots.get(slot).and_then(Option::as_ref);
        if let Some(entry) = held.filter(|e| e.transport == transport && e.key == key) {
            query.truncate(2);
            query.extend_from_slice(&entry.reply);
            return Reply::Cached(query);
        }
        let Ok(view) = MessageView::parse(&query) else {
            return Reply::Unparseable;
        };
        if view.header.response && transport == Transport::Udp {
            return Reply::Response;
        }
        let start = view.reply_start();
        let key = (query.len() <= MAX_UDP_PAYLOAD && !reads_id(&query)).then(|| query[2..].to_vec());
        let Ok(wire) = authority.answer_wire(query, start, transport.limit()) else {
            return Reply::Failed;
        };
        if let Some(key) = key.filter(|_| wire.len() <= MAX_UDP_PAYLOAD) {
            if self.slots.is_empty() {
                self.slots.resize_with(SLOTS, || None);
            }
            let reply = wire[2..].to_vec();
            self.slots[slot] = Some(Entry { transport, key, reply });
        }
        Reply::Fresh(wire)
    }

    /// The entries held, as `(key, reply)` byte pairs.
    #[cfg(test)]
    fn held(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.slots.iter().flatten().map(|e| (&e.key[..], &e.reply[..]))
    }
}

/// The slot of `key` over `transport`: a multiply-rotate over its 8-byte
/// words. Any spread will do, since a hit compares the whole key.
fn slot_of(transport: Transport, key: &[u8]) -> usize {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = transport as u64;
    for chunk in key.chunks(8) {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K).rotate_left(29);
    }
    (h.wrapping_mul(K) >> 32) as usize % SLOTS
}

/// Whether `query` holds, after its id, the bytes of a compression pointer
/// to offset 0 or 1 — the only way a parse can read the id. A byte pair
/// that merely looks like one only costs a miss.
fn reads_id(query: &[u8]) -> bool {
    query.get(2..).unwrap_or_default().windows(2).any(|w| matches!(w, [0xC0, 0 | 1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{paper_hierarchy, ZoneBuilder, COM_SERVER, FOO_SERVER, WWW_ADDR};
    use dnswire::cookie_ext::attach_cookie;
    use dnswire::message::MAX_UDP_PAYLOAD;
    use dnswire::types::RrClass;
    use dnswire::view::MessageView;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn q(name: &str, t: RrType) -> Message {
        Message::iterative_query(9, n(name), t)
    }

    #[test]
    fn root_refers_to_com_with_glue() {
        let (root, _, _) = paper_hierarchy();
        let authority = Authority::new(vec![root]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Referral);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities[0].name, n("com"));
        assert_eq!(resp.additionals[0].rdata, RData::A(COM_SERVER));
        assert!(!resp.header.authoritative);
    }

    #[test]
    fn com_refers_to_foo() {
        let (_, com, _) = paper_hierarchy();
        let authority = Authority::new(vec![com]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Referral);
        assert_eq!(resp.authorities[0].name, n("foo.com"));
        assert_eq!(resp.additionals[0].rdata, RData::A(FOO_SERVER));
    }

    #[test]
    fn foo_answers_authoritatively() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(resp.header.authoritative);
        assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));
    }

    #[test]
    fn nxdomain_carries_soa() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("missing.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::NxDomain);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert!(matches!(resp.authorities[0].rdata, RData::Soa(_)));
    }

    #[test]
    fn nodata_for_existing_name_wrong_type() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::Mx));
        assert_eq!(kind, AnswerKind::NoData);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn refused_outside_authority() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("www.bar.org", RrType::A));
        assert_eq!(kind, AnswerKind::NotAuth);
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn cname_followed_within_zone() {
        let zone = ZoneBuilder::new(n("foo.com"))
            .record(Record::new(n("alias.foo.com"), 60, RData::Cname(n("www.foo.com"))))
            .a(n("www.foo.com"), Ipv4Addr::new(9, 9, 9, 9))
            .build();
        let authority = Authority::new(vec![zone]);
        let (resp, kind) = authority.answer(&q("alias.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative);
        assert_eq!(resp.answers.len(), 2);
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        assert_eq!(resp.answers[1].rdata, RData::A(Ipv4Addr::new(9, 9, 9, 9)));
    }

    #[test]
    fn deepest_zone_preferred_over_parent() {
        let (root, com, foo) = paper_hierarchy();
        let authority = Authority::new(vec![root, com, foo]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative, "foo.com zone answers, not a referral");
        assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));
    }

    #[test]
    fn empty_question_formerr() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let mut query = Message::default();
        query.header.id = 3;
        let (resp, _) = authority.answer(&query);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }

    /// A `foo.com` zone with everything the walk branches on: an alias, a
    /// chain of aliases longer than the walk follows, a loop, an alias that
    /// leaves the zone, a name below an empty one, a delegation with two
    /// servers and an address set that does not fit one UDP payload.
    fn cname_chain_zone() -> Zone {
        let mut zone = ZoneBuilder::new(n("foo.com"))
            .ns(n("ns1.foo.com"), FOO_SERVER)
            .a(n("www.foo.com"), WWW_ADDR)
            .a(n("leaf.deep.foo.com"), WWW_ADDR)
            .record(Record::new(n("alias.foo.com"), 60, RData::Cname(n("www.foo.com"))))
            .record(Record::new(n("away.foo.com"), 60, RData::Cname(n("www.bar.org"))))
            .record(Record::new(n("loop.foo.com"), 60, RData::Cname(n("pool.foo.com"))))
            .record(Record::new(n("pool.foo.com"), 60, RData::Cname(n("loop.foo.com"))))
            .record(Record::txt(n("www.foo.com"), b"v=spf1 -all".to_vec(), 300))
            .delegate(n("sub.foo.com"), n("ns1.sub.foo.com"), Ipv4Addr::new(192, 0, 2, 61))
            .delegate(n("sub.foo.com"), n("ns2.sub.foo.com"), Ipv4Addr::new(192, 0, 2, 62));
        for i in 0..12u8 {
            let target = if i == 11 { n("www.foo.com") } else { n(&format!("a{}.foo.com", i + 1)) };
            zone = zone.record(Record::new(n(&format!("a{i}.foo.com")), 60, RData::Cname(target)));
        }
        for i in 0..40u8 {
            zone = zone.a(n("big.foo.com"), Ipv4Addr::new(10, 0, 0, i));
        }
        zone.build()
    }

    fn authorities() -> Vec<Authority> {
        let (root, com, foo) = paper_hierarchy();
        vec![
            Authority::new(vec![root.clone()]),
            Authority::new(vec![com.clone()]),
            Authority::new(vec![foo.clone()]),
            Authority::new(vec![root, com, foo]),
            Authority::new(vec![cname_chain_zone()]),
        ]
    }

    /// Answers `query` both ways under a UDP payload limit, checks that the
    /// bytes agree, and returns the decoded reply with its kind.
    fn answered(authority: &Authority, query: &Message) -> (Message, AnswerKind) {
        let wire = query.encode();
        let start = MessageView::parse(&wire).unwrap().reply_start();
        let reply = authority.answer_wire(wire, start, MAX_UDP_PAYLOAD).unwrap();
        let (owned, kind) = authority.answer(query);
        assert_eq!(reply, owned.encode_with_limit(MAX_UDP_PAYLOAD).unwrap().0);
        (Message::decode(&reply).unwrap(), kind)
    }

    /// Every kind of answer, the truncated one and the refused ones
    /// included, is the same bytes from the wire entry point.
    #[test]
    fn each_kind_of_answer_is_reached_on_the_wire() {
        let chain = &authorities()[4];
        let (reply, kind) = answered(chain, &q("x.SUB.foo.com", RrType::A));
        assert_eq!((kind, reply.authorities.len(), reply.additionals.len()), (AnswerKind::Referral, 2, 2));
        let (reply, kind) = answered(chain, &q("alias.foo.com", RrType::A));
        assert_eq!((kind, reply.answers.len(), reply.header.authoritative), (AnswerKind::Authoritative, 2, true));
        let (reply, _) = answered(chain, &q("a0.foo.com", RrType::A));
        assert_eq!(reply.answers.len(), 9, "nine aliases followed, the tenth not");
        let (reply, _) = answered(chain, &q("loop.foo.com", RrType::A));
        assert_eq!(reply.answers.len(), 9);
        let (reply, kind) = answered(chain, &q("away.foo.com", RrType::A));
        assert_eq!((kind, reply.answers.len()), (AnswerKind::Authoritative, 1));
        let (reply, kind) = answered(chain, &q("big.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(reply.header.truncated && reply.answers.len() < 40);
        let (reply, kind) = answered(chain, &q("www.foo.com", RrType::Mx));
        assert_eq!((kind, reply.header.rcode), (AnswerKind::NoData, Rcode::NoError));
        let (reply, kind) = answered(chain, &q("nope.foo.com", RrType::A));
        assert_eq!((kind, reply.header.rcode), (AnswerKind::NxDomain, Rcode::NxDomain));
        let (reply, kind) = answered(chain, &q("www.bar.org", RrType::A));
        assert_eq!((kind, reply.header.rcode), (AnswerKind::NotAuth, Rcode::Refused));
        let mut questionless = q("www.foo.com", RrType::A);
        questionless.questions.clear();
        let (reply, kind) = answered(chain, &questionless);
        assert_eq!((kind, reply.header.rcode), (AnswerKind::NotAuth, Rcode::FormErr));
    }

    /// Names over the labels the zones know (and a few they do not), in the
    /// case the zone has them or 0x20-style mixed.
    fn arb_qname() -> impl Strategy<Value = Name> {
        const LABELS: [&str; 16] = [
            "www", "foo", "com", "alias", "away", "loop", "a0", "a5", "big", "deep", "leaf", "sub", "ns1", "missing",
            "org", "net",
        ];
        const NAMES: [&str; 9] = [
            "www.foo.com", "alias.foo.com", "a0.foo.com", "loop.foo.com", "away.foo.com", "big.foo.com",
            "deep.foo.com", "x.sub.foo.com", "nope.foo.com",
        ];
        let label = (0..LABELS.len(), any::<u16>()).prop_map(|(i, case)| {
            let cased = LABELS[i].bytes().enumerate().map(|(k, b)| match case >> (k % 16) & 1 {
                1 => b.to_ascii_uppercase(),
                _ => b,
            });
            cased.collect::<Vec<u8>>()
        });
        prop_oneof![
            proptest::collection::vec(label, 0..5).prop_map(|labels| Name::from_labels(labels).unwrap()),
            (0..NAMES.len()).prop_map(|i| n(NAMES[i])),
        ]
    }

    fn arb_qtype() -> impl Strategy<Value = RrType> {
        const TYPES: [RrType; 8] = [
            RrType::A,
            RrType::Ns,
            RrType::Cname,
            RrType::Mx,
            RrType::Aaaa,
            RrType::Txt,
            RrType::Soa,
            RrType::Other(99),
        ];
        (0..TYPES.len()).prop_map(|i| TYPES[i])
    }

    /// A query datagram: `shape` picks one literal question, none, two
    /// (short, or so long that the question section alone passes a UDP
    /// payload), or the root name as a compression pointer; `extra` adds an
    /// EDNS record, a cookie, or both.
    fn arb_query() -> impl Strategy<Value = Vec<u8>> {
        (any::<u16>(), arb_qname(), arb_qtype(), 0u8..7, 0u8..4, any::<bool>()).prop_map(
            |(id, qname, qtype, shape, extra, recursive)| {
                let mut query = Message::iterative_query(id, qname, qtype);
                query.header.recursion_desired = recursive;
                match shape {
                    0 => query.questions.clear(),
                    1 => query.questions.push(Question::new(n("foo.com"), RrType::Ns)),
                    2 => {
                        let long = Name::from_labels([[b'a'; 63], [b'b'; 63], [b'c'; 63]]).unwrap();
                        let long = long.child([b'd'; 61]).unwrap();
                        query.questions = vec![Question::new(long.clone(), qtype), Question::new(long, RrType::A)];
                    }
                    3 => query.questions[0].name = Name::root(),
                    _ => {}
                }
                if extra & 1 == 1 {
                    // An empty EDNS(0) OPT record offering a 1232-byte payload.
                    query.additionals.push(Record {
                        name: Name::root(),
                        rtype: RrType::Opt,
                        class: RrClass::Other(1232),
                        ttl: 0,
                        rdata: RData::Unknown(Vec::new()),
                    });
                }
                if extra & 2 == 2 {
                    attach_cookie(&mut query, [7; 16], 0);
                }
                let mut wire = query.encode();
                if shape == 3 {
                    // The root question name (one zero octet) as a pointer
                    // to another: the high byte of QDCOUNT.
                    wire.splice(12..13, [0xC0, 0x04]);
                }
                wire
            },
        )
    }

    proptest! {
        /// The wire entry point answers every query byte for byte as decode
        /// → `answer` → encode does, under a UDP payload limit and without
        /// one.
        #[test]
        fn wire_answer_is_the_owned_answer_encoded(
            which in 0usize..5,
            query in arb_query(),
            udp in any::<bool>(),
        ) {
            let authority = &authorities()[which];
            let owned = authority.answer(&Message::decode(&query).unwrap()).0;
            let start = MessageView::parse(&query).unwrap().reply_start();
            if udp {
                let expected = owned.encode_with_limit(MAX_UDP_PAYLOAD).map(|(wire, _)| wire);
                prop_assert_eq!(authority.answer_wire(query, start, MAX_UDP_PAYLOAD), expected);
            } else {
                prop_assert_eq!(authority.answer_wire(query, start, usize::MAX), Ok(owned.encode()));
            }
        }
    }

    /// What a server without a cache sends for `datagram` over
    /// `transport`: `answer_wire` over a fresh buffer, under the
    /// transport's rules.
    fn uncached(authority: &Authority, datagram: &[u8], transport: Transport) -> Option<Vec<u8>> {
        let view = MessageView::parse(datagram).ok()?;
        if view.header.response && transport == Transport::Udp {
            return None;
        }
        authority.answer_wire(datagram.to_vec(), view.reply_start(), transport.limit()).ok()
    }

    fn with_id(datagram: &[u8], id: u16) -> Vec<u8> {
        let mut out = datagram.to_vec();
        if let Some(head) = out.get_mut(..2) {
            head.copy_from_slice(&id.to_be_bytes());
        }
        out
    }

    /// A query for a name of its own whose key falls in `datagram`'s slot,
    /// found by searching names against the hash.
    fn collider(datagram: &[u8], transport: Transport) -> Vec<u8> {
        let slot = slot_of(transport, datagram.get(2..).unwrap_or_default());
        (0u32..)
            .map(|i| q(&format!("collide{i}.foo.com"), RrType::A).encode())
            .find(|wire| slot_of(transport, &wire[2..]) == slot)
            .unwrap()
    }

    /// A datagram an ANS may receive: a query of [`arb_query`]'s under
    /// other header flags (the response flag among them) or with its
    /// question name a pointer into the id, cut short, or garbage.
    fn arb_datagram() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            arb_query(),
            arb_query(),
            (arb_query(), any::<u16>()).prop_map(|(mut wire, flags)| {
                wire[2..4].copy_from_slice(&flags.to_be_bytes());
                wire
            }),
            (arb_query(), 0u8..2).prop_map(|(mut wire, at)| {
                if let Some(root) = wire[12..].iter().position(|&b| b == 0) {
                    wire.splice(12..=12 + root, [0xC0, at]);
                }
                wire
            }),
            (arb_query(), 0usize..64).prop_map(|(mut wire, keep)| {
                wire.truncate(keep);
                wire
            }),
            proptest::collection::vec(any::<u8>(), 0..40),
        ]
    }

    proptest! {
        /// A datagram served cold, warm under another id, and again after
        /// a colliding question has taken its slot gets `answer_wire`'s
        /// bytes on a fresh buffer each time; a held reply carries the
        /// asking query's id; and a response-flagged or unparseable
        /// datagram never gets a UDP answer.
        #[test]
        fn a_cached_answer_is_the_fresh_answer(
            which in 0usize..5,
            datagram in arb_datagram(),
            ids in (any::<u16>(), any::<u16>(), any::<u16>()),
            tcp in any::<bool>(),
        ) {
            let authority = &authorities()[which];
            let transport = if tcp { Transport::Tcp } else { Transport::Udp };
            let collider = collider(&datagram, transport);
            let mut cache = AnswerCache::default();
            let mut serve = |asked: &[u8]| {
                let reply = cache.reply(authority, asked.to_vec(), transport);
                if let Reply::Cached(wire) = &reply {
                    prop_assert_eq!(&wire[..2], &asked[..2], "a held reply under the asker's id");
                }
                let refused = MessageView::parse(asked).map_or(true, |view| view.header.response && !tcp);
                if refused {
                    prop_assert!(matches!(reply, Reply::Response | Reply::Unparseable), "{:?}", reply);
                }
                prop_assert_eq!(reply.clone().into_wire(), uncached(authority, asked, transport));
                Ok(reply)
            };
            serve(&datagram)?;
            serve(&with_id(&datagram, ids.0))?;
            serve(&collider)?;
            let evicted = serve(&with_id(&datagram, ids.1))?;
            prop_assert!(!matches!(evicted, Reply::Cached(_)), "the collider took the slot");
            serve(&with_id(&datagram, ids.2))?;
        }
    }

    /// A repeated question is served from the table under each asker's id,
    /// UDP and TCP entries apart.
    #[test]
    fn a_repeated_question_is_held_per_transport() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let mut cache = AnswerCache::default();
        let ask = |id| with_id(&q("www.foo.com", RrType::A).encode(), id);
        assert!(matches!(cache.reply(&authority, ask(1), Transport::Udp), Reply::Fresh(_)));
        assert!(matches!(cache.reply(&authority, ask(2), Transport::Tcp), Reply::Fresh(_)));
        for id in [3, 4] {
            let Reply::Cached(wire) = cache.reply(&authority, ask(id), Transport::Udp) else {
                panic!("a warm question is held");
            };
            assert_eq!(Some(wire), uncached(&authority, &ask(id), Transport::Udp));
        }
        assert!(matches!(cache.reply(&authority, ask(5), Transport::Tcp), Reply::Cached(_)));
    }

    /// However many distinct questions pass, the table holds at most
    /// `SLOTS` entries of at most a UDP payload each, and every answer is
    /// right; an answer larger than that goes out over TCP but is not held.
    #[test]
    fn the_table_is_bounded() {
        let authority = &authorities()[4];
        let mut cache = AnswerCache::default();
        for i in 0..10_000u32 {
            let name = match i % 3 {
                0 => format!("n{i}.foo.com"),
                1 => format!("n{i}.sub.foo.com"),
                _ => format!("a{}.foo.com", i % 12),
            };
            let query = Message::iterative_query(i as u16, n(&name), RrType::A).encode();
            let expected = uncached(authority, &query, Transport::Udp);
            assert_eq!(cache.reply(authority, query, Transport::Udp).into_wire(), expected, "{name}");
        }
        let held: Vec<_> = cache.held().collect();
        assert!(held.len() <= SLOTS, "{} entries", held.len());
        assert!(held.iter().all(|(key, reply)| key.len() <= MAX_UDP_PAYLOAD && reply.len() <= MAX_UDP_PAYLOAD));

        let big = q("big.foo.com", RrType::A).encode();
        let mut cache = AnswerCache::default();
        for _ in 0..2 {
            let Reply::Fresh(wire) = cache.reply(authority, big.clone(), Transport::Tcp) else {
                panic!("an oversize answer is never held");
            };
            assert!(wire.len() > MAX_UDP_PAYLOAD);
            assert_eq!(Some(wire), uncached(authority, &big, Transport::Tcp));
        }
        assert_eq!(cache.held().count(), 0);
    }
}
