//! DNS wire format, implemented from scratch for the DNS Guard reproduction.
//!
//! The crate covers everything the paper's traffic needs:
//!
//! * [`name`] — domain names with RFC 1035 limits, text escapes, wire
//!   encoding and compression-pointer decoding;
//! * [`header`] / [`question`] / [`record`] / [`rdata`] — the message
//!   sections and the record types used by DNS delegation (A, NS, CNAME,
//!   SOA, PTR, MX, TXT, AAAA, OPT-as-opaque);
//! * [`message`] — whole messages with suffix-compressing encoder, strict
//!   decoder, and the 512-byte UDP truncation rule (TC bit) that the
//!   TCP-based guard scheme exploits;
//! * [`cookie_ext`] — the modified-DNS cookie extension of Figure 3(b): a
//!   root-owned TXT record in the additional section carrying a 16-byte
//!   cookie;
//! * [`view`] — the same strict decode without building anything: a
//!   borrowed, heap-free view of a datagram for verdicts taken before (or
//!   instead of) materialising a message;
//! * [`writer`] — a reply written over the query it answers: the received
//!   question bytes kept, the header patched, records appended through the
//!   encoder's compressor;
//! * [`framing`] — the two-byte length prefix of DNS over TCP.
//!
//! # Examples
//!
//! ```
//! use dnswire::message::Message;
//! use dnswire::record::Record;
//! use dnswire::types::RrType;
//! use std::net::Ipv4Addr;
//!
//! let query = Message::iterative_query(1, "www.foo.com".parse()?, RrType::A);
//! let mut referral = query.response();
//! referral.authorities.push(Record::ns("com".parse()?, "a.gtld-servers.net".parse()?, 172_800));
//! referral.additionals.push(Record::a("a.gtld-servers.net".parse()?, Ipv4Addr::new(192, 5, 6, 30), 172_800));
//! assert!(referral.is_referral());
//! let wire = referral.encode();
//! assert_eq!(Message::decode(&wire)?, referral);
//! # Ok::<(), dnswire::error::WireError>(())
//! ```

#![forbid(unsafe_code)]

pub mod cookie_ext;
pub mod error;
pub mod framing;
pub mod header;
pub mod message;
pub mod name;
pub mod question;
pub mod rdata;
pub mod record;
pub mod types;
pub mod view;
pub mod writer;

pub use error::{WireError, WireResult};
pub use message::Message;
pub use name::Name;
pub use question::Question;
pub use rdata::RData;
pub use record::Record;
pub use types::{Opcode, Rcode, RrClass, RrType};


#[cfg(test)]
mod proptests {
    use crate::cookie_ext::{append_cookie, attach_cookie, find_cookie, remove_cookie, strip_cookie, write_cookie, ZERO_COOKIE};
    use crate::message::Message;
    use crate::name::Name;
    use crate::question::Question;
    use crate::rdata::{RData, Soa};
    use crate::record::Record;
    use crate::types::{Rcode, RrClass, RrType};
    use crate::view::tests::assert_agrees;
    use crate::view::MessageView;
    use crate::writer::{Section, Writer};
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn arb_label() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            any::<u8>().prop_filter("printable", |b| (0x21..=0x7e).contains(b)),
            1..16,
        )
    }

    fn arb_name() -> impl Strategy<Value = Name> {
        proptest::collection::vec(arb_label(), 0..5)
            .prop_map(|labels| Name::from_labels(labels).unwrap_or_else(|_| Name::root()))
    }

    fn arb_rdata() -> impl Strategy<Value = RData> {
        prop_oneof![
            any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
            any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
            arb_name().prop_map(RData::Ns),
            arb_name().prop_map(RData::Cname),
            arb_name().prop_map(RData::Ptr),
            (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
                preference,
                exchange
            }),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..4)
                .prop_map(RData::Txt),
            (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
                |(mname, rname, serial, t)| RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh: t,
                    retry: t / 2,
                    expire: t.wrapping_mul(3),
                    minimum: 300,
                })
            ),
        ]
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (arb_name(), any::<u32>(), arb_rdata())
            .prop_map(|(name, ttl, rdata)| Record::new(name, ttl, rdata))
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        (
            any::<u16>(),
            arb_name(),
            proptest::collection::vec(arb_record(), 0..4),
            proptest::collection::vec(arb_record(), 0..3),
            proptest::collection::vec(arb_record(), 0..3),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(id, qname, ans, auth, add, aa, response)| {
                let mut m = Message::query(id, qname, RrType::A);
                m.header.response = response;
                m.header.authoritative = aa;
                m.header.rcode = if aa { Rcode::NoError } else { Rcode::NxDomain };
                m.answers = ans;
                m.authorities = auth;
                m.additionals = add;
                m
            })
    }

    /// Labels over an alphabet picked to collide: letters in both cases,
    /// and bytes a flat buffer could mistake for length octets (1, 2, `?` =
    /// 63) — so random pairs are often equal, often differ only in case,
    /// and often differ only in where the label boundaries fall.
    fn arb_confusable_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let byte = (0usize..8).prop_map(|i| b"aAbB\x01\x02?z"[i]);
        proptest::collection::vec(proptest::collection::vec(byte, 1..4), 0..4)
    }

    fn folded(labels: &[Vec<u8>]) -> Vec<Vec<u8>> {
        labels.iter().map(|l| l.to_ascii_lowercase()).collect()
    }

    fn hash_of(name: &Name) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        h.finish()
    }

    /// Messages built to stress the compressor: names over three labels in
    /// mixed case (shared suffixes, case-only twins), enough records to fill
    /// the inline offset array several times over, and TXT padding that
    /// pushes later names across the 0x4000 pointer limit.
    fn arb_dense_message() -> impl Strategy<Value = Message> {
        let label = (0usize..6).prop_map(|i| [&b"a"[..], b"A", b"b", b"foo", b"Foo", b"com"][i].to_vec());
        let name = proptest::collection::vec(label, 0..6)
            .prop_map(|labels| Name::from_labels(labels).unwrap_or_else(|_| Name::root()));
        let record = (name, 0usize..100).prop_map(|(name, roll)| match roll {
            0..=3 => Record::new(name, 60, RData::Txt(vec![vec![b'x'; 255]; 40])),
            _ => Record::ns(name.clone(), name, 60),
        });
        (arb_name(), proptest::collection::vec(record, 0..90)).prop_map(|(qname, mut records)| {
            let mut m = Message::query(1, qname, RrType::A).response();
            m.additionals = records.split_off(records.len() * 2 / 3);
            m.authorities = records.split_off(records.len() / 2);
            m.answers = records;
            m
        })
    }

    /// Question names a guard sees: anything, 0x20-style mixed case over a
    /// few shared labels, and names within a label's reach of the 255-byte
    /// limit.
    fn arb_qname() -> impl Strategy<Value = Name> {
        let mixed = (0usize..8).prop_map(|i| [&b"www"[..], b"wWw", b"foo", b"Foo", b"FOO", b"com", b"cOm", b"a"][i]);
        prop_oneof![
            arb_name(),
            proptest::collection::vec(mixed, 0..5).prop_map(|labels| Name::from_labels(labels).unwrap()),
            (52usize..=61, any::<u8>()).prop_map(|(last, fill)| {
                let byte = b'a' + fill % 26;
                Name::from_labels([vec![byte; 63], vec![b'B'; 63], vec![byte; 63], vec![b'c'; last]]).unwrap()
            }),
        ]
    }

    /// A query datagram in every shape the view has to tell apart: `shape`
    /// picks one literal question, none, two, or a question name that is a
    /// pointer into the header (to the root, or to a label); `tail` picks what follows the question — an
    /// OPT record, a cookie request, arbitrary records, those records with a
    /// cookie appended on the wire, or nothing.
    fn arb_query_wire() -> impl Strategy<Value = Vec<u8>> {
        (arb_message(), arb_qname(), 0u8..6, 0u8..5).prop_map(|(mut msg, qname, shape, tail)| {
            msg.header.response = false;
            msg.questions = vec![Question::new(qname, RrType::Aaaa)];
            match tail {
                0 => (msg.answers, msg.authorities, msg.additionals) = Default::default(),
                // An empty EDNS(0) OPT record offering a 1232-byte payload.
                1 => msg.additionals.push(Record {
                    name: Name::root(),
                    rtype: RrType::Opt,
                    class: RrClass::Other(1232),
                    ttl: 0,
                    rdata: RData::Unknown(Vec::new()),
                }),
                2 => attach_cookie(&mut msg, ZERO_COOKIE, 0),
                _ => {}
            }
            match shape {
                0 => msg.questions.clear(),
                1 => msg.questions.push(Question::new("Foo.com".parse().unwrap(), RrType::Ns)),
                2 | 3 => {
                    // Rewritten below; records that may point into the
                    // question cannot stay.
                    msg.questions[0].name = Name::root();
                    if tail == 3 {
                        (msg.answers, msg.authorities, msg.additionals) = Default::default();
                    }
                }
                _ => {}
            }
            let mut wire = msg.encode();
            match shape {
                // The root question name (one zero octet) as a pointer to
                // another zero octet: the high byte of QDCOUNT.
                2 => drop(wire.splice(12..13, [0xC0, 0x04])),
                // … or to the label "x" that id 0x0178 and a zero flags byte
                // spell at offset 0.
                3 => {
                    wire[..3].copy_from_slice(&[1, b'x', 0]);
                    wire.splice(12..13, [0xC0, 0x00]);
                }
                _ => {}
            }
            if tail == 4 {
                append_cookie(&mut wire, [0xC5; 16], 0);
            }
            wire
        })
    }

    proptest! {
        /// A cookie appended on the wire is the one `attach_cookie` +
        /// `encode` write, and removing it writes what decode →
        /// `strip_cookie` → encode writes — unless an earlier record is a
        /// cookie, which is then the one a view reads and is not last.
        #[test]
        fn the_cookie_on_the_wire_matches_the_owned_route(msg in arb_message(), cookie in any::<u128>(), ttl in any::<u32>()) {
            let mut wire = msg.encode();
            append_cookie(&mut wire, cookie.to_be_bytes(), ttl);
            let mut owned = msg.clone();
            attach_cookie(&mut owned, cookie.to_be_bytes(), ttl);
            prop_assert_eq!(&wire, &owned.encode());

            let mut stripped = Message::decode(&wire).unwrap();
            strip_cookie(&mut stripped);
            match remove_cookie(&MessageView::parse(&wire).unwrap()) {
                Some(bare) => prop_assert_eq!(bare, stripped.encode()),
                None => prop_assert!(find_cookie(&msg).is_some()),
            }
        }

        /// A record after the extension keeps it where it is; on any query
        /// the removal never panics, and what it writes parses, cookie-less.
        #[test]
        fn a_cookie_that_is_not_last_stays(msg in arb_message(), after in arb_record(), wire in arb_query_wire()) {
            let mut msg = msg;
            attach_cookie(&mut msg, [7; 16], 0);
            msg.additionals.push(after);
            let followed = msg.encode();
            prop_assert!(remove_cookie(&MessageView::parse(&followed).unwrap()).is_none());

            let view = MessageView::parse(&wire).unwrap();
            if let Some(bare) = remove_cookie(&view) {
                let bare_view = MessageView::parse(&bare).unwrap();
                prop_assert!(bare_view.cookie().is_none());
                prop_assert_eq!(bare_view.counts.additionals + 1, view.counts.additionals);
                prop_assert_eq!(&bare[12..], &wire[12..bare.len()]);
            }
        }

        /// A reply written over the received datagram equals the owned route
        /// — decode, `into_response()`, push, `encode()` — byte for byte,
        /// whichever way the writer came by its question section, and
        /// whatever is appended: TC, the cookie grant, or records whose
        /// owners share (or nearly share) the question name's suffixes.
        #[test]
        fn reply_over_the_query_matches_the_owned_encode(
            wire in arb_query_wire(),
            truncated in any::<bool>(),
            drop_labels in 0usize..4,
            flip_case in any::<bool>(),
            ns_target in arb_qname(),
            more in proptest::collection::vec(arb_record(), 0..3),
            grant in any::<bool>(),
            cookie in any::<u128>(),
        ) {
            assert_agrees(&wire);
            let view = MessageView::parse(&wire).unwrap();
            let mut owned = view.to_message().into_response();
            let mut reply = Writer::over(wire.clone(), view.reply_start());
            owned.header.truncated = truncated;
            reply.header.truncated = truncated;

            // A zone cut above the question name, as the classifier hands it
            // over: the query's own case, or another.
            let qname = owned.question().map_or_else(Name::root, |q| q.name.clone());
            let cut = qname.suffix(qname.label_count().saturating_sub(drop_labels));
            let cut = if flip_case { cut.with_case(|| true) } else { cut };
            let ns = Record::ns(cut, ns_target, 86_400);
            reply.push(Section::Authority, &ns);
            owned.authorities.push(ns);
            for record in more {
                reply.push(Section::Additional, &record);
                owned.additionals.push(record);
            }
            if grant {
                write_cookie(&mut reply, cookie.to_be_bytes(), 604_800);
                attach_cookie(&mut owned, cookie.to_be_bytes(), 604_800);
            }
            prop_assert_eq!(reply.finish(), owned.encode());
        }

        /// A reply cut to a limit as it is written equals the owned route cut
        /// by `encode_with_limit`, whichever way the writer came by its
        /// question section: the same records kept, the record that straddles
        /// the limit and everything behind it dropped, TC set — and
        /// `TooLarge` when the question section alone is already past it.
        #[test]
        fn limited_reply_matches_encode_with_limit(
            wire in arb_query_wire(),
            answers in proptest::collection::vec(arb_record(), 0..4),
            authorities in proptest::collection::vec(arb_record(), 0..3),
            additionals in proptest::collection::vec(arb_record(), 0..3),
            limit in 12usize..400,
            authoritative in any::<bool>(),
        ) {
            let view = MessageView::parse(&wire).unwrap();
            let mut owned = view.to_message().into_response();
            let mut reply = Writer::over(wire.clone(), view.reply_start());
            reply.limit(limit);
            prop_assert_eq!(reply.question(), owned.question().cloned());
            owned.header.authoritative = authoritative;
            reply.header.authoritative = authoritative;
            let sections = [
                (Section::Answer, answers, &mut owned.answers),
                (Section::Authority, authorities, &mut owned.authorities),
                (Section::Additional, additionals, &mut owned.additionals),
            ];
            for (section, records, kept) in sections {
                for record in &records {
                    reply.push(section, record);
                }
                *kept = records;
            }
            prop_assert_eq!(reply.finish_limited(), owned.encode_with_limit(limit));
            // `encode_with_limit` is itself a `Writer`; the encoder it
            // replaced is the independent oracle.
            prop_assert_eq!(
                owned.encode_with_limit(limit),
                crate::message::reference::encode_with_limit(&owned, limit)
            );
        }

        /// The allocation-free compressor emits exactly the bytes the
        /// `HashMap` one did.
        #[test]
        fn encode_matches_reference(msg in arb_message()) {
            prop_assert_eq!(msg.encode(), crate::message::reference::encode(&msg));
        }

        /// … including with more distinct suffixes than the inline array
        /// holds, case-only twins, and names on both sides of offset 0x4000;
        /// and truncation cuts where pop-and-re-encode did.
        #[test]
        fn dense_encode_matches_reference(msg in arb_dense_message(), limit in 12usize..40_000) {
            let wire = msg.encode();
            // (`prop_assert!`, not `_eq!`: a failure would print megabytes.)
            prop_assert!(wire == crate::message::reference::encode(&msg));
            prop_assert!(Message::decode(&wire).ok().as_ref() == Some(&msg));
            prop_assert!(
                msg.encode_with_limit(limit) == crate::message::reference::encode_with_limit(&msg, limit)
            );
        }

        /// `Eq`, `Hash` and `Ord` over the flat buffer agree with the
        /// label-by-label definition under case folding.
        #[test]
        fn eq_hash_ord_fold_case_per_label(a in arb_confusable_labels(), b in arb_confusable_labels()) {
            let (na, nb) = (Name::from_labels(&a).unwrap(), Name::from_labels(&b).unwrap());
            let (fa, fb) = (folded(&a), folded(&b));
            prop_assert_eq!(na == nb, fa == fb);
            prop_assert_eq!(na.cmp(&nb), fa.iter().rev().cmp(fb.iter().rev()));
            prop_assert_eq!(na.eq_case_sensitive(&nb), a == b);
            if na == nb {
                prop_assert_eq!(hash_of(&na), hash_of(&nb));
            }
            let upper = Name::from_labels(a.iter().map(|l| l.to_ascii_uppercase())).unwrap();
            prop_assert_eq!(&upper, &na);
            prop_assert_eq!(hash_of(&upper), hash_of(&na));
            prop_assert_eq!(upper.cmp(&na), std::cmp::Ordering::Equal);
            prop_assert_eq!(na.labels().map(<[u8]>::to_vec).collect::<Vec<_>>(), a);
        }

        /// Encode→decode round-trips arbitrary well-formed messages,
        /// including the compression pass.
        #[test]
        fn message_round_trip(msg in arb_message()) {
            let wire = msg.encode();
            let decoded = Message::decode(&wire);
            prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
            assert_agrees(&wire);
        }

        /// The decoder never panics on arbitrary bytes — and in this and the
        /// three tests below, the borrowed view is as total and reaches the
        /// same verdict: the same error, or the same header, cookie,
        /// question, first label, owned message and in-place forward.
        #[test]
        fn decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            assert_agrees(&bytes);
        }

        /// The decoder never panics on *corrupted* encodings of valid
        /// messages: random bit flips in real wire images reach structured
        /// paths (compression pointers, section counts, rdata lengths) that
        /// purely random bytes rarely hit. Decode may succeed or fail — it
        /// must only be total.
        #[test]
        fn decoder_total_under_bit_flips(
            msg in arb_message(),
            flips in proptest::collection::vec((any::<u16>(), 0u32..8), 1..8),
        ) {
            let mut wire = msg.encode();
            for (pos, bit) in flips {
                let i = pos as usize % wire.len();
                wire[i] ^= 1 << bit;
            }
            assert_agrees(&wire);
        }

        /// Cookie-bearing queries, where the view has most to get right: the
        /// cookie anywhere among the additionals, one question or two, and
        /// up to three flipped bits on top.
        #[test]
        fn view_agrees_on_cookie_queries(
            msg in arb_message(),
            cookie in any::<u128>(),
            at in any::<u8>(),
            second_question in any::<bool>(),
            bare in any::<bool>(),
            flips in proptest::collection::vec((any::<u16>(), 0u32..8), 0..4),
        ) {
            let mut msg = msg;
            msg.header.response = false;
            if bare {
                (msg.answers, msg.authorities, msg.additionals) = Default::default();
            }
            if second_question {
                msg.questions.push(msg.questions[0].clone());
            }
            let at = at as usize % (msg.additionals.len() + 1);
            let record = Record::txt(Name::root(), cookie.to_be_bytes().to_vec(), 60);
            msg.additionals.insert(at, record);
            let mut wire = msg.encode();
            assert_agrees(&wire);
            for (pos, bit) in flips {
                let i = pos as usize % wire.len();
                wire[i] ^= 1 << bit;
            }
            assert_agrees(&wire);
        }

        /// Fragment-substitution splices never panic the decode path: a
        /// reassembled datagram an attacker tampered with is an honest
        /// prefix up to the fragmentation cut plus an attacker-controlled
        /// second fragment — truncated, overlapping, oversized, or pure
        /// garbage. Decode may succeed or fail; it must only be total.
        #[test]
        fn decoder_total_under_fragment_splices(
            msg in arb_message(),
            cut in any::<u16>(),
            tail in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let wire = msg.encode();
            let cut = cut as usize % (wire.len() + 1);
            let mut spliced = wire[..cut].to_vec();
            spliced.extend_from_slice(&tail);
            assert_agrees(&spliced);
        }

        /// A second fragment copied from the *same* response but at the
        /// wrong offset (the overlap/shift case real reassemblers hit)
        /// never panics the decoder either.
        #[test]
        fn decoder_total_under_shifted_self_splices(
            msg in arb_message(),
            cut in any::<u16>(),
            shift in any::<u16>(),
        ) {
            let wire = msg.encode();
            let cut = cut as usize % (wire.len() + 1);
            let shift = shift as usize % (wire.len() + 1);
            let mut spliced = wire[..cut].to_vec();
            spliced.extend_from_slice(&wire[shift..]);
            assert_agrees(&spliced);
        }

        /// Truncated encodes stay within the limit, keep the question intact
        /// and set TC when records were dropped.
        #[test]
        fn truncation_respects_limit(msg in arb_message()) {
            let (wire, truncated) = msg.encode_with_limit(512).unwrap();
            prop_assert!(wire.len() <= 512);
            let decoded = Message::decode(&wire).unwrap();
            prop_assert_eq!(&decoded.questions, &msg.questions);
            prop_assert_eq!(decoded.header.truncated, truncated || msg.header.truncated);
        }

        /// Name text render→parse round-trips (Display is a faithful,
        /// escape-aware serialisation).
        #[test]
        fn name_text_round_trip(name in arb_name()) {
            let text = name.to_string();
            let parsed: Name = text.parse().unwrap();
            prop_assert_eq!(parsed, name);
        }

        /// Compression is transparent: decoding re-encoded output yields the
        /// same message again (idempotent round-trip).
        #[test]
        fn reencode_stable(msg in arb_message()) {
            let once = Message::decode(&msg.encode()).unwrap();
            let twice = Message::decode(&once.encode()).unwrap();
            prop_assert_eq!(once, twice);
        }
    }
}
