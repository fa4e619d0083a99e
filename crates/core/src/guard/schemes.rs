//! What the cookie schemes put on the wire, with no guard around it: the
//! fabricated NS label, the `COOKIE2` address space, the query on its way to
//! the ANS, and the two answers the guard writes itself.

use super::keys::Keys;
use crate::config::GuardConfig;
use dnswire::cookie_ext;
use dnswire::header::Header;
use dnswire::message::Message;
use dnswire::name::MAX_LABEL_LEN;
use dnswire::question::{Question, NO_QUESTION};
use dnswire::record::Record;
use dnswire::types::{Rcode, RrClass, RrType};
use dnswire::view::MessageView;
use dnswire::writer::{Section, Writer};
use guardhash::cookie::{Cookie, CookieFactory, NS_COOKIE_BYTES, NS_PREFIX};
use std::net::Ipv4Addr;

/// A cookie encoding, as the `verify` counters and events name it.
#[derive(Clone, Copy)]
pub(super) enum Scheme {
    /// The modified-DNS extension.
    Ext,
    /// The `COOKIE2` destination address (message 7).
    Cookie2,
    /// The fabricated NS label (message 3).
    NsLabel,
}

/// A query on its way to the ANS.
pub(super) enum Outgoing<'a> {
    /// An owned query, encoded under the upstream transaction id.
    Owned(Message),
    /// A verified query still in its receive buffer: what goes upstream is
    /// its question bytes behind a fresh header
    /// ([`MessageView::question_only`]) when it has that shape — one
    /// spelled-out question and no record but the cookie — and the owned
    /// query without its cookie otherwise.
    Received(&'a MessageView<'a>),
    /// The query a cookie name stood for, restored: `question` asked
    /// iteratively under the requester's `id`, written as it stands.
    Restored { id: u16, question: &'a Question },
}

impl Outgoing<'_> {
    /// The requester's transaction id.
    pub(super) fn id(&self) -> u16 {
        match self {
            Outgoing::Owned(msg) => msg.header.id,
            Outgoing::Received(view) => view.header.id,
            Outgoing::Restored { id, .. } => *id,
        }
    }

    /// The digest of the question the ANS will be asked.
    pub(super) fn question(&self) -> u64 {
        match self {
            Outgoing::Owned(msg) => msg.question().map_or(NO_QUESTION, Question::digest),
            Outgoing::Received(view) => view.question_digest(),
            Outgoing::Restored { question, .. } => question.digest(),
        }
    }

    /// The datagram for the ANS, under transaction id `txid`.
    pub(super) fn into_wire(self, txid: u16) -> Vec<u8> {
        let mut msg = match self {
            Outgoing::Owned(msg) => msg,
            Outgoing::Received(view) => match view.question_only(txid) {
                Some(wire) => return wire,
                None => {
                    let mut msg = view.to_message();
                    cookie_ext::strip_cookie(&mut msg);
                    msg
                }
            },
            Outgoing::Restored { question, .. } => {
                let header = Header::iterative_query(txid);
                return Writer::new(header, std::slice::from_ref(question)).finish();
            }
        };
        msg.header.id = txid;
        msg.encode()
    }
}

/// What the guard tells a source it has not verified, instead of serving it:
/// the question back, plus at most one record.
pub(super) enum FirstContact {
    /// TC set: come back over TCP.
    Truncated,
    /// The source's cookie, in the modified-DNS extension.
    Grant(Cookie),
    /// A fabricated referral: the NS record whose target's first label
    /// carries the cookie.
    Referral(Record),
}

/// The answer to the cookie-name question a DNS-based exchange is waiting
/// on, to query `id`: one address record under the cookie name per
/// `(class, ttl, address)`, or SERVFAIL when the ANS gave none to pass on.
pub(super) fn cookie_name_reply<'r>(
    id: u16,
    cookie_question: &Question,
    addresses: impl Iterator<Item = (RrClass, u32, &'r [u8])>,
) -> Vec<u8> {
    let header = Header {
        id,
        response: true,
        authoritative: true,
        rcode: Rcode::ServFail,
        ..Header::default()
    };
    let mut reply = Writer::new(header, std::slice::from_ref(cookie_question));
    for (class, ttl, address) in addresses {
        reply.header.rcode = Rcode::NoError;
        let owner = &cookie_question.name;
        reply.push_raw(Section::Answer, owner, RrType::A, class, ttl, |rdata| {
            rdata.extend_from_slice(address);
        });
    }
    reply.finish()
}

/// The hex digits of the cookie in a fabricated NS label.
const HEX_LEN: usize = 2 * NS_COOKIE_BYTES;

/// Builds the fabricated NS label on the stack: [`NS_PREFIX`], the cookie's
/// hex digits, then the first label of the target (child zone or query
/// name). Returns the buffer and the label's length, which can exceed what
/// a label may be.
pub(super) fn fabricate_label(
    cookies: &CookieFactory,
    src: Ipv4Addr,
    target_first_label: &[u8],
) -> ([u8; NS_PREFIX.len() + HEX_LEN + MAX_LABEL_LEN], usize) {
    let cookie = cookies.generate(src);
    let mut label = [0u8; NS_PREFIX.len() + HEX_LEN + MAX_LABEL_LEN];
    let mut len = 0;
    for part in [NS_PREFIX.as_bytes(), &cookie.ns_label_hex(), target_first_label] {
        if let Some(slot) = label.get_mut(len..len + part.len()) {
            slot.copy_from_slice(part);
            len += part.len();
        }
    }
    (label, len)
}

/// Parses a fabricated label back into `(hex_cookie, original_first_label)`.
/// The prefix check is case-insensitive because DNS names compare (and
/// our wire library canonicalises) case-insensitively.
pub(super) fn parse_cookie_label(label: &[u8]) -> Option<(&str, &[u8])> {
    let (prefix, rest) = label.split_at_checked(NS_PREFIX.len())?;
    if !prefix.eq_ignore_ascii_case(NS_PREFIX.as_bytes()) {
        return None;
    }
    let (hex, original) = rest.split_at_checked(HEX_LEN)?;
    let hex = std::str::from_utf8(hex).ok()?;
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some((hex, original))
}

/// The usable `COOKIE2` offset space — the hosts are `subnet_base + 1 ..=
/// subnet_base + subnet_range` — excluding the guard's own public address
/// when it falls inside the subnet (a `COOKIE2` equal to the public address
/// would be routed into the plain-query path).
fn cookie2_space(config: &GuardConfig) -> (u32, Option<u32>) {
    let base = u32::from(config.subnet_base);
    let public = u32::from(config.public_addr);
    let pub_off = public.checked_sub(base + 1).filter(|&off| off < config.subnet_range);
    let effective = config.subnet_range - pub_off.is_some() as u32;
    debug_assert!(effective >= 1, "cookie2 subnet too small");
    (effective, pub_off)
}

/// The `COOKIE2` address `src` is sent to.
pub(super) fn cookie2_addr(cookies: &CookieFactory, config: &GuardConfig, src: Ipv4Addr) -> Ipv4Addr {
    let (effective, pub_off) = cookie2_space(config);
    let y = cookies.generate_subnet_offset(src, effective);
    let y = match pub_off {
        Some(p) if y >= p => y + 1,
        _ => y,
    };
    Ipv4Addr::from(u32::from(config.subnet_base) + 1 + y)
}

/// Whether `dst` is the `COOKIE2` address `src` was sent to.
pub(super) fn cookie2_matches(
    cookies: &mut Keys,
    config: &GuardConfig,
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> bool {
    let (effective, pub_off) = cookie2_space(config);
    let base = u32::from(config.subnet_base);
    let host = u32::from(dst);
    if host <= base {
        return false;
    }
    let h = host - base - 1;
    if Some(h) == pub_off {
        return false;
    }
    let presented = match pub_off {
        Some(p) if h > p => h - 1,
        _ => h,
    };
    cookies.verify_subnet_offset(src, presented, effective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardhash::cookie::CookieAlg;

    #[test]
    fn cookie_label_round_trips() {
        let cookies = CookieFactory::from_seed(7);
        let src = Ipv4Addr::new(10, 1, 2, 3);
        for first in [&b"www"[..], b"", b"PR0a1b2c3dcom", &[b'x'; MAX_LABEL_LEN - 10]] {
            let (label, len) = fabricate_label(&cookies, src, first);
            assert_eq!(len, 10 + first.len());
            let (hex, original) = parse_cookie_label(&label[..len]).expect("a cookie label");
            assert_eq!(original, first);
            assert!(cookies.verify_ns_suffix(src, hex));
            assert!(!cookies.verify_ns_suffix(Ipv4Addr::new(10, 1, 2, 4), hex));
        }
        // The prefix folds case; everything else is exact.
        assert!(parse_cookie_label(b"pr0A1b2C3dwww").is_some());
        for not_a_cookie in [&b"PR0a1b2c3"[..], b"PQ0a1b2c3dwww", b"PR0a1b2c3gwww", b"P", b""] {
            assert_eq!(parse_cookie_label(not_a_cookie), None);
        }
    }

    #[test]
    fn a_label_too_long_to_carry_the_cookie_says_so() {
        let cookies = CookieFactory::from_seed(7);
        let (_, len) = fabricate_label(&cookies, Ipv4Addr::new(10, 1, 2, 3), &[b'x'; MAX_LABEL_LEN]);
        assert!(len > MAX_LABEL_LEN, "the caller's name construction refuses it");
    }

    #[test]
    fn every_source_matches_its_own_cookie2_address() {
        let mut cookies = Keys::new(11, CookieAlg::default());
        let base = Ipv4Addr::new(198, 41, 0, 0);
        let inside = Ipv4Addr::new(198, 41, 0, 4);
        let outside = Ipv4Addr::new(192, 0, 2, 1);
        for range in [16u32, 64, 127, 254, 255, 1024] {
            for public in [inside, outside] {
                let mut config = GuardConfig::new(public, Ipv4Addr::new(10, 99, 0, 1));
                config.subnet_base = base;
                config.subnet_range = range;
                let hosts = u32::from(base) + 1..=u32::from(base) + range;
                for n in 0..2_000u32 {
                    let src = Ipv4Addr::from(0x0A00_0000 + n * 7);
                    let addr = cookie2_addr(&cookies, &config, src);
                    assert!(hosts.contains(&u32::from(addr)), "{addr} outside range {range}");
                    assert_ne!(addr, public, "never the guard's own address");
                    assert!(cookie2_matches(&mut cookies, &config, src, addr));
                }
                let src = Ipv4Addr::new(10, 0, 0, 1);
                assert!(!cookie2_matches(&mut cookies, &config, src, base));
                assert!(!cookie2_matches(&mut cookies, &config, src, public));
                let matching = hosts.filter(|&h| cookie2_matches(&mut cookies, &config, src, h.into()));
                assert_eq!(matching.count(), 1, "one address per source");
            }
        }
    }

    #[test]
    fn cookie_name_reply_is_servfail_without_an_address() {
        let question = Question::new("PR0a1b2c3dwww.foo.com".parse().unwrap(), RrType::A);
        let none = Message::decode(&cookie_name_reply(7, &question, std::iter::empty())).unwrap();
        assert_eq!((none.header.id, none.header.rcode, none.answers.len()), (7, Rcode::ServFail, 0));
        let glue = [(RrClass::In, 60, &[192, 0, 2, 1][..]), (RrClass::In, 30, &[192, 0, 2, 2][..])];
        let two = Message::decode(&cookie_name_reply(8, &question, glue.into_iter())).unwrap();
        assert_eq!((two.header.rcode, two.answers.len()), (Rcode::NoError, 2));
        assert!(two.answers.iter().all(|r| r.name == question.name));
    }
}
