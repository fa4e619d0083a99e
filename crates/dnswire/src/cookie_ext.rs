//! The modified-DNS cookie extension (paper Figure 3(b)).
//!
//! A cookie rides in the additional section as a TXT record owned by the
//! root name, class IN, whose RDATA is a single 16-byte character-string.
//! A request carrying the **all-zero cookie** asks the remote guard to grant
//! a fresh cookie (message 2/3 of Figure 3(a)); grant and request are the
//! same size, so the exchange amplifies nothing.

use crate::message::Message;
use crate::name::Name;
use crate::rdata::RData;
use crate::record::Record;
use crate::types::{RrClass, RrType};
use crate::view::{MessageView, RecordView};
use crate::writer::{Section, Writer};

/// Size of the cookie carried by the extension.
pub const EXT_COOKIE_LEN: usize = 16;

/// The all-zero cookie that requests a cookie grant.
pub const ZERO_COOKIE: [u8; EXT_COOKIE_LEN] = [0u8; EXT_COOKIE_LEN];

/// A cookie extracted from (or destined for) the extension record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CookieExt {
    /// The 16-byte cookie value.
    pub cookie: [u8; EXT_COOKIE_LEN],
    /// The TTL of the carrying record — how long the local guard may cache
    /// the cookie.
    pub ttl: u32,
}

impl CookieExt {
    /// True when this is the all-zero "please grant me a cookie" value.
    pub fn is_request(&self) -> bool {
        self.cookie == ZERO_COOKIE
    }
}

/// Appends the cookie extension record to `msg`'s additional section.
///
/// Mirrors Figure 3(b): name = root, type = TXT, class = IN, RDATA = one
/// 16-byte character-string (RDLENGTH 0x0011).
pub fn attach_cookie(msg: &mut Message, cookie: [u8; EXT_COOKIE_LEN], ttl: u32) {
    msg.additionals
        .push(Record::new(Name::root(), ttl, RData::Txt(vec![cookie.to_vec()])));
}

/// [`attach_cookie`] for a message being written: appends the same 28 bytes
/// to `out`'s additional section, without building the record.
pub fn write_cookie(out: &mut Writer, cookie: [u8; EXT_COOKIE_LEN], ttl: u32) {
    out.push_raw(Section::Additional, &Name::root(), RrType::Txt, RrClass::In, ttl, |rdata| {
        rdata.push(EXT_COOKIE_LEN as u8);
        rdata.extend_from_slice(&cookie);
    });
}

/// Bytes of the extension record as [`attach_cookie`] + `encode` write it:
/// root owner, TYPE, CLASS, TTL, RDLENGTH and the 17 bytes of RDATA.
pub const EXT_RECORD_LEN: usize = 1 + 10 + 1 + EXT_COOKIE_LEN;

/// [`attach_cookie`] for a datagram `Message::encode` wrote: appends the
/// same [`EXT_RECORD_LEN`] bytes and counts the record in ARCOUNT, so the
/// result is what `attach_cookie` then `encode` would have written.
pub fn append_cookie(wire: &mut Vec<u8>, cookie: [u8; EXT_COOKIE_LEN], ttl: u32) {
    add_to_arcount(wire, 1);
    let [t0, t1, t2, t3] = ttl.to_be_bytes();
    // Root, TXT, IN, the TTL, RDLENGTH 17, and a 16-byte string.
    wire.extend_from_slice(&[0, 0, 16, 0, 1, t0, t1, t2, t3, 0, 17, 16]);
    wire.extend_from_slice(&cookie);
}

/// `view`'s datagram without the extension [`MessageView::cookie`] reads,
/// when that is its last record (a later name may point into it): then what
/// decode → [`strip_cookie`] → encode writes. `None` otherwise.
pub fn remove_cookie(view: &MessageView<'_>) -> Option<Vec<u8>> {
    view.cookie()?;
    let (wire, root) = (view.as_bytes(), Name::root());
    let is_cookie = |r: &RecordView<'_>| {
        r.section == Section::Additional && r.rtype == RrType::Txt && r.owner_is(&root) && cookie_in_txt(r.rdata(), r.ttl).is_some()
    };
    let record = view.records().find(is_cookie)?;
    let end = record.rdata_at + record.rdlen;
    let mut out = wire.get(..record.owner_at).filter(|_| end == wire.len())?.to_vec();
    add_to_arcount(&mut out, -1);
    Some(out)
}

fn add_to_arcount(wire: &mut [u8], delta: i16) {
    if let Some([hi, lo]) = wire.get_mut(10..12) {
        [*hi, *lo] = u16::from_be_bytes([*hi, *lo]).wrapping_add_signed(delta).to_be_bytes();
    }
}

/// Finds the cookie extension in `msg`, if present and well-formed.
pub fn find_cookie(msg: &Message) -> Option<CookieExt> {
    msg.additionals.iter().find_map(as_cookie_record)
}

/// Removes the cookie extension from `msg` and returns it. The remote guard
/// strips cookies before forwarding, so the ANS never sees the extension.
pub fn strip_cookie(msg: &mut Message) -> Option<CookieExt> {
    let idx = msg
        .additionals
        .iter()
        .position(|r| as_cookie_record(r).is_some())?;
    let record = msg.additionals.remove(idx);
    as_cookie_record(&record)
}

/// [`find_cookie`]'s test on a record still in its datagram: `rdata` is the
/// validated RDATA of a root-owned TXT record, and holds a cookie when it is
/// one character-string of 16 bytes.
pub(crate) fn cookie_in_txt(rdata: &[u8], ttl: u32) -> Option<CookieExt> {
    let (&len, string) = rdata.split_first()?;
    let cookie: [u8; EXT_COOKIE_LEN] = string.try_into().ok()?;
    (len as usize == EXT_COOKIE_LEN).then_some(CookieExt { cookie, ttl })
}

fn as_cookie_record(r: &Record) -> Option<CookieExt> {
    if r.rtype != RrType::Txt || !r.name.is_root() {
        return None;
    }
    let RData::Txt(strings) = &r.rdata else {
        return None;
    };
    let [first] = strings.as_slice() else {
        return None;
    };
    let bytes: [u8; EXT_COOKIE_LEN] = first.as_slice().try_into().ok()?;
    Some(CookieExt {
        cookie: bytes,
        ttl: r.ttl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RrType;

    fn query() -> Message {
        Message::query(42, "www.foo.com".parse().unwrap(), RrType::A)
    }

    #[test]
    fn attach_find_strip_round_trip() {
        let mut msg = query();
        assert!(find_cookie(&msg).is_none());
        let cookie = [7u8; 16];
        attach_cookie(&mut msg, cookie, 604_800);
        let found = find_cookie(&msg).unwrap();
        assert_eq!(found.cookie, cookie);
        assert_eq!(found.ttl, 604_800);
        assert!(!found.is_request());

        let stripped = strip_cookie(&mut msg).unwrap();
        assert_eq!(stripped.cookie, cookie);
        assert!(find_cookie(&msg).is_none());
        assert_eq!(msg, query(), "stripping restores the original message");
    }

    #[test]
    fn survives_wire_round_trip() {
        let mut msg = query();
        attach_cookie(&mut msg, [0xAB; 16], 300);
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(find_cookie(&decoded).unwrap().cookie, [0xAB; 16]);
    }

    #[test]
    fn zero_cookie_is_request() {
        let mut msg = query();
        attach_cookie(&mut msg, ZERO_COOKIE, 0);
        assert!(find_cookie(&msg).unwrap().is_request());
    }

    #[test]
    fn wrong_shapes_ignored() {
        let mut msg = query();
        // TXT not at root.
        msg.additionals.push(Record::txt(
            "foo.com".parse().unwrap(),
            vec![1; 16],
            0,
        ));
        // Root TXT with wrong length.
        msg.additionals
            .push(Record::txt(Name::root(), vec![1; 15], 0));
        // Root TXT with two strings.
        msg.additionals.push(Record::new(
            Name::root(),
            0,
            RData::Txt(vec![vec![1; 16], vec![2; 16]]),
        ));
        assert!(find_cookie(&msg).is_none());
        assert!(strip_cookie(&mut msg).is_none());
        assert_eq!(msg.additionals.len(), 3);
    }

    #[test]
    fn request_and_grant_same_size() {
        // Paper: "Message 2 and message 3 are designed to have the same size
        // so that there is no traffic amplification."
        let mut request = query();
        attach_cookie(&mut request, ZERO_COOKIE, 0);
        let mut grant = request.response();
        attach_cookie(&mut grant, [0x5A; 16], 604_800);
        assert_eq!(request.encode().len(), grant.encode().len());
    }

    #[test]
    fn rdlength_matches_figure_3b() {
        // RDLength must be 0x0011: one length byte + 16 cookie bytes.
        let mut msg = query();
        attach_cookie(&mut msg, [1; 16], 0);
        let wire = msg.encode();
        // The record is last: ...root(0x00) TXT(0x0010) IN(0x0001) TTL(4B) RDLEN(2B) 0x10 cookie
        let tail = &wire[wire.len() - (1 + 2 + 2 + 4 + 2 + 1 + 16)..];
        assert_eq!(tail[0], 0x00, "root name");
        assert_eq!(&tail[1..3], &[0x00, 0x10], "TYPE TXT");
        assert_eq!(&tail[3..5], &[0x00, 0x01], "CLASS IN");
        assert_eq!(&tail[9..11], &[0x00, 0x11], "RDLENGTH 17");
        assert_eq!(tail[11], 0x10, "character-string length 16");
    }
}
