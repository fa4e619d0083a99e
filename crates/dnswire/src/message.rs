//! Whole DNS messages: sections, compression-aware encoding, decoding and
//! the 512-byte UDP truncation rule that the TCP-based guard scheme exploits.

use crate::error::WireResult;
use crate::header::Header;
use crate::name::{split_label, Name};
use crate::question::Question;
use crate::record::Record;
use crate::types::{RrClass, RrType, Rcode};
use crate::writer::{Section, Writer};
use std::fmt;

/// Classic maximum UDP DNS payload (RFC 1035); larger answers set TC.
pub const MAX_UDP_PAYLOAD: usize = 512;

/// A DNS message: header plus the four sections.
///
/// # Examples
///
/// ```
/// use dnswire::message::Message;
/// use dnswire::types::RrType;
///
/// let query = Message::query(0x1234, "www.foo.com".parse()?, RrType::A);
/// let wire = query.encode();
/// let back = Message::decode(&wire)?;
/// assert_eq!(back, query);
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// The header (counts are derived from the vectors below).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section — where referral NS records live.
    pub authorities: Vec<Record>,
    /// Additional section — glue A records and the cookie TXT extension.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a recursive query (RD set) for `name`/`rtype`.
    pub fn query(id: u16, name: Name, rtype: RrType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(name, rtype)],
            ..Message::default()
        }
    }

    /// Builds an iterative query (RD clear), as an LRS sends to an ANS.
    pub fn iterative_query(id: u16, name: Name, rtype: RrType) -> Self {
        Message {
            header: Header::iterative_query(id),
            questions: vec![Question::new(name, rtype)],
            ..Message::default()
        }
    }

    /// Starts a response to this query: header echoed, question copied,
    /// sections empty.
    pub fn response(&self) -> Self {
        Message {
            header: self.header.response_to(),
            questions: self.questions.clone(),
            ..Message::default()
        }
    }

    /// [`Message::response`] for a query the caller is done with: the
    /// question section moves into the response instead of being copied.
    pub fn into_response(self) -> Self {
        Message {
            header: self.header.response_to(),
            questions: self.questions,
            ..Message::default()
        }
    }

    /// Starts an error response with the given rcode.
    pub fn error_response(&self, rcode: Rcode) -> Self {
        let mut r = self.response();
        r.header.rcode = rcode;
        r
    }

    /// A truncation response: question echoed, TC set, all sections empty.
    /// This is what the guard sends to push a requester onto TCP; it is the
    /// same size as the request, so there is no amplification.
    pub fn truncated_response(&self) -> Self {
        let mut r = self.response();
        r.header.truncated = true;
        r
    }

    /// The first question, if any — the common single-question case.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True when this message is a response carrying *referral* information:
    /// no answers, but NS records in the authority section (or, for guard
    /// purposes, NS in answers with no terminal records).
    pub fn is_referral(&self) -> bool {
        if !self.header.response {
            return false;
        }
        let ns_in_authority = self.authorities.iter().any(|r| r.rtype == RrType::Ns);
        self.answers.is_empty() && ns_in_authority
    }

    /// Encodes with name compression, no size limit.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::new(self.header, &self.questions);
        self.push_records(&mut out);
        out.finish()
    }

    /// Encodes with name compression, truncating at `limit` bytes.
    ///
    /// When the full message does not fit, records are dropped
    /// (additional → authority → answer, whole records at a time), the TC
    /// bit is set, and the shortened message is returned with `true`.
    ///
    /// # Errors
    ///
    /// [`crate::WireError::TooLarge`] if even header + questions exceed `limit`.
    pub fn encode_with_limit(&self, limit: usize) -> WireResult<(Vec<u8>, bool)> {
        let mut out = Writer::new(self.header, &self.questions);
        out.limit(limit);
        self.push_records(&mut out);
        out.finish_limited()
    }

    /// Every record, in section order, into `out` — which stops taking them
    /// at its limit.
    fn push_records(&self, out: &mut Writer) {
        for record in &self.answers {
            out.push(Section::Answer, record);
        }
        for record in &self.authorities {
            out.push(Section::Authority, record);
        }
        for record in &self.additionals {
            out.push(Section::Additional, record);
        }
    }

    /// Decodes a full message.
    ///
    /// # Errors
    ///
    /// Any structural error, including trailing bytes after the counted
    /// records.
    pub fn decode(msg: &[u8]) -> WireResult<Message> {
        let mut built = Message::default();
        crate::view::walk::<true>(msg, Some(&mut built))?;
        Ok(built)
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} {}{}",
            self.header.id,
            if self.header.response { "response" } else { "query" },
            self.header.rcode,
            if self.header.authoritative { "aa " } else { "" },
            if self.header.truncated { "tc" } else { "" },
        )?;
        for q in &self.questions {
            writeln!(f, ";; question: {q}")?;
        }
        for (label, section) in [
            ("answer", &self.answers),
            ("authority", &self.authorities),
            ("additional", &self.additionals),
        ] {
            for r in section {
                writeln!(f, ";; {label}: {r}")?;
            }
        }
        Ok(())
    }
}

/// Suffixes the compressor remembers without touching the heap; a referral
/// with glue registers about a dozen.
const INLINE_SUFFIXES: usize = 32;

/// Suffix-sharing name compressor with no map and, for ordinary messages, no
/// allocation: it remembers *where* each suffix was first written literally
/// and matches candidates against the output bytes themselves, emitting a
/// pointer to the longest suffix already there.
#[derive(Default)]
pub(crate) struct Compressor {
    /// Output offsets (all below 0x4000) of literally written suffixes,
    /// oldest first; each spells a different suffix.
    inline: [u16; INLINE_SUFFIXES],
    used: usize,
    /// Offsets past the inline array: only a message with more than
    /// `INLINE_SUFFIXES` distinct suffixes allocates.
    spill: Vec<u16>,
}

impl Compressor {
    /// Appends one question to `buf`.
    #[inline]
    pub(crate) fn question(&mut self, buf: &mut Vec<u8>, q: &Question) {
        self.encode_name(&q.name, buf);
        buf.extend_from_slice(&q.qtype.code().to_be_bytes());
        buf.extend_from_slice(&q.qclass.code().to_be_bytes());
    }

    /// Appends one record to `buf`: the owner name compressed against what
    /// `buf` already holds, the fixed fields, and whatever `rdata` writes,
    /// with its length filled in. Every record of every message goes through
    /// here, whoever wrote what precedes it.
    #[inline]
    pub(crate) fn record(
        &mut self,
        buf: &mut Vec<u8>,
        owner: &Name,
        rtype: RrType,
        class: RrClass,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>),
    ) {
        self.encode_name(owner, buf);
        buf.extend_from_slice(&rtype.code().to_be_bytes());
        buf.extend_from_slice(&class.code().to_be_bytes());
        buf.extend_from_slice(&ttl.to_be_bytes());
        let rdlen_at = buf.len();
        buf.extend_from_slice(&[0, 0]);
        rdata(buf);
        let rdlen = (buf.len() - rdlen_at - 2) as u16;
        if let Some(slot) = buf.get_mut(rdlen_at..rdlen_at + 2) {
            slot.copy_from_slice(&rdlen.to_be_bytes());
        }
    }

    fn encode_name(&mut self, name: &Name, buf: &mut Vec<u8>) {
        let wire = name.as_wire();
        // Longest suffix first: drop labels from the left until what is left
        // is already in the output (or nothing is left).
        let mut rest = wire;
        let mut pointer = None;
        while let Some((_, tail)) = split_label(rest) {
            pointer = self.find(buf, rest);
            if pointer.is_some() {
                break;
            }
            rest = tail;
        }
        // The labels dropped on the way go out literally, and each starts a
        // suffix the output did not have yet.
        let (mut literal, _) = wire.split_at(wire.len() - rest.len());
        buf.extend_from_slice(literal);
        while let Some((_, tail)) = split_label(literal) {
            self.remember(buf.len() - literal.len());
            literal = tail;
        }
        match pointer {
            Some(at) => buf.extend_from_slice(&(0xC000 | at).to_be_bytes()),
            None => buf.push(0),
        }
    }

    /// The remembered offset whose name spells exactly `suffix`.
    fn find(&self, out: &[u8], suffix: &[u8]) -> Option<u16> {
        let inline = self.inline.iter().take(self.used);
        inline.chain(&self.spill).copied().find(|&at| spells(out, at as usize, suffix))
    }

    pub(crate) fn remember(&mut self, at: usize) {
        if at >= 0x4000 {
            return; // out of a pointer's 14-bit reach
        }
        match self.inline.get_mut(self.used) {
            Some(slot) => {
                *slot = at as u16;
                self.used += 1;
            }
            None => self.spill.push(at as u16),
        }
    }
}

/// Whether the name written at `at` in `out` — literal labels, then a root
/// octet or a pointer to follow — spells exactly `suffix` (wire form, no
/// root octet). Bytes compare exactly: pointing a mixed-case name at a
/// differently-cased twin would lose the case a 0x20 resolver checks.
fn spells(out: &[u8], mut at: usize, mut suffix: &[u8]) -> bool {
    while let Some(&len) = out.get(at) {
        match len {
            0 => return suffix.is_empty(),
            0xC0.. => match out.get(at + 1) {
                Some(&low) => at = ((len & 0x3F) as usize) << 8 | low as usize,
                None => return false,
            },
            // Length octet and label bytes compare as one piece against
            // the suffix's own wire form.
            _ => match out.get(at..at + 1 + len as usize).and_then(|l| suffix.strip_prefix(l)) {
                Some(tail) => {
                    at += suffix.len() - tail.len();
                    suffix = tail;
                }
                None => return false,
            },
        }
    }
    false
}

/// The encoder this one replaced, kept as the oracle the new one must match
/// byte for byte: a `HashMap` from owned label sequences to offsets, and
/// truncation by popping a record and encoding again.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::error::WireError;
    use crate::header::SectionCounts;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Compressor {
        offsets: HashMap<Vec<Vec<u8>>, u16>,
    }

    impl Compressor {
        fn encode_name(&mut self, name: &Name, buf: &mut Vec<u8>) {
            let labels: Vec<Vec<u8>> = name.labels().map(|l| l.to_vec()).collect();
            let mut emit_until = labels.len();
            let mut pointer: Option<u16> = None;
            for start in 0..labels.len() {
                if let Some(&off) = self.offsets.get(&labels[start..]) {
                    emit_until = start;
                    pointer = Some(off);
                    break;
                }
            }
            for start in 0..emit_until {
                let here = buf.len() + labels[..start].iter().map(|l| l.len() + 1).sum::<usize>();
                if here < 0x4000 {
                    self.offsets.entry(labels[start..].to_vec()).or_insert(here as u16);
                }
            }
            for label in &labels[..emit_until] {
                buf.push(label.len() as u8);
                buf.extend_from_slice(label);
            }
            match pointer {
                Some(off) => {
                    buf.push(0xC0 | (off >> 8) as u8);
                    buf.push((off & 0xFF) as u8);
                }
                None => buf.push(0),
            }
        }
    }

    pub(crate) fn encode(m: &Message) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        let counts = SectionCounts {
            questions: m.questions.len() as u16,
            answers: m.answers.len() as u16,
            authorities: m.authorities.len() as u16,
            additionals: m.additionals.len() as u16,
        };
        buf.extend_from_slice(&m.header.to_bytes(counts));
        let mut compressor = Compressor::default();
        for q in &m.questions {
            compressor.encode_name(&q.name, &mut buf);
            buf.extend_from_slice(&q.qtype.code().to_be_bytes());
            buf.extend_from_slice(&q.qclass.code().to_be_bytes());
        }
        for r in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
            compressor.encode_name(&r.name, &mut buf);
            buf.extend_from_slice(&r.rtype.code().to_be_bytes());
            buf.extend_from_slice(&r.class.code().to_be_bytes());
            buf.extend_from_slice(&r.ttl.to_be_bytes());
            let rdlen_at = buf.len();
            buf.extend_from_slice(&[0, 0]);
            r.rdata.encode(&mut buf);
            let rdlen = (buf.len() - rdlen_at - 2) as u16;
            buf[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
        buf
    }

    pub(crate) fn encode_with_limit(m: &Message, limit: usize) -> WireResult<(Vec<u8>, bool)> {
        let full = encode(m);
        if full.len() <= limit {
            return Ok((full, false));
        }
        let mut m = m.clone();
        m.header.truncated = true;
        while !(m.additionals.is_empty() && m.authorities.is_empty() && m.answers.is_empty()) {
            if !m.additionals.is_empty() {
                m.additionals.pop();
            } else if !m.authorities.is_empty() {
                m.authorities.pop();
            } else {
                m.answers.pop();
            }
            let enc = encode(&m);
            if enc.len() <= limit {
                return Ok((enc, true));
            }
        }
        let enc = encode(&m);
        if enc.len() <= limit {
            Ok((enc, true))
        } else {
            Err(WireError::TooLarge {
                needed: enc.len(),
                limit,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use crate::header::{SectionCounts, HEADER_LEN};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let query = Message::query(7, n("www.foo.com"), RrType::A);
        let mut resp = query.response();
        resp.header.authoritative = true;
        resp.answers.push(Record::a(n("www.foo.com"), Ipv4Addr::new(192, 0, 2, 10), 300));
        resp.authorities.push(Record::ns(n("foo.com"), n("ns1.foo.com"), 3600));
        resp.authorities.push(Record::ns(n("foo.com"), n("ns2.foo.com"), 3600));
        resp.additionals.push(Record::a(n("ns1.foo.com"), Ipv4Addr::new(192, 0, 2, 1), 3600));
        resp.additionals.push(Record::a(n("ns2.foo.com"), Ipv4Addr::new(192, 0, 2, 2), 3600));
        resp
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0x1234, n("example.org"), RrType::Aaaa);
        let wire = q.encode();
        assert_eq!(Message::decode(&wire).unwrap(), q);
    }

    #[test]
    fn response_round_trip_with_all_sections() {
        let resp = sample_response();
        let wire = resp.encode();
        assert_eq!(Message::decode(&wire).unwrap(), resp);
    }

    #[test]
    fn compression_shrinks_output() {
        let resp = sample_response();
        let compressed = resp.encode();
        // Rough uncompressed size: encode each record standalone.
        let mut uncompressed = 12usize;
        for q in &resp.questions {
            uncompressed += q.name.wire_len() + 4;
        }
        for r in resp.answers.iter().chain(&resp.authorities).chain(&resp.additionals) {
            let mut b = Vec::new();
            r.name.encode_uncompressed(&mut b);
            b.extend_from_slice(&[0u8; 10]);
            r.rdata.encode(&mut b);
            uncompressed += b.len();
        }
        assert!(
            compressed.len() < uncompressed,
            "compressed {} >= uncompressed {}",
            compressed.len(),
            uncompressed
        );
    }

    #[test]
    fn pointers_resolve_to_original_names() {
        // Decoding the compressed form must reproduce identical names.
        let resp = sample_response();
        let decoded = Message::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.authorities[0].name, n("foo.com"));
        assert_eq!(decoded.additionals[1].name, n("ns2.foo.com"));
    }

    /// `sample_response` inflated with 60 answers so it cannot fit in 512
    /// bytes (and registers more suffixes than the compressor keeps inline).
    fn oversized_response() -> Message {
        let mut resp = sample_response();
        for i in 0..60u8 {
            resp.answers.push(Record::a(
                n(&format!("host{i}.foo.com")),
                Ipv4Addr::new(10, 0, 0, i),
                60,
            ));
        }
        resp
    }

    #[test]
    fn truncation_matches_pop_and_reencode_at_every_limit() {
        let resp = oversized_response();
        let full = resp.encode();
        assert_eq!(full, reference::encode(&resp));
        for limit in HEADER_LEN..=full.len() {
            assert_eq!(
                resp.encode_with_limit(limit),
                reference::encode_with_limit(&resp, limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn compression_is_case_exact() {
        // 0x20: a twin in another case shares only the suffix that matches
        // byte for byte, so every name decodes in the case it was given.
        let mut resp = Message::query(1, n("wWw.fOo.com"), RrType::A).response();
        resp.answers.push(Record::a(n("www.foo.com"), Ipv4Addr::new(1, 2, 3, 4), 60));
        resp.answers.push(Record::a(n("wWw.fOo.com"), Ipv4Addr::new(1, 2, 3, 4), 60));
        let wire = resp.encode();
        assert_eq!(wire, reference::encode(&resp));
        let back = Message::decode(&wire).unwrap();
        for (got, want) in back.answers.iter().zip(&resp.answers) {
            assert!(got.name.eq_case_sensitive(&want.name));
        }
    }

    #[test]
    fn into_response_is_response_without_the_copy() {
        let query = Message::query(7, n("www.foo.com"), RrType::A);
        assert_eq!(query.clone().into_response(), query.response());
        assert_eq!(sample_response().into_response(), sample_response().response());
    }

    #[test]
    fn truncation_drops_records_and_sets_tc() {
        let resp = oversized_response();
        let full = resp.encode();
        assert!(full.len() > MAX_UDP_PAYLOAD);
        let (wire, truncated) = resp.encode_with_limit(MAX_UDP_PAYLOAD).unwrap();
        assert!(truncated);
        assert!(wire.len() <= MAX_UDP_PAYLOAD);
        let decoded = Message::decode(&wire).unwrap();
        assert!(decoded.header.truncated);
        assert_eq!(decoded.questions, resp.questions);
    }

    #[test]
    fn no_truncation_when_it_fits() {
        let resp = sample_response();
        let (wire, truncated) = resp.encode_with_limit(MAX_UDP_PAYLOAD).unwrap();
        assert!(!truncated);
        assert!(!Message::decode(&wire).unwrap().header.truncated);
    }

    #[test]
    fn too_large_when_question_alone_exceeds_limit() {
        let q = Message::query(1, n("a-rather-long-domain-name.example.org"), RrType::A);
        assert!(matches!(
            q.encode_with_limit(20),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = Message::query(9, n("x.y"), RrType::A).encode();
        wire.push(0);
        assert!(matches!(
            Message::decode(&wire),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn is_referral_detects_delegation() {
        let query = Message::iterative_query(3, n("www.foo.com"), RrType::A);
        let mut referral = query.response();
        referral.authorities.push(Record::ns(n("com"), n("a.gtld-servers.net"), 172800));
        referral.additionals.push(Record::a(n("a.gtld-servers.net"), Ipv4Addr::new(192, 5, 6, 30), 172800));
        assert!(referral.is_referral());

        let mut answer = query.response();
        answer.answers.push(Record::a(n("www.foo.com"), Ipv4Addr::new(1, 2, 3, 4), 60));
        assert!(!answer.is_referral());
        assert!(!query.is_referral(), "queries are never referrals");
    }

    #[test]
    fn truncated_response_same_size_as_request() {
        let query = Message::query(5, n("www.foo.com"), RrType::A);
        let tc = query.truncated_response();
        assert_eq!(tc.encode().len(), query.encode().len());
        assert!(tc.header.truncated);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0u8; 5]).is_err());
        // Header claiming one question but no question bytes.
        let counts = SectionCounts {
            questions: 1,
            ..SectionCounts::default()
        };
        assert!(Message::decode(&Header::query(1).to_bytes(counts)).is_err());
    }

    #[test]
    fn decoder_never_panics_on_fuzzed_mutations() {
        let wire = sample_response().encode();
        for i in 0..wire.len() {
            for bit in 0..8 {
                let mut mutated = wire.clone();
                mutated[i] ^= 1 << bit;
                // Must not panic, and the view must rule as the decoder does.
                crate::view::tests::assert_agrees(&mutated);
            }
        }
    }
}
