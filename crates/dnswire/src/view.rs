//! A borrowed view of a received datagram: what a verdict needs, and no heap.
//!
//! [`MessageView::parse`] and [`Message::decode`] are one walk over the
//! bytes, run without and with building the owned sections, so they accept
//! the same datagrams and fail with the same [`WireError`]. The rules live
//! once: a name's in `Name::read`, an RDATA's in `RData::read`, the message's
//! in `walk` below. A guard that drops a datagram on what the view shows has
//! allocated nothing for it.
//!
//! What a datagram that passed the walk is then asked for, still without a
//! [`Message`]: its first question ([`MessageView::question`], the one owned
//! name an answer or a classification needs), its question behind a fresh
//! header ([`MessageView::question_only`], a forward), where a reply in its
//! own buffer starts ([`MessageView::reply_start`]), and its records one at
//! a time ([`MessageView::records`]: section, type, class, TTL and the RDATA
//! bytes where they lie — a relay that renames address records builds none).

use crate::cookie_ext::{self, CookieExt};
use crate::error::{WireError, WireResult};
use crate::header::{Header, SectionCounts, HEADER_LEN};
use crate::message::Message;
use crate::name::{split_label, Name};
use crate::question::{self, read_u16, read_u32, Question, NO_QUESTION};
use crate::rdata::RData;
use crate::record::Record;
use crate::types::{RrClass, RrType};
use crate::writer::{ReplyStart, Section};

/// A validated datagram, still in its receive buffer.
///
/// # Examples
///
/// ```
/// use dnswire::message::Message;
/// use dnswire::types::RrType;
/// use dnswire::view::MessageView;
///
/// let wire = Message::query(7, "www.foo.com".parse()?, RrType::A).encode();
/// let view = MessageView::parse(&wire)?;
/// assert_eq!(view.header.id, 7);
/// assert_eq!(view.first_label(), Some(&b"www"[..]));
/// assert_eq!(view.to_message(), Message::decode(&wire)?);
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    wire: &'a [u8],
    /// The header.
    pub header: Header,
    /// The four section counts, each satisfied by the bytes.
    pub counts: SectionCounts,
    /// The first label of the first question's name; empty when there is
    /// no question or its name is the root.
    first_label: &'a [u8],
    /// Whether the first question's name is spelled out in place.
    literal_question: bool,
    /// Offset of the first question's type, just past its name.
    question_type_at: usize,
    /// Offset just past the question section.
    questions_end: usize,
    /// What [`cookie_ext::find_cookie`] finds in the decoded message.
    cookie: Option<CookieExt>,
}

impl<'a> MessageView<'a> {
    /// Validates `wire` as [`Message::decode`] does, without building it.
    ///
    /// # Errors
    ///
    /// Exactly the error `Message::decode` returns for the same bytes.
    pub fn parse(wire: &'a [u8]) -> WireResult<Self> {
        walk::<false>(wire, None)
    }

    /// Whether `Message::question()` would be `Some`.
    pub fn has_question(&self) -> bool {
        self.counts.questions > 0
    }

    /// The first label of the first question's name.
    pub fn first_label(&self) -> Option<&'a [u8]> {
        Some(self.first_label).filter(|label| !label.is_empty())
    }

    /// The bytes this view was parsed from.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.wire
    }

    /// The first question's name, read by the walk every decoded name comes
    /// from — the one piece of a query a guard may need owned (to classify
    /// it) without needing the message.
    pub fn question_name(&self) -> Option<Name> {
        self.question().map(|q| q.name)
    }

    /// The first question, as `Message::question()` would hold it.
    pub fn question(&self) -> Option<Question> {
        Question::read(self.wire, HEADER_LEN).filter(|_| self.has_question())
    }

    /// The records of the answer, authority and additional sections in wire
    /// order, each shown where it lies: no name is built and nothing is
    /// copied.
    pub fn records(&self) -> Records<'a> {
        let SectionCounts {
            answers,
            authorities,
            additionals,
            ..
        } = self.counts;
        Records {
            wire: self.wire,
            pos: self.questions_end,
            left: [answers, authorities, additionals],
        }
    }

    /// The [`Question::digest`] of the first question ([`NO_QUESTION`]
    /// without one), read where it lies: only a name that is a compression
    /// pointer is built.
    pub fn question_digest(&self) -> u64 {
        if !self.has_question() {
            return NO_QUESTION;
        }
        let code = |at| read_u16(self.wire, at).unwrap_or_default();
        let (qtype, qclass) = (code(self.question_type_at), code(self.question_type_at + 2));
        let in_place = self.wire.get(HEADER_LEN..self.question_type_at - 1);
        match in_place.filter(|_| self.literal_question) {
            Some(labels) => question::digest_wire(labels, qtype, qclass),
            None => {
                let name = self.question_name().unwrap_or_default();
                question::digest_wire(name.as_wire(), qtype, qclass)
            }
        }
    }

    /// The cookie extension, as [`cookie_ext::find_cookie`] finds it: the
    /// first root-owned TXT record of the additional section holding one
    /// 16-byte string.
    pub fn cookie(&self) -> Option<CookieExt> {
        self.cookie
    }

    /// The owned message: the same walk again, building this time. It cannot
    /// fail on bytes `parse` accepted, and costs what a decode costs — which
    /// is why only datagrams that are answered or rewritten come here.
    pub fn to_message(&self) -> Message {
        Message::decode(self.wire).unwrap_or_default()
    }

    /// How a reply to this query starts, for [`Writer::over`] with the buffer
    /// this view borrows: under `header.response_to()`, and keeping the
    /// received question section when that is byte for byte what decode →
    /// `into_response()` → encode writes — one question, its name *literal*
    /// (the encoder has nothing to point a first name at, and type and class
    /// codes round-trip).
    ///
    /// [`Writer::over`]: crate::writer::Writer::over
    pub fn reply_start(&self) -> ReplyStart {
        let stands = self.counts.questions == 1 && self.literal_question;
        ReplyStart {
            header: self.header.response_to(),
            questions_end: stands.then_some(self.questions_end),
        }
    }

    /// This query under transaction id `id` and without its cookie, when
    /// it carries one and [`MessageView::question_only`] can write it.
    pub fn without_cookie(&self, id: u16) -> Option<Vec<u8>> {
        self.cookie.and_then(|_| self.question_only(id))
    }

    /// This query under transaction id `id` and without its cookie, if it
    /// has one, when that is the received question bytes behind a fresh
    /// header: a single question whose name is *literal* (spelled out in
    /// place, no compression pointer) and no record but the cookie. That is
    /// byte for byte what decode → `strip_cookie` → encode emits: the
    /// encoder writes the header from the decoded fields, has nothing to
    /// point a first name at, and type and class codes round-trip. Every
    /// other shape is `None`.
    pub fn question_only(&self, id: u16) -> Option<Vec<u8>> {
        let counts = |additionals| SectionCounts {
            questions: 1,
            additionals,
            ..SectionCounts::default()
        };
        let bare = self.counts == counts(self.cookie.is_some() as u16) && self.literal_question;
        let question = self.wire.get(HEADER_LEN..self.questions_end).filter(|_| bare)?;
        let mut out = Vec::with_capacity(HEADER_LEN + question.len());
        out.extend_from_slice(&Header { id, ..self.header }.to_bytes(counts(0)));
        out.extend_from_slice(question);
        Some(out)
    }
}

/// One record of a parsed datagram, where it lies.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    wire: &'a [u8],
    pub(crate) owner_at: usize,
    pub(crate) rdata_at: usize,
    pub(crate) rdlen: usize,
    /// The section it stands in.
    pub section: Section,
    /// TYPE.
    pub rtype: RrType,
    /// CLASS.
    pub class: RrClass,
    /// TTL.
    pub ttl: u32,
}

impl<'a> RecordView<'a> {
    /// The RDATA as received. A name in it may end in a compression
    /// pointer, so only RDATA without names (an address, text, opaque bytes)
    /// can be copied into another message as it is.
    pub fn rdata(&self) -> &'a [u8] {
        self.wire.get(self.rdata_at..self.rdata_at + self.rdlen).unwrap_or_default()
    }

    /// Whether the owner is `name` by the test `Name`'s `==` applies (ASCII
    /// case folded), read where it lies: compression pointers are followed
    /// and no name is built.
    pub fn owner_is(&self, name: &Name) -> bool {
        let mut want = name.as_wire();
        let mut pos = self.owner_at;
        // Every pointer goes backwards and every label uses up some of
        // `want`, so the walk ends even on bytes `parse` never saw.
        while let Some(&len) = self.wire.get(pos) {
            match len {
                0 => return want.is_empty(),
                l if l & 0xC0 == 0xC0 => {
                    let target = self.wire.get(pos + 1).map(|&low| usize::from(l & 0x3F) << 8 | usize::from(low));
                    match target {
                        Some(target) if target < pos => pos = target,
                        _ => return false,
                    }
                }
                l => {
                    // Length octet and label as one piece, as `Name` compares
                    // them: no length octet is an ASCII letter.
                    let end = pos + 1 + usize::from(l);
                    let (Some(label), Some((head, rest))) =
                        (self.wire.get(pos..end), want.split_at_checked(end - pos))
                    else {
                        return false;
                    };
                    if !label.eq_ignore_ascii_case(head) {
                        return false;
                    }
                    (want, pos) = (rest, end);
                }
            }
        }
        false
    }

    /// The owned record, as `Message::decode` holds it.
    pub fn to_record(&self) -> Record {
        let name = Name::read::<true>(self.wire, self.owner_at).ok().and_then(|(name, _)| name);
        let rdata = RData::read::<true>(self.wire, self.rdata_at, self.rdlen, self.rtype);
        Record {
            name: name.unwrap_or_default(),
            rtype: self.rtype,
            class: self.class,
            ttl: self.ttl,
            // Unreachable on bytes `parse` accepted: it ran the same read.
            rdata: rdata.ok().flatten().unwrap_or(RData::Unknown(Vec::new())),
        }
    }
}

/// The records of a parsed datagram ([`MessageView::records`]).
#[derive(Debug, Clone)]
pub struct Records<'a> {
    wire: &'a [u8],
    pos: usize,
    /// Records still to come in the answer, authority and additional
    /// sections.
    left: [u16; 3],
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        const SECTIONS: [Section; 3] = [Section::Answer, Section::Authority, Section::Additional];
        let (left, &section) = self.left.iter_mut().zip(&SECTIONS).find(|(left, _)| **left > 0)?;
        *left -= 1;
        // The walk accepted these bytes, so none of the reads below fails.
        let (_, owner) = Name::read::<false>(self.wire, self.pos).ok()?;
        let at = owner.end;
        let record = RecordView {
            wire: self.wire,
            owner_at: self.pos,
            rdata_at: at + 10,
            rdlen: read_u16(self.wire, at + 8).ok()? as usize,
            section,
            rtype: RrType::from(read_u16(self.wire, at).ok()?),
            class: RrClass::from(read_u16(self.wire, at + 2).ok()?),
            ttl: read_u32(self.wire, at + 4).ok()?,
        };
        self.pos = record.rdata_at + record.rdlen;
        Some(record)
    }
}

/// The one strict walk over a datagram. `KEEP` says whether names and RDATA
/// are built on the way and `built` is where they then go (`Some` exactly
/// when `KEEP`); without, nothing is allocated. The view is filled either
/// way.
pub(crate) fn walk<'a, const KEEP: bool>(
    wire: &'a [u8],
    mut built: Option<&mut Message>,
) -> WireResult<MessageView<'a>> {
    let (header, counts) = Header::decode(wire)?;
    let mut view = MessageView {
        wire,
        header,
        counts,
        first_label: &[],
        literal_question: false,
        question_type_at: HEADER_LEN,
        questions_end: HEADER_LEN,
        cookie: None,
    };
    let mut pos = HEADER_LEN;
    if let Some(built) = built.as_deref_mut() {
        built.header = header;
        built.questions.reserve_exact(counts.questions as usize);
    }
    for i in 0..counts.questions {
        let (name, seen) = Name::read::<KEEP>(wire, pos)?;
        let qtype = RrType::from(read_u16(wire, seen.end)?);
        let qclass = RrClass::from(read_u16(wire, seen.end + 2)?);
        pos = seen.end + 4;
        if i == 0 {
            view.literal_question = seen.literal;
            view.question_type_at = seen.end;
            let labels = wire.get(seen.first_label..).filter(|_| seen.len > 0);
            view.first_label = labels.and_then(split_label).map_or(&[], |(label, _)| label);
        }
        if let Some((name, built)) = name.zip(built.as_deref_mut()) {
            built.questions.push(Question { name, qtype, qclass });
        }
    }
    view.questions_end = pos;
    let [answers, authorities, additionals] = match built {
        Some(built) => [&mut built.answers, &mut built.authorities, &mut built.additionals].map(Some),
        None => [None, None, None],
    };
    let sections = [
        (counts.answers, answers),
        (counts.authorities, authorities),
        (counts.additionals, additionals),
    ];
    for (section, (count, mut records)) in sections.into_iter().enumerate() {
        if let Some(records) = records.as_deref_mut() {
            records.reserve_exact(count as usize);
        }
        for _ in 0..count {
            let (name, owner) = Name::read::<KEEP>(wire, pos)?;
            let at = owner.end;
            let rtype = RrType::from(read_u16(wire, at)?);
            let class = RrClass::from(read_u16(wire, at + 2)?);
            let ttl = read_u32(wire, at + 4)?;
            let rdlen = read_u16(wire, at + 8)? as usize;
            let rdata = RData::read::<KEEP>(wire, at + 10, rdlen, rtype)?;
            pos = at + 10 + rdlen;
            let additional = section == 2;
            if additional && view.cookie.is_none() && owner.len == 0 && rtype == RrType::Txt {
                let rdata = wire.get(at + 10..pos).unwrap_or_default();
                view.cookie = cookie_ext::cookie_in_txt(rdata, ttl);
            }
            if let Some(((name, rdata), records)) = name.zip(rdata).zip(records.as_deref_mut()) {
                records.push(Record {
                    name,
                    rtype,
                    class,
                    ttl,
                    rdata,
                });
            }
        }
    }
    if pos != wire.len() {
        return Err(WireError::TrailingBytes(wire.len() - pos));
    }
    Ok(view)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cookie_ext::{attach_cookie, find_cookie, strip_cookie};
    use std::net::Ipv4Addr;

    /// The forward the in-place one replaced, kept as its oracle: decode,
    /// strip the cookie, renumber, encode.
    pub(crate) fn reference_without_cookie(wire: &[u8], id: u16) -> Vec<u8> {
        let mut msg = Message::decode(wire).unwrap();
        strip_cookie(&mut msg);
        msg.header.id = id;
        msg.encode()
    }

    /// The view and the owned decode agree on `wire`: both reject it with
    /// the same error, or both accept it and the view shows what the owned
    /// message holds.
    pub(crate) fn assert_agrees(wire: &[u8]) {
        let (view, msg) = match (MessageView::parse(wire), Message::decode(wire)) {
            (Ok(view), Ok(msg)) => (view, msg),
            (Err(view), Err(owned)) => return assert_eq!(view, owned),
            (view, owned) => panic!("view {view:?}, decode {owned:?}"),
        };
        assert_eq!(view.header, msg.header);
        assert_eq!(view.cookie(), find_cookie(&msg));
        assert_eq!(view.has_question(), msg.question().is_some());
        assert_eq!(view.first_label(), msg.question().and_then(|q| q.name.first_label()));
        assert_eq!(view.to_message(), msg);
        assert_eq!(view.question_digest(), msg.question().map_or(NO_QUESTION, Question::digest));
        match (view.question(), msg.question()) {
            (Some(seen), Some(q)) => {
                assert!(seen.name.eq_case_sensitive(&q.name));
                assert_eq!((seen.qtype, seen.qclass), (q.qtype, q.qclass));
            }
            (seen, q) => assert!(seen.is_none() && q.is_none(), "{seen:?} / {q:?}"),
        }
        assert_eq!(view.question_name(), view.question().map(|q| q.name));
        assert_eq!(view.as_bytes(), wire);
        if let Some(bare) = view.question_only(0xBEEF) {
            assert_eq!(bare, reference_without_cookie(wire, 0xBEEF));
        }
        assert_eq!(view.without_cookie(0xBEEF), view.question_only(0xBEEF).filter(|_| view.cookie().is_some()));

        // The record iterator shows the owned sections, in order.
        let sections = [
            (Section::Answer, &msg.answers),
            (Section::Authority, &msg.authorities),
            (Section::Additional, &msg.additionals),
        ];
        let owned = sections.iter().flat_map(|(section, records)| records.iter().map(|r| (*section, r)));
        let mut seen = view.records();
        for (section, record) in owned {
            let shown = seen.next().expect("a record short");
            assert_eq!((shown.section, shown.to_record()), (section, record.clone()));
            assert_eq!((shown.rtype, shown.class, shown.ttl), (record.rtype, record.class, record.ttl));
            assert_owner_is(&shown, &record.name);
            if matches!(record.rdata, RData::A(_) | RData::Aaaa(_) | RData::Unknown(_)) {
                let mut encoded = Vec::new();
                record.rdata.encode(&mut encoded);
                assert_eq!(shown.rdata(), encoded);
            }
        }
        assert!(seen.next().is_none(), "a record too many");
    }

    /// `record`'s owner is `owner` in its case and with every letter's case
    /// flipped, and is not `owner` with a label more at either end.
    fn assert_owner_is(record: &RecordView<'_>, owner: &Name) {
        assert!(record.owner_is(owner), "{owner:?}");
        let flipped = owner.labels().map(|label| {
            let flip = |&b: &u8| if b.is_ascii_alphabetic() { b ^ 0x20 } else { b };
            label.iter().map(flip).collect::<Vec<u8>>()
        });
        let flipped = Name::from_labels(flipped).unwrap();
        assert!(record.owner_is(&flipped), "{flipped:?} is {owner:?} in the other case");
        let x: Name = "x".parse().unwrap();
        for longer in [owner.child("x"), owner.concat(&x)].into_iter().flatten() {
            assert!(!record.owner_is(&longer), "{longer:?} is not {owner:?}");
        }
    }
    fn cookie_query() -> Message {
        let mut q = Message::query(7, "wWw.foo.com".parse().unwrap(), RrType::Aaaa);
        attach_cookie(&mut q, [0xAB; 16], 300);
        q
    }

    #[test]
    fn bare_cookie_query_is_forwarded_in_place() {
        let wire = cookie_query().encode();
        let view = MessageView::parse(&wire).unwrap();
        let bare = view.without_cookie(0x1234).expect("one literal question, one cookie");
        assert_eq!(bare, reference_without_cookie(&wire, 0x1234));
        assert_agrees(&wire);
    }

    #[test]
    fn other_shapes_decline_the_in_place_forward() {
        let declines = |msg: &Message| {
            let wire = msg.encode();
            assert_agrees(&wire);
            MessageView::parse(&wire).unwrap().without_cookie(1).is_none()
        };
        let plain = Message::query(7, "www.foo.com".parse().unwrap(), RrType::A);
        assert!(declines(&plain), "no cookie");
        let wire = plain.encode();
        let bare = MessageView::parse(&wire).unwrap().question_only(9);
        assert_eq!(bare, Some(reference_without_cookie(&wire, 9)), "… but still only a question");

        let mut two_questions = cookie_query();
        two_questions.questions.push(Question::new("foo.com".parse().unwrap(), RrType::A));
        assert!(declines(&two_questions));

        let mut extra_record = cookie_query();
        extra_record.answers.push(Record::txt(Name::root(), vec![1], 0));
        assert!(declines(&extra_record));

        let mut cookie_not_last = cookie_query();
        cookie_not_last.additionals.push(Record::txt(Name::root(), vec![1; 15], 0));
        assert!(declines(&cookie_not_last));

        // A question name that is a pointer: header bytes 0..3 spell "x."
        // (id 0x0178, flags 0), and the question points at them.
        let mut compressed = vec![1, b'x', 0, 0, 0, 1, 0, 0, 0, 0, 0, 1];
        compressed.extend_from_slice(&[0xC0, 0x00, 0, 1, 0, 1]);
        compressed.extend_from_slice(&cookie_query().encode()[HEADER_LEN + 17..]);
        let msg = Message::decode(&compressed).unwrap();
        assert_eq!(msg.question().unwrap().name, "x".parse().unwrap());
        assert!(find_cookie(&msg).is_some());
        assert_agrees(&compressed);
        assert!(MessageView::parse(&compressed).unwrap().without_cookie(1).is_none());
    }

    #[test]
    fn owner_behind_a_pointer_into_the_question_folds_case() {
        let mut msg = Message::query(7, "wWw.Foo.com".parse().unwrap(), RrType::A).into_response();
        msg.answers.push(Record::a("wWw.Foo.com".parse().unwrap(), Ipv4Addr::new(192, 0, 2, 1), 60));
        let wire = msg.encode();
        // The answer's owner is a pointer to the question name at offset 12.
        let owner_at = HEADER_LEN + "wWw.Foo.com".len() + 2 + 4;
        assert_eq!(wire[owner_at..owner_at + 2], [0xC0, HEADER_LEN as u8]);
        assert_agrees(&wire);

        let view = MessageView::parse(&wire).unwrap();
        let answer = view.records().next().unwrap();
        let name = |s: &str| s.parse::<Name>().unwrap();
        assert!(answer.owner_is(&name("WWW.fOO.COM")), "differs from the question only in case");
        assert!(answer.owner_is(&name("www.foo.com")));
        for other in ["foo.com", "x.www.foo.com", "www.foo.co", "www.foo.com.x", "."] {
            assert!(!answer.owner_is(&name(other)), "{other}");
        }
    }

    #[test]
    fn first_cookie_shaped_record_wins() {
        let mut msg = cookie_query();
        msg.additionals.insert(0, Record::txt(Name::root(), vec![1; 15], 9));
        attach_cookie(&mut msg, [0xCD; 16], 600);
        let wire = msg.encode();
        assert_eq!(MessageView::parse(&wire).unwrap().cookie().unwrap().cookie, [0xAB; 16]);
        assert_agrees(&wire);
    }
}
