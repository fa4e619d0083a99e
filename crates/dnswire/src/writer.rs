//! The one encoder: a message written section by section into one buffer.
//!
//! A [`Writer`] holds twelve bytes for the header, the question section, and
//! whole records appended through the suffix compressor; the header goes in
//! last, with the counts of what was pushed. It starts in one of two ways:
//!
//! * [`Writer::new`] — an empty buffer, the questions encoded. This is what
//!   [`Message::encode`] and [`Message::encode_with_limit`] are: every
//!   message the workspace emits is written here.
//! * [`Writer::over`] — the buffer of the query being answered. A reply
//!   echoes the question, so when the received question section is exactly
//!   what the encoder would write (one question, its name spelled out in
//!   place), the reply is the received buffer cut off behind the question
//!   and the compressor is told where the question name's suffixes already
//!   lie: nothing is copied or allocated, and the bytes equal decode →
//!   `into_response()` → push → `encode()`. Any other shape (no question,
//!   several, a compressed question name) is decoded and its questions
//!   encoded afresh.
//!
//! The UDP truncation rule lives here too ([`Writer::limit`]): the first
//! record that would end past the limit is left out with everything after
//! it, and TC is set.

use crate::error::{WireError, WireResult};
use crate::header::{Header, SectionCounts, HEADER_LEN};
use crate::message::{Compressor, Message};
use crate::name::Name;
use crate::question::Question;
use crate::record::Record;
use crate::types::{RrClass, RrType};

/// The section a record is appended to. Sections are written in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// How a reply to a parsed query starts, detached from the borrow of the
/// datagram so that the datagram's buffer itself can become the reply. Only
/// [`MessageView::reply_start`] makes one, and it belongs with the buffer that
/// view was parsed from.
///
/// [`MessageView::reply_start`]: crate::view::MessageView::reply_start
#[derive(Debug, Clone, Copy)]
pub struct ReplyStart {
    /// The reply's header: the query's `response_to()`.
    pub(crate) header: Header,
    /// Where the question section ends, when the received one can stand as
    /// the reply's: a single question whose name is spelled out in place.
    pub(crate) questions_end: Option<usize>,
}

/// A message being written: a reply over the query it answers, or any
/// message from nothing.
///
/// # Examples
///
/// ```
/// use dnswire::message::Message;
/// use dnswire::record::Record;
/// use dnswire::types::RrType;
/// use dnswire::view::MessageView;
/// use dnswire::writer::{Section, Writer};
///
/// let query = Message::query(7, "www.foo.com".parse()?, RrType::A);
/// let ns = Record::ns("foo.com".parse()?, "ns1.foo.com".parse()?, 3600);
/// let received = query.encode();
/// let start = MessageView::parse(&received)?.reply_start();
/// let mut reply = Writer::over(received, start);
/// reply.push(Section::Authority, &ns);
///
/// let mut owned = query.into_response();
/// owned.authorities.push(ns);
/// assert_eq!(reply.finish(), owned.encode());
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
pub struct Writer {
    /// The header [`Writer::finish`] writes, with the counts of what was
    /// pushed. Free to change until then (TC, AA, rcode).
    pub header: Header,
    /// Twelve bytes kept for the header, the question section, then whole
    /// records.
    buf: Vec<u8>,
    counts: SectionCounts,
    compressor: Compressor,
    /// No record may end past this offset ([`Writer::limit`]).
    limit: usize,
    /// A record did not fit: it and every later one is left out, and TC set.
    dropped: bool,
}

impl Writer {
    /// Starts the reply to `query`, the datagram `start` was taken from, in
    /// `query`'s own buffer when its question section can stand: nothing is
    /// copied or allocated, and the compressor learns the question name's
    /// suffixes where they lie — the offsets encoding the name would have
    /// registered. Any other shape (no question, several, a compressed
    /// question name) is decoded and its questions encoded afresh.
    pub fn over(mut query: Vec<u8>, start: ReplyStart) -> Writer {
        let Some(end) = start.questions_end else {
            let owned = Message::decode(&query).unwrap_or_default();
            return Writer::start(query, start.header, &owned.questions);
        };
        let mut compressor = Compressor::default();
        query.truncate(end);
        let mut at = HEADER_LEN;
        while let Some(&len @ 1..=63) = query.get(at) {
            compressor.remember(at);
            at += 1 + len as usize;
        }
        Writer {
            header: start.header,
            buf: query,
            counts: SectionCounts {
                questions: 1,
                ..SectionCounts::default()
            },
            compressor,
            limit: usize::MAX,
            dropped: false,
        }
    }

    /// Starts a message under `header` asking `questions`, in a buffer of
    /// its own.
    #[inline]
    pub fn new(header: Header, questions: &[Question]) -> Writer {
        Writer::start(Vec::with_capacity(128), header, questions)
    }

    /// `questions` encoded into `buf`, whatever it held.
    // Into `new` and `over`, so the writer is built where it will live: it
    // is ~150 bytes, and a copy per message showed in `Message::encode`.
    #[inline(always)]
    fn start(mut buf: Vec<u8>, header: Header, questions: &[Question]) -> Writer {
        let mut compressor = Compressor::default();
        buf.clear();
        buf.resize(HEADER_LEN, 0);
        for q in questions {
            compressor.question(&mut buf, q);
        }
        Writer {
            header,
            buf,
            counts: SectionCounts {
                questions: questions.len() as u16,
                ..SectionCounts::default()
            },
            compressor,
            limit: usize::MAX,
            dropped: false,
        }
    }

    /// Keeps the message within `limit` bytes, the way a UDP answer is cut
    /// to its payload: the first record that would end past `limit` is left
    /// out together with every record pushed after it (whole records, so
    /// what is kept is byte for byte the message without them), and
    /// [`Writer::finish`] sets TC.
    pub fn limit(&mut self, limit: usize) {
        self.limit = limit;
    }

    /// The first question, read back from where it was written (`None`
    /// when the message has none): a reply over a query knows what it
    /// answers.
    pub fn question(&self) -> Option<Question> {
        Question::read(&self.buf, HEADER_LEN).filter(|_| self.counts.questions > 0)
    }

    /// Appends `record` to `section`; see [`Writer::push_raw`].
    pub fn push(&mut self, section: Section, record: &Record) {
        let Record {
            name,
            rtype,
            class,
            ttl,
            rdata,
        } = record;
        self.push_raw(section, name, *rtype, *class, *ttl, |buf| rdata.encode(buf));
    }

    /// Appends one record to `section`: the owner name compressed against
    /// everything before it, the fixed fields, and whatever `rdata` writes.
    /// Sections fill in order, so a record may not go to a section before
    /// the one last written to. Past a [`Writer::limit`] the record is
    /// dropped, as is everything pushed after it.
    #[inline]
    pub fn push_raw(
        &mut self,
        section: Section,
        owner: &Name,
        rtype: RrType,
        class: RrClass,
        ttl: u32,
        rdata: impl FnOnce(&mut Vec<u8>),
    ) {
        let counts = &mut self.counts;
        let (count, later) = match section {
            Section::Answer => (&mut counts.answers, counts.authorities + counts.additionals),
            Section::Authority => (&mut counts.authorities, counts.additionals),
            Section::Additional => (&mut counts.additionals, 0),
        };
        debug_assert_eq!(later, 0, "{section:?} record after a later section's");
        if self.dropped {
            return;
        }
        // A record's encoding depends only on what precedes it, so cutting
        // it off again leaves exactly the message that never had it.
        let start = self.buf.len();
        self.compressor.record(&mut self.buf, owner, rtype, class, ttl, rdata);
        if self.buf.len() > self.limit {
            self.buf.truncate(start);
            self.dropped = true;
        } else {
            *count += 1;
        }
    }

    /// The finished message: the header goes in last, over the twelve bytes
    /// kept for it, with the counts of what was pushed and TC set if a
    /// record was dropped at the limit.
    #[inline]
    pub fn finish(mut self) -> Vec<u8> {
        self.header.truncated |= self.dropped;
        if let Some(slot) = self.buf.first_chunk_mut() {
            *slot = self.header.to_bytes(self.counts);
        }
        self.buf
    }

    /// [`Writer::finish`] for a writer with a [`Writer::limit`]: the message and
    /// whether records were dropped to keep it within the limit.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] if even header + questions exceed the limit.
    pub fn finish_limited(self) -> WireResult<(Vec<u8>, bool)> {
        let (limit, dropped) = (self.limit, self.dropped);
        match self.finish() {
            wire if wire.len() > limit => Err(WireError::TooLarge {
                needed: wire.len(),
                limit,
            }),
            wire => Ok((wire, dropped)),
        }
    }
}
