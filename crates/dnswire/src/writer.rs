//! A reply written over the query it answers.
//!
//! A reply echoes the question, and a guard's first-contact replies add at
//! most one record to it. So when the received question section is exactly
//! what the encoder would write, the reply is the received buffer cut off
//! behind the question, twelve header bytes rewritten, and records appended —
//! through the compressor every [`Message::encode`] uses, told where the
//! question name's suffixes already lie. A [`Writer`] started that way emits
//! byte for byte what decode → `into_response()` → push → `encode()` does;
//! for the shapes whose question bytes cannot stand it obtains its header and
//! questions from the owned decode and appends through the same path.

use crate::header::{Header, SectionCounts, HEADER_LEN};
use crate::message::{Compressor, Message};
use crate::name::Name;
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

/// A reply being written.
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
}

impl Writer {
    /// Starts the reply to `query`, the datagram `start` was taken from, in
    /// `query`'s own buffer when its question section can stand: nothing is
    /// copied or allocated, and the compressor learns the question name's
    /// suffixes where they lie — the offsets encoding the name would have
    /// registered. Any other shape (no question, several, a compressed
    /// question name) is decoded and its questions encoded afresh.
    pub fn over(mut query: Vec<u8>, start: ReplyStart) -> Writer {
        let mut compressor = Compressor::default();
        let questions = match start.questions_end {
            Some(end) => {
                query.truncate(end);
                let mut at = HEADER_LEN;
                while let Some(&len @ 1..=63) = query.get(at) {
                    compressor.remember(at);
                    at += 1 + len as usize;
                }
                1
            }
            None => {
                let owned = Message::decode(&query).unwrap_or_default();
                query.resize(HEADER_LEN, 0);
                for q in &owned.questions {
                    compressor.question(&mut query, q);
                }
                owned.questions.len() as u16
            }
        };
        Writer {
            header: start.header,
            buf: query,
            counts: SectionCounts {
                questions,
                ..SectionCounts::default()
            },
            compressor,
        }
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
    /// the one last written to.
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
        *count += 1;
        self.compressor.record(&mut self.buf, owner, rtype, class, ttl, rdata);
    }

    /// The finished reply: the header goes in last, over the twelve bytes
    /// kept for it, with the counts of what was pushed.
    pub fn finish(mut self) -> Vec<u8> {
        if let Some(slot) = self.buf.first_chunk_mut() {
            *slot = self.header.to_bytes(self.counts);
        }
        self.buf
    }
}
