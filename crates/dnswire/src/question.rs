//! The question section entry.

use crate::error::WireResult;
use crate::name::Name;
use crate::types::{RrClass, RrType};
use std::fmt;

/// A single question: QNAME, QTYPE, QCLASS.
///
/// # Examples
///
/// ```
/// use dnswire::{question::Question, types::RrType};
///
/// let q = Question::new("www.foo.com".parse()?, RrType::A);
/// assert_eq!(q.to_string(), "www.foo.com. IN A");
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// The name being queried.
    pub name: Name,
    /// The record type requested.
    pub qtype: RrType,
    /// The class (practically always `IN`).
    pub qclass: RrClass,
}

impl Question {
    /// Creates an `IN`-class question.
    pub fn new(name: Name, qtype: RrType) -> Self {
        Question {
            name,
            qtype,
            qclass: RrClass::In,
        }
    }

    /// The question encoded at `offset` of `msg`, by the walk every decoded
    /// name comes from; `None` if there is no well-formed one there.
    pub(crate) fn read(msg: &[u8], offset: usize) -> Option<Question> {
        let (name, seen) = Name::read::<true>(msg, offset).ok()?;
        Some(Question {
            name: name?,
            qtype: RrType::from(read_u16(msg, seen.end).ok()?),
            qclass: RrClass::from(read_u16(msg, seen.end + 2).ok()?),
        })
    }
}

/// The [`digest`] of a message without a question.
pub const NO_QUESTION: u64 = 0xCBF2_9CE4_8422_2325;

/// A 64-bit digest (FNV-1a) of the question `name`/`qtype`/`qclass`: the
/// name's labels with ASCII case folded and the root octet, then type and
/// class. Two questions that compare equal digest equally, whatever their
/// spelling. It is an equality shortcut for a table that has no room for the
/// question, not a MAC: whoever knows the question can compute it.
pub fn digest(name: &Name, qtype: RrType, qclass: RrClass) -> u64 {
    digest_wire(name.as_wire(), qtype.code(), qclass.code())
}

/// [`digest`] over a name's labels as they lie in a datagram.
pub(crate) fn digest_wire(labels: &[u8], qtype: u16, qclass: u16) -> u64 {
    let folded = labels.iter().map(u8::to_ascii_lowercase);
    let [t0, t1] = qtype.to_be_bytes();
    let [c0, c1] = qclass.to_be_bytes();
    folded
        .chain([0, t0, t1, c0, c1])
        .fold(NO_QUESTION, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

impl Question {
    /// This question's digest; equal to
    /// [`MessageView::question_digest`](crate::view::MessageView::question_digest)
    /// of any datagram that asks it first.
    pub fn digest(&self) -> u64 {
        digest(&self.name, self.qtype, self.qclass)
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.qclass, self.qtype)
    }
}

pub(crate) fn read_u16(msg: &[u8], offset: usize) -> WireResult<u16> {
    match msg.get(offset..offset + 2) {
        Some(&[hi, lo]) => Ok(u16::from_be_bytes([hi, lo])),
        _ => Err(crate::error::WireError::UnexpectedEnd { offset }),
    }
}

pub(crate) fn read_u32(msg: &[u8], offset: usize) -> WireResult<u32> {
    match msg.get(offset..offset + 4) {
        Some(&[b0, b1, b2, b3]) => Ok(u32::from_be_bytes([b0, b1, b2, b3])),
        _ => Err(crate::error::WireError::UnexpectedEnd { offset }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[test]
    fn round_trip() {
        let q = Question::new("example.org".parse().unwrap(), RrType::Mx);
        let wire = Message::query(0, q.name.clone(), q.qtype).encode();
        assert_eq!(Message::decode(&wire).unwrap().questions, [q]);
    }

    #[test]
    fn digest_folds_case_and_tells_questions_apart() {
        let q = |name: &str, qtype| Question::new(name.parse().unwrap(), qtype).digest();
        assert_eq!(q("www.Foo.COM", RrType::A), q("WWW.foo.com", RrType::A));
        assert_ne!(q("www.foo.com", RrType::A), q("www.foo.com", RrType::Ns));
        assert_ne!(q("www.foo.com", RrType::A), q("ww.wfoo.com", RrType::A));
        // Type 65 is 'A' and 97 is 'a': only the name is folded.
        assert_ne!(q("foo.com", RrType::Other(65)), q("foo.com", RrType::Other(97)));
        assert_ne!(q("com", RrType::A), NO_QUESTION);
    }

    #[test]
    fn truncated_input_rejected() {
        let wire = Message::query(0, "a.b".parse().unwrap(), RrType::A).encode();
        for len in 0..wire.len() {
            assert!(Message::decode(&wire[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn display_format() {
        let q = Question::new("x.y".parse().unwrap(), RrType::Txt);
        assert_eq!(q.to_string(), "x.y. IN TXT");
    }
}
