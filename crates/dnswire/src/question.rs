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
