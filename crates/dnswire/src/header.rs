//! The 12-byte DNS message header.

use crate::error::{WireError, WireResult};
use crate::types::{Opcode, Rcode};

/// Wire length of a DNS header.
pub const HEADER_LEN: usize = 12;

/// A decoded DNS message header (RFC 1035 section 4.1.1).
///
/// The four count fields are not stored here; `Message` derives them from its
/// section vectors when encoding and verifies them when decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction identifier, echoed by responses.
    pub id: u16,
    /// `true` for responses, `false` for queries (QR bit).
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer (AA).
    pub authoritative: bool,
    /// Truncation (TC) — the signal the TCP-based guard scheme relies on.
    pub truncated: bool,
    /// Recursion desired (RD).
    pub recursion_desired: bool,
    /// Recursion available (RA).
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
}

/// The section counts carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionCounts {
    /// QDCOUNT — questions.
    pub questions: u16,
    /// ANCOUNT — answer records.
    pub answers: u16,
    /// NSCOUNT — authority records.
    pub authorities: u16,
    /// ARCOUNT — additional records.
    pub additionals: u16,
}

impl Header {
    /// Creates a query header with the given transaction id and RD set —
    /// the shape stub resolvers send.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            recursion_desired: true,
            ..Header::default()
        }
    }

    /// Creates an iterative (non-recursive) query header, as an LRS sends to
    /// authoritative servers.
    pub fn iterative_query(id: u16) -> Self {
        Header {
            id,
            ..Header::default()
        }
    }

    /// Creates the response header matching this query: same id/opcode/RD,
    /// QR set.
    pub fn response_to(&self) -> Self {
        Header {
            id: self.id,
            response: true,
            opcode: self.opcode,
            authoritative: false,
            truncated: false,
            recursion_desired: self.recursion_desired,
            recursion_available: false,
            rcode: Rcode::NoError,
        }
    }

    /// The twelve wire bytes of the header plus explicit section counts.
    pub fn to_bytes(&self, counts: SectionCounts) -> [u8; HEADER_LEN] {
        let mut flags: u16 = 0;
        if self.response {
            flags |= 0x8000;
        }
        flags |= (self.opcode.code() as u16) << 11;
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.truncated {
            flags |= 0x0200;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.recursion_available {
            flags |= 0x0080;
        }
        flags |= self.rcode.code() as u16;
        let [i0, i1] = self.id.to_be_bytes();
        let [f0, f1] = flags.to_be_bytes();
        let [q0, q1] = counts.questions.to_be_bytes();
        let [a0, a1] = counts.answers.to_be_bytes();
        let [n0, n1] = counts.authorities.to_be_bytes();
        let [r0, r1] = counts.additionals.to_be_bytes();
        [i0, i1, f0, f1, q0, q1, a0, a1, n0, n1, r0, r1]
    }

    /// Decodes a header and its section counts from the front of `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEnd`] when fewer than 12 bytes remain.
    pub fn decode(msg: &[u8]) -> WireResult<(Header, SectionCounts)> {
        let Some(&[i0, i1, f0, f1, q0, q1, a0, a1, n0, n1, r0, r1]) = msg.first_chunk() else {
            return Err(WireError::UnexpectedEnd { offset: msg.len() });
        };
        let flags = u16::from_be_bytes([f0, f1]);
        let header = Header {
            id: u16::from_be_bytes([i0, i1]),
            response: flags & 0x8000 != 0,
            opcode: Opcode::from(((flags >> 11) & 0x0F) as u8),
            authoritative: flags & 0x0400 != 0,
            truncated: flags & 0x0200 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from((flags & 0x0F) as u8),
        };
        let counts = SectionCounts {
            questions: u16::from_be_bytes([q0, q1]),
            answers: u16::from_be_bytes([a0, a1]),
            authorities: u16::from_be_bytes([n0, n1]),
            additionals: u16::from_be_bytes([r0, r1]),
        };
        Ok((header, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let header = Header {
            id: 0xBEEF,
            response: true,
            opcode: Opcode::Status,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            rcode: Rcode::Refused,
        };
        let counts = SectionCounts {
            questions: 1,
            answers: 2,
            authorities: 3,
            additionals: 4,
        };
        let buf = header.to_bytes(counts);
        let (decoded, decoded_counts) = Header::decode(&buf).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(decoded_counts, counts);
    }

    #[test]
    fn all_flag_bits_independent() {
        for bit in 0..5 {
            let mut h = Header::query(1);
            match bit {
                0 => h.response = true,
                1 => h.authoritative = true,
                2 => h.truncated = true,
                3 => h.recursion_desired = false,
                _ => h.recursion_available = true,
            }
            let buf = h.to_bytes(SectionCounts::default());
            let (d, _) = Header::decode(&buf).unwrap();
            assert_eq!(d, h, "bit {bit}");
        }
    }

    #[test]
    fn response_to_echoes_id_and_rd() {
        let q = Header::query(77);
        let r = q.response_to();
        assert_eq!(r.id, 77);
        assert!(r.response);
        assert!(r.recursion_desired);
        assert!(!r.truncated);
    }

    #[test]
    fn short_input_rejected() {
        assert!(matches!(
            Header::decode(&[0u8; 11]),
            Err(WireError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn truncation_bit_is_0x0200() {
        // The TC bit position matters for interop; pin it explicitly.
        let mut h = Header::query(0);
        h.truncated = true;
        let buf = h.to_bytes(SectionCounts::default());
        assert_eq!(buf[2] & 0x02, 0x02);
    }
}
