//! RDATA payloads for the record types the reproduction uses.

use crate::error::{WireError, WireResult};
use crate::name::Name;
use crate::question::{read_u16, read_u32};
use crate::types::RrType;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Decoded RDATA, by record type.
///
/// Names inside RDATA are encoded *without* compression pointers (as modern
/// practice requires for anything cached or DNSSEC-signed); the decoder still
/// accepts compressed names for robustness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Authoritative server name — the carrier of the NS-name cookie.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Start of authority.
    Soa(Soa),
    /// Reverse-mapping pointer.
    Ptr(Name),
    /// Mail exchange.
    Mx {
        /// Lower is more preferred.
        preference: u16,
        /// Exchange host name.
        exchange: Name,
    },
    /// One or more character-strings — the carrier of the modified-DNS
    /// cookie extension.
    Txt(Vec<Vec<u8>>),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Anything else, carried opaquely.
    Unknown(Vec<u8>),
}

/// SOA RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary master name.
    pub mname: Name,
    /// Responsible mailbox.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Secondary refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expiry (seconds).
    pub expire: u32,
    /// Negative-caching TTL (seconds).
    pub minimum: u32,
}

impl RData {
    /// The record type this payload belongs with.
    pub fn rtype(&self) -> Option<RrType> {
        Some(match self {
            RData::A(_) => RrType::A,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Soa(_) => RrType::Soa,
            RData::Ptr(_) => RrType::Ptr,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Unknown(_) => return None,
        })
    }

    /// Encodes the RDATA (without the RDLENGTH prefix) into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RData::A(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_uncompressed(buf),
            RData::Soa(soa) => {
                soa.mname.encode_uncompressed(buf);
                soa.rname.encode_uncompressed(buf);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Mx { preference, exchange } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode_uncompressed(buf);
            }
            RData::Txt(strings) => {
                // A TXT record must contain at least one character-string;
                // encode an empty string when none were supplied.
                if strings.is_empty() {
                    buf.push(0);
                }
                for s in strings {
                    debug_assert!(s.len() <= 255, "character-string too long");
                    buf.push(s.len().min(255) as u8);
                    // lint: L1 — encode path over our own data, and the
                    // range end is clamped to s.len() on the previous line.
                    buf.extend_from_slice(&s[..s.len().min(255)]);
                }
            }
            RData::Aaaa(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Unknown(bytes) => buf.extend_from_slice(bytes),
        }
    }

    /// Reads RDATA of `rtype` occupying `msg[offset..offset+rdlen]`: every
    /// rule an RDATA must pass is here. With `KEEP` the payload is built;
    /// without, the same checks run and nothing is allocated.
    ///
    /// # Errors
    ///
    /// Fails when the payload is malformed or does not fill `rdlen` exactly.
    pub(crate) fn read<const KEEP: bool>(
        msg: &[u8],
        offset: usize,
        rdlen: usize,
        rtype: RrType,
    ) -> WireResult<Option<RData>> {
        let end = offset + rdlen;
        let bytes = msg
            .get(offset..end)
            .ok_or(WireError::UnexpectedEnd { offset: end })?;
        let mismatch = |consumed: usize| WireError::RdataLengthMismatch {
            declared: rdlen,
            consumed,
        };
        let exact = |consumed: usize| -> WireResult<()> {
            if consumed == end {
                Ok(())
            } else {
                Err(mismatch(consumed - offset))
            }
        };
        Ok(match rtype {
            RrType::A => {
                let octets: [u8; 4] = bytes.try_into().map_err(|_| mismatch(4))?;
                KEEP.then(|| RData::A(Ipv4Addr::from(octets)))
            }
            RrType::Aaaa => {
                let octets: [u8; 16] = bytes.try_into().map_err(|_| mismatch(16))?;
                KEEP.then(|| RData::Aaaa(Ipv6Addr::from(octets)))
            }
            RrType::Ns | RrType::Cname | RrType::Ptr => {
                let (name, seen) = Name::read::<KEEP>(msg, offset)?;
                exact(seen.end)?;
                name.map(|name| match rtype {
                    RrType::Ns => RData::Ns(name),
                    RrType::Cname => RData::Cname(name),
                    _ => RData::Ptr(name),
                })
            }
            RrType::Soa => {
                let (mname, seen) = Name::read::<KEEP>(msg, offset)?;
                let (rname, seen) = Name::read::<KEEP>(msg, seen.end)?;
                let pos = seen.end;
                let serial = read_u32(msg, pos)?;
                let refresh = read_u32(msg, pos + 4)?;
                let retry = read_u32(msg, pos + 8)?;
                let expire = read_u32(msg, pos + 12)?;
                let minimum = read_u32(msg, pos + 16)?;
                exact(pos + 20)?;
                mname.zip(rname).map(|(mname, rname)| {
                    RData::Soa(Soa {
                        mname,
                        rname,
                        serial,
                        refresh,
                        retry,
                        expire,
                        minimum,
                    })
                })
            }
            RrType::Mx => {
                let preference = read_u16(msg, offset)?;
                let (exchange, seen) = Name::read::<KEEP>(msg, offset + 2)?;
                exact(seen.end)?;
                exchange.map(|exchange| RData::Mx { preference, exchange })
            }
            RrType::Txt => {
                let mut strings = Vec::new();
                let mut rest = bytes;
                while let Some((&len, tail)) = rest.split_first() {
                    let (s, tail) = tail
                        .split_at_checked(len as usize)
                        .ok_or(WireError::BadCharacterString)?;
                    if KEEP {
                        strings.push(s.to_vec());
                    }
                    rest = tail;
                }
                KEEP.then_some(RData::Txt(strings))
            }
            RrType::Opt | RrType::Other(_) => KEEP.then(|| RData::Unknown(bytes.to_vec())),
        })
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Soa(soa) => write!(
                f,
                "{} {} {} {} {} {} {}",
                soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
            ),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx { preference, exchange } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                for (i, s) in strings.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "\"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Unknown(bytes) => write!(f, "\\# {} (opaque)", bytes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(msg: &[u8], rtype: RrType) -> WireResult<RData> {
        RData::read::<true>(msg, 0, msg.len(), rtype).map(Option::unwrap)
    }

    fn round_trip(rdata: RData, rtype: RrType) {
        let mut buf = Vec::new();
        rdata.encode(&mut buf);
        let decoded = decode(&buf, rtype).unwrap();
        assert_eq!(decoded, rdata);
    }

    #[test]
    fn a_round_trip() {
        round_trip(RData::A(Ipv4Addr::new(1, 2, 3, 4)), RrType::A);
    }

    #[test]
    fn aaaa_round_trip() {
        round_trip(RData::Aaaa("2001:db8::1".parse().unwrap()), RrType::Aaaa);
    }

    #[test]
    fn ns_cname_ptr_round_trip() {
        round_trip(RData::Ns("ns1.foo.com".parse().unwrap()), RrType::Ns);
        round_trip(RData::Cname("alias.foo.com".parse().unwrap()), RrType::Cname);
        round_trip(RData::Ptr("host.example".parse().unwrap()), RrType::Ptr);
    }

    #[test]
    fn soa_round_trip() {
        round_trip(
            RData::Soa(Soa {
                mname: "ns1.foo.com".parse().unwrap(),
                rname: "hostmaster.foo.com".parse().unwrap(),
                serial: 20_060_101,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
            RrType::Soa,
        );
    }

    #[test]
    fn mx_round_trip() {
        round_trip(
            RData::Mx {
                preference: 10,
                exchange: "mail.foo.com".parse().unwrap(),
            },
            RrType::Mx,
        );
    }

    #[test]
    fn txt_round_trip_multi_string() {
        round_trip(
            RData::Txt(vec![b"hello".to_vec(), vec![0u8; 16], b"".to_vec()]),
            RrType::Txt,
        );
    }

    #[test]
    fn txt_empty_encodes_one_empty_string() {
        let mut buf = Vec::new();
        RData::Txt(vec![]).encode(&mut buf);
        assert_eq!(buf, vec![0u8]);
        let decoded = decode(&buf, RrType::Txt).unwrap();
        assert_eq!(decoded, RData::Txt(vec![vec![]]));
    }

    #[test]
    fn unknown_round_trip() {
        round_trip(RData::Unknown(vec![1, 2, 3, 4, 5]), RrType::Other(999));
    }

    #[test]
    fn a_wrong_length_rejected() {
        assert!(matches!(
            decode(&[1, 2, 3], RrType::A),
            Err(WireError::RdataLengthMismatch { .. })
        ));
    }

    #[test]
    fn txt_overrun_rejected() {
        // Declares a 10-byte string but only 2 bytes remain.
        let buf = [10u8, b'a', b'b'];
        assert!(matches!(
            decode(&buf, RrType::Txt),
            Err(WireError::BadCharacterString)
        ));
    }

    #[test]
    fn ns_with_trailing_garbage_rejected() {
        let mut buf = Vec::new();
        RData::Ns("a.b".parse().unwrap()).encode(&mut buf);
        buf.push(0xFF);
        assert!(matches!(
            decode(&buf, RrType::Ns),
            Err(WireError::RdataLengthMismatch { .. })
        ));
    }

    #[test]
    fn rtype_accessor() {
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).rtype(), Some(RrType::A));
        assert_eq!(RData::Unknown(vec![]).rtype(), None);
    }
}
