//! Resource records: owner name, type, class, TTL and RDATA.

use crate::name::Name;
use crate::rdata::RData;
use crate::types::{RrClass, RrType};
use std::fmt;
use std::net::Ipv4Addr;

/// A resource record.
///
/// # Examples
///
/// ```
/// use dnswire::record::Record;
/// use std::net::Ipv4Addr;
///
/// let rr = Record::a("www.foo.com".parse()?, Ipv4Addr::new(192, 0, 2, 1), 3600);
/// assert_eq!(rr.to_string(), "www.foo.com. 3600 IN A 192.0.2.1");
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record type (kept explicit so unknown types survive round-trips).
    pub rtype: RrType,
    /// Class.
    pub class: RrClass,
    /// Time to live, seconds. The guard manipulates this: fabricated NS
    /// records get long TTLs so cookies stay cached.
    pub ttl: u32,
    /// The payload.
    pub rdata: RData,
}

impl Record {
    /// Creates an `IN`-class record, deriving `rtype` from the RDATA.
    ///
    /// # Panics
    ///
    /// Panics if `rdata` is [`RData::Unknown`]; use [`Record::with_type`]
    /// for opaque payloads.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        let rtype = rdata
            .rtype()
            // lint: L1 — Record::new is a constructor over caller-built RData, not a wire
            // decode path; the panic on RData::Unknown is documented API misuse
            .expect("RData::Unknown needs Record::with_type");
        Record {
            name,
            rtype,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Creates a record with an explicit type (for opaque RDATA).
    pub fn with_type(name: Name, rtype: RrType, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            rtype,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Convenience: an A record.
    pub fn a(name: Name, addr: Ipv4Addr, ttl: u32) -> Self {
        Record::new(name, ttl, RData::A(addr))
    }

    /// Convenience: an NS record.
    pub fn ns(name: Name, nsdname: Name, ttl: u32) -> Self {
        Record::new(name, ttl, RData::Ns(nsdname))
    }

    /// Convenience: a single-string TXT record.
    pub fn txt(name: Name, data: Vec<u8>, ttl: u32) -> Self {
        Record::new(name, ttl, RData::Txt(vec![data]))
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name, self.ttl, self.class, self.rtype, self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_type() {
        let a = Record::a("h.example".parse().unwrap(), Ipv4Addr::new(10, 0, 0, 1), 60);
        assert_eq!(a.rtype, RrType::A);
        let ns = Record::ns("example".parse().unwrap(), "ns.example".parse().unwrap(), 60);
        assert_eq!(ns.rtype, RrType::Ns);
        let txt = Record::txt("example".parse().unwrap(), b"hi".to_vec(), 0);
        assert_eq!(txt.rtype, RrType::Txt);
    }

    #[test]
    #[should_panic(expected = "with_type")]
    fn unknown_rdata_needs_with_type() {
        Record::new("x".parse().unwrap(), 0, RData::Unknown(vec![1]));
    }

    #[test]
    fn with_type_allows_opaque() {
        let r = Record::with_type("x".parse().unwrap(), RrType::Other(7), 0, RData::Unknown(vec![1]));
        assert_eq!(r.rtype, RrType::Other(7));
    }

    #[test]
    fn display_matches_zone_format() {
        let r = Record::ns("com".parse().unwrap(), "a.gtld-servers.net".parse().unwrap(), 172800);
        assert_eq!(r.to_string(), "com. 172800 IN NS a.gtld-servers.net.");
    }
}
