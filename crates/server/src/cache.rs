//! The recursive resolver's TTL cache.
//!
//! Stores positive record sets keyed by `(name, type)` with absolute expiry
//! times, plus the delegation information (zone cut → NS names) that drives
//! iterative resolution. Records with TTL 0 are never cached — the paper's
//! Figure 5 experiment relies on this to disable caching.

use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::record::Record;
use dnswire::types::RrType;
use netsim::time::SimTime;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Entry {
    records: Vec<Record>,
    expires: SimTime,
}

/// A cached negative answer (RFC 2308): the rcode to repeat and the SOA
/// that authorised it.
#[derive(Debug, Clone)]
pub struct NegativeEntry {
    /// `true` for NXDOMAIN, `false` for NODATA.
    pub nxdomain: bool,
    /// The SOA record to include in synthesised responses.
    pub soa: Record,
}

/// A TTL-respecting DNS cache.
///
/// # Examples
///
/// ```
/// use server::cache::Cache;
/// use dnswire::record::Record;
/// use dnswire::types::RrType;
/// use netsim::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut cache = Cache::new();
/// let rr = Record::a("www.foo.com".parse()?, Ipv4Addr::new(1, 2, 3, 4), 60);
/// cache.put(SimTime::ZERO, &[rr]);
/// let name: dnswire::name::Name = "www.foo.com".parse()?;
/// assert!(cache.get(SimTime::from_secs(59), &name, RrType::A).is_some());
/// assert!(cache.get(SimTime::from_secs(61), &name, RrType::A).is_none());
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cache {
    entries: HashMap<(Name, RrType), Entry>,
    negative: HashMap<(Name, RrType), (NegativeEntry, SimTime)>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// An empty cache.
    pub fn new() -> Self {
        Cache::default()
    }

    /// Inserts records, grouped by `(owner, type)`; each group's expiry is
    /// `now + min TTL`. TTL-0 records are skipped entirely.
    pub fn put(&mut self, now: SimTime, records: &[Record]) {
        let mut groups: HashMap<(Name, RrType), Vec<Record>> = HashMap::new();
        for r in records {
            if r.ttl == 0 {
                continue;
            }
            groups
                .entry((r.name.clone(), r.rtype))
                .or_default()
                .push(r.clone());
        }
        for (key, group) in groups {
            let min_ttl = group.iter().map(|r| r.ttl).min().unwrap_or(0);
            let expires = now + SimTime::from_secs(min_ttl as u64);
            self.entries.insert(key, Entry { records: group, expires });
        }
    }

    /// Returns unexpired records for `(name, rtype)`.
    pub fn get(&mut self, now: SimTime, name: &Name, rtype: RrType) -> Option<Vec<Record>> {
        match self.entries.get(&(name.clone(), rtype)) {
            Some(e) if e.expires > now => {
                self.hits += 1;
                Some(e.records.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Like [`Cache::get`] but without touching hit/miss statistics.
    pub fn peek(&self, now: SimTime, name: &Name, rtype: RrType) -> Option<&[Record]> {
        match self.entries.get(&(name.clone(), rtype)) {
            Some(e) if e.expires > now => Some(&e.records),
            _ => None,
        }
    }

    /// The deepest cached zone cut at or above `qname` with unexpired NS
    /// records: returns the cut and the NS target names.
    pub fn best_zone_cut(&self, now: SimTime, qname: &Name) -> Option<(Name, Vec<Name>)> {
        let mut cut = qname.clone();
        loop {
            if let Some(entry) = self.entries.get(&(cut.clone(), RrType::Ns)) {
                if entry.expires > now {
                    let ns_names: Vec<Name> = entry
                        .records
                        .iter()
                        .filter_map(|r| match &r.rdata {
                            RData::Ns(n) => Some(n.clone()),
                            _ => None,
                        })
                        .collect();
                    if !ns_names.is_empty() {
                        return Some((cut, ns_names));
                    }
                }
            }
            if cut.is_root() {
                return None;
            }
            cut = cut.parent();
        }
    }

    /// Cached IPv4 addresses for `name` (A records only).
    pub fn addresses(&self, now: SimTime, name: &Name) -> Vec<std::net::Ipv4Addr> {
        self.peek(now, name, RrType::A)
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| match r.rdata {
                        RData::A(ip) => Some(ip),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Caches a negative answer (RFC 2308): the TTL is the minimum of the
    /// SOA's own TTL and its MINIMUM field. TTL 0 disables caching, as for
    /// positive entries.
    pub fn put_negative(&mut self, now: SimTime, name: &Name, rtype: RrType, nxdomain: bool, soa: &Record) {
        let minimum = match &soa.rdata {
            dnswire::rdata::RData::Soa(s) => s.minimum,
            _ => return,
        };
        let ttl = soa.ttl.min(minimum);
        if ttl == 0 {
            return;
        }
        self.negative.insert(
            (name.clone(), rtype),
            (
                NegativeEntry {
                    nxdomain,
                    soa: soa.clone(),
                },
                now + SimTime::from_secs(ttl as u64),
            ),
        );
    }

    /// Returns an unexpired cached negative answer for `(name, rtype)`.
    /// An NXDOMAIN entry for the name answers *any* type (the name does
    /// not exist at all).
    pub fn get_negative(&mut self, now: SimTime, name: &Name, rtype: RrType) -> Option<NegativeEntry> {
        // Exact-type entry (NODATA or NXDOMAIN).
        if let Some((entry, expires)) = self.negative.get(&(name.clone(), rtype)) {
            if *expires > now {
                self.hits += 1;
                return Some(entry.clone());
            }
        }
        // Any NXDOMAIN entry for the name covers all types.
        let nx = self
            .negative
            .iter()
            .find(|((n, _), (e, expires))| n == name && e.nxdomain && *expires > now)
            .map(|(_, (e, _))| e.clone());
        if nx.is_some() {
            self.hits += 1;
        }
        nx
    }

    /// Number of live (possibly expired-but-unswept) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn ttl_zero_never_cached() {
        let mut cache = Cache::new();
        cache.put(SimTime::ZERO, &[Record::a(n("x.y"), Ipv4Addr::new(1, 1, 1, 1), 0)]);
        assert!(cache.get(SimTime::ZERO, &n("x.y"), RrType::A).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn expiry_respects_min_ttl_of_rrset() {
        let mut cache = Cache::new();
        cache.put(
            SimTime::ZERO,
            &[
                Record::a(n("x.y"), Ipv4Addr::new(1, 1, 1, 1), 10),
                Record::a(n("x.y"), Ipv4Addr::new(2, 2, 2, 2), 100),
            ],
        );
        assert_eq!(cache.get(SimTime::from_secs(9), &n("x.y"), RrType::A).unwrap().len(), 2);
        assert!(cache.get(SimTime::from_secs(11), &n("x.y"), RrType::A).is_none());
    }

    #[test]
    fn best_zone_cut_finds_deepest() {
        let mut cache = Cache::new();
        cache.put(
            SimTime::ZERO,
            &[
                Record::ns(n("com"), n("a.gtld-servers.net"), 1000),
                Record::ns(n("foo.com"), n("ns1.foo.com"), 1000),
            ],
        );
        let (cut, ns) = cache.best_zone_cut(SimTime::ZERO, &n("www.foo.com")).unwrap();
        assert_eq!(cut, n("foo.com"));
        assert_eq!(ns, vec![n("ns1.foo.com")]);

        let (cut, _) = cache.best_zone_cut(SimTime::ZERO, &n("bar.com")).unwrap();
        assert_eq!(cut, n("com"));

        assert!(cache.best_zone_cut(SimTime::ZERO, &n("example.org")).is_none());
    }

    #[test]
    fn expired_cut_ignored() {
        let mut cache = Cache::new();
        cache.put(SimTime::ZERO, &[Record::ns(n("com"), n("ns.com"), 5)]);
        assert!(cache.best_zone_cut(SimTime::from_secs(6), &n("x.com")).is_none());
    }

    #[test]
    fn addresses_extracts_a_records() {
        let mut cache = Cache::new();
        cache.put(
            SimTime::ZERO,
            &[
                Record::a(n("ns1.foo.com"), Ipv4Addr::new(192, 0, 2, 1), 60),
                Record::a(n("ns1.foo.com"), Ipv4Addr::new(192, 0, 2, 2), 60),
            ],
        );
        assert_eq!(
            cache.addresses(SimTime::ZERO, &n("ns1.foo.com")),
            vec![Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)]
        );
        assert!(cache.addresses(SimTime::ZERO, &n("other")).is_empty());
    }

    #[test]
    fn hit_miss_stats() {
        let mut cache = Cache::new();
        cache.put(SimTime::ZERO, &[Record::a(n("a.b"), Ipv4Addr::new(1, 1, 1, 1), 60)]);
        let _ = cache.get(SimTime::ZERO, &n("a.b"), RrType::A);
        let _ = cache.get(SimTime::ZERO, &n("a.b"), RrType::Aaaa);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn negative_caching_nodata_and_nxdomain() {
        use dnswire::rdata::{RData, Soa};
        let soa = Record::new(
            n("foo.com"),
            3600,
            RData::Soa(Soa {
                mname: n("ns1.foo.com"),
                rname: n("hostmaster.foo.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 300,
            }),
        );
        let mut cache = Cache::new();
        // NODATA for (x.foo.com, MX): answers MX only.
        cache.put_negative(SimTime::ZERO, &n("x.foo.com"), RrType::Mx, false, &soa);
        assert!(cache.get_negative(SimTime::ZERO, &n("x.foo.com"), RrType::Mx).is_some());
        assert!(cache.get_negative(SimTime::ZERO, &n("x.foo.com"), RrType::A).is_none());
        // NXDOMAIN for gone.foo.com: answers any type.
        cache.put_negative(SimTime::ZERO, &n("gone.foo.com"), RrType::A, true, &soa);
        assert!(cache.get_negative(SimTime::ZERO, &n("gone.foo.com"), RrType::Mx).is_some());
        // TTL = min(SOA TTL, MINIMUM) = 300 s.
        assert!(cache
            .get_negative(SimTime::from_secs(299), &n("gone.foo.com"), RrType::A)
            .is_some());
        assert!(cache
            .get_negative(SimTime::from_secs(301), &n("gone.foo.com"), RrType::A)
            .is_none());
    }

    #[test]
    fn negative_caching_respects_ttl_zero() {
        use dnswire::rdata::{RData, Soa};
        let soa = Record::new(
            n("foo.com"),
            0, // TTL 0 → never cached
            RData::Soa(Soa {
                mname: n("a"),
                rname: n("b"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 300,
            }),
        );
        let mut cache = Cache::new();
        cache.put_negative(SimTime::ZERO, &n("x.foo.com"), RrType::A, true, &soa);
        assert!(cache.get_negative(SimTime::ZERO, &n("x.foo.com"), RrType::A).is_none());
    }

    #[test]
    fn newer_put_replaces() {
        let mut cache = Cache::new();
        cache.put(SimTime::ZERO, &[Record::a(n("a.b"), Ipv4Addr::new(1, 1, 1, 1), 60)]);
        cache.put(SimTime::ZERO, &[Record::a(n("a.b"), Ipv4Addr::new(9, 9, 9, 9), 60)]);
        let got = cache.get(SimTime::ZERO, &n("a.b"), RrType::A).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rdata, RData::A(Ipv4Addr::new(9, 9, 9, 9)));
    }
}
