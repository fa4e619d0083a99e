//! Zone data: the record database an authoritative server answers from.
//!
//! Records are indexed by owner name, then by type, so every look-up
//! ([`Zone::lookup`], [`Zone::glue`], [`Zone::name_exists`]) probes with the
//! name it is given and hands back records borrowed from the zone: answering
//! a query copies nothing out of here.

use dnswire::name::Name;
use dnswire::rdata::{RData, Soa};
use dnswire::record::Record;
use dnswire::types::RrType;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// The records at one owner name: one set per type, in the order the types
/// were first added. A name rarely has more than a few.
type RrSets = Vec<(RrType, Vec<Record>)>;

/// Files `record` under its owner and type.
fn file(records: &mut HashMap<Name, RrSets>, record: Record) {
    let sets = records.entry(record.name.clone()).or_default();
    match sets.iter_mut().find(|(rtype, _)| *rtype == record.rtype) {
        Some((_, set)) => set.push(record),
        None => sets.push((record.rtype, vec![record])),
    }
}

/// One authoritative zone: an apex, its records, and delegation cuts to
/// child zones.
///
/// Per the paper's deployment note, "standard DNS delegation practice
/// requires each next-level domain to provide both the name and IP address
/// of its ANS" — [`ZoneBuilder::delegate`] therefore takes both, so every
/// referral carries glue.
///
/// # Examples
///
/// ```
/// use server::zone::ZoneBuilder;
/// use std::net::Ipv4Addr;
///
/// let zone = ZoneBuilder::new("com".parse()?)
///     .delegate("foo.com".parse()?, "ns1.foo.com".parse()?, Ipv4Addr::new(192, 0, 2, 1))
///     .build();
/// assert!(zone.delegation_for(&"www.foo.com".parse()?).is_some());
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    soa: Record,
    /// Owner name → its record sets, so a look-up probes with the name it
    /// was given and builds no key.
    records: HashMap<Name, RrSets>,
    /// Child cut apex → NS records for that cut. BTreeMap so lookups can
    /// pick the deepest matching cut deterministically.
    delegations: BTreeMap<Name, Vec<Record>>,
}

impl Zone {
    /// The zone apex name.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// The zone's SOA record.
    pub fn soa(&self) -> &Record {
        &self.soa
    }

    /// Looks up records of `rtype` at exactly `name`.
    pub fn lookup(&self, name: &Name, rtype: RrType) -> Option<&[Record]> {
        let sets = self.records.get(name)?;
        sets.iter().find(|(t, _)| *t == rtype).map(|(_, set)| set.as_slice())
    }

    /// Whether any records exist at `name` (of any type).
    pub fn name_exists(&self, name: &Name) -> bool {
        self.records.contains_key(name) || self.delegations.keys().any(|cut| name.is_subdomain_of(cut))
    }

    /// Finds the delegation cut covering `name`, if `name` lies at or below
    /// a child zone cut. Returns the NS records of the deepest such cut.
    pub fn delegation_for(&self, name: &Name) -> Option<(&Name, &[Record])> {
        if !name.is_subdomain_of(&self.apex) {
            return None;
        }
        // Walk suffixes of `name` from deepest to the apex (exclusive).
        let mut best: Option<(&Name, &[Record])> = None;
        for (cut, ns) in &self.delegations {
            if name.is_subdomain_of(cut) {
                match best {
                    Some((prev, _)) if prev.label_count() >= cut.label_count() => {}
                    _ => best = Some((cut, ns.as_slice())),
                }
            }
        }
        best
    }

    /// Glue addresses for a name-server name, if this zone stores them:
    /// its A records, then its AAAA records.
    pub fn glue<'z>(&'z self, ns_name: &Name) -> impl Iterator<Item = &'z Record> {
        let sets = self.records.get(ns_name).map_or(&[][..], Vec::as_slice);
        let of = move |rtype| sets.iter().filter(move |(t, _)| *t == rtype).flat_map(|(_, set)| set);
        of(RrType::A).chain(of(RrType::Aaaa))
    }

    /// Iterates over all records (not including delegation NS sets).
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten().flat_map(|(_, set)| set)
    }
}

/// Builder for [`Zone`].
#[derive(Debug)]
pub struct ZoneBuilder {
    apex: Name,
    soa_ttl: u32,
    default_ttl: u32,
    records: HashMap<Name, RrSets>,
    delegations: BTreeMap<Name, Vec<Record>>,
}

impl ZoneBuilder {
    /// Starts a zone at `apex` with a default TTL of 3600 s.
    pub fn new(apex: Name) -> Self {
        ZoneBuilder {
            apex,
            soa_ttl: 3600,
            default_ttl: 3600,
            records: HashMap::new(),
            delegations: BTreeMap::new(),
        }
    }

    /// Sets the TTL used by subsequent `a`/`ns`/`txt` helpers (and the SOA).
    pub fn ttl(mut self, ttl: u32) -> Self {
        self.default_ttl = ttl;
        self.soa_ttl = ttl;
        self
    }

    /// Adds an arbitrary record.
    ///
    /// # Panics
    ///
    /// Panics if the record's owner is outside the zone.
    pub fn record(mut self, record: Record) -> Self {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "{} is outside zone {}",
            record.name,
            self.apex
        );
        file(&mut self.records, record);
        self
    }

    /// Adds an A record at `name`.
    pub fn a(self, name: Name, addr: Ipv4Addr) -> Self {
        let ttl = self.default_ttl;
        self.record(Record::a(name, addr, ttl))
    }

    /// Adds an NS record at the apex (one of the zone's own servers) plus
    /// its address. The server name may be out-of-bailiwick (e.g.
    /// `a.gtld-servers.net` serving `com`); its A record is stored as glue.
    pub fn ns(mut self, ns_name: Name, addr: Ipv4Addr) -> Self {
        let ttl = self.default_ttl;
        file(&mut self.records, Record::ns(self.apex.clone(), ns_name.clone(), ttl));
        file(&mut self.records, Record::a(ns_name, addr, ttl));
        self
    }

    /// Delegates `child` to a name server, storing both the NS record and
    /// its glue A record (paper: delegation always provides both).
    pub fn delegate(mut self, child: Name, ns_name: Name, ns_addr: Ipv4Addr) -> Self {
        assert!(
            child.is_subdomain_of(&self.apex) && child != self.apex,
            "delegation {child} must be a proper subdomain of {}",
            self.apex
        );
        let ttl = self.default_ttl;
        self.delegations
            .entry(child.clone())
            .or_default()
            .push(Record::ns(child, ns_name.clone(), ttl));
        file(&mut self.records, Record::a(ns_name, ns_addr, ttl));
        self
    }

    /// Finalises the zone (synthesising a standard SOA).
    pub fn build(self) -> Zone {
        let apex_sets = self.records.get(&self.apex).into_iter().flatten();
        let mname = apex_sets
            .filter(|(rtype, _)| *rtype == RrType::Ns)
            .find_map(|(_, set)| match &set.first()?.rdata {
                RData::Ns(n) => Some(n.clone()),
                _ => None,
            })
            .unwrap_or_else(|| self.apex.clone());
        let soa = Record::new(
            self.apex.clone(),
            self.soa_ttl,
            RData::Soa(Soa {
                mname,
                rname: Name::from_labels(["hostmaster"])
                    .expect("static label")
                    .concat(&self.apex)
                    .unwrap_or_else(|_| self.apex.clone()),
                serial: 2006_0101,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
        );
        Zone {
            apex: self.apex,
            soa,
            records: self.records,
            delegations: self.delegations,
        }
    }
}

/// Builds the three-level hierarchy used throughout the paper's figures:
/// root → `com` → `foo.com`, with `www.foo.com` as the terminal name.
///
/// Returns `(root_zone, com_zone, foo_zone)`. Server addresses:
/// root `198.41.0.4`, com `192.5.6.30`, foo.com `192.0.2.53`,
/// www.foo.com `192.0.2.80`.
pub fn paper_hierarchy() -> (Zone, Zone, Zone) {
    let root_ns: Name = "a.root-servers.net".parse().expect("static");
    let com_ns: Name = "a.gtld-servers.net".parse().expect("static");
    let foo_ns: Name = "ns1.foo.com".parse().expect("static");

    let root = ZoneBuilder::new(Name::root())
        .ttl(172_800)
        .ns(root_ns, ROOT_SERVER)
        .delegate("com".parse().expect("static"), com_ns.clone(), COM_SERVER)
        .build();
    let com = ZoneBuilder::new("com".parse().expect("static"))
        .ttl(172_800)
        .ns(com_ns, COM_SERVER)
        .delegate("foo.com".parse().expect("static"), foo_ns.clone(), FOO_SERVER)
        .build();
    let foo_com = ZoneBuilder::new("foo.com".parse().expect("static"))
        .ttl(3_600)
        .ns(foo_ns, FOO_SERVER)
        .a("www.foo.com".parse().expect("static"), WWW_ADDR)
        .build();
    (root, com, foo_com)
}

/// Address of the root server in [`paper_hierarchy`].
pub const ROOT_SERVER: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
/// Address of the `com` server in [`paper_hierarchy`].
pub const COM_SERVER: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
/// Address of the `foo.com` server in [`paper_hierarchy`].
pub const FOO_SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
/// Address of `www.foo.com` in [`paper_hierarchy`].
pub const WWW_ADDR: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 80);

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn lookup_and_glue() {
        let (_, com, _) = paper_hierarchy();
        assert_eq!(com.apex(), &n("com"));
        let glue: Vec<&Record> = com.glue(&n("ns1.foo.com")).collect();
        assert_eq!(glue.len(), 1);
        assert_eq!(glue[0].rdata, RData::A(FOO_SERVER));
    }

    #[test]
    fn delegation_found_for_descendants() {
        let (root, com, foo_com) = paper_hierarchy();
        let (cut, ns) = root.delegation_for(&n("www.foo.com")).unwrap();
        assert_eq!(cut, &n("com"));
        assert_eq!(ns.len(), 1);

        let (cut, _) = com.delegation_for(&n("www.foo.com")).unwrap();
        assert_eq!(cut, &n("foo.com"));

        assert!(foo_com.delegation_for(&n("www.foo.com")).is_none(), "terminal zone");
        assert!(root.delegation_for(&n("org")).is_none(), "no delegation for org");
    }

    #[test]
    fn deepest_cut_wins() {
        let zone = ZoneBuilder::new(n("com"))
            .delegate(n("foo.com"), n("ns.foo.com"), Ipv4Addr::new(1, 1, 1, 1))
            .delegate(n("deep.foo.com"), n("ns.deep.foo.com"), Ipv4Addr::new(2, 2, 2, 2))
            .build();
        let (cut, _) = zone.delegation_for(&n("www.deep.foo.com")).unwrap();
        assert_eq!(cut, &n("deep.foo.com"));
        let (cut, _) = zone.delegation_for(&n("www.foo.com")).unwrap();
        assert_eq!(cut, &n("foo.com"));
    }

    #[test]
    fn name_exists_covers_records_and_cuts() {
        let (_, _, foo_com) = paper_hierarchy();
        assert!(foo_com.name_exists(&n("www.foo.com")));
        assert!(foo_com.name_exists(&n("foo.com")));
        assert!(!foo_com.name_exists(&n("nope.foo.com")));
    }

    #[test]
    fn soa_synthesised_at_apex() {
        let (root, _, foo_com) = paper_hierarchy();
        assert_eq!(root.soa().name, Name::root());
        assert_eq!(foo_com.soa().name, n("foo.com"));
        assert!(matches!(foo_com.soa().rdata, RData::Soa(_)));
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn record_outside_zone_panics() {
        let _ = ZoneBuilder::new(n("com")).a(n("www.org"), Ipv4Addr::new(1, 2, 3, 4));
    }

    #[test]
    #[should_panic(expected = "proper subdomain")]
    fn delegating_apex_panics() {
        let _ = ZoneBuilder::new(n("com")).delegate(n("com"), n("ns.com"), Ipv4Addr::new(1, 2, 3, 4));
    }
}
