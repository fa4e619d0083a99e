//! Pure authoritative answering logic: given zones and a question, produce
//! the referral, answer, NODATA or NXDOMAIN response.

use crate::zone::Zone;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::types::{Rcode, RrType};

/// How an authority classified its response — used by tests, the guard
/// (which treats referral and non-referral answers differently), and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// The answer section holds records for the query name.
    Authoritative,
    /// Delegation: NS records in the authority section plus glue.
    Referral,
    /// Name exists but has no records of the queried type.
    NoData,
    /// Name does not exist.
    NxDomain,
    /// This server is not authoritative for the name at all.
    NotAuth,
}

/// A set of zones served by one authoritative name server.
///
/// # Examples
///
/// ```
/// use server::authoritative::{AnswerKind, Authority};
/// use server::zone::paper_hierarchy;
/// use dnswire::message::Message;
/// use dnswire::types::RrType;
///
/// let (root, _, _) = paper_hierarchy();
/// let authority = Authority::new(vec![root]);
/// let query = Message::iterative_query(1, "www.foo.com".parse()?, RrType::A);
/// let (response, kind) = authority.answer(&query);
/// assert_eq!(kind, AnswerKind::Referral);
/// assert!(response.is_referral());
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Authority {
    zones: Vec<Zone>,
}

impl Authority {
    /// Creates an authority serving `zones`.
    pub fn new(zones: Vec<Zone>) -> Self {
        Authority { zones }
    }

    /// The deepest zone whose apex is a suffix of `name`.
    pub fn best_zone(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }

    /// Answers `query`, returning the response and its classification.
    ///
    /// The caller applies UDP truncation via
    /// [`Message::encode_with_limit`] as transport dictates.
    pub fn answer(&self, query: &Message) -> (Message, AnswerKind) {
        let mut response = query.response();
        let Some(question) = query.question() else {
            response.header.rcode = Rcode::FormErr;
            return (response, AnswerKind::NotAuth);
        };
        let qname = &question.name;
        let qtype = question.qtype;

        let Some(zone) = self.best_zone(qname) else {
            response.header.rcode = Rcode::Refused;
            return (response, AnswerKind::NotAuth);
        };

        // Delegation below a zone cut → referral (not authoritative).
        if let Some((_cut, ns_records)) = zone.delegation_for(qname) {
            for ns in ns_records {
                response.authorities.push(ns.clone());
                if let RData::Ns(ns_name) = &ns.rdata {
                    response.additionals.extend(zone.glue(ns_name));
                }
            }
            return (response, AnswerKind::Referral);
        }

        response.header.authoritative = true;

        // Exact-type match.
        if let Some(records) = zone.lookup(qname, qtype) {
            response.answers.extend_from_slice(records);
            return (response, AnswerKind::Authoritative);
        }

        // CNAME chain within the zone (bounded).
        if qtype != RrType::Cname {
            let mut current = qname;
            let mut followed = 0;
            while let Some(cnames) = zone.lookup(current, RrType::Cname) {
                response.answers.extend_from_slice(cnames);
                let RData::Cname(target) = &cnames[0].rdata else {
                    break;
                };
                current = target;
                followed += 1;
                if followed > 8 {
                    break;
                }
                if let Some(records) = zone.lookup(current, qtype) {
                    response.answers.extend_from_slice(records);
                    return (response, AnswerKind::Authoritative);
                }
            }
            if !response.answers.is_empty() {
                // CNAME present but target unresolved here.
                return (response, AnswerKind::Authoritative);
            }
        }

        // Name exists (possibly only as an empty non-terminal) → NODATA,
        // else NXDOMAIN. Both carry the SOA for negative caching.
        response.authorities.push(zone.soa().clone());
        if zone.name_exists(qname) || qname == zone.apex() {
            (response, AnswerKind::NoData)
        } else {
            response.header.rcode = Rcode::NxDomain;
            (response, AnswerKind::NxDomain)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{paper_hierarchy, ZoneBuilder, COM_SERVER, FOO_SERVER, WWW_ADDR};
    use dnswire::record::Record;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn q(name: &str, t: RrType) -> Message {
        Message::iterative_query(9, n(name), t)
    }

    #[test]
    fn root_refers_to_com_with_glue() {
        let (root, _, _) = paper_hierarchy();
        let authority = Authority::new(vec![root]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Referral);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities[0].name, n("com"));
        assert_eq!(resp.additionals[0].rdata, RData::A(COM_SERVER));
        assert!(!resp.header.authoritative);
    }

    #[test]
    fn com_refers_to_foo() {
        let (_, com, _) = paper_hierarchy();
        let authority = Authority::new(vec![com]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Referral);
        assert_eq!(resp.authorities[0].name, n("foo.com"));
        assert_eq!(resp.additionals[0].rdata, RData::A(FOO_SERVER));
    }

    #[test]
    fn foo_answers_authoritatively() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(resp.header.authoritative);
        assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));
    }

    #[test]
    fn nxdomain_carries_soa() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("missing.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::NxDomain);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert!(matches!(resp.authorities[0].rdata, RData::Soa(_)));
    }

    #[test]
    fn nodata_for_existing_name_wrong_type() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::Mx));
        assert_eq!(kind, AnswerKind::NoData);
        assert_eq!(resp.header.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn refused_outside_authority() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let (resp, kind) = authority.answer(&q("www.bar.org", RrType::A));
        assert_eq!(kind, AnswerKind::NotAuth);
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn cname_followed_within_zone() {
        let zone = ZoneBuilder::new(n("foo.com"))
            .record(Record::new(n("alias.foo.com"), 60, RData::Cname(n("www.foo.com"))))
            .a(n("www.foo.com"), Ipv4Addr::new(9, 9, 9, 9))
            .build();
        let authority = Authority::new(vec![zone]);
        let (resp, kind) = authority.answer(&q("alias.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative);
        assert_eq!(resp.answers.len(), 2);
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        assert_eq!(resp.answers[1].rdata, RData::A(Ipv4Addr::new(9, 9, 9, 9)));
    }

    #[test]
    fn deepest_zone_preferred_over_parent() {
        let (root, com, foo) = paper_hierarchy();
        let authority = Authority::new(vec![root, com, foo]);
        let (resp, kind) = authority.answer(&q("www.foo.com", RrType::A));
        assert_eq!(kind, AnswerKind::Authoritative, "foo.com zone answers, not a referral");
        assert_eq!(resp.answers[0].rdata, RData::A(WWW_ADDR));
    }

    #[test]
    fn empty_question_formerr() {
        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let mut query = Message::default();
        query.header.id = 3;
        let (resp, _) = authority.answer(&query);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }
}
