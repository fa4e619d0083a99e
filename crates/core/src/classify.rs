//! Referral classification: before fabricating a cookie name, the guard
//! must know whether the protected ANS would answer a query with a referral
//! (delegation to a child zone) or a non-referral answer — the two DNS-based
//! variants encode cookies differently (section III.B).
//!
//! A deployed guard knows its ANS's zones (it is configured alongside the
//! server it firewalls), so classification is a local lookup against the
//! same delegation data.

use dnswire::name::Name;
use server::authoritative::Authority;

/// What kind of answer the protected ANS will give for a query name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification {
    /// The ANS will refer to this child zone — embed the cookie in the
    /// child zone's fabricated NS name.
    Referral {
        /// The delegated child zone (e.g. `com` for a root query about
        /// `www.foo.com`).
        child_zone: Name,
    },
    /// The ANS will answer directly — fabricate an ANS (NS name + IP) for
    /// the query name itself.
    NonReferral,
    /// The ANS is not authoritative for the name (the guard forwards and
    /// lets the ANS refuse).
    Unknown,
}

/// Classifies query names for the DNS-based scheme.
pub trait Classifier {
    /// Classifies `qname`.
    fn classify(&self, qname: &Name) -> Classification;
}

/// Classifier backed by a copy of the ANS's authority data.
#[derive(Debug, Clone)]
pub struct AuthorityClassifier {
    authority: Authority,
}

impl AuthorityClassifier {
    /// Wraps the ANS's zones.
    pub fn new(authority: Authority) -> Self {
        AuthorityClassifier { authority }
    }

    /// Whether `qname` classifies as [`Classification::NonReferral`], for a
    /// caller that has no use for the child zone's name a referral's
    /// classification carries a copy of.
    pub fn answers_directly(&self, qname: &Name) -> bool {
        let zone = self.authority.best_zone(qname);
        zone.is_some_and(|zone| zone.delegation_for(qname).is_none())
    }
}

impl Classifier for AuthorityClassifier {
    fn classify(&self, qname: &Name) -> Classification {
        let Some(zone) = self.authority.best_zone(qname) else {
            return Classification::Unknown;
        };
        match zone.delegation_for(qname) {
            Some((cut, _)) => Classification::Referral {
                child_zone: cut.clone(),
            },
            None => Classification::NonReferral,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use server::zone::paper_hierarchy;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn root_queries_classify_as_referral() {
        let (root, _, _) = paper_hierarchy();
        let c = AuthorityClassifier::new(Authority::new(vec![root]));
        assert_eq!(
            c.classify(&n("www.foo.com")),
            Classification::Referral { child_zone: n("com") }
        );
        assert_eq!(
            c.classify(&n("com")),
            Classification::Referral { child_zone: n("com") }
        );
    }

    #[test]
    fn terminal_zone_classifies_non_referral() {
        let (_, _, foo) = paper_hierarchy();
        let c = AuthorityClassifier::new(Authority::new(vec![foo]));
        assert_eq!(c.classify(&n("www.foo.com")), Classification::NonReferral);
        assert_eq!(c.classify(&n("nope.foo.com")), Classification::NonReferral);
    }

    #[test]
    fn answers_directly_is_the_non_referral_classification() {
        let (root, _, foo) = paper_hierarchy();
        for zone in [root, foo] {
            let c = AuthorityClassifier::new(Authority::new(vec![zone]));
            for name in ["www.foo.com", "com", "foo.com", "example.org", "."] {
                let direct = c.classify(&n(name)) == Classification::NonReferral;
                assert_eq!(c.answers_directly(&n(name)), direct, "{name}");
            }
        }
    }

    #[test]
    fn out_of_bailiwick_unknown() {
        let (_, _, foo) = paper_hierarchy();
        let c = AuthorityClassifier::new(Authority::new(vec![foo]));
        assert_eq!(c.classify(&n("example.org")), Classification::Unknown);
    }
}
