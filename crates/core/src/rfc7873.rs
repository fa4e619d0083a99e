//! Modern DNS Cookies (RFC 7873) — the standardised descendant of the
//! paper's modified-DNS scheme, implemented as an extension so the two
//! generations can be compared side by side.
//!
//! Differences from the paper's TXT-record design:
//!
//! * the cookie rides in an EDNS COOKIE option instead of a TXT record;
//! * the client contributes an 8-byte **client cookie** (binding responses
//!   to its own request, which also hardens against off-path response
//!   spoofing — something the paper's server-only cookie does not give);
//! * the server cookie is a keyed hash over *both* the client cookie and
//!   the client address;
//! * a first contact is answered with extended RCODE **BADCOOKIE** (23)
//!   together with the correct server cookie when the server is enforcing,
//!   rather than with a fabricated record.

use dnswire::edns::{self, DnsCookie};
use dnswire::message::Message;
use dnswire::types::Rcode;
use guardhash::cookie::{CookieAlg, CookieFactory, SecretKey};
use guardhash::md5::Md5;
use guardhash::siphash::siphash24;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Length of the server cookie we mint (RFC 7873 allows 8–32 bytes).
pub const SERVER_COOKIE_LEN: usize = 16;

/// Version byte of the interoperable (draft-sury-toorop / RFC 9018)
/// server-cookie layout: `Version(1) | Reserved(3) | Epoch(4) | Hash(8)`.
pub const INTEROP_COOKIE_VERSION: u8 = 1;

/// Server-side DNS Cookie engine.
///
/// # Examples
///
/// ```
/// use dnsguard::rfc7873::{CookieServer, QueryVerdict};
/// use dnswire::edns::{set_dns_cookie, DnsCookie};
/// use dnswire::types::RrType;
/// use std::net::Ipv4Addr;
///
/// let server = CookieServer::new(7, true);
/// let client_ip = Ipv4Addr::new(192, 0, 2, 1);
/// let mut query = dnswire::Message::query(1, "www.foo.com".parse()?, RrType::A);
/// set_dns_cookie(&mut query, &DnsCookie::client_only([9; 8]));
/// // First contact while enforcing: BADCOOKIE with the correct cookie.
/// assert!(matches!(server.verdict(&query, client_ip), QueryVerdict::BadCookie { .. }));
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug)]
pub struct CookieServer {
    /// The secrets and their rotation: the current key, the previous one
    /// while a grace window is open (used in SipHash mode only — the vendor
    /// MD5 cookie has no epoch field to dispatch on), the generation as the
    /// epoch, and the construction — the legacy vendor MD5 layout or the
    /// interoperable SipHash-2-4 versioned layout of draft-sury-toorop.
    keys: CookieFactory,
    /// When enforcing (e.g. under attack), queries without a valid server
    /// cookie get BADCOOKIE instead of service.
    pub enforcing: bool,
}

/// What to do with an incoming query, per RFC 7873 §5.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryVerdict {
    /// No COOKIE option: legacy client, process normally.
    Legacy,
    /// COOKIE option present but malformed: answer FORMERR.
    FormErr,
    /// Cookie acceptable: process the query; attach this cookie to the
    /// response (fresh server cookie included).
    Accept {
        /// Cookie to return.
        respond_with: DnsCookie,
    },
    /// Only-client-cookie (or stale server cookie) while enforcing:
    /// answer BADCOOKIE carrying the correct server cookie.
    BadCookie {
        /// Cookie to return.
        respond_with: DnsCookie,
    },
}

impl CookieServer {
    /// Creates a server engine keyed from `seed` (vendor MD5 layout).
    pub fn new(seed: u64, enforcing: bool) -> Self {
        CookieServer {
            keys: CookieFactory::from_seed(seed),
            enforcing,
        }
    }

    /// Selects the cookie construction (builder style; default MD5).
    pub fn with_alg(mut self, alg: CookieAlg) -> Self {
        self.keys = self.keys.with_alg(alg);
        self
    }

    /// The cookie construction in use.
    pub fn alg(&self) -> CookieAlg {
        self.keys.alg()
    }

    /// Current key epoch: the key generation, which interoperable server
    /// cookies carry so a verifier knows which secret minted them.
    pub fn epoch(&self) -> u32 {
        self.keys.generation() as u32
    }

    /// Rotates the cookie secret. The outgoing key stays live for one
    /// epoch of grace: interoperable cookies carry their minting epoch, so
    /// a verifier holding `epoch` and `epoch − 1` never rejects a cookie
    /// issued just before the rotation.
    pub fn rotate(&mut self) {
        self.keys.rotate();
    }

    /// Mints the server cookie for `(client_cookie, client_ip)` under the
    /// current key.
    ///
    /// * MD5 (vendor): `MD5(client_cookie ‖ client_ip ‖ key)`, truncated
    ///   to 16 bytes — opaque, valid only at the minting server.
    /// * SipHash-2-4 (interoperable): the draft-sury-toorop layout
    ///   `Version(1) ‖ Reserved(3) ‖ Epoch(4) ‖ Hash(8)` where `Hash =
    ///   SipHash24(client_cookie ‖ version ‖ reserved ‖ epoch ‖
    ///   client_ip)` keyed by the leading 16 secret bytes — any server
    ///   holding the same key validates it.
    pub fn server_cookie(&self, client_cookie: [u8; 8], client_ip: Ipv4Addr) -> Vec<u8> {
        let key = self.keys.current_key();
        match self.alg() {
            CookieAlg::Md5 => {
                let mut h = Md5::new();
                h.update(&client_cookie);
                h.update(&client_ip.octets());
                h.update(key.as_bytes());
                h.finalize()[..SERVER_COOKIE_LEN].to_vec()
            }
            CookieAlg::SipHash24 => sip_server_cookie(key, self.epoch(), client_cookie, client_ip),
        }
    }

    /// Whether a presented server cookie is acceptable: minted under the
    /// current key, or (SipHash mode) under the previous key while its
    /// grace epoch is still open.
    pub fn server_cookie_valid(
        &self,
        presented: &[u8],
        client_cookie: [u8; 8],
        client_ip: Ipv4Addr,
    ) -> bool {
        if presented == self.server_cookie(client_cookie, client_ip).as_slice() {
            return true;
        }
        if self.alg() != CookieAlg::SipHash24 {
            return false;
        }
        // Epoch dispatch: only a cookie claiming the previous epoch is
        // checked against the previous key.
        let Some(prev) = self.keys.previous_key() else {
            return false;
        };
        if presented.len() != SERVER_COOKIE_LEN || presented[0] != INTEROP_COOKIE_VERSION {
            return false;
        }
        let claimed = u32::from_be_bytes([presented[4], presented[5], presented[6], presented[7]]);
        claimed == self.epoch().wrapping_sub(1)
            && presented == sip_server_cookie(prev, claimed, client_cookie, client_ip).as_slice()
    }

    /// Classifies a query per the RFC's server-side algorithm.
    pub fn verdict(&self, query: &Message, client_ip: Ipv4Addr) -> QueryVerdict {
        let Some(e) = edns::find_edns(query) else {
            return QueryVerdict::Legacy;
        };
        let Some(opt) = e.option(edns::OPTION_COOKIE) else {
            return QueryVerdict::Legacy;
        };
        let Some(cookie) = DnsCookie::decode(&opt.data) else {
            return QueryVerdict::FormErr;
        };
        let respond_with = DnsCookie {
            client: cookie.client,
            server: Some(self.server_cookie(cookie.client, client_ip)),
        };
        match &cookie.server {
            Some(presented)
                if self.server_cookie_valid(presented, cookie.client, client_ip) =>
            {
                QueryVerdict::Accept { respond_with }
            }
            _ if self.enforcing => QueryVerdict::BadCookie { respond_with },
            _ => QueryVerdict::Accept { respond_with },
        }
    }

    /// Builds the BADCOOKIE response for `query` (RFC 7873 §5.2.3): no
    /// answer data, extended RCODE 23, correct cookie attached.
    pub fn badcookie_response(&self, query: &Message, respond_with: &DnsCookie) -> Message {
        let mut resp = query.response();
        // BADCOOKIE = 23: header RCODE carries the low 4 bits (7), the OPT
        // record's ext-rcode byte the high bits (1).
        resp.header.rcode = Rcode::Other(7);
        let mut e = dnswire::edns::Edns {
            ext_rcode_hi: 1,
            ..Default::default()
        };
        e.options.push(dnswire::edns::EdnsOption {
            code: edns::OPTION_COOKIE,
            data: respond_with.encode(),
        });
        resp.additionals.push(e.to_record());
        resp
    }
}

/// The draft-sury-toorop / RFC 9018 interoperable server cookie:
/// `Version(1)=1 ‖ Reserved(3)=0 ‖ Epoch(4, BE) ‖ Hash(8)` with
/// `Hash = SipHash24(client_cookie ‖ version ‖ reserved ‖ epoch ‖
/// client_ip)` keyed by the leading 16 bytes of the shared secret. (The
/// RFC's timestamp field doubles here as the key epoch — both are "which
/// secret minted this" discriminators with a bounded acceptance window.)
fn sip_server_cookie(
    key: &SecretKey,
    epoch: u32,
    client_cookie: [u8; 8],
    client_ip: Ipv4Addr,
) -> Vec<u8> {
    let k: [u8; 16] = key.as_bytes()[..16].try_into().expect("16-byte sip key");
    let mut out = Vec::with_capacity(SERVER_COOKIE_LEN);
    out.push(INTEROP_COOKIE_VERSION);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&epoch.to_be_bytes());
    let mut msg = Vec::with_capacity(20);
    msg.extend_from_slice(&client_cookie);
    msg.extend_from_slice(&out); // version | reserved | epoch
    msg.extend_from_slice(&client_ip.octets());
    out.extend_from_slice(&siphash24(&k, &msg).to_le_bytes());
    out
}

/// Client-side DNS Cookie state: one client cookie and one learned server
/// cookie per server address.
#[derive(Debug, Default)]
pub struct CookieClientState {
    client_cookies: HashMap<Ipv4Addr, [u8; 8]>,
    server_cookies: HashMap<Ipv4Addr, Vec<u8>>,
    seed: u64,
}

impl CookieClientState {
    /// New client state; client cookies derive deterministically from
    /// `seed` and the server address (a stand-in for the RFC's
    /// per-server pseudorandom client cookie).
    pub fn new(seed: u64) -> Self {
        CookieClientState {
            seed,
            ..CookieClientState::default()
        }
    }

    /// The client cookie for `server` (minted on first use).
    pub fn client_cookie(&mut self, server: Ipv4Addr) -> [u8; 8] {
        let seed = self.seed;
        *self.client_cookies.entry(server).or_insert_with(|| {
            let mut h = Md5::new();
            h.update(&seed.to_le_bytes());
            h.update(&server.octets());
            h.finalize()[..8].try_into().expect("8 bytes")
        })
    }

    /// Stamps the appropriate COOKIE option onto an outgoing query.
    pub fn prepare(&mut self, query: &mut Message, server: Ipv4Addr) {
        let client = self.client_cookie(server);
        let cookie = DnsCookie {
            client,
            server: self.server_cookies.get(&server).cloned(),
        };
        edns::set_dns_cookie(query, &cookie);
    }

    /// Digests a response: learns the server cookie (only when the client
    /// cookie echoes ours — the anti-spoofing check) and reports whether
    /// the query should be retried (BADCOOKIE).
    pub fn absorb(&mut self, response: &Message, server: Ipv4Addr) -> AbsorbOutcome {
        let ours = self.client_cookie(server);
        if let Some(cookie) = edns::find_dns_cookie(response) {
            if cookie.client != ours {
                return AbsorbOutcome::SpoofSuspected;
            }
            if let Some(s) = cookie.server {
                self.server_cookies.insert(server, s);
            }
        }
        let ext = edns::find_edns(response)
            .map(|e| e.extended_rcode(response.header.rcode.code()))
            .unwrap_or_else(|| response.header.rcode.code() as u16);
        if ext == edns::EXT_RCODE_BADCOOKIE {
            AbsorbOutcome::RetryWithNewCookie
        } else {
            AbsorbOutcome::Done
        }
    }

    /// Whether a server cookie is cached for `server`.
    pub fn has_server_cookie(&self, server: Ipv4Addr) -> bool {
        self.server_cookies.contains_key(&server)
    }
}

/// Result of absorbing a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbOutcome {
    /// Response usable.
    Done,
    /// Server said BADCOOKIE; we now hold the right cookie — resend.
    RetryWithNewCookie,
    /// The client cookie did not echo ours: off-path spoof suspected,
    /// ignore the response.
    SpoofSuspected,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::edns::set_dns_cookie;
    use dnswire::types::RrType;

    fn query() -> Message {
        Message::query(3, "www.foo.com".parse().unwrap(), RrType::A)
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    #[test]
    fn full_exchange_first_contact_then_accept() {
        let server = CookieServer::new(1, true);
        let mut client = CookieClientState::new(2);
        let server_ip = ip(53);
        let client_ip = ip(1);

        // First query: client cookie only → BADCOOKIE with server cookie.
        let mut q1 = query();
        client.prepare(&mut q1, server_ip);
        let QueryVerdict::BadCookie { respond_with } = server.verdict(&q1, client_ip) else {
            panic!("expected BADCOOKIE on first contact while enforcing");
        };
        let bad = server.badcookie_response(&q1, &respond_with);
        assert_eq!(
            client.absorb(&bad, server_ip),
            AbsorbOutcome::RetryWithNewCookie
        );
        assert!(client.has_server_cookie(server_ip));

        // Retry: now accepted.
        let mut q2 = query();
        client.prepare(&mut q2, server_ip);
        assert!(matches!(
            server.verdict(&q2, client_ip),
            QueryVerdict::Accept { .. }
        ));
    }

    #[test]
    fn non_enforcing_accepts_first_contact_and_returns_cookie() {
        let server = CookieServer::new(3, false);
        let mut client = CookieClientState::new(4);
        let mut q = query();
        client.prepare(&mut q, ip(53));
        let QueryVerdict::Accept { respond_with } = server.verdict(&q, ip(1)) else {
            panic!("non-enforcing server accepts client-only cookies");
        };
        assert!(respond_with.server.is_some());
    }

    #[test]
    fn spoofed_source_rejected_when_enforcing() {
        let server = CookieServer::new(5, true);
        let mut client = CookieClientState::new(6);
        let server_ip = ip(53);
        // Legit client completes the exchange from ip(1)...
        let mut q = query();
        client.prepare(&mut q, server_ip);
        let QueryVerdict::BadCookie { respond_with } = server.verdict(&q, ip(1)) else {
            panic!()
        };
        let bad = server.badcookie_response(&q, &respond_with);
        client.absorb(&bad, server_ip);
        let mut q2 = query();
        client.prepare(&mut q2, server_ip);
        assert!(matches!(server.verdict(&q2, ip(1)), QueryVerdict::Accept { .. }));
        // ...but the same cookie from a different (spoofed) source fails.
        assert!(matches!(
            server.verdict(&q2, ip(99)),
            QueryVerdict::BadCookie { .. }
        ));
    }

    #[test]
    fn legacy_and_malformed() {
        let server = CookieServer::new(7, true);
        assert_eq!(server.verdict(&query(), ip(1)), QueryVerdict::Legacy);

        let mut q = query();
        // Malformed: 9-byte cookie option.
        let e = dnswire::edns::Edns {
            options: vec![dnswire::edns::EdnsOption {
                code: edns::OPTION_COOKIE,
                data: vec![0; 9],
            }],
            ..Default::default()
        };
        q.additionals.push(e.to_record());
        assert_eq!(server.verdict(&q, ip(1)), QueryVerdict::FormErr);
    }

    #[test]
    fn client_detects_off_path_spoof() {
        let mut client = CookieClientState::new(8);
        let server_ip = ip(53);
        let mut q = query();
        client.prepare(&mut q, server_ip);
        // A forged response with a wrong client cookie must be ignored.
        let mut forged = q.response();
        set_dns_cookie(
            &mut forged,
            &DnsCookie {
                client: [0xEE; 8],
                server: Some(vec![0xEE; 16]),
            },
        );
        assert_eq!(client.absorb(&forged, server_ip), AbsorbOutcome::SpoofSuspected);
        assert!(!client.has_server_cookie(server_ip));
    }

    #[test]
    fn server_cookie_binds_client_cookie_and_address() {
        let server = CookieServer::new(9, true);
        let a = server.server_cookie([1; 8], ip(1));
        assert_ne!(a, server.server_cookie([2; 8], ip(1)), "client cookie bound");
        assert_ne!(a, server.server_cookie([1; 8], ip(2)), "address bound");
        assert_eq!(a, server.server_cookie([1; 8], ip(1)), "deterministic");
        assert_eq!(a.len(), SERVER_COOKIE_LEN);
    }

    #[test]
    fn badcookie_response_has_extended_rcode_23() {
        let server = CookieServer::new(10, true);
        let mut q = query();
        set_dns_cookie(&mut q, &DnsCookie::client_only([5; 8]));
        let QueryVerdict::BadCookie { respond_with } = server.verdict(&q, ip(1)) else {
            panic!()
        };
        let resp = server.badcookie_response(&q, &respond_with);
        let wire = resp.encode();
        let decoded = Message::decode(&wire).unwrap();
        let e = edns::find_edns(&decoded).unwrap();
        assert_eq!(
            e.extended_rcode(decoded.header.rcode.code()),
            edns::EXT_RCODE_BADCOOKIE
        );
    }

    #[test]
    fn siphash_cookie_verifies_at_any_server_sharing_the_key() {
        // The interoperability property MD5 cookies lack: two engines
        // holding the same secret mint and accept identical cookies.
        let minter = CookieServer::new(2006, true).with_alg(CookieAlg::SipHash24);
        let peer = CookieServer::new(2006, true).with_alg(CookieAlg::SipHash24);
        let c = minter.server_cookie([4; 8], ip(1));
        assert_eq!(c.len(), SERVER_COOKIE_LEN);
        assert_eq!(c[0], INTEROP_COOKIE_VERSION);
        assert_eq!(&c[1..4], &[0, 0, 0], "reserved bytes zero");
        assert_eq!(&c[4..8], &0u32.to_be_bytes(), "epoch 0");
        assert!(peer.server_cookie_valid(&c, [4; 8], ip(1)));
        assert!(!peer.server_cookie_valid(&c, [5; 8], ip(1)), "client cookie bound");
        assert!(!peer.server_cookie_valid(&c, [4; 8], ip(2)), "address bound");

        // A differently-keyed server rejects it.
        let stranger = CookieServer::new(4242, true).with_alg(CookieAlg::SipHash24);
        assert!(!stranger.server_cookie_valid(&c, [4; 8], ip(1)));
    }

    #[test]
    fn siphash_rotation_keeps_one_epoch_of_grace() {
        let mut server = CookieServer::new(12, true).with_alg(CookieAlg::SipHash24);
        let old = server.server_cookie([6; 8], ip(1));
        server.rotate();
        assert_eq!(server.epoch(), 1);
        // Minted under epoch 0, verified at epoch 1: still good.
        assert!(server.server_cookie_valid(&old, [6; 8], ip(1)));
        // Fresh mints carry the new epoch and also verify.
        let fresh = server.server_cookie([6; 8], ip(1));
        assert_ne!(old, fresh);
        assert_eq!(&fresh[4..8], &1u32.to_be_bytes());
        assert!(server.server_cookie_valid(&fresh, [6; 8], ip(1)));
        // Two rotations close the grace window.
        server.rotate();
        assert!(!server.server_cookie_valid(&old, [6; 8], ip(1)));
        assert!(server.server_cookie_valid(&fresh, [6; 8], ip(1)), "one epoch back");
    }

    #[test]
    fn siphash_grace_rejects_forged_epoch_claims() {
        let mut server = CookieServer::new(13, true).with_alg(CookieAlg::SipHash24);
        let old = server.server_cookie([7; 8], ip(1));
        server.rotate();
        // An attacker relabelling an old cookie with the current epoch (or
        // a bogus one) fails: the epoch is hashed, not just carried.
        let mut relabelled = old.clone();
        relabelled[4..8].copy_from_slice(&1u32.to_be_bytes());
        assert!(!server.server_cookie_valid(&relabelled, [7; 8], ip(1)));
        let mut future = old.clone();
        future[4..8].copy_from_slice(&7u32.to_be_bytes());
        assert!(!server.server_cookie_valid(&future, [7; 8], ip(1)));
    }

    #[test]
    fn siphash_full_exchange_and_survives_rotation() {
        let mut server = CookieServer::new(14, true).with_alg(CookieAlg::SipHash24);
        let mut client = CookieClientState::new(15);
        let server_ip = ip(53);
        let mut q1 = query();
        client.prepare(&mut q1, server_ip);
        let QueryVerdict::BadCookie { respond_with } = server.verdict(&q1, ip(1)) else {
            panic!("first contact while enforcing");
        };
        let bad = server.badcookie_response(&q1, &respond_with);
        client.absorb(&bad, server_ip);
        let mut q2 = query();
        client.prepare(&mut q2, server_ip);
        assert!(matches!(server.verdict(&q2, ip(1)), QueryVerdict::Accept { .. }));
        // Key rotates under the client: its cached cookie stays in grace.
        server.rotate();
        let mut q3 = query();
        client.prepare(&mut q3, server_ip);
        assert!(matches!(server.verdict(&q3, ip(1)), QueryVerdict::Accept { .. }));
    }

    #[test]
    fn paper_scheme_equivalence() {
        // Protective equivalence with the paper's modified-DNS scheme:
        // a spoofed source can never present an acceptable cookie, and a
        // protocol-following client needs exactly one extra round trip.
        let server = CookieServer::new(11, true);
        let victim = ip(1);
        let attacker_guess = DnsCookie {
            client: [7; 8],
            server: Some(vec![0xAB; SERVER_COOKIE_LEN]),
        };
        let mut forged = query();
        set_dns_cookie(&mut forged, &attacker_guess);
        // Spoofing the victim's address with a guessed server cookie fails.
        assert!(matches!(
            server.verdict(&forged, victim),
            QueryVerdict::BadCookie { .. }
        ));
    }
}
