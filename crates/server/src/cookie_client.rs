//! The client side of the modified-DNS scheme (§III.D), with no I/O and on
//! datagrams, for three drivers: [`crate::simclient::LrsSimulator`], the
//! LRS the experiments measure; `dnsguard`'s simulated local guard; and
//! `runtime::CookieClient` on a socket.
//!
//! A query to a server with a live cookie leaves stamped; any other leaves
//! as a zero-cookie probe (message 2 of Figure 3(a)), and the query comes
//! back to the driver to hold, as a [`Held`] that remembers its server. Only
//! a reply from that server takes it back: a pure grant (message 3: a
//! cookie, no answer or authority records) is cached and releases the
//! query stamped (message 4); a grant that takes no held query is dropped.
//! Every other reply is delivered, extension stripped: a server that does
//! not know the extension answers the probe, and a forged reply costs the
//! one query it matches, nothing beyond it. A stamp is appended to the
//! query's bytes; a reply is read in place.
//!
//! The core keeps the rules and the cookie cache, nothing per query: each
//! driver holds its queries where it already keeps what it has in flight
//! and decides how long to wait. The LRS holds one in each request slot,
//! the local guard a map by server, LRS port and id that it sweeps, and the
//! socket client its one query in a local variable.

use dnswire::cookie_ext::{self, EXT_COOKIE_LEN, EXT_RECORD_LEN, ZERO_COOKIE};
use dnswire::view::MessageView;
use netsim::time::SimTime;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Counters of the cookie client.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Queries sent with a cached cookie, released ones included.
    pub stamped: u64,
    /// Zero-cookie probes sent (message 2).
    pub grants_requested: u64,
    /// Grants cached (message 3 matching a held query).
    pub cookies_cached: u64,
}

/// What a driver does with a server's reply.
#[derive(Debug)]
pub enum Reply<'a> {
    /// Hand this answer to the client: the reply's datagram without its
    /// extension, borrowed when there was none to remove. (An extension
    /// followed by another record stays: only a last record can go.)
    Deliver(Cow<'a, [u8]>),
    /// Send this datagram back to the server: the held query, stamped with
    /// the cookie just granted.
    Release(Vec<u8>),
    /// Nothing: a grant that takes no held query.
    Drop,
}

/// A query held behind its zero-cookie probe until the server it was sent
/// to grants a cookie, as [`ClientCore::query`] hands it to the driver.
#[derive(Debug)]
pub struct Held {
    server: Ipv4Addr,
    query: Vec<u8>,
}

/// The cookie client's rules and cookie cache, sans I/O. A driver calls
/// [`ClientCore::query`] for every query the client sends and holds the
/// [`Held`] query it gets back with a probe, and calls [`ClientCore::reply`]
/// for every reply addressed to it with the place it holds the query that
/// reply answers, with a clock that never runs backwards; it sends and
/// delivers what they return.
#[derive(Debug, Default)]
pub struct ClientCore {
    /// Each server's cookie and when the grant's TTL runs out.
    cookies: HashMap<Ipv4Addr, ([u8; EXT_COOKIE_LEN], SimTime)>,
    /// Counters.
    pub stats: ClientStats,
}

impl ClientCore {
    /// Number of server cookies cached, expired ones included.
    pub fn cached_cookies(&self) -> usize {
        self.cookies.len()
    }

    /// The datagram to send for `query`, an encoded query to `server`, and
    /// the query to hold until its grant: the query stamped with the
    /// server's live cookie and nothing to hold, or else its zero-cookie
    /// probe and the query itself.
    pub fn query(&mut self, now: SimTime, server: Ipv4Addr, query: Vec<u8>) -> (Vec<u8>, Option<Held>) {
        if let Some(&(cookie, expires)) = self.cookies.get(&server) {
            if expires > now {
                return (self.stamp(query, cookie), None);
            }
            self.cookies.remove(&server);
        }
        let mut probe = Vec::with_capacity(query.len() + EXT_RECORD_LEN);
        probe.extend_from_slice(&query);
        cookie_ext::append_cookie(&mut probe, ZERO_COOKIE, 0);
        self.stats.grants_requested += 1;
        (probe, Some(Held { server, query }))
    }

    /// What to do with `reply`, from `server`, given `held`, where the
    /// driver holds the query it matched the reply to. A reply from the
    /// server the held query went to takes it, a grant to release it; one
    /// from any other address leaves it held.
    pub fn reply<'a>(
        &mut self,
        now: SimTime,
        server: Ipv4Addr,
        reply: &MessageView<'a>,
        held: &mut Option<Held>,
    ) -> Reply<'a> {
        let pure = reply.counts.answers == 0 && reply.counts.authorities == 0;
        let grant = reply.cookie().filter(|ext| !ext.is_request() && pure);
        match (grant, held.take_if(|held| held.server == server)) {
            (Some(grant), Some(Held { query, .. })) => {
                self.cookies.insert(server, (grant.cookie, now + SimTime::from_secs(u64::from(grant.ttl))));
                self.stats.cookies_cached += 1;
                Reply::Release(self.stamp(query, grant.cookie))
            }
            (Some(_), None) => Reply::Drop,
            (None, _) => Reply::Deliver(match cookie_ext::remove_cookie(reply) {
                Some(bare) => Cow::Owned(bare),
                None => Cow::Borrowed(reply.as_bytes()),
            }),
        }
    }

    /// Forgets `server`'s cookie, so that the next query to it probes.
    pub fn forget(&mut self, server: Ipv4Addr) {
        self.cookies.remove(&server);
    }

    fn stamp(&mut self, mut query: Vec<u8>, cookie: [u8; EXT_COOKIE_LEN]) -> Vec<u8> {
        cookie_ext::append_cookie(&mut query, cookie, 0);
        self.stats.stamped += 1;
        query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::cookie_ext::{find_cookie, CookieExt};
    use dnswire::message::Message;
    use dnswire::record::Record;
    use dnswire::types::RrType;

    const SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
    const T0: SimTime = SimTime::ZERO;

    fn message(id: u16) -> Message {
        Message::iterative_query(id, "www.foo.com".parse().unwrap(), RrType::A)
    }

    fn query(id: u16) -> Vec<u8> {
        message(id).encode()
    }

    fn view(wire: &[u8]) -> MessageView<'_> {
        MessageView::parse(wire).unwrap()
    }

    /// The cookie a datagram the core sent carries.
    fn cookie_of(wire: &[u8]) -> Option<CookieExt> {
        find_cookie(&Message::decode(wire).unwrap())
    }

    /// A grant of `cookie` for `ttl` seconds: the probe echoed, no records.
    fn grant(id: u16, cookie: [u8; EXT_COOKIE_LEN], ttl: u32) -> Vec<u8> {
        let mut reply = message(id).response();
        cookie_ext::attach_cookie(&mut reply, cookie, ttl);
        reply.encode()
    }

    fn answer(id: u16) -> Message {
        let mut reply = message(id).response();
        reply.answers.push(Record::a("www.foo.com".parse().unwrap(), Ipv4Addr::new(2, 2, 2, 2), 60));
        reply
    }

    #[test]
    fn probe_grant_release_then_stamped_until_the_ttl_runs_out() {
        let mut core = ClientCore::default();
        let (probe, mut held) = core.query(T0, SERVER, query(1));
        assert_eq!(cookie_of(&probe).map(|c| c.cookie), Some(ZERO_COOKIE));
        assert_eq!(held.as_ref().map(|held| &held.query[..]), Some(&query(1)[..]), "the query comes back to be held");
        let Reply::Release(release) = core.reply(T0, SERVER, &view(&grant(1, [7; 16], 60)), &mut held) else {
            panic!("a grant for a held query releases it")
        };
        let release = Message::decode(&release).unwrap();
        assert_eq!((release.header.id, find_cookie(&release).map(|c| c.cookie)), (1, Some([7; 16])));
        assert!(held.is_none(), "the release takes the held query");

        let (stamped, held) = core.query(SimTime::from_secs(59), SERVER, query(2));
        assert_eq!(cookie_of(&stamped).map(|c| c.cookie), Some([7; 16]));
        assert!(held.is_none());
        let (expired, held) = core.query(SimTime::from_secs(60), SERVER, query(3));
        assert_eq!(cookie_of(&expired).map(|c| c.cookie), Some(ZERO_COOKIE));
        assert!(held.is_some());
        let s = core.stats;
        assert_eq!((s.grants_requested, s.cookies_cached, s.stamped), (2, 1, 2));
    }

    #[test]
    fn a_grant_matching_no_held_query_is_neither_delivered_nor_cached() {
        let mut core = ClientCore::default();
        assert!(matches!(core.reply(T0, SERVER, &view(&grant(1, [7; 16], 60)), &mut None), Reply::Drop));
        // A probe is outstanding, but the driver matched the grant to none.
        let (_, mut held) = core.query(T0, SERVER, query(2));
        assert!(matches!(core.reply(T0, SERVER, &view(&grant(2, [7; 16], 60)), &mut None), Reply::Drop));
        // Another server: not the one the held query went to.
        let forger = Ipv4Addr::new(6, 6, 6, 6);
        assert!(matches!(core.reply(T0, forger, &view(&grant(2, [7; 16], 60)), &mut held), Reply::Drop));
        assert!(held.is_some(), "the query stays held for its server");
        assert_eq!(core.cached_cookies(), 0);
        assert!(matches!(core.reply(T0, SERVER, &view(&grant(2, [7; 16], 60)), &mut held), Reply::Release(_)));
    }

    /// Only a pure grant is one: a reply with records, or one that echoes
    /// the zero cookie, answers the held query, which it takes, and caches
    /// nothing.
    #[test]
    fn any_other_reply_is_delivered_stripped_and_ends_the_hold() {
        let mut with_records = answer(1);
        cookie_ext::attach_cookie(&mut with_records, [7; 16], 60);
        for reply in [answer(1).encode(), with_records.encode(), grant(1, ZERO_COOKIE, 60)] {
            let mut core = ClientCore::default();
            let (_, mut held) = core.query(T0, SERVER, query(1));
            let Reply::Deliver(delivered) = core.reply(T0, SERVER, &view(&reply), &mut held) else {
                panic!("delivered")
            };
            assert!(cookie_of(&delivered).is_none(), "extension stripped");
            assert!(held.is_none(), "the reply takes the held query");
            assert!(matches!(core.reply(T0, SERVER, &view(&grant(1, [7; 16], 60)), &mut held), Reply::Drop));
            assert_eq!(core.cached_cookies(), 0);
            assert!(cookie_of(&core.query(T0, SERVER, query(2)).0).unwrap().is_request());
        }
    }
}
