//! The client side of the modified-DNS scheme (§III.D), with no I/O and on
//! datagrams, for three drivers: [`crate::simclient::LrsSimulator`], the
//! LRS the experiments measure; `dnsguard`'s simulated local guard; and
//! `runtime::CookieClient` on a socket.
//!
//! A query to a server with a live cookie leaves stamped; any other leaves
//! as a zero-cookie probe (message 2 of Figure 3(a)) and is held. A pure
//! grant (message 3: a cookie, no answer or authority records) that matches
//! a held query is cached and releases it stamped (message 4); one that
//! matches none is dropped. Every other reply is delivered, extension
//! stripped: a server that does not know the extension answers the probe,
//! and a forged reply costs the one query it matches, nothing beyond it.
//! A stamp is appended to the query's bytes; a reply is read in place.

use dnswire::cookie_ext::{self, EXT_COOKIE_LEN, EXT_RECORD_LEN, ZERO_COOKIE};
use dnswire::view::MessageView;
use netsim::time::SimTime;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How long a held query waits for its probe's grant.
pub const HOLD: SimTime = SimTime::from_secs(5);

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
    /// Nothing: a grant that matches no held query.
    Drop,
}

/// The cookie client's state and rules, sans I/O. A driver calls
/// [`ClientCore::query`] for every query the client sends,
/// [`ClientCore::reply`] for every reply addressed to it, and
/// [`ClientCore::sweep`] from time to time (or [`ClientCore::abandon`] for
/// each query it gives up on), with a clock that never runs backwards; it
/// sends and delivers what they return.
#[derive(Debug, Default)]
pub struct ClientCore {
    /// Each server's cookie and when the grant's TTL runs out.
    cookies: HashMap<Ipv4Addr, ([u8; EXT_COOKIE_LEN], SimTime)>,
    /// Queries awaiting their probe's grant, and when they were held, by
    /// server, client port and id: two client ports may share an id.
    held: HashMap<(Ipv4Addr, u16, u16), (Vec<u8>, SimTime)>,
    /// Counters.
    pub stats: ClientStats,
}

impl ClientCore {
    /// Number of server cookies cached, expired ones included.
    pub fn cached_cookies(&self) -> usize {
        self.cookies.len()
    }

    /// The datagram to send for `query`, an encoded query from the client's
    /// `port` to `server`: the query stamped with the server's live cookie,
    /// or else its zero-cookie probe, the query held until the grant.
    pub fn query(&mut self, now: SimTime, server: Ipv4Addr, port: u16, query: Vec<u8>) -> Vec<u8> {
        if let Some(&(cookie, expires)) = self.cookies.get(&server) {
            if expires > now {
                return self.stamp(query, cookie);
            }
            self.cookies.remove(&server);
        }
        let mut probe = Vec::with_capacity(query.len() + EXT_RECORD_LEN);
        probe.extend_from_slice(&query);
        cookie_ext::append_cookie(&mut probe, ZERO_COOKIE, 0);
        let id = query.get(..2).and_then(|id| id.try_into().ok()).map_or(0, u16::from_be_bytes);
        self.held.insert((server, port, id), (query, now));
        self.stats.grants_requested += 1;
        probe
    }

    /// What to do with `reply`, from `server` to the client's `port`.
    pub fn reply<'a>(&mut self, now: SimTime, server: Ipv4Addr, port: u16, reply: &MessageView<'a>) -> Reply<'a> {
        let held = self.held.remove(&(server, port, reply.header.id));
        let pure = reply.counts.answers == 0 && reply.counts.authorities == 0;
        let grant = reply.cookie().filter(|ext| !ext.is_request() && pure);
        match (grant, held) {
            (Some(grant), Some((query, _))) => {
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

    /// Drops the held queries older than [`HOLD`], whose probes went unanswered.
    pub fn sweep(&mut self, now: SimTime) {
        self.held.retain(|_, (_, at)| now.saturating_sub(*at) < HOLD);
    }

    /// Drops the query held for `(server, port, id)`, which a driver with its
    /// own deadlines gave up on; true when it was a probe awaiting its grant.
    pub fn abandon(&mut self, server: Ipv4Addr, port: u16, id: u16) -> bool {
        self.held.remove(&(server, port, id)).is_some()
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
    const PORT: u16 = 7777;
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
        let probe = core.query(T0, SERVER, PORT, query(1));
        assert_eq!(cookie_of(&probe).map(|c| c.cookie), Some(ZERO_COOKIE));
        let Reply::Release(release) = core.reply(T0, SERVER, PORT, &view(&grant(1, [7; 16], 60))) else {
            panic!("a matching grant releases the held query")
        };
        let release = Message::decode(&release).unwrap();
        assert_eq!((release.header.id, find_cookie(&release).map(|c| c.cookie)), (1, Some([7; 16])));

        let stamped = core.query(SimTime::from_secs(59), SERVER, PORT, query(2));
        assert_eq!(cookie_of(&stamped).map(|c| c.cookie), Some([7; 16]));
        let expired = core.query(SimTime::from_secs(60), SERVER, PORT, query(3));
        assert_eq!(cookie_of(&expired).map(|c| c.cookie), Some(ZERO_COOKIE));
        let s = core.stats;
        assert_eq!((s.grants_requested, s.cookies_cached, s.stamped), (2, 1, 2));
    }

    #[test]
    fn a_grant_matching_no_held_query_is_neither_delivered_nor_cached() {
        let mut core = ClientCore::default();
        assert!(matches!(core.reply(T0, SERVER, PORT, &view(&grant(1, [7; 16], 60))), Reply::Drop));
        core.query(T0, SERVER, PORT, query(2));
        // Another port, another server: not the held query's key.
        assert!(matches!(core.reply(T0, SERVER, PORT + 1, &view(&grant(2, [7; 16], 60))), Reply::Drop));
        assert!(matches!(core.reply(T0, Ipv4Addr::new(6, 6, 6, 6), PORT, &view(&grant(2, [7; 16], 60))), Reply::Drop));
        assert_eq!(core.cached_cookies(), 0);
    }

    /// Only a pure grant is one: a reply with records, or one that echoes
    /// the zero cookie, answers the held query and caches nothing.
    #[test]
    fn any_other_reply_is_delivered_stripped_and_ends_the_hold() {
        let mut with_records = answer(1);
        cookie_ext::attach_cookie(&mut with_records, [7; 16], 60);
        for reply in [answer(1).encode(), with_records.encode(), grant(1, ZERO_COOKIE, 60)] {
            let mut core = ClientCore::default();
            core.query(T0, SERVER, PORT, query(1));
            let Reply::Deliver(delivered) = core.reply(T0, SERVER, PORT, &view(&reply)) else {
                panic!("delivered")
            };
            assert!(cookie_of(&delivered).is_none(), "extension stripped");
            assert!(matches!(core.reply(T0, SERVER, PORT, &view(&grant(1, [7; 16], 60))), Reply::Drop));
            assert_eq!(core.cached_cookies(), 0);
            assert!(cookie_of(&core.query(T0, SERVER, PORT, query(2))).unwrap().is_request());
        }
    }

    #[test]
    fn the_sweep_ends_a_hold_after_its_time() {
        let mut core = ClientCore::default();
        core.query(T0, SERVER, PORT, query(1));
        core.sweep(HOLD - SimTime::from_nanos(1));
        assert!(matches!(core.reply(T0, SERVER, PORT, &view(&grant(1, [7; 16], 60))), Reply::Release(_)));
        core.forget(SERVER);
        core.query(T0, SERVER, PORT, query(2));
        core.sweep(HOLD);
        assert!(matches!(core.reply(HOLD, SERVER, PORT, &view(&grant(2, [7; 16], 60))), Reply::Drop));
        assert_eq!(core.cached_cookies(), 0);
    }

    /// A driver with its own deadlines ends a hold itself, and learns
    /// whether the query it gave up on was a probe.
    #[test]
    fn abandon_ends_a_hold_and_tells_a_probe_from_a_stamped_query() {
        let mut core = ClientCore::default();
        core.query(T0, SERVER, PORT, query(1));
        assert!(core.abandon(SERVER, PORT, 1));
        assert!(matches!(core.reply(T0, SERVER, PORT, &view(&grant(1, [7; 16], 60))), Reply::Drop));
        core.query(T0, SERVER, PORT, query(2));
        assert!(matches!(core.reply(T0, SERVER, PORT, &view(&grant(2, [7; 16], 60))), Reply::Release(_)));
        core.query(T0, SERVER, PORT, query(3));
        assert!(!core.abandon(SERVER, PORT, 3), "a stamped query is not held");
    }
}
