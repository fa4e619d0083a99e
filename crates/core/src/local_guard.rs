//! The local DNS guard (section III.D): a transparent middlebox in front of
//! an *unmodified* LRS that makes it cookie-capable.
//!
//! Outbound queries to a new ANS trigger the cookie exchange (messages 2/3
//! of Figure 3(a)): the guard holds the query, sends a copy carrying the
//! all-zero cookie, caches the granted cookie, then releases the held query
//! with the cookie attached. Subsequent queries are stamped directly from
//! the cache. Inbound responses have the extension stripped before the LRS
//! sees them, so the LRS never needs to understand the extension.
//!
//! Deploy with [`netsim::Simulator::set_gateway`] (outbound tap) plus
//! routing the LRS's public address to this node (inbound interception);
//! see the crate examples.

use dnswire::cookie_ext::{self, ZERO_COOKIE};
use dnswire::message::Message;
use netsim::engine::{Context, Node, NodeId};
use netsim::packet::{Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How long a "server is not cookie-capable" verdict is remembered.
const INCAPABLE_TTL: SimTime = SimTime::from_secs(3600);

/// Held-query sweep period.
const SWEEP: SimTime = SimTime::from_secs(1);

/// Counters for the local guard.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalGuardStats {
    /// Queries stamped with a cached cookie.
    pub stamped: u64,
    /// Cookie exchanges initiated (message 2 sent).
    pub grants_requested: u64,
    /// Cookies cached from grants (message 3 received).
    pub cookies_cached: u64,
    /// Responses delivered to the LRS (extension stripped when present).
    pub delivered: u64,
    /// Servers discovered to be cookie-incapable (answered the probe
    /// directly).
    pub incapable_servers: u64,
}

#[derive(Debug)]
struct CachedCookie {
    cookie: [u8; 16],
    expires: SimTime,
}

#[derive(Debug)]
struct HeldQuery {
    original: Message,
    created: SimTime,
}

/// The local guard node.
pub struct LocalGuard {
    /// The LRS this guard fronts.
    lrs_node: NodeId,
    lrs_addr: Ipv4Addr,
    cookies: HashMap<Ipv4Addr, CachedCookie>,
    incapable: HashMap<Ipv4Addr, SimTime>,
    /// Queries awaiting their probe's grant, by server, LRS port and id:
    /// two LRS ports may use one id with one server at once.
    held: HashMap<(Ipv4Addr, u16, u16), HeldQuery>,
    /// Counters.
    pub stats: LocalGuardStats,
}

impl LocalGuard {
    /// Creates a guard fronting the LRS node `lrs_node` whose address is
    /// `lrs_addr`.
    pub fn new(lrs_node: NodeId, lrs_addr: Ipv4Addr) -> Self {
        LocalGuard {
            lrs_node,
            lrs_addr,
            cookies: HashMap::new(),
            incapable: HashMap::new(),
            held: HashMap::new(),
            stats: LocalGuardStats::default(),
        }
    }

    /// Number of ANS cookies currently cached.
    pub fn cached_cookies(&self) -> usize {
        self.cookies.len()
    }

    fn handle_outbound(&mut self, ctx: &mut Context<'_>, pkt: Packet, msg: Message) {
        let now = ctx.now();
        let server = pkt.dst.ip;
        // Cookie-incapable server (learned earlier): pass through.
        if matches!(self.incapable.get(&server), Some(&until) if until > now) {
            ctx.send(pkt);
            return;
        }
        if let Some(cached) = self.cookies.get(&server) {
            if cached.expires > now {
                let mut stamped = msg;
                cookie_ext::attach_cookie(&mut stamped, cached.cookie, 0);
                self.stats.stamped += 1;
                ctx.send(Packet::udp(pkt.src, pkt.dst, stamped.encode()));
                return;
            }
            self.cookies.remove(&server);
        }
        // No cookie: hold the query and probe with the all-zero extension.
        let mut probe = msg.clone();
        cookie_ext::attach_cookie(&mut probe, ZERO_COOKIE, 0);
        self.held.insert(
            (server, pkt.src.port, msg.header.id),
            HeldQuery {
                original: msg,
                created: now,
            },
        );
        self.stats.grants_requested += 1;
        ctx.send(Packet::udp(pkt.src, pkt.dst, probe.encode()));
    }

    fn handle_inbound(&mut self, ctx: &mut Context<'_>, pkt: Packet, mut msg: Message) {
        let server = pkt.src.ip;
        let key = (server, pkt.dst.port, msg.header.id);
        let ext = cookie_ext::strip_cookie(&mut msg);

        match (self.held.remove(&key), ext) {
            (Some(held), Some(ext)) if !ext.is_request() && msg.answers.is_empty() && msg.authorities.is_empty() => {
                // Message 3: a pure grant — cache and release the held query
                // with the cookie attached (message 4).
                self.cookies.insert(
                    server,
                    CachedCookie {
                        cookie: ext.cookie,
                        expires: ctx.now() + SimTime::from_secs(ext.ttl as u64),
                    },
                );
                self.stats.cookies_cached += 1;
                let mut release = held.original;
                cookie_ext::attach_cookie(&mut release, ext.cookie, 0);
                self.stats.stamped += 1;
                // Message 4: from the LRS's endpoint back to the server.
                ctx.send(Packet::udp(pkt.dst, pkt.src, release.encode()));
            }
            (Some(_held), None) => {
                // The server answered the zero-cookie probe directly: it is
                // not cookie-capable. Remember that and deliver its answer.
                self.incapable.insert(server, ctx.now() + INCAPABLE_TTL);
                self.stats.incapable_servers += 1;
                self.stats.delivered += 1;
                ctx.send_direct(self.lrs_node, Packet::udp(pkt.src, pkt.dst, msg.encode()));
            }
            _ => {
                // Ordinary response (possibly with a stripped extension).
                self.stats.delivered += 1;
                ctx.send_direct(self.lrs_node, Packet::udp(pkt.src, pkt.dst, msg.encode()));
            }
        }
    }
}

impl Node for LocalGuard {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_daemon_timer(SWEEP, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.proto != Proto::Udp {
            // TCP (and anything else) passes through untouched: outbound via
            // routing, inbound directly to the LRS.
            if pkt.src.ip == self.lrs_addr {
                ctx.send(pkt);
            } else {
                ctx.send_direct(self.lrs_node, pkt);
            }
            return;
        }
        let Ok(msg) = Message::decode(&pkt.payload) else {
            // Not DNS: relay.
            if pkt.src.ip == self.lrs_addr {
                ctx.send(pkt);
            } else {
                ctx.send_direct(self.lrs_node, pkt);
            }
            return;
        };
        if pkt.src.ip == self.lrs_addr && !msg.header.response && pkt.dst.port == DNS_PORT {
            self.handle_outbound(ctx, pkt, msg);
        } else if pkt.dst.ip == self.lrs_addr && msg.header.response {
            self.handle_inbound(ctx, pkt, msg);
        } else if pkt.src.ip == self.lrs_addr {
            ctx.send(pkt);
        } else {
            ctx.send_direct(self.lrs_node, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        ctx.set_daemon_timer(SWEEP, 0);
        let now = ctx.now();
        self.held
            .retain(|_, h| now.saturating_sub(h.created) < SimTime::from_secs(5));
    }
}
