//! The local DNS guard (section III.D): a transparent middlebox in front of
//! an *unmodified* LRS that makes it cookie-capable.
//!
//! It is a simulator driver of [`ClientCore`], which holds the cookies and
//! the rules, stamps the LRS's queries on the wire and strips the extension
//! from every reply the LRS gets. The node routes, and holds each query
//! behind its probe by server, LRS port and id, the key a reply carries
//! back: a grant for that key releases the query, any other reply to it
//! ends the hold, and a sweep drops the holds older than [`HOLD`].
//!
//! Deploy with [`netsim::Simulator::set_gateway`] (outbound tap) plus
//! routing the LRS's public address to this node (inbound interception);
//! see the crate examples.

use crate::cookie_client::{ClientCore, ClientStats, Held, Reply};
use dnswire::view::MessageView;
use netsim::engine::{Context, Node, NodeId};
use netsim::packet::{Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How long a held query waits for its probe's grant.
pub const HOLD: SimTime = SimTime::from_secs(5);

/// Held-query sweep period.
const SWEEP: SimTime = SimTime::from_secs(1);

/// The local guard node.
pub struct LocalGuard {
    /// The LRS this guard fronts.
    lrs_node: NodeId,
    lrs_addr: Ipv4Addr,
    core: ClientCore,
    /// Queries awaiting their probe's grant, and when they were held, by
    /// server, LRS port and id: two LRS ports may share an id.
    held: HashMap<(Ipv4Addr, u16, u16), (Held, SimTime)>,
}

impl LocalGuard {
    /// Creates a guard fronting the LRS node `lrs_node` whose address is
    /// `lrs_addr`.
    pub fn new(lrs_node: NodeId, lrs_addr: Ipv4Addr) -> Self {
        LocalGuard { lrs_node, lrs_addr, core: ClientCore::default(), held: HashMap::new() }
    }

    /// Counters.
    pub fn stats(&self) -> ClientStats {
        self.core.stats
    }

    /// Number of ANS cookies currently cached.
    pub fn cached_cookies(&self) -> usize {
        self.core.cached_cookies()
    }
}

impl Node for LocalGuard {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_daemon_timer(SWEEP, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let outbound = pkt.src.ip == self.lrs_addr;
        let view = (pkt.proto == Proto::Udp).then(|| MessageView::parse(&pkt.payload).ok()).flatten();
        match view {
            Some(query) if outbound && !query.header.response && pkt.dst.port == DNS_PORT => {
                let key = (pkt.dst.ip, pkt.src.port, query.header.id);
                let (wire, held) = self.core.query(ctx.now(), pkt.dst.ip, pkt.payload);
                if let Some(held) = held {
                    self.held.insert(key, (held, ctx.now()));
                }
                ctx.send(Packet::udp(pkt.src, pkt.dst, wire));
            }
            Some(reply) if pkt.dst.ip == self.lrs_addr && reply.header.response => {
                let mut held = self.held.remove(&(pkt.src.ip, pkt.dst.port, reply.header.id)).map(|(query, _)| query);
                match self.core.reply(ctx.now(), pkt.src.ip, &reply, &mut held) {
                    Reply::Deliver(reply) => {
                        ctx.send_direct(self.lrs_node, Packet::udp(pkt.src, pkt.dst, reply.into_owned()))
                    }
                    // Message 4: from the LRS's endpoint back to the server.
                    Reply::Release(wire) => ctx.send(Packet::udp(pkt.dst, pkt.src, wire)),
                    Reply::Drop => {}
                }
            }
            // TCP, what is not DNS and what is neither a query out nor a
            // reply in pass untouched: outbound by routing, inbound directly
            // to the LRS.
            _ if outbound => ctx.send(pkt),
            _ => ctx.send_direct(self.lrs_node, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        ctx.set_daemon_timer(SWEEP, 0);
        let now = ctx.now();
        self.held.retain(|_, (_, at)| now.saturating_sub(*at) < HOLD);
    }
}
