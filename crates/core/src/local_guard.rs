//! The local DNS guard (section III.D): a transparent middlebox in front of
//! an *unmodified* LRS that makes it cookie-capable.
//!
//! It is a simulator driver of [`ClientCore`], which holds the cookies and
//! the rules, stamps the LRS's queries on the wire and strips the extension
//! from every reply the LRS gets; the node itself only routes and sweeps
//! held queries.
//!
//! Deploy with [`netsim::Simulator::set_gateway`] (outbound tap) plus
//! routing the LRS's public address to this node (inbound interception);
//! see the crate examples.

use crate::cookie_client::{ClientCore, ClientStats, Reply};
use dnswire::view::MessageView;
use netsim::engine::{Context, Node, NodeId};
use netsim::packet::{Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// Held-query sweep period.
const SWEEP: SimTime = SimTime::from_secs(1);

/// The local guard node.
pub struct LocalGuard {
    /// The LRS this guard fronts.
    lrs_node: NodeId,
    lrs_addr: Ipv4Addr,
    core: ClientCore,
}

impl LocalGuard {
    /// Creates a guard fronting the LRS node `lrs_node` whose address is
    /// `lrs_addr`.
    pub fn new(lrs_node: NodeId, lrs_addr: Ipv4Addr) -> Self {
        LocalGuard { lrs_node, lrs_addr, core: ClientCore::default() }
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
                let wire = self.core.query(ctx.now(), pkt.dst.ip, pkt.src.port, pkt.payload);
                ctx.send(Packet::udp(pkt.src, pkt.dst, wire));
            }
            Some(reply) if pkt.dst.ip == self.lrs_addr && reply.header.response => {
                match self.core.reply(ctx.now(), pkt.src.ip, pkt.dst.port, &reply) {
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
        self.core.sweep(ctx.now());
    }
}
