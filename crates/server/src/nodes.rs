//! Ready-made simulator nodes: an authoritative server (with configurable
//! per-request CPU cost, modelling BIND or the paper's ANS simulator) and a
//! TCP-capable variant.

use crate::authoritative::Authority;
use dnswire::message::MAX_UDP_PAYLOAD;
use dnswire::view::MessageView;
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::tcp::{TcpEvent, TcpHost};
use netsim::time::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-request CPU costs of an authoritative server.
#[derive(Debug, Clone, Copy)]
pub struct ServerCosts {
    /// Cost of serving one UDP request.
    pub udp_request: SimTime,
    /// Cost of serving one TCP request (BIND: much higher).
    pub tcp_request: SimTime,
}

impl ServerCosts {
    /// BIND 9.3.1 as measured by the paper: 14 K req/s UDP, 2.2 K req/s TCP.
    pub fn bind9() -> Self {
        ServerCosts {
            udp_request: netsim::cost::bind_udp_request_cost(),
            tcp_request: netsim::cost::bind_tcp_request_cost(),
        }
    }

    /// The paper's ANS simulator program: ~110 K req/s.
    pub fn ans_simulator() -> Self {
        ServerCosts {
            udp_request: netsim::cost::ans_sim_request_cost(),
            tcp_request: netsim::cost::ans_sim_request_cost() * 4,
        }
    }

    /// Free processing (for logic-only tests).
    pub fn free() -> Self {
        ServerCosts {
            udp_request: SimTime::ZERO,
            tcp_request: SimTime::ZERO,
        }
    }
}

/// An authoritative name server node: answers UDP queries from its
/// [`Authority`], truncating at 512 bytes, and serves TCP queries with
/// RFC 1035 two-byte framing.
///
/// # Examples
///
/// See `crates/server/src/recursive.rs` tests — `AuthNode` is the upstream
/// for the resolver tests.
pub struct AuthNode {
    addr: Ipv4Addr,
    authority: Authority,
    costs: ServerCosts,
    tcp: TcpHost,
    tcp_bufs: HashMap<netsim::tcp::ConnKey, Vec<u8>>,
    /// UDP queries served (detached registry counter; see
    /// [`AuthNode::attach_obs`]).
    udp_queries: obs::metrics::Counter,
    /// TCP queries served.
    tcp_queries: obs::metrics::Counter,
}

impl AuthNode {
    /// Creates a server at `addr` with free processing costs.
    pub fn new(addr: Ipv4Addr, authority: Authority) -> Self {
        Self::with_costs(addr, authority, ServerCosts::free())
    }

    /// Creates a server with explicit costs (e.g. [`ServerCosts::bind9`]).
    pub fn with_costs(addr: Ipv4Addr, authority: Authority, costs: ServerCosts) -> Self {
        let mut tcp = TcpHost::new(u64::from(u32::from(addr)) ^ 0xA17);
        tcp.listen(DNS_PORT);
        AuthNode {
            addr,
            authority,
            costs,
            tcp,
            tcp_bufs: HashMap::new(),
            udp_queries: obs::metrics::Counter::new(),
            tcp_queries: obs::metrics::Counter::new(),
        }
    }

    /// UDP queries served so far.
    pub fn udp_queries(&self) -> u64 {
        self.udp_queries.get()
    }

    /// TCP queries served so far.
    pub fn tcp_queries(&self) -> u64 {
        self.tcp_queries.get()
    }

    /// Total queries served over both transports.
    pub fn total_queries(&self) -> u64 {
        self.udp_queries.get() + self.tcp_queries.get()
    }

    /// Adopts this server's per-transport query counters into
    /// `obs.registry` as `authoritative.queries{transport=...,node=...}`.
    pub fn attach_obs(&self, obs: &obs::Obs) {
        let node = self.addr.to_string();
        let r = &obs.registry;
        r.adopt_counter(
            "authoritative",
            "queries",
            &[("transport", "udp"), ("node", node.as_str())],
            &self.udp_queries,
        );
        r.adopt_counter(
            "authoritative",
            "queries",
            &[("transport", "tcp"), ("node", node.as_str())],
            &self.tcp_queries,
        );
    }

}

impl Node for AuthNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.proto {
            Proto::Udp => {
                let Ok(view) = MessageView::parse(&pkt.payload) else {
                    return;
                };
                if view.header.response {
                    return;
                }
                ctx.charge(self.costs.udp_request);
                self.udp_queries.inc();
                // The reply is written over the query, in its own buffer.
                let start = view.reply_start();
                if let Ok(wire) = self.authority.answer_wire(pkt.payload, start, MAX_UDP_PAYLOAD) {
                    ctx.send(Packet::udp(Endpoint::new(self.addr, DNS_PORT), pkt.src, wire));
                }
            }
            Proto::Tcp => {
                let mut out = Vec::new();
                let events = self.tcp.on_segment(&pkt, &mut out);
                for p in out {
                    ctx.send(p);
                }
                for ev in events {
                    match ev {
                        TcpEvent::Data(key, bytes) => {
                            let buf = self.tcp_bufs.entry(key).or_default();
                            buf.extend_from_slice(&bytes);
                            if buf.len() < 2 {
                                continue;
                            }
                            let need = u16::from_be_bytes([buf[0], buf[1]]) as usize;
                            if buf.len() < 2 + need {
                                continue;
                            }
                            let frame = buf[2..2 + need].to_vec();
                            self.tcp_bufs.remove(&key);
                            let Ok(view) = MessageView::parse(&frame) else {
                                continue;
                            };
                            ctx.charge(self.costs.tcp_request);
                            self.tcp_queries.inc();
                            let start = view.reply_start();
                            if let Ok(wire) = self.authority.answer_wire(frame, start, usize::MAX) {
                                let mut framed = Vec::with_capacity(wire.len() + 2);
                                framed.extend_from_slice(&(wire.len() as u16).to_be_bytes());
                                framed.extend_from_slice(&wire);
                                if let Some(data) = self.tcp.send(key, framed) {
                                    ctx.send(data);
                                }
                            }
                        }
                        TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                            self.tcp_bufs.remove(&key);
                        }
                        TcpEvent::Accepted(_) | TcpEvent::Connected(_) => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::{paper_hierarchy, FOO_SERVER, WWW_ADDR};
    use dnswire::message::Message;
    use dnswire::rdata::RData;
    use dnswire::types::RrType;
    use netsim::engine::{CpuConfig, Simulator};

    struct UdpProbe {
        me: Endpoint,
        server: Endpoint,
        reply: Option<Message>,
    }
    impl Node for UdpProbe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let q = Message::iterative_query(5, "www.foo.com".parse().unwrap(), RrType::A);
            ctx.send(Packet::udp(self.me, self.server, q.encode()));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            self.reply = Message::decode(&pkt.payload).ok();
        }
    }

    #[test]
    fn udp_query_answered() {
        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(1);
        sim.add_node(
            FOO_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(FOO_SERVER, Authority::new(vec![foo])),
        );
        let probe_ip = Ipv4Addr::new(10, 0, 0, 9);
        let probe = sim.add_node(
            probe_ip,
            CpuConfig::unbounded(),
            UdpProbe {
                me: Endpoint::new(probe_ip, 999),
                server: Endpoint::new(FOO_SERVER, DNS_PORT),
                reply: None,
            },
        );
        sim.run();
        let reply = sim.node_ref::<UdpProbe>(probe).unwrap().reply.clone().unwrap();
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
    }

    #[test]
    fn bind_costs_limit_throughput() {
        // Hammer a BIND-cost server with 30K req/s for 1 s: served ≈ 14K.
        struct Hammer {
            server: Endpoint,
            me: Endpoint,
            sent: u64,
        }
        impl Node for Hammer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                if self.sent >= 30_000 {
                    return;
                }
                self.sent += 1;
                let q = Message::iterative_query(
                    (self.sent % 65_535) as u16,
                    "www.foo.com".parse().unwrap(),
                    RrType::A,
                );
                ctx.send(Packet::udp(self.me, self.server, q.encode()));
                ctx.set_timer(SimTime::from_nanos(33_333), 0); // 30K/s
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }

        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(2);
        let ans = sim.add_node(
            FOO_SERVER,
            CpuConfig::default(),
            AuthNode::with_costs(FOO_SERVER, Authority::new(vec![foo]), ServerCosts::bind9()),
        );
        let h_ip = Ipv4Addr::new(10, 0, 0, 7);
        sim.add_node(
            h_ip,
            CpuConfig::unbounded(),
            Hammer {
                server: Endpoint::new(FOO_SERVER, DNS_PORT),
                me: Endpoint::new(h_ip, 2000),
                sent: 0,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        let served = sim.node_ref::<AuthNode>(ans).unwrap().udp_queries();
        assert!(
            (13_000..=15_000).contains(&served),
            "BIND model should serve ~14K req/s, served {served}"
        );
    }
}
