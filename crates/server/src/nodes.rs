//! The authoritative server node: one [`Authority`] over UDP and DNS over
//! TCP, answered through the node's own [`AnswerCache`], with a
//! configurable per-request CPU cost modelling BIND or the paper's ANS
//! simulator. A cached answer is charged that cost like a fresh one: the
//! cost model is the measured server, not this process's wall time.

use crate::authoritative::{AnswerCache, Authority, Transport};
use dnswire::framing::{frame, take_frame};
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::tcp::{ConnKey, TcpEvent, TcpHost};
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
/// RFC 1035 two-byte framing, both through one [`AnswerCache`].
///
/// # Examples
///
/// See `crates/server/src/recursive.rs` tests — `AuthNode` is the upstream
/// for the resolver tests.
pub struct AuthNode {
    addr: Ipv4Addr,
    authority: Authority,
    cache: AnswerCache,
    costs: ServerCosts,
    tcp: TcpHost,
    /// Received bytes of a connection's partial frame.
    tcp_bufs: HashMap<ConnKey, Vec<u8>>,
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
            cache: AnswerCache::default(),
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

    /// Answers one deframed TCP `query` on connection `key`.
    fn answer_tcp(&mut self, ctx: &mut Context<'_>, key: ConnKey, query: Vec<u8>) {
        let reply = self.cache.reply(&self.authority, query, Transport::Tcp);
        if !reply.is_query() {
            return;
        }
        ctx.charge(self.costs.tcp_request);
        self.tcp_queries.inc();
        let framed = reply.into_wire().and_then(|wire| frame(&wire));
        if let Some(data) = framed.and_then(|framed| self.tcp.send(key, framed)) {
            ctx.send(data);
        }
    }
}

impl Node for AuthNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.proto {
            Proto::Udp => {
                // The reply is written over the query, in its own buffer.
                let reply = self.cache.reply(&self.authority, pkt.payload, Transport::Udp);
                if !reply.is_query() {
                    return;
                }
                ctx.charge(self.costs.udp_request);
                self.udp_queries.inc();
                if let Some(wire) = reply.into_wire() {
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
                            let mut buf = self.tcp_bufs.remove(&key).unwrap_or_default();
                            buf.extend_from_slice(&bytes);
                            // Pipelined queries (RFC 7766 §6.2.1.1) are
                            // answered in the order they arrived.
                            while let Some(query) = take_frame(&mut buf) {
                                self.answer_tcp(ctx, key, query);
                            }
                            if !buf.is_empty() {
                                self.tcp_bufs.insert(key, buf);
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

    /// Opens one connection and writes `queries`, framed, in one segment.
    struct PipelineProbe {
        tcp: TcpHost,
        me: Endpoint,
        server: Endpoint,
        queries: Vec<Vec<u8>>,
        recv: Vec<u8>,
        replies: Vec<Message>,
    }
    impl Node for PipelineProbe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let (_, syn) = self.tcp.connect(self.me, self.server);
            ctx.send(syn);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            let mut out = Vec::new();
            for ev in self.tcp.on_segment(&pkt, &mut out) {
                match ev {
                    TcpEvent::Connected(key) => {
                        let wire = self.queries.iter().flat_map(|q| frame(q).unwrap()).collect();
                        out.extend(self.tcp.send(key, wire));
                    }
                    TcpEvent::Data(_, bytes) => {
                        self.recv.extend_from_slice(&bytes);
                        while let Some(reply) = take_frame(&mut self.recv) {
                            self.replies.push(Message::decode(&reply).unwrap());
                        }
                    }
                    _ => {}
                }
            }
            for p in out {
                ctx.send(p);
            }
        }
    }

    #[test]
    fn pipelined_tcp_queries_are_each_answered() {
        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(4);
        let ans = sim.add_node(
            FOO_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(FOO_SERVER, Authority::new(vec![foo])),
        );
        let probe_ip = Ipv4Addr::new(10, 0, 0, 8);
        let queries = [(11, "www.foo.com"), (12, "missing.foo.com")]
            .map(|(id, name)| Message::iterative_query(id, name.parse().unwrap(), RrType::A).encode());
        let probe = sim.add_node(
            probe_ip,
            CpuConfig::unbounded(),
            PipelineProbe {
                tcp: TcpHost::new(5),
                me: Endpoint::new(probe_ip, 40_000),
                server: Endpoint::new(FOO_SERVER, DNS_PORT),
                queries: queries.to_vec(),
                recv: Vec::new(),
                replies: Vec::new(),
            },
        );
        sim.run();
        let replies = &sim.node_ref::<PipelineProbe>(probe).unwrap().replies;
        let ids: Vec<u16> = replies.iter().map(|r| r.header.id).collect();
        assert_eq!(ids, [11, 12], "both queries answered, in order");
        assert_eq!(replies[0].answers[0].rdata, RData::A(WWW_ADDR));
        assert_eq!(replies[1].header.rcode, dnswire::types::Rcode::NxDomain);
        assert_eq!(sim.node_ref::<AuthNode>(ans).unwrap().tcp_queries(), 2);
    }

    /// Sends each of `queries` to `server` at start.
    struct Burst {
        me: Endpoint,
        server: Endpoint,
        queries: Vec<Vec<u8>>,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for q in self.queries.drain(..) {
                ctx.send(Packet::udp(self.me, self.server, q));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    }

    /// A server asked one question N times under N ids counts and charges
    /// N queries, as one asked N distinct questions does: a held answer
    /// costs the modelled server what a fresh one does.
    #[test]
    fn held_answers_are_counted_and_charged_per_query() {
        const N: u16 = 50;
        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(3);
        let twin = Ipv4Addr::new(10, 0, 0, 53);
        let ans = [FOO_SERVER, twin].map(|addr| {
            let node = AuthNode::with_costs(addr, Authority::new(vec![foo.clone()]), ServerCosts::bind9());
            sim.add_node(addr, CpuConfig::unbounded(), node)
        });
        let repeated = (0..N).map(|id| Message::iterative_query(id, "www.foo.com".parse().unwrap(), RrType::A));
        let distinct =
            (0..N).map(|id| Message::iterative_query(id, format!("n{id}.foo.com").parse().unwrap(), RrType::A));
        let asks = [repeated.map(|q| q.encode()).collect(), distinct.map(|q| q.encode()).collect()];
        for (i, (server, queries)) in [FOO_SERVER, twin].into_iter().zip(asks).enumerate() {
            let me = Ipv4Addr::new(10, 0, 1, i as u8);
            let burst = Burst {
                me: Endpoint::new(me, 999),
                server: Endpoint::new(server, DNS_PORT),
                queries,
            };
            sim.add_node(me, CpuConfig::unbounded(), burst);
        }
        sim.run();
        let [repeated, distinct] = ans.map(|id| (sim.node_ref::<AuthNode>(id).unwrap().udp_queries(), sim.cpu_stats(id)));
        assert_eq!(repeated.0, u64::from(N));
        assert_eq!(distinct.0, u64::from(N));
        assert_eq!(repeated.1.busy, distinct.1.busy);
        assert_eq!(repeated.1.busy, ServerCosts::bind9().udp_request * u64::from(N));
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
