//! The one DNS-over-TCP client of the workspace: a query per connection
//! (as RFC 1035 clients of the era did), the request framed by
//! [`dnswire::framing`], the framed response collected, the connection
//! closed. The LRS simulator's TC fallback and the recursive resolver's TCP
//! re-queries both run on it; each picks the local port its query leaves
//! from.

use dnswire::framing::{frame, take_frame};
use dnswire::view::MessageView;
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::tcp::{ConnKey, TcpEvent, TcpHost};
use std::collections::HashMap;
use std::net::Ipv4Addr;

#[derive(Debug)]
struct PendingTcp {
    token: u64,
    wire: Vec<u8>,
    recv: Vec<u8>,
}

/// Drives one-query-per-connection DNS over the simulated TCP.
#[derive(Debug)]
pub struct TcpQueryClient {
    local_ip: Ipv4Addr,
    tcp: TcpHost,
    pending: HashMap<ConnKey, PendingTcp>,
}

impl TcpQueryClient {
    /// Creates a client that connects from `local_ip`.
    pub fn new(local_ip: Ipv4Addr, seed: u64) -> Self {
        TcpQueryClient {
            local_ip,
            tcp: TcpHost::new(seed),
            pending: HashMap::new(),
        }
    }

    /// Number of connections currently open (any state).
    pub fn open_connections(&self) -> usize {
        self.tcp.conn_count()
    }

    /// Whether a query still awaiting its response left from `port`.
    pub fn port_in_use(&self, port: u16) -> bool {
        self.pending.keys().any(|k| k.local.port == port)
    }

    /// Begins a TCP query from `local_port` to `server:53` asking the
    /// encoded `query`; returns the SYN packet to send, or `None` when the
    /// query is too long to frame. `token` is echoed when the response
    /// completes.
    pub fn start_query(&mut self, local_port: u16, server: Ipv4Addr, query: &[u8], token: u64) -> Option<Packet> {
        let wire = frame(query)?;
        let local = Endpoint::new(self.local_ip, local_port);
        let (key, syn) = self.tcp.connect(local, Endpoint::new(server, DNS_PORT));
        self.pending.insert(
            key,
            PendingTcp {
                token,
                wire,
                recv: Vec::new(),
            },
        );
        Some(syn)
    }

    /// Abandons the query identified by `token` (timeout): connection state
    /// is dropped without further packets.
    pub fn abandon(&mut self, token: u64) {
        let tcp = &mut self.tcp;
        self.pending.retain(|key, p| {
            let keep = p.token != token;
            if !keep {
                tcp.abort(key);
            }
            keep
        });
    }

    /// Feeds an inbound TCP packet; appends outbound packets to `out` and
    /// returns `(token, response)` pairs for completed queries, each
    /// response a frame [`MessageView::parse`] accepts.
    pub fn on_segment(&mut self, pkt: &Packet, out: &mut Vec<Packet>) -> Vec<(u64, Vec<u8>)> {
        let mut done = Vec::new();
        let events = self.tcp.on_segment(pkt, out);
        for ev in events {
            match ev {
                TcpEvent::Connected(key) => {
                    // A connection reports `Connected` once: its SYN-ACK.
                    if let Some(p) = self.pending.get_mut(&key) {
                        if let Some(data) = self.tcp.send(key, std::mem::take(&mut p.wire)) {
                            out.push(data);
                        }
                    }
                }
                TcpEvent::Data(key, bytes) => {
                    let Some(p) = self.pending.get_mut(&key) else {
                        continue;
                    };
                    p.recv.extend_from_slice(&bytes);
                    let Some(frame) = take_frame(&mut p.recv) else {
                        continue;
                    };
                    let token = p.token;
                    self.pending.remove(&key);
                    if let Some(fin) = self.tcp.close(key) {
                        out.push(fin);
                    }
                    if MessageView::parse(&frame).is_ok() {
                        done.push((token, frame));
                    }
                }
                TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                    self.pending.remove(&key);
                }
                TcpEvent::Accepted(_) => {}
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::Authority;
    use crate::nodes::AuthNode;
    use crate::zone::{paper_hierarchy, FOO_SERVER, WWW_ADDR};
    use dnswire::message::Message;
    use dnswire::rdata::RData;
    use dnswire::types::RrType;
    use netsim::engine::{Context, CpuConfig, Node, Simulator};
    use netsim::packet::Proto;

    struct TcpProbe {
        client: TcpQueryClient,
        server: Ipv4Addr,
        reply: Option<Vec<u8>>,
    }
    impl Node for TcpProbe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let q = Message::iterative_query(8, "www.foo.com".parse().unwrap(), RrType::A).encode();
            let syn = self.client.start_query(40_001, self.server, &q, 1).unwrap();
            ctx.send(syn);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            if pkt.proto != Proto::Tcp {
                return;
            }
            let mut out = Vec::new();
            for (_, frame) in self.client.on_segment(&pkt, &mut out) {
                self.reply = Some(frame);
            }
            for p in out {
                ctx.send(p);
            }
        }
    }

    #[test]
    fn tcp_query_round_trip() {
        let (_, _, foo) = paper_hierarchy();
        let mut sim = Simulator::new(3);
        sim.add_node(
            FOO_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(FOO_SERVER, Authority::new(vec![foo])),
        );
        let probe_ip = Ipv4Addr::new(10, 0, 0, 4);
        let probe = sim.add_node(
            probe_ip,
            CpuConfig::unbounded(),
            TcpProbe {
                client: TcpQueryClient::new(probe_ip, 99),
                server: FOO_SERVER,
                reply: None,
            },
        );
        sim.run();
        let state = sim.node_ref::<TcpProbe>(probe).unwrap();
        let reply = Message::decode(state.reply.as_deref().expect("got TCP response")).unwrap();
        assert_eq!(reply.header.id, 8);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        assert_eq!(state.client.open_connections(), 0, "connection closed after reply");
    }

    #[test]
    fn abandon_clears_state() {
        let mut c = TcpQueryClient::new(Ipv4Addr::new(10, 0, 0, 5), 1);
        let q = Message::iterative_query(1, "x.y".parse().unwrap(), RrType::A).encode();
        let _syn = c.start_query(33_000, Ipv4Addr::new(1, 1, 1, 1), &q, 42).unwrap();
        assert_eq!(c.open_connections(), 1);
        assert!(c.port_in_use(33_000) && !c.port_in_use(33_001));
        c.abandon(42);
        assert_eq!(c.open_connections(), 0);
        assert!(!c.port_in_use(33_000));
    }

    #[test]
    fn an_unframeable_query_opens_nothing() {
        let mut c = TcpQueryClient::new(Ipv4Addr::new(10, 0, 0, 5), 1);
        assert!(c.start_query(33_000, Ipv4Addr::new(1, 1, 1, 1), &vec![0; 65_536], 7).is_none());
        assert_eq!(c.open_connections(), 0);
        assert!(!c.port_in_use(33_000));
    }
}
