//! A small DNS-over-TCP query driver shared by the workload clients:
//! opens a connection per query (as RFC 1035 clients of the era did),
//! sends the two-byte-framed request, collects the framed response, closes.

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
    sent: bool,
}

/// Drives one-query-per-connection DNS over the simulated TCP.
#[derive(Debug)]
pub struct TcpQueryClient {
    local_ip: Ipv4Addr,
    tcp: TcpHost,
    pending: HashMap<ConnKey, PendingTcp>,
    next_port: u16,
}

impl TcpQueryClient {
    /// Creates a client that connects from `local_ip`.
    pub fn new(local_ip: Ipv4Addr, seed: u64) -> Self {
        TcpQueryClient {
            local_ip,
            tcp: TcpHost::new(seed),
            pending: HashMap::new(),
            next_port: 32_768,
        }
    }

    /// Number of connections currently open (any state).
    pub fn open_connections(&self) -> usize {
        self.tcp.conn_count()
    }

    /// Begins a TCP query to `server:53` asking the encoded `query`;
    /// returns the SYN packet to send. `token` is echoed when the response
    /// completes.
    pub fn start_query(&mut self, server: Ipv4Addr, query: &[u8], token: u64) -> Packet {
        let mut wire = Vec::with_capacity(query.len() + 2);
        wire.extend_from_slice(&(query.len() as u16).to_be_bytes());
        wire.extend_from_slice(query);

        let local = Endpoint::new(self.local_ip, self.next_port);
        self.next_port = self.next_port.wrapping_add(1).max(32_768);
        let (key, syn) = self.tcp.connect(local, Endpoint::new(server, DNS_PORT));
        self.pending.insert(
            key,
            PendingTcp {
                token,
                wire,
                recv: Vec::new(),
                sent: false,
            },
        );
        syn
    }

    /// Abandons the query identified by `token` (timeout): connection state
    /// is dropped without further packets.
    pub fn abandon(&mut self, token: u64) {
        let keys: Vec<ConnKey> = self
            .pending
            .iter()
            .filter(|(_, p)| p.token == token)
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            self.pending.remove(&k);
            self.tcp.abort(&k);
        }
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
                    if let Some(p) = self.pending.get_mut(&key) {
                        if !p.sent {
                            p.sent = true;
                            let wire = std::mem::take(&mut p.wire);
                            if let Some(data) = self.tcp.send(key, wire) {
                                out.push(data);
                            }
                        }
                    }
                }
                TcpEvent::Data(key, bytes) => {
                    let Some(p) = self.pending.get_mut(&key) else {
                        continue;
                    };
                    p.recv.extend_from_slice(&bytes);
                    if p.recv.len() < 2 {
                        continue;
                    }
                    let need = u16::from_be_bytes([p.recv[0], p.recv[1]]) as usize;
                    if p.recv.len() < 2 + need {
                        continue;
                    }
                    let frame = p.recv[2..2 + need].to_vec();
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
            let syn = self.client.start_query(self.server, &q, 1);
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
        let _syn = c.start_query(Ipv4Addr::new(1, 1, 1, 1), &q, 42);
        assert_eq!(c.open_connections(), 1);
        c.abandon(42);
        assert_eq!(c.open_connections(), 0);
    }
}
