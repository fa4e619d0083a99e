//! The guard's transparent TCP proxy (section III.C).
//!
//! After the guard redirects a requester to TCP with a truncation response,
//! the requester's connection terminates *here*, not at the ANS: the proxy
//! completes the handshake (with SYN cookies, so a SYN flood leaves no
//! state), converts each framed DNS request into a UDP query toward the
//! ANS, and frames the UDP response back onto the connection. The ANS never
//! does TCP work — in the paper this lived in the Linux kernel to avoid
//! context switches; here the savings appear as the calibrated
//! [`netsim::cost::tcp_conn_cost`] instead of BIND's much larger
//! per-TCP-request cost.
//!
//! Security hardening from the paper, all implemented:
//! * SYN cookies (stateless until the handshake completes);
//! * connection lifetime cap — state is reaped once a connection has been
//!   open longer than `GuardConfig::tcp_conn_lifetime`, an absolute time
//!   (2 ms by default; the paper caps it at 5× the link RTT);
//! * per-source token buckets on connection initiation.

use crate::ratelimit::SourceRateLimiter;
use dnswire::framing::{frame, take_frame};
use dnswire::message::Message;
use netsim::packet::Packet;
use netsim::tcp::{ConnKey, Segment, TcpEvent, TcpHost};
use netsim::time::SimTime;
use obs::metrics::Registry;
use std::collections::HashMap;

obs::counters! {
    /// Counters for the proxy (a snapshot; see [`TcpProxy::stats`]).
    pub struct ProxyStats;
    /// Live proxy counters: detached registry handles, adopted by
    /// [`TcpProxy::adopt_into`].
    struct ProxyMetrics: "proxy" {
        /// Connections accepted (handshake completed).
        accepted,
        /// SYNs rejected by the connection-rate limiter.
        syn_rejected,
        /// DNS requests relayed to the ANS.
        requests_relayed,
        /// DNS responses returned to clients.
        responses_returned,
        /// Connections reaped by the lifetime cap.
        reaped,
    }
}

/// What the proxy wants its host (the guard node) to do.
#[derive(Debug)]
pub enum ProxyAction {
    /// Send this packet (TCP segment back to a client).
    Send(Packet),
    /// Forward this decoded DNS query to the ANS; remember `token` to route
    /// the answer back via [`TcpProxy::on_ans_response`].
    ForwardQuery {
        /// Correlation token.
        token: u64,
        /// The query to forward.
        query: Message,
    },
}

#[derive(Debug)]
struct ConnState {
    opened: SimTime,
    buf: Vec<u8>,
}

/// The TCP proxy module embedded in the remote guard.
#[derive(Debug)]
pub struct TcpProxy {
    tcp: TcpHost,
    conns: HashMap<ConnKey, ConnState>,
    tokens: HashMap<u64, ConnKey>,
    next_token: u64,
    conn_limiter: SourceRateLimiter,
    lifetime: SimTime,
    metrics: ProxyMetrics,
}

impl TcpProxy {
    /// Creates a proxy that accepts DNS-over-TCP on port 53.
    ///
    /// `conn_rate` is the per-source new-connection rate; `lifetime` the
    /// reaping horizon, an absolute time a connection may stay open.
    pub fn new(secret: u64, conn_rate: f64, lifetime: SimTime) -> Self {
        let mut tcp = TcpHost::new(secret);
        tcp.listen(netsim::packet::DNS_PORT);
        tcp.enable_syn_cookies();
        TcpProxy {
            tcp,
            conns: HashMap::new(),
            tokens: HashMap::new(),
            next_token: 1,
            conn_limiter: SourceRateLimiter::per_source_only(conn_rate).keyed(secret),
            lifetime,
            metrics: ProxyMetrics::default(),
        }
    }

    /// Number of connections holding proxy state.
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    /// A snapshot of the proxy counters.
    pub fn stats(&self) -> ProxyStats {
        self.metrics.snapshot()
    }

    /// Registers the proxy's counters (and its connection limiter) in
    /// `registry` under component `proxy`.
    pub fn adopt_into(&self, registry: &Registry) {
        self.metrics.adopt_into(registry, &[]);
        self.conn_limiter.adopt_into(registry, "proxy", "conn");
    }

    /// Handles an inbound TCP packet addressed to the guarded server.
    pub fn on_segment(&mut self, now: SimTime, pkt: &Packet) -> Vec<ProxyAction> {
        // Connection-rate limiting happens on the SYN, before any TCP
        // processing, so a flood from one source is cheap to shed.
        if let Some(seg) = Segment::decode(&pkt.payload) {
            if seg.flags.syn && !seg.flags.ack && !self.conn_limiter.admit(now, pkt.src.ip) {
                self.metrics.syn_rejected.inc();
                return Vec::new();
            }
        }

        let mut out = Vec::new();
        let events = self.tcp.on_segment(pkt, &mut out);
        let mut actions: Vec<ProxyAction> = out.into_iter().map(ProxyAction::Send).collect();

        for ev in events {
            match ev {
                TcpEvent::Accepted(key) => {
                    self.metrics.accepted.inc();
                    self.conns.insert(
                        key,
                        ConnState {
                            opened: now,
                            buf: Vec::new(),
                        },
                    );
                }
                TcpEvent::Data(key, bytes) => {
                    let Some(state) = self.conns.get_mut(&key) else {
                        continue;
                    };
                    state.buf.extend_from_slice(&bytes);
                    // Drain every complete frame (pipelined requests are
                    // legal on DNS TCP connections).
                    while let Some(wire) = take_frame(&mut state.buf) {
                        let Ok(query) = Message::decode(&wire) else {
                            continue;
                        };
                        let token = self.next_token;
                        self.next_token += 1;
                        self.tokens.insert(token, key);
                        self.metrics.requests_relayed.inc();
                        actions.push(ProxyAction::ForwardQuery { token, query });
                    }
                }
                TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                    self.conns.remove(&key);
                }
                TcpEvent::Connected(_) => {}
            }
        }
        actions
    }

    /// Routes a UDP response from the ANS back onto its TCP connection:
    /// `response` as it was received, framed, under `id` — the transaction
    /// id the client's query carried, not the one it was forwarded under.
    pub fn on_ans_response(&mut self, token: u64, response: &[u8], id: u16) -> Option<Packet> {
        let key = self.tokens.remove(&token)?;
        if !self.conns.contains_key(&key) {
            return None; // reaped or closed meanwhile
        }
        let mut framed = frame(response)?;
        if let Some(slot) = framed.get_mut(2..4) {
            slot.copy_from_slice(&id.to_be_bytes());
        }
        let pkt = self.tcp.send(key, framed)?;
        self.metrics.responses_returned.inc();
        Some(pkt)
    }

    /// Reaps connections older than the lifetime cap. Call periodically.
    pub fn reap(&mut self, now: SimTime) -> usize {
        let stale: Vec<ConnKey> = self
            .conns
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.opened) > self.lifetime)
            .map(|(k, _)| *k)
            .collect();
        let count = stale.len();
        for key in stale {
            self.conns.remove(&key);
            self.tcp.abort(&key);
            self.metrics.reaped.inc();
        }
        // Also drop orphaned tokens whose connection is gone.
        self.tokens.retain(|_, k| self.conns.contains_key(k));
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::types::RrType;
    use netsim::packet::{Endpoint, DNS_PORT};
    use std::net::Ipv4Addr;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    fn guard_ep() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), DNS_PORT)
    }

    /// Drives a client handshake against the proxy and returns the
    /// established key from the client's perspective.
    fn handshake(proxy: &mut TcpProxy, client: &mut TcpHost, now: SimTime) -> ConnKey {
        let (key, syn) = client.connect(ep(9, 5555), guard_ep());
        let mut inflight = vec![syn];
        let mut rounds = 0;
        while let Some(pkt) = inflight.pop() {
            rounds += 1;
            assert!(rounds < 20);
            if pkt.dst == guard_ep() {
                for a in proxy.on_segment(now, &pkt) {
                    if let ProxyAction::Send(p) = a {
                        inflight.push(p);
                    }
                }
            } else {
                let mut out = Vec::new();
                client.on_segment(&pkt, &mut out);
                inflight.extend(out);
            }
        }
        assert!(client.is_established(&key));
        key
    }

    #[test]
    fn handshake_and_relay() {
        let mut proxy = TcpProxy::new(7, 100.0, SimTime::from_millis(2));
        let mut client = TcpHost::new(8);
        let key = handshake(&mut proxy, &mut client, SimTime::ZERO);
        assert_eq!(proxy.open_connections(), 1);

        // Send a framed DNS query.
        let q = Message::iterative_query(3, "www.foo.com".parse().unwrap(), RrType::A);
        let data = client.send(key, frame(&q.encode()).unwrap()).unwrap();
        let actions = proxy.on_segment(SimTime::ZERO, &data);
        let forwarded = actions.iter().find_map(|a| match a {
            ProxyAction::ForwardQuery { token, query } => Some((*token, query.clone())),
            _ => None,
        });
        let (token, query) = forwarded.expect("query forwarded toward ANS");
        assert_eq!(query.question().unwrap().name.to_string(), "www.foo.com.");

        // The ANS answers what the guard forwarded under an id of its own;
        // the proxy frames that onto the connection under the client's.
        let mut upstream = query.response();
        upstream.header.id = 0x7777;
        let back = proxy.on_ans_response(token, &upstream.encode(), 3).expect("response relayed");
        let mut out = Vec::new();
        let events = client.on_segment(&back, &mut out);
        let framed = events.iter().find_map(|e| match e {
            TcpEvent::Data(_, d) => Some(d.clone()),
            _ => None,
        });
        let mut framed = framed.expect("the answer on the connection");
        let answer = take_frame(&mut framed).expect("one whole frame");
        assert!(framed.is_empty(), "and nothing after it");
        assert_eq!(Message::decode(&answer).unwrap(), query.response(), "under the id the client sent");
        assert_eq!(proxy.stats().requests_relayed, 1);
        assert_eq!(proxy.stats().responses_returned, 1);
    }

    #[test]
    fn syn_rate_limit_sheds_flood() {
        let mut proxy = TcpProxy::new(9, 10.0, SimTime::from_millis(2));
        let now = SimTime::from_secs(1);
        let syn = Segment {
            flags: netsim::tcp::Flags {
                syn: true,
                ack: false,
                fin: false,
                rst: false,
            },
            seq: 1,
            ack: 0,
            data: vec![],
        };
        let mut rejected = 0;
        for i in 0..100 {
            let pkt = Packet::tcp(ep(9, 6000 + i), guard_ep(), syn.encode());
            let before = proxy.stats().syn_rejected;
            let _ = proxy.on_segment(now, &pkt);
            if proxy.stats().syn_rejected > before {
                rejected += 1;
            }
        }
        assert!(rejected > 80, "rejected {rejected}");
        assert_eq!(proxy.open_connections(), 0, "SYN cookies: no state either way");
    }

    #[test]
    fn reaper_removes_stale_connections() {
        let mut proxy = TcpProxy::new(10, 1_000.0, SimTime::from_millis(2));
        let mut client = TcpHost::new(11);
        handshake(&mut proxy, &mut client, SimTime::ZERO);
        assert_eq!(proxy.open_connections(), 1);
        assert_eq!(proxy.reap(SimTime::from_millis(1)), 0, "young connection kept");
        assert_eq!(proxy.reap(SimTime::from_millis(3)), 1, "stale connection reaped");
        assert_eq!(proxy.open_connections(), 0);
        assert_eq!(proxy.stats().reaped, 1);
    }

    #[test]
    fn response_after_reap_dropped() {
        let mut proxy = TcpProxy::new(12, 1_000.0, SimTime::from_millis(2));
        let mut client = TcpHost::new(13);
        let key = handshake(&mut proxy, &mut client, SimTime::ZERO);
        let q = Message::iterative_query(4, "x.y".parse().unwrap(), RrType::A);
        let data = client.send(key, frame(&q.encode()).unwrap()).unwrap();
        let actions = proxy.on_segment(SimTime::ZERO, &data);
        let token = actions
            .iter()
            .find_map(|a| match a {
                ProxyAction::ForwardQuery { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        proxy.reap(SimTime::from_secs(1));
        assert!(proxy.on_ans_response(token, &q.response().encode(), 4).is_none());
    }
}
