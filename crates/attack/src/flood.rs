//! Spoofed-source request floods — the attack of Figures 5 and 6.

use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::types::RrType;
use guardhash::cookie::{NS_COOKIE_BYTES, NS_PREFIX};
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use rand::Rng;
use std::net::Ipv4Addr;

/// How the attacker chooses the (spoofed) source address of each packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStrategy {
    /// Uniformly random 32-bit addresses (classic spoofed flood).
    Random,
    /// A fixed spoofed address — e.g. a victim for reflection, or a
    /// legitimate LRS whose service the attacker wants degraded.
    Fixed(Ipv4Addr),
    /// Round-robin over a pool of `n` addresses starting at a base
    /// (models a zombie botnet using *real* addresses).
    Pool {
        /// First address of the pool.
        base: Ipv4Addr,
        /// Pool size.
        count: u32,
    },
}

/// What each attack packet contains.
#[derive(Debug, Clone)]
pub enum AttackPayload {
    /// An ordinary query for a name (cookie-less: what a naive flooder
    /// sends).
    PlainQuery(Name),
    /// A message-3-shaped query with a random cookie label: guessing the
    /// 2^32 NS-name cookie space. The label suffix names the target zone.
    CookieLabelGuess {
        /// Label text appended after the hex digits (e.g. `com`).
        zone_suffix: String,
        /// Parent name the label is attached to (root for `PR…com`).
        parent: Name,
    },
    /// A query carrying a random 16-byte extension cookie.
    ExtCookieGuess(Name),
    /// Queries sprayed across the `COOKIE2` subnet: the 1/R_y attack of
    /// section III.G.
    Cookie2Spray {
        /// Queried name.
        qname: Name,
        /// Guarded subnet base.
        subnet_base: Ipv4Addr,
        /// `R_y`.
        range: u32,
    },
}

/// Configuration of the flood.
#[derive(Debug, Clone)]
pub struct FloodConfig {
    /// Target (the guard's public address, usually).
    pub target: Ipv4Addr,
    /// Packets per second.
    pub rate: f64,
    /// Source address strategy.
    pub sources: SourceStrategy,
    /// Payload generator.
    pub payload: AttackPayload,
    /// Stop after this much simulated time (None = run forever).
    pub duration: Option<SimTime>,
}

/// The flooding attacker node. Open loop: it never waits for anything.
pub struct SpoofedFlood {
    config: FloodConfig,
    sent: u64,
    started: SimTime,
    pool_next: u32,
    /// Responses that came back to an address this node actually owns
    /// (only meaningful for `SourceStrategy::Pool` / `Fixed` where the
    /// simulator routes those addresses here).
    pub responses_seen: u64,
}

/// Batch period: the flood emits `rate × 100 µs` packets per tick, keeping
/// event counts manageable at 250 K req/s.
const TICK: SimTime = SimTime::from_micros(100);

impl SpoofedFlood {
    /// Creates the flood node.
    pub fn new(config: FloodConfig) -> Self {
        SpoofedFlood {
            config,
            sent: 0,
            started: SimTime::ZERO,
            pool_next: 0,
            responses_seen: 0,
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn build_packet(&mut self, ctx: &mut Context<'_>) -> Packet {
        let txid = (self.sent % 0xFFFF) as u16;
        let random_ip: u32 = ctx.rng().gen();
        let src_ip = match self.config.sources {
            SourceStrategy::Random => Ipv4Addr::from(random_ip),
            SourceStrategy::Fixed(ip) => ip,
            SourceStrategy::Pool { base, count } => {
                let ip = Ipv4Addr::from(u32::from(base) + self.pool_next % count.max(1));
                self.pool_next = self.pool_next.wrapping_add(1);
                ip
            }
        };
        let src = Endpoint::new(src_ip, 1024 + (self.sent % 50_000) as u16);

        let (dst_ip, payload) = match &self.config.payload {
            AttackPayload::PlainQuery(name) => (
                self.config.target,
                Message::iterative_query(txid, name.clone(), RrType::A).encode(),
            ),
            AttackPayload::CookieLabelGuess { zone_suffix, parent } => {
                let guess: u32 = ctx.rng().gen();
                let label = format!("{NS_PREFIX}{guess:0w$x}{zone_suffix}", w = 2 * NS_COOKIE_BYTES);
                let name = parent
                    .child(label.as_bytes())
                    .unwrap_or_else(|_| parent.clone());
                (
                    self.config.target,
                    Message::iterative_query(txid, name, RrType::A).encode(),
                )
            }
            AttackPayload::ExtCookieGuess(name) => {
                let mut msg = Message::iterative_query(txid, name.clone(), RrType::A);
                let guess: [u8; 16] = ctx.rng().gen();
                cookie_ext::attach_cookie(&mut msg, guess, 0);
                (self.config.target, msg.encode())
            }
            AttackPayload::Cookie2Spray {
                qname,
                subnet_base,
                range,
            } => {
                let y: u32 = ctx.rng().gen_range(0..*range);
                let dst = Ipv4Addr::from(u32::from(*subnet_base) + 1 + y);
                (
                    dst,
                    Message::iterative_query(txid, qname.clone(), RrType::A).encode(),
                )
            }
        };
        Packet::udp(src, Endpoint::new(dst_ip, DNS_PORT), payload)
    }
}

impl Node for SpoofedFlood {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.started = ctx.now();
        ctx.set_timer(SimTime::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if let Some(d) = self.config.duration {
            if ctx.now().saturating_sub(self.started) >= d {
                return;
            }
        }
        // How many packets should have been sent by now?
        let elapsed = ctx.now().saturating_sub(self.started);
        let due = (elapsed.as_secs_f64() * self.config.rate) as u64;
        let batch = due.saturating_sub(self.sent).min(1_000);
        for _ in 0..batch {
            self.sent += 1;
            let pkt = self.build_packet(ctx);
            ctx.send(pkt);
        }
        ctx.set_timer(TICK, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
        self.responses_seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::{CpuConfig, Simulator};

    struct Sink {
        received: u64,
        distinct_sources: std::collections::HashSet<Ipv4Addr>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            self.received += 1;
            self.distinct_sources.insert(pkt.src.ip);
        }
    }

    #[test]
    fn flood_hits_configured_rate() {
        let mut sim = Simulator::new(1);
        let target = Ipv4Addr::new(1, 2, 3, 4);
        let sink = sim.add_node(
            target,
            CpuConfig::unbounded(),
            Sink {
                received: 0,
                distinct_sources: Default::default(),
            },
        );
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 1),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target,
                rate: 50_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
                duration: Some(SimTime::from_millis(100)),
            }),
        );
        sim.run_until(SimTime::from_millis(200));
        let sink_state = sim.node_ref::<Sink>(sink).unwrap();
        assert!(
            (4_500..=5_200).contains(&sink_state.received),
            "received {}",
            sink_state.received
        );
        assert!(
            sink_state.distinct_sources.len() as u64 > sink_state.received / 2,
            "sources look random"
        );
    }

    #[test]
    fn fixed_source_spoofs_one_victim() {
        let mut sim = Simulator::new(2);
        let target = Ipv4Addr::new(1, 2, 3, 4);
        let victim = Ipv4Addr::new(9, 9, 9, 9);
        let sink = sim.add_node(
            target,
            CpuConfig::unbounded(),
            Sink {
                received: 0,
                distinct_sources: Default::default(),
            },
        );
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 2),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target,
                rate: 10_000.0,
                sources: SourceStrategy::Fixed(victim),
                payload: AttackPayload::PlainQuery("x.y".parse().unwrap()),
                duration: Some(SimTime::from_millis(10)),
            }),
        );
        sim.run_until(SimTime::from_millis(20));
        let sink_state = sim.node_ref::<Sink>(sink).unwrap();
        assert!(sink_state.received > 50);
        assert_eq!(sink_state.distinct_sources.len(), 1);
        assert!(sink_state.distinct_sources.contains(&victim));
    }

    #[test]
    fn cookie2_spray_stays_in_subnet() {
        let mut sim = Simulator::new(3);
        let base = Ipv4Addr::new(198, 51, 100, 0);
        struct SubnetSink {
            base: u32,
            range: u32,
            received: u64,
        }
        impl Node for SubnetSink {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                let host = u32::from(pkt.dst.ip) - self.base;
                assert!(host >= 1 && host <= self.range, "dst {} outside range", pkt.dst);
                self.received += 1;
            }
        }
        let sink = sim.add_node(
            Ipv4Addr::new(198, 51, 100, 1),
            CpuConfig::unbounded(),
            SubnetSink {
                base: u32::from(base),
                range: 254,
                received: 0,
            },
        );
        sim.add_subnet(base, 24, sink);
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 3),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: Ipv4Addr::new(198, 51, 100, 1),
                rate: 10_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::Cookie2Spray {
                    qname: "www.foo.com".parse().unwrap(),
                    subnet_base: base,
                    range: 254,
                },
                duration: Some(SimTime::from_millis(20)),
            }),
        );
        sim.run_until(SimTime::from_millis(40));
        assert!(sim.node_ref::<SubnetSink>(sink).unwrap().received > 100);
    }
}
