//! Open-loop request floods — the attack of Figures 5 and 6, and every
//! other workload whose sender never waits. One pacing loop serves them all;
//! a [`SourceStrategy`] is what tells a spoofed flood from a bounded
//! population of real clients, which is the signal the traffic-analytics
//! discriminator reads.

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

/// How the sender chooses the source address of each packet.
///
/// `Random` draws one `u32` per packet and `Zipf` one `u64`; `Fixed` and
/// `Pool` draw nothing. Members of a population (`Pool`, `Zipf`) send from
/// port `1024 + index % 50 000`, the others from `1024 + sent % 50 000`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceStrategy {
    /// Uniformly random 32-bit addresses (classic spoofed flood).
    Random,
    /// A fixed address — a victim for reflection, a legitimate LRS whose
    /// service the attacker wants degraded, or a zombie's own.
    Fixed(Ipv4Addr),
    /// Round-robin over `count` real addresses from `base`, so every member
    /// sends at exactly `rate / count`: a low-and-slow botnet, each bot
    /// below any per-source threshold, or a limiter-table spray.
    Pool {
        /// First address of the pool.
        base: Ipv4Addr,
        /// Pool size.
        count: u32,
    },
    /// `count` real clients from `base` whose volume follows a Zipf
    /// popularity curve: member `k` (0-based rank) carries weight
    /// `(k + 1)^-s`. A flash crowd — a bounded population that re-queries
    /// heavily, with a few big resolvers dominating.
    Zipf {
        /// Address of the most popular client; rank `k` is `base + k`.
        base: Ipv4Addr,
        /// Population size.
        count: u32,
        /// Zipf exponent (around `1.0`–`1.3` for realistic resolver skew).
        s: f64,
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

/// The flooding node. Open loop: it never waits for anything, and ignores
/// whatever comes back.
pub struct SpoofedFlood {
    config: FloodConfig,
    sent: u64,
    started: SimTime,
    /// `Zipf`: the members' cumulative fixed-point weights, which a uniform
    /// draw binary-searches. Empty otherwise.
    cumulative: Vec<u64>,
    /// `Pool` and `Zipf`: exact datagrams sent per member. Empty otherwise.
    per_source: Vec<u64>,
}

/// Batch period: the flood emits `rate × 100 µs` packets per tick, keeping
/// event counts manageable at 250 K req/s.
const TICK: SimTime = SimTime::from_micros(100);

/// Fixed-point scale of the Zipf weights.
const WEIGHT_SCALE: f64 = 1_000_000.0;

impl SpoofedFlood {
    /// Creates the flood node (precomputing a `Zipf` population's CDF).
    pub fn new(config: FloodConfig) -> Self {
        let members = match config.sources {
            SourceStrategy::Random | SourceStrategy::Fixed(_) => 0,
            SourceStrategy::Pool { count, .. } | SourceStrategy::Zipf { count, .. } => count.max(1),
        };
        let cumulative = match config.sources {
            SourceStrategy::Zipf { s, .. } => (1..=members)
                .scan(0, |acc, k| {
                    *acc += (WEIGHT_SCALE / f64::from(k).powf(s)).max(1.0) as u64;
                    Some(*acc)
                })
                .collect(),
            _ => Vec::new(),
        };
        SpoofedFlood {
            config,
            sent: 0,
            started: SimTime::ZERO,
            cumulative,
            per_source: vec![0; members as usize],
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Exact datagrams sent per population member — index `k` is the
    /// address `base + k` — for `Pool` and `Zipf`; empty for `Random` and
    /// `Fixed`.
    pub fn per_source(&self) -> &[u64] {
        &self.per_source
    }

    /// The source of the packet numbered `self.sent`.
    fn source(&mut self, ctx: &mut Context<'_>) -> Endpoint {
        let port = 1024 + (self.sent % 50_000) as u16;
        let (base, member) = match self.config.sources {
            SourceStrategy::Random => return Endpoint::new(Ipv4Addr::from(ctx.rng().gen::<u32>()), port),
            SourceStrategy::Fixed(ip) => return Endpoint::new(ip, port),
            SourceStrategy::Pool { base, .. } => {
                (base, ((self.sent - 1) % self.per_source.len() as u64) as usize)
            }
            SourceStrategy::Zipf { base, .. } => {
                let total = self.cumulative.last().copied().unwrap_or(1);
                let r = ctx.rng().gen::<u64>() % total;
                (base, self.cumulative.partition_point(|&c| c <= r))
            }
        };
        self.per_source[member] += 1;
        let ip = Ipv4Addr::from(u32::from(base).wrapping_add(member as u32));
        Endpoint::new(ip, 1024 + (member % 50_000) as u16)
    }

    fn build_packet(&mut self, ctx: &mut Context<'_>) -> Packet {
        let txid = (self.sent % 0xFFFF) as u16;
        let src = self.source(ctx);

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

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
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

    #[test]
    fn every_bot_stays_below_per_source_rate_but_aggregate_floods() {
        let mut sim = Simulator::new(12);
        let target = Ipv4Addr::new(1, 2, 3, 4);
        let base = Ipv4Addr::new(130, 0, 0, 1);
        struct PortSink {
            base: u32,
            received: u64,
        }
        impl Node for PortSink {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                let member = u32::from(pkt.src.ip) - self.base;
                assert_eq!(u32::from(pkt.src.port), 1024 + member % 50_000, "bot {member}'s port");
                self.received += 1;
            }
        }
        let sink = sim.add_node(
            target,
            CpuConfig::unbounded(),
            PortSink {
                base: u32::from(base),
                received: 0,
            },
        );
        let bots = sim.add_node(
            Ipv4Addr::new(78, 0, 0, 1),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target,
                rate: 2_000.0 * 4.0,
                sources: SourceStrategy::Pool { base, count: 2_000 },
                payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
                duration: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let b = sim.node_ref::<SpoofedFlood>(bots).unwrap();
        // Aggregate ≈ 8000/s — a flood —
        assert!((b.sent() as f64 - 8_000.0).abs() < 300.0, "aggregate {}", b.sent());
        let received = sim.node_ref::<PortSink>(sink).unwrap().received;
        assert!(received + 10 >= b.sent(), "delivered {received} of {}", b.sent());
        // — while every bot individually sent ≈ 4 queries.
        assert!(b.per_source().iter().all(|&c| c <= 5), "low and slow per bot");
        assert_eq!(b.per_source().iter().sum::<u64>(), b.sent());
    }

    #[test]
    fn crowd_is_bounded_zipf_skewed_and_paced() {
        let mut sim = Simulator::new(11);
        let target = Ipv4Addr::new(1, 2, 3, 4);
        sim.add_node(
            target,
            CpuConfig::unbounded(),
            Sink {
                received: 0,
                distinct_sources: Default::default(),
            },
        );
        let crowd = sim.add_node(
            Ipv4Addr::new(77, 0, 0, 1),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target,
                rate: 20_000.0,
                sources: SourceStrategy::Zipf {
                    base: Ipv4Addr::new(120, 0, 0, 1),
                    count: 300,
                    s: 1.2,
                },
                payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
                duration: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let c = sim.node_ref::<SpoofedFlood>(crowd).unwrap();
        assert!((c.sent() as f64 - 20_000.0).abs() < 500.0, "paced: {}", c.sent());
        assert_eq!(c.per_source().iter().sum::<u64>(), c.sent(), "ground truth conserves");
        // Bounded population…
        let distinct_used = c.per_source().iter().filter(|&&n| n > 0).count();
        assert!(distinct_used <= 300);
        assert!(distinct_used > 250, "most of the crowd shows up");
        // …with Zipf skew: rank 1 dwarfs the median client.
        let top = c.per_source()[0];
        let median = {
            let mut v = c.per_source().to_vec();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(
            top > median * 20,
            "rank-1 client ({top}) should dwarf the median ({median})"
        );
    }
}
