//! A deterministic discrete-event network and CPU simulator.
//!
//! This crate is the testbed substitute for the DNS Guard reproduction: the
//! paper evaluated a Linux-kernel firewall module on a six-machine gigabit
//! testbed; here the same protocols run over a simulated network whose
//! observable quantities — request latency in RTTs, request throughput at
//! CPU saturation, CPU-utilisation curves, packet/byte counts — are modelled
//! explicitly:
//!
//! * [`engine`] — event queue, IPv4 routing (exact + longest-prefix), link
//!   delays/loss, and a serial-CPU service model with bounded backlog;
//! * [`tcp`] — a small TCP: 3-way handshake, sequence numbers, SYN cookies,
//!   data, FIN teardown;
//! * [`tokenbucket`] — the rate-limiter primitive used by the guard;
//! * [`cost`] — the CPU cost constants calibrated once from the paper's own
//!   Table III (see module docs for the derivation);
//! * [`metrics`] — latency recorders and traffic (amplification)
//!   accounting;
//! * [`time`] / [`packet`] — nanosecond simulated time and IPv4/UDP/TCP
//!   packets whose `src` is whatever the sender claims (spoofing is just
//!   lying in that field, exactly as on the real Internet).

#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
pub mod metrics;
pub mod packet;
pub mod tcp;
pub mod time;
pub mod tokenbucket;

pub use engine::{
    Context, CpuConfig, CpuStats, FaultPlan, FaultStats, FragSub, LinkParams, Node, NodeId,
    Simulator,
};
pub use packet::{Endpoint, Packet, Proto, DNS_PORT};
pub use time::SimTime;
pub use tokenbucket::TokenBucket;

#[cfg(test)]
mod proptests {
    use crate::engine::{Context, CpuConfig, FaultPlan, Node, Simulator};
    use crate::packet::{Endpoint, Packet};
    use crate::tcp::{ConnKey, TcpEvent, TcpHost};
    use crate::time::SimTime;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    struct Pinger {
        me: Endpoint,
        peer: Endpoint,
        to_send: u32,
        echoes: u32,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.to_send {
                ctx.send(Packet::udp(self.me, self.peer, vec![1]));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
            self.echoes += 1;
        }
    }

    struct Echo {
        cost: SimTime,
    }
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            ctx.charge(self.cost);
            ctx.send(Packet::udp(pkt.dst, pkt.src, pkt.payload));
        }
    }

    /// Connects, sends every message, then closes.
    struct TcpSender {
        me: Endpoint,
        peer: Endpoint,
        msgs: Vec<Vec<u8>>,
        host: TcpHost,
        key: Option<ConnKey>,
    }
    impl Node for TcpSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let (key, syn) = self.host.connect(self.me, self.peer);
            self.key = Some(key);
            ctx.send(syn);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            let mut out = Vec::new();
            for ev in self.host.on_segment(&pkt, &mut out) {
                if let TcpEvent::Connected(key) = ev {
                    for msg in self.msgs.drain(..) {
                        if let Some(p) = self.host.send(key, msg) {
                            out.push(p);
                        }
                    }
                    if let Some(fin) = self.host.close(key) {
                        out.push(fin);
                    }
                }
            }
            for p in out {
                ctx.send(p);
            }
        }
    }

    /// Accepts one connection and records the byte stream it observes.
    struct TcpReceiver {
        host: TcpHost,
        received: Vec<u8>,
        closed: bool,
    }
    impl Node for TcpReceiver {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            let mut out = Vec::new();
            for ev in self.host.on_segment(&pkt, &mut out) {
                match ev {
                    TcpEvent::Data(_, d) => self.received.extend_from_slice(&d),
                    TcpEvent::Closed(_) => self.closed = true,
                    _ => {}
                }
            }
            for p in out {
                ctx.send(p);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Conservation: with unbounded CPUs and lossless links, every ping
        /// comes back, regardless of load and cost parameters.
        #[test]
        fn lossless_unbounded_conserves_packets(n in 1u32..200, cost_us in 0u64..50, seed in any::<u64>()) {
            let mut sim = Simulator::new(seed);
            let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 999);
            let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53);
            let pinger = sim.add_node(a.ip, CpuConfig::unbounded(), Pinger { me: a, peer: b, to_send: n, echoes: 0 });
            sim.add_node(b.ip, CpuConfig::unbounded(), Echo { cost: SimTime::from_micros(cost_us) });
            sim.run();
            prop_assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().echoes, n);
        }

        /// CPU utilisation never exceeds 1 and busy time never exceeds
        /// elapsed time.
        #[test]
        fn utilization_bounded(n in 1u32..500, cost_us in 1u64..100, seed in any::<u64>()) {
            let mut sim = Simulator::new(seed);
            let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 999);
            let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53);
            sim.add_node(a.ip, CpuConfig::unbounded(), Pinger { me: a, peer: b, to_send: n, echoes: 0 });
            let echo = sim.add_node(b.ip, CpuConfig::default(), Echo { cost: SimTime::from_micros(cost_us) });
            sim.run();
            let stats = sim.cpu_stats(echo);
            prop_assert!(stats.busy <= sim.now());
            prop_assert!(stats.utilization(sim.now()) <= 1.0);
            prop_assert_eq!(stats.delivered + stats.dropped, n as u64);
        }

        /// TCP delivery semantics under duplication + reordering (no loss):
        /// the receiver sees each byte stream in order, exactly once, and
        /// observes the close.
        #[test]
        fn tcp_exactly_once_under_duplication_and_reordering(
            seed in any::<u64>(),
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..50), 1..20),
            dup_pct in 0u32..50,
            jitter_us in 1u64..500,
        ) {
            let dup = f64::from(dup_pct) / 100.0;
            let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40_000);
            let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53);
            let expected: Vec<u8> = msgs.concat();

            let mut sim = Simulator::new(seed);
            let sender = sim.add_node(a.ip, CpuConfig::unbounded(), TcpSender {
                me: a,
                peer: b,
                msgs,
                host: TcpHost::new(1),
                key: None,
            });
            let receiver = sim.add_node(b.ip, CpuConfig::unbounded(), {
                let mut host = TcpHost::new(2);
                host.listen(53);
                host.enable_syn_cookies();
                TcpReceiver { host, received: Vec::new(), closed: false }
            });
            sim.fault_link_both(
                sender,
                receiver,
                FaultPlan::new().duplicate(dup).reorder(0.5, SimTime::from_micros(jitter_us)),
            );
            sim.run();

            let rx = sim.node_ref::<TcpReceiver>(receiver).unwrap();
            prop_assert_eq!(&rx.received, &expected, "in order, exactly once");
            prop_assert!(rx.closed, "FIN delivered and ordered");
        }

        /// Determinism: identical seeds and workloads give identical
        /// outcomes even with lossy links.
        #[test]
        fn deterministic(seed in any::<u64>(), n in 1u32..100) {
            let run = || {
                let mut sim = Simulator::new(seed);
                let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 999);
                let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53);
                let pinger = sim.add_node(a.ip, CpuConfig::unbounded(), Pinger { me: a, peer: b, to_send: n, echoes: 0 });
                let echo = sim.add_node(b.ip, CpuConfig::default(), Echo { cost: SimTime::from_micros(3) });
                sim.connect(pinger, echo, crate::engine::LinkParams { delay: SimTime::from_micros(50), loss: 0.2 });
                sim.run();
                (sim.node_ref::<Pinger>(pinger).unwrap().echoes, sim.now().as_nanos())
            };
            prop_assert_eq!(run(), run());
        }
    }
}
