//! **DNS Guard** — cookie-based spoof detection for DNS servers.
//!
//! This crate is the primary contribution of *"Spoof Detection for
//! Preventing DoS Attacks against DNS Servers"* (Guo, Chen & Chiueh,
//! ICDCS 2006), reproduced in full:
//!
//! * [`guard`] — the **remote guard** firewall module (Figure 4): cookie
//!   checker, scheme dispatch, both rate limiters, ANS forwarding — one
//!   sans-IO [`guard::GuardCore`], with [`guard::RemoteGuard`] driving it
//!   as a simulated node (the `runtime` crate drives it from sockets);
//! * [`local_guard`] — the **local guard** that makes an unmodified LRS
//!   cookie-capable (modified-DNS scheme, Figure 3);
//! * [`tcp_proxy`] — the transparent TCP proxy with SYN cookies,
//!   connection-lifetime reaping and connection-rate limiting;
//! * [`ratelimit`] — Rate-Limiter1 (cookie responses; anti-reflection) and
//!   Rate-Limiter2 (verified requests; anti-non-spoofed-DoS);
//! * [`classify`] — referral/non-referral classification driving the two
//!   DNS-based cookie encodings;
//! * [`config`] — guard deployment configuration.
//!
//! The cookie itself — SipHash-2-4 of the source address by default, or the
//! paper's `MD5(source_ip ‖ 76-byte key)`, with NS-name, subnet-IP and full
//! encodings plus generation-bit rotation — lives in [`guardhash`].
//!
//! # Quick start
//!
//! ```
//! use dnsguard::classify::AuthorityClassifier;
//! use dnsguard::config::{GuardConfig, SchemeMode};
//! use dnsguard::guard::RemoteGuard;
//! use netsim::engine::{CpuConfig, Simulator};
//! use server::authoritative::Authority;
//! use server::nodes::AuthNode;
//! use server::zone::paper_hierarchy;
//! use std::net::Ipv4Addr;
//!
//! let (root, _, _) = paper_hierarchy();
//! let authority = Authority::new(vec![root]);
//! let public = Ipv4Addr::new(198, 41, 0, 4);   // advertised ANS address
//! let private = Ipv4Addr::new(10, 99, 0, 1);   // real ANS behind the guard
//!
//! let mut sim = Simulator::new(7);
//! let config = GuardConfig::new(public, private).with_mode(SchemeMode::DnsBased);
//! let guard = sim.add_node(
//!     public,
//!     CpuConfig::default(),
//!     RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
//! );
//! sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);
//! sim.add_node(private, CpuConfig::default(), AuthNode::new(private, authority));
//! sim.run_until(netsim::SimTime::from_millis(10));
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod analytics;
pub mod checkpoint;
pub mod classify;
pub mod config;
pub mod guard;
pub mod ha;
pub mod local_guard;
pub mod ratelimit;
pub mod tcp_proxy;

pub use admission::{AdmissionController, PressureTier};
pub use checkpoint::GuardCheckpoint;
pub use classify::{AuthorityClassifier, Classification, Classifier};
pub use config::{GuardConfig, SchemeMode};
pub use guard::{GuardCore, GuardStats, RemoteGuard};
pub use ha::{FleetConfig, HaConfig, HaRole};
pub use local_guard::LocalGuard;
pub use ratelimit::SourceRateLimiter;
pub use tcp_proxy::TcpProxy;

#[cfg(test)]
mod proptests {
    use crate::classify::AuthorityClassifier;
    use crate::config::{GuardConfig, SchemeMode};
    use crate::guard::RemoteGuard;
    use dnswire::message::Message;
    use dnswire::types::RrType;
    use netsim::engine::{Context, CpuConfig, Node, Simulator};
    use netsim::packet::{Endpoint, Packet, DNS_PORT};
    use netsim::time::SimTime;
    use proptest::prelude::*;
    use server::authoritative::Authority;
    use server::nodes::AuthNode;
    use server::simclient::{CookieMode, LrsSimConfig, LrsSimulator};
    use server::zone::paper_hierarchy;
    use std::net::Ipv4Addr;

    const PUB: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const PRIV: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);

    /// Fires spoofed packets (one source per payload) at the guard.
    struct Spammer {
        payloads: Vec<Vec<u8>>,
    }
    impl Node for Spammer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for (i, p) in self.payloads.drain(..).enumerate() {
                ctx.send(Packet::udp(
                    Endpoint::new(Ipv4Addr::from(0x0800_0000 + i as u32), 1234),
                    Endpoint::new(PUB, DNS_PORT),
                    p,
                ));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    }

    /// Fires pre-built packets (arbitrary spoofed src/dst) at the guard.
    struct PacketSpammer {
        pkts: Vec<Packet>,
    }
    impl Node for PacketSpammer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for p in self.pkts.drain(..) {
                ctx.send(p);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    }

    /// One adversarial datagram per kind selector, aimed at a different
    /// pipeline disposition.
    fn craft(kind: u8, i: usize) -> Packet {
        use dnswire::cookie_ext;
        let src = Endpoint::new(Ipv4Addr::from(0x0900_0000 + i as u32), 1234);
        let dst = Endpoint::new(PUB, DNS_PORT);
        let q = |name: &str| Message::iterative_query(i as u16, name.parse().unwrap(), RrType::A);
        match kind {
            // Undecodable bytes.
            0 => Packet::udp(src, dst, vec![0xFF; 3 + i % 40]),
            // In-bailiwick plain query.
            1 => Packet::udp(src, dst, q("www.foo.com").encode()),
            // Out-of-bailiwick plain query.
            2 => Packet::udp(src, dst, q("h.elsewhere.example").encode()),
            // Root query.
            3 => Packet::udp(
                src,
                dst,
                Message::iterative_query(i as u16, dnswire::Name::root(), RrType::Ns).encode(),
            ),
            // Cookie grant request (zero cookie).
            4 => {
                let mut m = q("www.foo.com");
                cookie_ext::attach_cookie(&mut m, [0u8; 16], 0);
                Packet::udp(src, dst, m.encode())
            }
            // Forged non-zero extension cookie.
            5 => {
                let mut m = q("www.foo.com");
                cookie_ext::attach_cookie(&mut m, [0xAB; 16], 0);
                Packet::udp(src, dst, m.encode())
            }
            // Forged cookie-embedded NS label.
            6 => Packet::udp(src, dst, q(&format!("PR{i:08x}com")).encode()),
            // Query to a guessed COOKIE2 subnet address.
            7 => Packet::udp(
                src,
                Endpoint::new(Ipv4Addr::new(198, 41, 0, 1 + (i % 250) as u8), DNS_PORT),
                q("www.foo.com").encode(),
            ),
            // Response-flagged datagram from a foreign source.
            8 => {
                let mut m = q("www.foo.com");
                m.header.response = true;
                Packet::udp(src, dst, m.encode())
            }
            // Response-flagged datagram spoofing the ANS address (matches
            // no forward-table entry, or steals a live txid — either way
            // exactly one bucket).
            _ => {
                let mut m = q("www.foo.com");
                m.header.response = true;
                Packet::udp(Endpoint::new(PRIV, DNS_PORT), dst, m.encode())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The guard never panics on junk, and junk never reaches the ANS.
        #[test]
        fn junk_never_reaches_ans(payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80), 1..20)) {
            let (root, _, _) = paper_hierarchy();
            let authority = Authority::new(vec![root]);
            let mut sim = Simulator::new(1);
            let config = GuardConfig::new(PUB, PRIV).with_mode(SchemeMode::DnsBased);
            let _guard = sim.add_node(
                PUB,
                CpuConfig::unbounded(),
                RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
            );
            let ans = sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority));
            sim.add_node(Ipv4Addr::new(8, 0, 0, 1), CpuConfig::unbounded(), Spammer { payloads });
            sim.run_until(SimTime::from_millis(20));
            // Random bytes essentially never decode as a well-formed DNS
            // query, so nothing should be forwarded.
            let ans_node = sim.node_ref::<AuthNode>(ans).unwrap();
            prop_assert_eq!(ans_node.total_queries(), 0);
        }

        /// No false positives: a protocol-following requester from *any*
        /// address completes requests through the guard, in every scheme.
        #[test]
        fn any_legitimate_address_served(a in 1u8..250, b in 1u8..250, mode_sel in 0usize..3) {
            let (root, _, foo) = paper_hierarchy();
            let (zone, lrs_mode, guard_mode) = match mode_sel {
                0 => (root, CookieMode::Plain, SchemeMode::DnsBased),
                1 => (foo, CookieMode::Plain, SchemeMode::DnsBased),
                _ => (foo, CookieMode::Extension, SchemeMode::ModifiedOnly),
            };
            let authority = Authority::new(vec![zone]);
            let mut sim = Simulator::new(u64::from(a) << 8 | u64::from(b));
            let gconfig = GuardConfig::new(PUB, PRIV).with_mode(guard_mode);
            let guard = sim.add_node(
                PUB,
                CpuConfig::unbounded(),
                RemoteGuard::new(gconfig, AuthorityClassifier::new(authority.clone())),
            );
            sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);
            sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority));
            let lrs_ip = Ipv4Addr::new(172, a, b, 1);
            let mut lconfig = LrsSimConfig::new(lrs_ip, PUB, "www.foo.com".parse().unwrap());
            lconfig.mode = lrs_mode;
            let lrs = sim.add_node(lrs_ip, CpuConfig::unbounded(), LrsSimulator::new(lconfig));
            sim.run_until(SimTime::from_millis(60));
            let stats = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats;
            prop_assert!(stats.completed > 0, "no completions for {}", lrs_ip);
            let gs = sim.node_ref::<RemoteGuard>(guard).unwrap();
            prop_assert_eq!(gs.stats().spoofed_dropped(), 0, "false positive for {}", lrs_ip);
        }

        /// Spoofed guessers win at most at the cookie-range rate: 200
        /// random 32-bit guesses essentially never pass.
        #[test]
        fn random_guesses_rejected(seed in any::<u64>()) {
            let (root, _, _) = paper_hierarchy();
            let authority = Authority::new(vec![root]);
            let mut sim = Simulator::new(seed);
            let config = GuardConfig::new(PUB, PRIV).with_mode(SchemeMode::DnsBased);
            let guard = sim.add_node(
                PUB,
                CpuConfig::unbounded(),
                RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
            );
            sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority));
            let payloads: Vec<Vec<u8>> = (0..200u32)
                .map(|i| {
                    let name: dnswire::Name = format!(
                        "PR{:08x}com",
                        i.wrapping_mul(0x9E37_79B9) ^ seed as u32
                    )
                    .parse()
                    .unwrap();
                    Message::iterative_query(i as u16, name, RrType::A).encode()
                })
                .collect();
            sim.add_node(Ipv4Addr::new(8, 0, 0, 1), CpuConfig::unbounded(), Spammer { payloads });
            sim.run_until(SimTime::from_millis(20));
            let gs = sim.node_ref::<RemoteGuard>(guard).unwrap();
            prop_assert!(gs.stats().ns_cookie_valid <= 1, "guesses passed: {}", gs.stats().ns_cookie_valid);
            prop_assert!(gs.stats().ns_cookie_invalid >= 199);
        }

        /// Conservation: every UDP datagram entering the guard pipeline is
        /// counted in exactly one terminal disposition bucket, whatever mix
        /// of legitimate, malformed, spoofed and misdirected traffic
        /// arrives, in every scheme. Driven on the core itself, with no
        /// event engine: a protocol-following requester's verified queries
        /// go in between the junk, and whatever reaches the stand-in ANS
        /// is answered on the upstream leg, so the verify, forward and
        /// relay paths are in the mix.
        #[test]
        fn every_datagram_lands_in_one_bucket(
            kinds in proptest::collection::vec(0u8..10, 1..100),
            mode_sel in 0usize..3,
        ) {
            use crate::guard::{GuardCore, Leg, Output, Outputs};
            use dnswire::cookie_ext;

            let (root, _, foo) = paper_hierarchy();
            let (zone, guard_mode) = match mode_sel {
                0 => (root, SchemeMode::DnsBased),
                1 => (foo, SchemeMode::TcpBased),
                _ => (foo, SchemeMode::ModifiedOnly),
            };
            let authority = Authority::new(vec![zone]);
            let gconfig = GuardConfig::new(PUB, PRIV).with_mode(guard_mode);
            let mut guard = GuardCore::new(gconfig, AuthorityClassifier::new(authority.clone()));
            let lrs = Endpoint::new(Ipv4Addr::new(172, 16, 0, 1), 4000);
            let cookie = guard.cookie_factory().generate(lrs.ip);
            let legit = |i: usize| {
                let id = 0x4000 + i as u16;
                let label = format!("PR{}com", cookie.ns_label_suffix());
                let query = match guard_mode {
                    SchemeMode::DnsBased => Message::iterative_query(id, label.parse().unwrap(), RrType::A),
                    SchemeMode::TcpBased => Message::iterative_query(id, "www.foo.com".parse().unwrap(), RrType::A),
                    SchemeMode::ModifiedOnly => {
                        let mut q = Message::iterative_query(id, "www.foo.com".parse().unwrap(), RrType::A);
                        cookie_ext::attach_cookie(&mut q, cookie.0, 0);
                        q
                    }
                };
                Packet::udp(lrs, Endpoint::new(PUB, DNS_PORT), query.encode())
            };

            let mut out = Outputs::default();
            let mut offered = 0u64;
            let mut relayed = 0u64;
            for (i, &kind) in kinds.iter().enumerate() {
                let mut inbox = vec![craft(kind, i), legit(i)];
                while let Some(pkt) = inbox.pop() {
                    let now = SimTime::from_micros(400 * (1 + offered));
                    let leg = if pkt.src.ip == PRIV { Leg::Upstream } else { Leg::Client };
                    guard.handle_packet(now, leg, pkt, &mut out);
                    offered += 1;
                    for output in out.drain() {
                        match output {
                            Output::ToAns(wire) => {
                                let (answer, _) = authority.answer(&Message::decode(&wire).unwrap());
                                let ans = Endpoint::new(PRIV, DNS_PORT);
                                inbox.push(Packet::udp(ans, Endpoint::new(PUB, DNS_PORT), answer.encode()));
                            }
                            Output::Packet(reply) => relayed += u64::from(reply.dst == lrs),
                            _ => {}
                        }
                    }
                }
            }
            let gs = guard.stats();
            prop_assert_eq!(
                gs.udp_datagrams,
                gs.disposition_total(),
                "disposition buckets must partition the datagram count: {:?}",
                gs
            );
            prop_assert_eq!(gs.udp_datagrams, offered, "every offered datagram was counted");
            prop_assert!(relayed > 0, "the requester was served: {:?}", gs);
        }

        /// Checkpoint round-trip: `restore(checkpoint(g))` survives the
        /// wire encoding, preserves cookie-verification outcomes across any
        /// number of key rotations (generation bit and previous key
        /// included), and never resurrects a forwarding entry that is past
        /// its ANS-timeout deadline at restore time.
        #[test]
        fn checkpoint_restore_preserves_verification_and_drops_expired(
            kinds in proptest::collection::vec(0u8..10, 1..60),
            rotations in 0u8..3,
            delay_ms in 0u64..2_500,
        ) {
            use crate::checkpoint::GuardCheckpoint;

            let (root, _, _) = paper_hierarchy();
            let authority = Authority::new(vec![root]);
            let mut sim = Simulator::new(kinds.len() as u64 ^ delay_ms);
            let config = GuardConfig::new(PUB, PRIV).with_mode(SchemeMode::DnsBased);
            let guard = sim.add_node(
                PUB,
                CpuConfig::unbounded(),
                RemoteGuard::new(config.clone(), AuthorityClassifier::new(authority.clone())),
            );
            sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);
            sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority.clone()));
            let lrs_ip = Ipv4Addr::new(172, 16, 0, 1);
            sim.add_node(
                lrs_ip,
                CpuConfig::unbounded(),
                LrsSimulator::new(LrsSimConfig::new(lrs_ip, PUB, "www.foo.com".parse().unwrap())),
            );
            let pkts: Vec<Packet> = kinds.iter().enumerate().map(|(i, &k)| craft(k, i)).collect();
            sim.add_node(Ipv4Addr::new(9, 0, 0, 1), CpuConfig::unbounded(), PacketSpammer { pkts });
            sim.run_until(SimTime::from_millis(40));
            for _ in 0..rotations {
                sim.node_mut::<RemoteGuard>(guard).unwrap().rotate_key();
            }
            sim.run_until(SimTime::from_millis(50));

            let now = sim.now();
            let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
            let cp = g.checkpoint(now);
            let decoded = GuardCheckpoint::decode(&cp.encode()).expect("wire round-trip");
            prop_assert_eq!(decoded.seq, cp.seq);
            prop_assert_eq!(decoded.taken_at_nanos, cp.taken_at_nanos);
            prop_assert_eq!(decoded.fwd.len(), cp.fwd.len());
            prop_assert_eq!(decoded.stash.len(), cp.stash.len());

            let later = now + SimTime::from_millis(delay_ms);
            let restored = RemoteGuard::restore_from_checkpoint(
                config.clone(),
                AuthorityClassifier::new(authority),
                &decoded,
                later,
            );
            // Key state round-trips exactly: same generation, same current
            // and previous keys, so every cookie — including one granted
            // before a rotation — verifies identically.
            prop_assert_eq!(
                restored.cookie_factory().generation(),
                g.cookie_factory().generation()
            );
            prop_assert_eq!(
                restored.cookie_factory().previous_key().map(|k| *k.as_bytes()),
                g.cookie_factory().previous_key().map(|k| *k.as_bytes())
            );
            for oct in [1u8, 77, 201] {
                let ip = Ipv4Addr::new(172, 16, 9, oct);
                let cookie = g.cookie_factory().generate(ip);
                prop_assert!(
                    restored.cookie_factory().verify(ip, &cookie),
                    "cookie for {} must survive restore",
                    ip
                );
            }
            // Staleness: exactly the entries past the ANS-timeout deadline
            // at restore time are dropped, never replayed.
            let deadline = config.ans_timeout.as_nanos();
            let expected_stale = decoded
                .fwd
                .iter()
                .filter(|f| later.as_nanos().saturating_sub(f.created_nanos) >= deadline)
                .count() as u64;
            prop_assert_eq!(restored.stats().restores, 1);
            prop_assert_eq!(restored.stats().restore_stale_fwd, expected_stale);
            if delay_ms as u128 * 1_000_000 >= deadline as u128 {
                prop_assert_eq!(
                    restored.stats().restore_stale_fwd,
                    decoded.fwd.len() as u64,
                    "past the deadline, every forwarding entry is stale"
                );
            }
        }
    }
}
