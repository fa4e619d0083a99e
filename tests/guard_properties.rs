//! Properties of the guard over arbitrary inputs: junk, spoofed guesses,
//! legitimate requesters from any address, the disposition buckets and the
//! checkpoint round trip.

use bench::worlds::{attach_lrs, attach_stub, guarded_world_with, GuardedWorld, LrsParams, WorldParams, ZoneSel, PRIV, PUB};
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use dnswire::message::Message;
use dnswire::types::RrType;
use guardhash::cookie::CookieFactory;
use netsim::engine::CpuConfig;
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use proptest::prelude::*;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::simclient::{CookieMode, LrsSimulator};
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

/// A guard running `mode` (limiters at their defaults, `GuardConfig`'s own
/// TCP connection lifetime) on an unbounded CPU in front of a free ANS
/// serving `zone`.
fn world(seed: u64, zone: ZoneSel, mode: SchemeMode) -> GuardedWorld {
    let unbounded = CpuConfig::unbounded();
    let p = WorldParams {
        zone,
        mode,
        guard_cpu: unbounded,
        ans_cpu: unbounded,
        ans_costs: ServerCosts::free(),
        open_limiters: false,
        ..WorldParams::new(seed)
    };
    guarded_world_with(p, |c| GuardConfig {
        tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
        ..c
    })
}

/// A plain-DNS closed-loop client (10 ms wait, 2 µs a packet) at `ip`.
fn client(ip: Ipv4Addr, mode: CookieMode) -> LrsParams {
    LrsParams {
        ip,
        mode,
        cookie_cache: true,
        concurrency: 1,
        wait: SimTime::from_millis(10),
        pace: SimTime::ZERO,
        per_packet_cost: SimTime::from_micros(2),
    }
}

/// Fires spoofed datagrams (one source per payload) at the guard from a
/// stub at `8.0.0.1`.
fn spam(w: &mut GuardedWorld, payloads: Vec<Vec<u8>>) {
    let datagrams = payloads.into_iter().enumerate().map(|(i, p)| {
        let src = Endpoint::new(Ipv4Addr::from(0x0800_0000 + i as u32), 1234);
        (SimTime::ZERO, Packet::udp(src, Endpoint::new(PUB, DNS_PORT), p))
    });
    attach_stub(&mut w.sim, Ipv4Addr::new(8, 0, 0, 1), datagrams);
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
        let mut w = world(1, ZoneSel::Root, SchemeMode::DnsBased);
        spam(&mut w, payloads);
        w.sim.run_until(SimTime::from_millis(20));
        // Random bytes essentially never decode as a well-formed DNS
        // query, so nothing should be forwarded.
        let ans_node = w.sim.node_ref::<AuthNode>(w.ans).unwrap();
        prop_assert_eq!(ans_node.total_queries(), 0);
    }

    /// No false positives: a protocol-following requester from *any*
    /// address completes requests through the guard, in every scheme.
    #[test]
    fn any_legitimate_address_served(a in 1u8..250, b in 1u8..250, mode_sel in 0usize..3) {
        let (zone, lrs_mode, guard_mode) = match mode_sel {
            0 => (ZoneSel::Root, CookieMode::Plain, SchemeMode::DnsBased),
            1 => (ZoneSel::Foo, CookieMode::Plain, SchemeMode::DnsBased),
            _ => (ZoneSel::Foo, CookieMode::Extension, SchemeMode::ModifiedOnly),
        };
        let GuardedWorld { mut sim, guard, .. } = world(u64::from(a) << 8 | u64::from(b), zone, guard_mode);
        let lrs_ip = Ipv4Addr::new(172, a, b, 1);
        let lrs = attach_lrs(&mut sim, client(lrs_ip, lrs_mode));
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
        let mut w = world(seed, ZoneSel::Root, SchemeMode::DnsBased);
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
        spam(&mut w, payloads);
        w.sim.run_until(SimTime::from_millis(20));
        let gs = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
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
        use dnsguard::guard::{GuardCore, Leg, Output, Outputs};
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
        use dnsguard::checkpoint::GuardCheckpoint;

        let GuardedWorld { mut sim, guard, .. } = world(kinds.len() as u64 ^ delay_ms, ZoneSel::Root, SchemeMode::DnsBased);
        attach_lrs(&mut sim, client(Ipv4Addr::new(172, 16, 0, 1), CookieMode::Plain));
        let pkts = kinds.iter().enumerate().map(|(i, &k)| (SimTime::ZERO, craft(k, i)));
        attach_stub(&mut sim, Ipv4Addr::new(9, 0, 0, 1), pkts);
        sim.run_until(SimTime::from_millis(40));
        for _ in 0..rotations {
            sim.node_mut::<RemoteGuard>(guard).unwrap().rotate_key();
        }
        sim.run_until(SimTime::from_millis(50));

        let now = sim.now();
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        let config = g.config().clone();
        let cp = g.checkpoint(now);
        let decoded = GuardCheckpoint::decode(&cp.encode()).expect("wire round-trip");
        prop_assert_eq!(decoded.seq, cp.seq);
        prop_assert_eq!(decoded.taken_at_nanos, cp.taken_at_nanos);
        prop_assert_eq!(decoded.fwd.len(), cp.fwd.len());
        prop_assert_eq!(decoded.stash.len(), cp.stash.len());

        let later = now + SimTime::from_millis(delay_ms);
        let restored = RemoteGuard::restore_from_checkpoint(
            config.clone(),
            AuthorityClassifier::new(Authority::new(vec![paper_hierarchy().0])),
            &decoded,
            later,
        );
        // The generation round-trips and the restored guard re-derives its
        // keys from its own seed: a cookie of every generation so far — one
        // granted before a rotation, one two rotations old — and a forgery
        // of each get the verdicts they got before.
        prop_assert_eq!(
            restored.cookie_factory().generation(),
            g.cookie_factory().generation()
        );
        for oct in [1u8, 77, 201] {
            let ip = Ipv4Addr::new(172, 16, 9, oct);
            for generation in 0..=u64::from(rotations) {
                let issuer = CookieFactory::at_generation(config.key_seed, generation, config.cookie_alg);
                let mut cookie = issuer.generate(ip);
                for forged in [false, true] {
                    cookie.0[5] ^= u8::from(forged);
                    prop_assert_eq!(
                        restored.cookie_factory().verify(ip, &cookie),
                        g.cookie_factory().verify(ip, &cookie),
                        "{} at generation {}, forged: {}", ip, generation, forged
                    );
                }
            }
            prop_assert!(
                restored.cookie_factory().verify(ip, &g.cookie_factory().generate(ip)),
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
