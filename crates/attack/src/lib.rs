//! Attack workload generators for the DNS Guard evaluation — the
//! adversaries of section III.G, as simulator nodes:
//!
//! * [`flood`] — the one open-loop generator, with pluggable payloads
//!   (plain queries, NS-name cookie guesses, extension-cookie guesses, the
//!   `COOKIE2` subnet spray of the 1/R_y attack) and source strategies,
//!   each of which models an adversary or its legitimate look-alike:
//!   - [`SourceStrategy::Random`] — the classic spoofed flood;
//!   - [`SourceStrategy::Fixed`] — one address: a reflection victim, or a
//!     non-spoofed zombie at a high rate, which is exactly what
//!     Rate-Limiter2 throttles;
//!   - [`SourceStrategy::Pool`] — many real sources each at a trickle: a
//!     low-and-slow botnet, individually innocuous, collectively a flood,
//!     detectable only as a source-population anomaly;
//!   - [`SourceStrategy::Zipf`] — a bounded population of real clients
//!     with Zipf popularity: the flash crowd, the legitimate surge the
//!     spoof-vs-flash-crowd discriminator must *not* label as spoofing;
//! * [`amplification`] — the reflection attack and its measuring victim;
//! * [`spray`] — a reflection attack on one victim under a spray of
//!   distinct spoofed sources sized to flush the guard's per-source
//!   limiter table.

#![forbid(unsafe_code)]

pub mod amplification;
pub mod flood;
pub mod poison;
pub mod prober;
pub mod spray;

pub use amplification::Victim;
pub use flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
pub use poison::{
    DerandConfig, FragPoisonConfig, FragPoisoner, KaminskyAttack, KaminskyConfig,
    PortDerandomizer, PortKnowledge,
};
pub use prober::{FeedbackProber, ProberConfig};
pub use spray::FlushSpray;

#[cfg(test)]
mod guard_attack_tests {
    //! Attack-vs-guard integration: the claims of section III.G, executed.

    use crate::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
    use dnsguard::classify::AuthorityClassifier;
    use dnsguard::config::{GuardConfig, SchemeMode};
    use dnsguard::guard::RemoteGuard;
    use netsim::engine::{CpuConfig, Simulator};
    use netsim::time::SimTime;
    use server::authoritative::Authority;
    use server::nodes::AuthNode;
    use server::zone::paper_hierarchy;
    use std::net::Ipv4Addr;

    const PUB: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const PRIV: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
    const SUBNET: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 0);

    fn guarded(seed: u64, zone_idx: usize, mode: SchemeMode) -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let (root, com, foo) = paper_hierarchy();
        let zone = [root, com, foo][zone_idx].clone();
        let authority = Authority::new(vec![zone]);
        let mut sim = Simulator::new(seed);
        let config = GuardConfig {
            subnet_base: SUBNET,
            ..GuardConfig::new(PUB, PRIV)
        }
        .with_mode(mode);
        let guard = sim.add_node(
            PUB,
            CpuConfig::unbounded(),
            RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
        );
        sim.add_subnet(SUBNET, 24, guard);
        let ans = sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority));
        (sim, guard, ans)
    }

    #[test]
    fn random_ns_cookie_guesses_blocked_at_2_32_rate() {
        let (mut sim, guard, ans) = guarded(1, 0, SchemeMode::DnsBased);
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 1),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 100_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::CookieLabelGuess {
                    zone_suffix: "com".into(),
                    parent: dnswire::Name::root(),
                },
                duration: Some(SimTime::from_millis(200)),
            }),
        );
        sim.run_until(SimTime::from_millis(300));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.stats().ns_cookie_invalid > 15_000);
        assert_eq!(g.stats().ns_cookie_valid, 0, "2^32 space: ~0 of 20K guesses pass");
        assert_eq!(sim.node_ref::<AuthNode>(ans).unwrap().total_queries(), 0);
    }

    #[test]
    fn ext_cookie_guesses_blocked_at_2_128_rate() {
        let (mut sim, guard, ans) = guarded(2, 2, SchemeMode::ModifiedOnly);
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 2),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 100_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::ExtCookieGuess("www.foo.com".parse().unwrap()),
                duration: Some(SimTime::from_millis(200)),
            }),
        );
        sim.run_until(SimTime::from_millis(300));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.stats().ext_invalid > 15_000);
        assert_eq!(g.stats().ext_valid, 0);
        assert_eq!(sim.node_ref::<AuthNode>(ans).unwrap().total_queries(), 0);
    }

    #[test]
    fn cookie2_spray_succeeds_at_one_over_ry() {
        // Section III.G: "1/R_y of the attack requests will have a correct
        // cookie value... This is the worst false negative ratio."
        let (mut sim, guard, _ans) = guarded(3, 2, SchemeMode::DnsBased);
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 3),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 250_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::Cookie2Spray {
                    qname: "www.foo.com".parse().unwrap(),
                    subnet_base: SUBNET,
                    range: 254,
                },
                duration: Some(SimTime::from_millis(200)),
            }),
        );
        sim.run_until(SimTime::from_millis(300));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        let seen = g.stats().cookie2_valid + g.stats().cookie2_invalid;
        assert!(seen > 25_000, "spray arrived: {seen}");
        let hit_rate = g.stats().cookie2_valid as f64 / seen as f64;
        let expected = 1.0 / 254.0;
        assert!(
            (hit_rate - expected).abs() < expected, // within ±100% of 1/254
            "hit rate {hit_rate:.5} vs expected {expected:.5}"
        );
    }

    #[test]
    fn zombie_flood_throttled_by_rate_limiter2() {
        // A zombie with a real address and the correct cookie still gets
        // per-host limited by Rate-Limiter2 ("not much damage can be done").
        let (root, _, _) = paper_hierarchy();
        let authority = Authority::new(vec![root]);
        let mut sim = Simulator::new(4);
        let mut config = GuardConfig {
            subnet_base: SUBNET,
            ..GuardConfig::new(PUB, PRIV)
        }
        .with_mode(SchemeMode::DnsBased);
        config.rl2_per_source_rate = 100.0; // the "nominal, very low" rate
        let guard = sim.add_node(
            PUB,
            CpuConfig::unbounded(),
            RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
        );
        sim.add_subnet(SUBNET, 24, guard);
        let ans = sim.add_node(PRIV, CpuConfig::unbounded(), AuthNode::new(PRIV, authority));

        let zombie_ip = Ipv4Addr::new(44, 0, 0, 1);
        let cookie_hex = sim
            .node_ref::<RemoteGuard>(guard)
            .unwrap()
            .cookie_factory()
            .generate(zombie_ip)
            .ns_label_suffix();
        sim.add_node(
            zombie_ip,
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 50_000.0,
                sources: SourceStrategy::Fixed(zombie_ip),
                payload: AttackPayload::PlainQuery(format!("PR{cookie_hex}com").parse().unwrap()),
                duration: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.stats().rl2_dropped > 30_000, "rl2 dropped {}", g.stats().rl2_dropped);
        let served = sim.node_ref::<AuthNode>(ans).unwrap().total_queries();
        assert!(served < 300, "ANS saw only the nominal rate: {served}");
    }

    #[test]
    fn reflection_bounded_by_rate_limiter1() {
        // A spoofed flood tries to use the guard as a reflector against the
        // addresses it spoofs; Rate-Limiter1's global budget caps the
        // response volume no matter how fast the flood.
        let (mut sim, guard, _ans) = guarded(5, 0, SchemeMode::DnsBased);
        sim.add_node(
            Ipv4Addr::new(66, 0, 0, 5),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 200_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
                duration: Some(SimTime::from_secs(1)),
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        // Default global budget: 10K/s. Responses sent ≈ fabricated NS count.
        assert!(g.stats().rl1_dropped > 150_000, "rl1 dropped {}", g.stats().rl1_dropped);
        assert!(
            g.stats().fabricated_ns_sent < 15_000,
            "responses bounded: {}",
            g.stats().fabricated_ns_sent
        );
        // And what *is* reflected amplifies < 1.5× per the DNS-based bound.
        assert!(g.traffic_unverified.amplification() < 1.5);
    }
    /// The table-flush adversary ([`crate::spray`]): with the global budget
    /// opened, 70 000 sprayed sources are answered at the guard's full
    /// speed, and the victim's address starts being hammered at ten times
    /// its rate in the window in which the spray passes its 65 536th
    /// source. The victim is owed its burst once; a limiter that forgot it
    /// under the spray would pay it again in the same window.
    #[test]
    fn source_spray_never_refreshes_the_hammered_victims_burst() {
        use crate::spray::{victim_packets_per_window, FlushSpray};
        use dnsguard::guard::WINDOW;

        let (_, _, foo) = paper_hierarchy();
        let authority = Authority::new(vec![foo]);
        let mut sim = Simulator::new(6);
        // Short links: a window at the victim is the same window at the guard.
        sim.set_default_delay(SimTime::from_micros(50));
        let mut config = GuardConfig {
            subnet_base: SUBNET,
            ..GuardConfig::new(PUB, PRIV)
        }
        .with_mode(SchemeMode::TcpBased);
        config.rl1_global_rate = 1e12;
        let (rate, burst) = (config.rl1_per_source_rate, 10.0);
        let guard = sim.add_node(
            PUB,
            CpuConfig::unbounded(),
            RemoteGuard::new(config, AuthorityClassifier::new(authority)),
        );
        sim.add_subnet(SUBNET, 24, guard);

        // 400 K/s is what the simulated guard's CPU answers: the 65 536th
        // source is admitted 164 ms in.
        let attack = FlushSpray {
            target: PUB,
            victim: Ipv4Addr::new(203, 0, 113, 9),
            victim_rate: 10.0 * rate,
            spray_base: Ipv4Addr::new(32, 0, 0, 0),
            sources: 70_000,
            over: SimTime::from_millis(175),
            qname: "www.foo.com".parse().unwrap(),
        };
        let attackers = [Ipv4Addr::new(66, 0, 6, 1), Ipv4Addr::new(66, 0, 6, 2)];
        let (victim, _) = attack.launch(&mut sim, attackers);

        let per_window = victim_packets_per_window(&mut sim, victim, 4);
        let bound = (rate * WINDOW.as_secs_f64() + burst) as u64;
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.stats().tc_sent > 65_536 + 40, "the spray was admitted: {}", g.stats().tc_sent);
        assert!(
            per_window.iter().all(|&got| got <= bound),
            "responses to the victim per window {per_window:?}, bound {bound}"
        );
        assert!(per_window[1] >= bound - 2, "the hammer's first window spends the burst: {per_window:?}");
        assert!(g.stats().rl1_dropped > 200, "the hammer was throttled");
    }
}
