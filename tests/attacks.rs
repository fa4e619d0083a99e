//! Attack-vs-guard integration: the claims of section III.G, executed —
//! cookie guessing, the `COOKIE2` spray, zombies, reflection, the
//! limiter-table flush and the feedback prober's timing side channel.

use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use attack::prober::{FeedbackProber, ProberConfig};
use bench::worlds::{guarded_world_with, GuardedWorld, WorldParams, ZoneSel, PRIV, PUB, SUBNET};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, Simulator};
use netsim::time::SimTime;
use netsim::NodeId;
use server::nodes::{AuthNode, ServerCosts};
use std::net::Ipv4Addr;

/// A guard running `mode` (limiters at their defaults, `GuardConfig`'s own
/// TCP connection lifetime, then `configure`'s edit) in front of an ANS
/// serving `zone`, both on `cpu`, the ANS charging `ans_costs`.
fn guarded_on(
    (seed, zone, mode): (u64, ZoneSel, SchemeMode),
    cpu: CpuConfig,
    ans_costs: ServerCosts,
    configure: impl FnOnce(GuardConfig) -> GuardConfig,
) -> (Simulator, NodeId, NodeId) {
    let p = WorldParams {
        zone,
        mode,
        guard_cpu: cpu,
        ans_cpu: cpu,
        ans_costs,
        open_limiters: false,
        ..WorldParams::new(seed)
    };
    let GuardedWorld { sim, guard, ans } = guarded_world_with(p, |c| {
        configure(GuardConfig {
            tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
            ..c
        })
    });
    (sim, guard, ans)
}

/// [`guarded_on`] unbounded CPUs in front of a free ANS.
fn guarded_with(
    seed: u64,
    zone: ZoneSel,
    mode: SchemeMode,
    configure: impl FnOnce(GuardConfig) -> GuardConfig,
) -> (Simulator, NodeId, NodeId) {
    guarded_on((seed, zone, mode), CpuConfig::unbounded(), ServerCosts::free(), configure)
}

fn guarded(seed: u64, zone: ZoneSel, mode: SchemeMode) -> (Simulator, NodeId, NodeId) {
    guarded_with(seed, zone, mode, |c| c)
}

#[test]
fn random_ns_cookie_guesses_blocked_at_2_32_rate() {
    let (mut sim, guard, ans) = guarded(1, ZoneSel::Root, SchemeMode::DnsBased);
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
    let (mut sim, guard, ans) = guarded(2, ZoneSel::Foo, SchemeMode::ModifiedOnly);
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
    let (mut sim, guard, _ans) = guarded(3, ZoneSel::Foo, SchemeMode::DnsBased);
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
    let (mut sim, guard, ans) = guarded_with(4, ZoneSel::Root, SchemeMode::DnsBased, |c| GuardConfig {
        rl2_per_source_rate: 100.0, // the "nominal, very low" rate
        ..c
    });

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
    let (mut sim, guard, _ans) = guarded(5, ZoneSel::Root, SchemeMode::DnsBased);
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
/// The table-flush adversary ([`attack::spray`]): with the global budget
/// opened, 70 000 sprayed sources are answered at the guard's full
/// speed, and the victim's address starts being hammered at ten times
/// its rate in the window in which the spray passes its 65 536th
/// source. The victim is owed its burst once; a limiter that forgot it
/// under the spray would pay it again in the same window.
#[test]
fn source_spray_never_refreshes_the_hammered_victims_burst() {
    use attack::spray::{victim_packets_per_window, FlushSpray};
    use dnsguard::guard::WINDOW;

    let (mut sim, guard, _) = guarded_with(6, ZoneSel::Foo, SchemeMode::TcpBased, |c| GuardConfig {
        rl1_global_rate: 1e12,
        ..c
    });
    // Short links: a window at the victim is the same window at the guard.
    sim.set_default_delay(SimTime::from_micros(50));
    let rate = sim.node_ref::<RemoteGuard>(guard).unwrap().config().rl1_per_source_rate;
    let burst = 10.0;

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

const VICTIM: Ipv4Addr = Ipv4Addr::new(44, 1, 1, 1);

/// Builds the probing scenario: a guard with Rate-Limiter1 open and
/// Rate-Limiter2 at `rl2_rate`, in front of a BIND-cost ANS serving
/// foo.com, both on default CPUs, and a prober hunting the victim's
/// `COOKIE2` offset. Returns (sim, guard, prober, correct_y).
fn scenario(seed: u64, rl2_rate: f64) -> (Simulator, NodeId, NodeId, u32) {
    let world = (seed, ZoneSel::Foo, SchemeMode::DnsBased);
    let (mut sim, guard, _) = guarded_on(world, CpuConfig::default(), ServerCosts::bind9(), |c| GuardConfig {
        rl2_per_source_rate: rl2_rate,
        rl1_global_rate: 1e12,
        rl1_per_source_rate: 1e12,
        ..c
    });
    // The correct COOKIE2 offset for the victim (what the attacker is
    // hunting for). Recover it by asking the factory directly.
    let correct_addr = {
        // generate_subnet_offset with the public-address exclusion:
        // reproduce via the guard's own encode path by probing.
        let y = sim
            .node_ref::<RemoteGuard>(guard)
            .unwrap()
            .cookie_factory()
            .generate_subnet_offset(VICTIM, 253);
        // public addr offset is 3 (198.41.0.4 = base+1+3): mirror the
        // guard's skip logic.
        if y >= 3 {
            y + 1
        } else {
            y
        }
    };
    // Candidates: a few wrong guesses plus the correct one.
    let candidates = vec![7, 42, correct_addr, 99, 123];
    let prober_ip = Ipv4Addr::new(66, 0, 0, 7);
    let prober = sim.add_node(
        prober_ip,
        CpuConfig::unbounded(),
        FeedbackProber::new(ProberConfig {
            attacker: prober_ip,
            victim: VICTIM,
            guard: PUB,
            subnet_base: SUBNET,
            candidates,
            burst_rate: 100_000.0,
            burst_len: SimTime::from_millis(100),
            probes_per_candidate: 8,
        }),
    );
    (sim, guard, prober, correct_addr)
}

#[test]
fn open_rate_limiter_leaks_the_guess_through_timing() {
    // With Rate-Limiter2 wide open, the correct guess floods the BIND
    // ANS and the attacker's probes slow down measurably.
    let (mut sim, _guard, prober, correct) = scenario(1, 1e12);
    sim.run_until(SimTime::from_secs(2));
    let p = sim.node_ref::<FeedbackProber>(prober).unwrap();
    assert!(p.finished());
    assert_eq!(
        p.best_guess(),
        Some(correct),
        "timing side channel identifies the correct y: {:?}",
        p.results
    );
}

#[test]
fn rate_limiter2_hides_the_signal() {
    // With the nominal per-host rate, even the correct guess cannot
    // load the ANS, so the probe timing carries no signal strong enough
    // to stand out: the correct candidate's latency stays within 2x of
    // the slowest wrong candidate (no reliable oracle).
    let (mut sim, guard, prober, correct) = scenario(2, 100.0);
    sim.run_until(SimTime::from_secs(2));
    let p = sim.node_ref::<FeedbackProber>(prober).unwrap();
    assert!(p.finished());
    let correct_row = p.results.iter().find(|r| r.y == correct).unwrap();
    let worst_wrong = p
        .results
        .iter()
        .filter(|r| r.y != correct)
        .map(|r| r.mean_probe_latency)
        .max()
        .unwrap();
    assert!(
        correct_row.mean_probe_latency <= worst_wrong * 2,
        "RL2 should flatten the timing contrast: correct {} vs wrong max {}",
        correct_row.mean_probe_latency,
        worst_wrong
    );
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert!(g.stats().rl2_dropped > 1_000, "the correct-y flood was throttled");
}
