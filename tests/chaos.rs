//! Chaos suite: every cookie scheme against every network fault the engine
//! can inject — duplication, reordering, corruption, partitions and ANS
//! crash/restart — asserting the recovery invariants:
//!
//! * **convergence** — legitimate clients keep completing requests once the
//!   fault clears (and usually during it);
//! * **no false positives** — byte-preserving faults (duplication,
//!   reordering, partitions, crashes) never make a protocol-following
//!   client look spoofed;
//! * **bounded amplification** — Rate-Limiter1 caps cookie responses even
//!   when the network duplicates every spoofed query, and caps them per
//!   victim in every window even while a source spray sized to flush its
//!   table is admitted around the victim;
//! * **resource reclamation** — the TCP proxy reaps connections whose FINs
//!   were lost, and the guard's tables stay within their byte bounds.

use bench::worlds::{
    attach_lrs, attach_stub, guard_stats, guarded_world_with, lrs_stats, GuardedWorld, LrsParams, WorldParams, ZoneSel,
    PRIV, PUB,
};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, FaultPlan};
use netsim::time::SimTime;
use netsim::NodeId;
use server::nodes::ServerCosts;
use server::simclient::CookieMode;
use std::net::Ipv4Addr;

/// The four schemes of the paper, as (seed, zone, guard mode, client
/// capability, label).
const SCHEMES: [(u64, ZoneSel, SchemeMode, CookieMode, &str); 4] = [
    (21, ZoneSel::Root, SchemeMode::DnsBased, CookieMode::Plain, "ns-name"),
    (22, ZoneSel::Foo, SchemeMode::DnsBased, CookieMode::Plain, "fabricated"),
    (23, ZoneSel::Foo, SchemeMode::TcpBased, CookieMode::Plain, "tcp"),
    (24, ZoneSel::Foo, SchemeMode::ModifiedOnly, CookieMode::Extension, "modified"),
];

/// A guard on an unbounded CPU (limiters open, `GuardConfig`'s own TCP
/// connection lifetime, then `configure`'s edit) in front of a free ANS
/// serving `zone`.
fn world(seed: u64, zone: ZoneSel, mode: SchemeMode, configure: impl FnOnce(GuardConfig) -> GuardConfig) -> GuardedWorld {
    let unbounded = CpuConfig::unbounded();
    let p = WorldParams {
        zone,
        mode,
        guard_cpu: unbounded,
        ans_cpu: unbounded,
        ans_costs: ServerCosts::free(),
        ..WorldParams::new(seed)
    };
    guarded_world_with(p, |c| {
        configure(GuardConfig {
            tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
            ..c
        })
    })
}

/// [`world`] and one closed-loop client (5 ms wait, 2 µs a packet) at
/// `10.0.0.7`.
fn scheme_world(
    seed: u64,
    zone: ZoneSel,
    mode: SchemeMode,
    lrs_mode: CookieMode,
    configure: impl FnOnce(GuardConfig) -> GuardConfig,
) -> (GuardedWorld, NodeId) {
    let mut w = world(seed, zone, mode, configure);
    let lrs = attach_lrs(
        &mut w.sim,
        LrsParams {
            ip: Ipv4Addr::new(10, 0, 0, 7),
            mode: lrs_mode,
            cookie_cache: true,
            concurrency: 1,
            wait: SimTime::from_millis(5),
            pace: SimTime::ZERO,
            per_packet_cost: SimTime::from_micros(2),
        },
    );
    (w, lrs)
}

#[test]
fn schemes_converge_under_duplication() {
    for (seed, zone, mode, lrs_mode, label) in SCHEMES {
        let (mut w, lrs) = scheme_world(seed, zone, mode, lrs_mode, |c| c);
        w.sim
            .fault_link_both(lrs, w.guard, FaultPlan::new().duplicate(0.3));
        w.sim.run_until(SimTime::from_secs(1));
        assert!(w.sim.fault_stats().duplicated > 0, "{label}: fault engaged");
        assert!(
            lrs_stats(&w.sim, lrs).completed > 100,
            "{label}: completed {} under 30% duplication",
            lrs_stats(&w.sim, lrs).completed
        );
        assert_eq!(
            guard_stats(&w.sim, w.guard).spoofed_dropped(),
            0,
            "{label}: duplicates of honest traffic must not look spoofed"
        );
    }
}

#[test]
fn schemes_converge_under_reordering() {
    for (seed, zone, mode, lrs_mode, label) in SCHEMES {
        let (mut w, lrs) = scheme_world(seed, zone, mode, lrs_mode, |c| c);
        w.sim.fault_link_both(
            lrs,
            w.guard,
            FaultPlan::new().reorder(0.5, SimTime::from_micros(400)),
        );
        w.sim.run_until(SimTime::from_secs(1));
        assert!(w.sim.fault_stats().reordered > 0, "{label}: fault engaged");
        assert!(
            lrs_stats(&w.sim, lrs).completed > 100,
            "{label}: completed {} under heavy reordering",
            lrs_stats(&w.sim, lrs).completed
        );
        assert_eq!(
            guard_stats(&w.sim, w.guard).spoofed_dropped(),
            0,
            "{label}: reordered honest traffic must not look spoofed"
        );
    }
}

#[test]
fn schemes_converge_under_corruption() {
    for (seed, zone, mode, lrs_mode, label) in SCHEMES {
        let (mut w, lrs) = scheme_world(seed, zone, mode, lrs_mode, |c| c);
        w.sim
            .fault_link_both(lrs, w.guard, FaultPlan::new().corrupt(0.2));
        w.sim.run_until(SimTime::from_secs(1));
        // Corrupted bytes may legitimately fail cookie checks, so no
        // false-positive assertion here — the invariants are "no panic
        // anywhere" (implicit) and continued progress via retries.
        assert!(w.sim.fault_stats().corrupted > 0, "{label}: fault engaged");
        assert!(
            lrs_stats(&w.sim, lrs).completed > 50,
            "{label}: completed {} under 20% corruption",
            lrs_stats(&w.sim, lrs).completed
        );
    }
}

#[test]
fn schemes_converge_across_partition() {
    for (seed, zone, mode, lrs_mode, label) in SCHEMES {
        let (mut w, lrs) = scheme_world(seed, zone, mode, lrs_mode, |c| c);
        w.sim.partition(
            lrs,
            w.guard,
            SimTime::from_millis(200),
            SimTime::from_millis(400),
        );
        w.sim.run_until(SimTime::from_millis(400));
        let at_heal = lrs_stats(&w.sim, lrs).completed;
        assert!(lrs_stats(&w.sim, lrs).timeouts > 0, "{label}: the partition was felt");
        w.sim.run_until(SimTime::from_secs(1));
        assert!(
            w.sim.fault_stats().partition_dropped > 0,
            "{label}: fault engaged"
        );
        assert!(
            lrs_stats(&w.sim, lrs).completed > at_heal + 100,
            "{label}: service resumed after the partition healed ({} → {})",
            at_heal,
            lrs_stats(&w.sim, lrs).completed
        );
        assert_eq!(
            guard_stats(&w.sim, w.guard).spoofed_dropped(),
            0,
            "{label}: post-partition retries must not look spoofed"
        );
    }
}

#[test]
fn schemes_survive_ans_crash_and_restart() {
    for (seed, zone, mode, lrs_mode, label) in SCHEMES {
        // Tighten the health monitor so a 300 ms outage is detected and
        // recovery-probed within the run.
        let (mut w, lrs) = scheme_world(seed, zone, mode, lrs_mode, |c| GuardConfig {
            ans_timeout: SimTime::from_millis(50),
            ans_failure_threshold: 2,
            ans_probe_interval: SimTime::from_millis(100),
            ..c
        });
        w.sim.run_until(SimTime::from_millis(200));
        let before_crash = lrs_stats(&w.sim, lrs).completed;
        assert!(before_crash > 0, "{label}: warm-up completed requests");

        w.sim.crash(w.ans);
        w.sim.run_until(SimTime::from_millis(500));
        let during = guard_stats(&w.sim, w.guard);
        assert!(
            during.ans_timeouts > 0,
            "{label}: forwarded requests timed out during the outage"
        );
        assert!(
            during.ans_down_events >= 1,
            "{label}: health monitor declared the ANS down"
        );
        assert!(during.ans_probes >= 1, "{label}: probes sent while down");

        w.sim.restart(w.ans);
        w.sim.run_until(SimTime::from_millis(1_200));
        let after = guard_stats(&w.sim, w.guard);
        assert!(
            after.ans_recoveries >= 1,
            "{label}: health monitor saw the ANS come back"
        );
        let at_restart = before_crash;
        assert!(
            lrs_stats(&w.sim, lrs).completed > at_restart + 50,
            "{label}: completions resumed after restart ({} → {})",
            at_restart,
            lrs_stats(&w.sim, lrs).completed
        );
        assert_eq!(
            guard_stats(&w.sim, w.guard).spoofed_dropped(),
            0,
            "{label}: an ANS outage must not make clients look spoofed"
        );
    }
}

/// Rate-Limiter1 bounds the guard's cookie-response output even when the
/// network duplicates every inbound spoofed query: the guard cannot be
/// turned into an amplifier by duplication.
#[test]
fn amplification_bounded_under_duplicated_spoofed_flood() {
    use dnswire::message::Message;
    use dnswire::types::RrType;
    use netsim::packet::{Endpoint, Packet, DNS_PORT};

    let GuardedWorld { mut sim, guard, .. } = world(31, ZoneSel::Root, SchemeMode::DnsBased, |c| GuardConfig {
        rl1_global_rate: 1_000.0, // the reflection bound under test
        rl1_per_source_rate: 1_000.0,
        ..c
    });
    // Spoofed plain queries (rotating source addresses), ten every 50 µs:
    // each one solicits a cookie response from the guard.
    let flood = (0..4_000u32).map(|i| {
        let q = Message::iterative_query((i % u32::from(u16::MAX)) as u16, "www.foo.com".parse().unwrap(), RrType::A);
        let src = Endpoint::new(Ipv4Addr::from(0x0a00_0000 + i), 1234);
        let at = SimTime::from_micros(50 * u64::from(i / 10));
        (at, Packet::udp(src, Endpoint::new(PUB, DNS_PORT), q.encode()))
    });
    let attacker = attach_stub(&mut sim, Ipv4Addr::new(66, 6, 6, 6), flood);
    // The network duplicates every attacker packet: 8 000 queries arrive.
    sim.fault_link(attacker, guard, FaultPlan::new().duplicate(1.0));
    sim.run_until(SimTime::from_millis(200));

    assert!(sim.fault_stats().duplicated >= 4_000, "every query duplicated");
    let delivered = sim.cpu_stats(guard).delivered;
    assert!(delivered >= 7_000, "flood actually arrived: {delivered}");
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    let responses = g.stats().fabricated_ns_sent + g.stats().grants_sent + g.stats().tc_sent;
    // 200 ms at 1 000/s plus the burst allowance (rate/10 = 100).
    assert!(
        responses <= 350,
        "cookie responses bounded by RL1 despite duplication: {responses}"
    );
    assert!(
        g.stats().rl1_dropped > 5_000,
        "the overflow was rate-limited, not answered: {}",
        g.stats().rl1_dropped
    );
}

/// The table-flush adversary (`attack::spray`) with the network duplicating
/// every query spoofed from the victim: 70 000 distinct sprayed sources are
/// answered at the guard's full speed (the global budget is open, so the
/// spray is not what is limited), and the victim's address starts arriving
/// at twenty times its rate in the window in which the spray passes its
/// 65 536th source. Responses to the victim stay within the token-bucket
/// bound in every window: the spray makes Rate-Limiter1 forget nothing it
/// needs.
#[test]
fn victim_stays_bounded_while_a_source_spray_flushes_the_limiter() {
    use attack::spray::{victim_packets_per_window, FlushSpray};
    use dnsguard::guard::WINDOW;

    let GuardedWorld { mut sim, guard, .. } = world(37, ZoneSel::Foo, SchemeMode::TcpBased, |c| GuardConfig {
        rl1_per_source_rate: 100.0, // the bucket under test: burst 10
        ..c
    });
    // Short links: a window at the victim is the same window at the guard.
    sim.set_default_delay(SimTime::from_micros(50));
    let bound = (100.0 * WINDOW.as_secs_f64() + 10.0) as u64;
    let attack = FlushSpray {
        target: PUB,
        victim: Ipv4Addr::new(203, 0, 113, 9),
        victim_rate: 1_000.0,
        spray_base: Ipv4Addr::new(32, 0, 0, 0),
        sources: 70_000,
        over: SimTime::from_millis(175), // 400 K/s: what the guard's CPU answers
        qname: "www.foo.com".parse().unwrap(),
    };
    let attackers = [Ipv4Addr::new(66, 6, 6, 1), Ipv4Addr::new(66, 6, 6, 2)];
    let (victim, hammer) = attack.launch(&mut sim, attackers);
    sim.fault_link(hammer, guard, FaultPlan::new().duplicate(1.0));

    let per_window = victim_packets_per_window(&mut sim, victim, 4);
    assert!(sim.fault_stats().duplicated >= 290, "the hammer was duplicated");
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    assert!(g.stats().tc_sent > 65_536 + 30, "the spray was admitted: {}", g.stats().tc_sent);
    assert!(
        per_window.iter().all(|&got| got <= bound),
        "responses to the victim per window {per_window:?}, bound {bound}"
    );
    assert!(per_window[1] >= bound - 2, "the hammer's first window spends the burst: {per_window:?}");
}

/// When the network eats FIN segments, proxied TCP connections are orphaned
/// — the proxy's lifetime reaper must reclaim them instead of leaking.
#[test]
fn tcp_proxy_reaps_connections_when_fins_are_lost() {
    let (mut w, lrs) = scheme_world(41, ZoneSel::Foo, SchemeMode::TcpBased, CookieMode::Plain, |c| c);
    // Lossy client↔guard path: some of every segment type, FINs included,
    // disappears mid-connection.
    w.sim
        .fault_link_both(lrs, w.guard, FaultPlan::new().loss(0.25));
    w.sim.run_until(SimTime::from_secs(1));

    assert!(w.sim.fault_stats().injected_loss > 0, "loss engaged");
    assert!(
        lrs_stats(&w.sim, lrs).completed > 20,
        "client still completes through retries: {}",
        lrs_stats(&w.sim, lrs).completed
    );
    let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    let proxy = g.proxy_stats();
    assert!(
        proxy.reaped > 0,
        "orphaned connections were reaped: {proxy:?}"
    );
    assert!(
        g.proxy_connections() <= 64,
        "no connection leak at end of run: {} live",
        g.proxy_connections()
    );
}
