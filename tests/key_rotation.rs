//! Long-horizon key rotation: the guard rotates its secret on a schedule
//! (section III.E: weekly), cached cookies survive exactly one rotation
//! (the generation-bit grace window), and clients whose cookies expire
//! recover by re-running the exchange. The worlds compress the week to
//! 300 ms of simulated time by rotating at those instants themselves.

use bench::worlds::{attach_lrs, guard_stats, guarded_world_with, lrs_stats, GuardedWorld, LrsParams, WorldParams, PRIV, PUB};
use dnsguard::config::GuardConfig;
use dnsguard::guard::RemoteGuard;
use guardhash::cookie::{CookieAlg, CookieFactory};
use netsim::engine::CpuConfig;
use netsim::time::SimTime;
use netsim::NodeId;
use server::nodes::ServerCosts;
use server::simclient::CookieMode;
use std::net::Ipv4Addr;

/// The compressed rotation period.
const PERIOD: SimTime = SimTime::from_millis(300);

/// A DNS-based guard on an unbounded CPU (limiters open, `GuardConfig`'s
/// own TCP connection lifetime, the cookie hash `alg`) in front of a free
/// ANS serving the root zone, and one closed-loop client (10 ms wait, 2 µs
/// a packet) at `10.0.0.7`.
fn world(seed: u64, alg: CookieAlg) -> (GuardedWorld, NodeId) {
    let unbounded = CpuConfig::unbounded();
    let p = WorldParams {
        guard_cpu: unbounded,
        ans_cpu: unbounded,
        ans_costs: ServerCosts::free(),
        ..WorldParams::new(seed)
    };
    let mut w = guarded_world_with(p, |c| GuardConfig {
        tcp_conn_lifetime: GuardConfig::new(PUB, PRIV).tcp_conn_lifetime,
        ..c.with_cookie_alg(alg)
    });
    let lrs = attach_lrs(
        &mut w.sim,
        LrsParams {
            ip: Ipv4Addr::new(10, 0, 0, 7),
            mode: CookieMode::Plain,
            cookie_cache: true,
            concurrency: 1,
            wait: SimTime::from_millis(10),
            pace: SimTime::ZERO,
            per_packet_cost: SimTime::from_micros(2),
        },
    );
    (w, lrs)
}

/// Runs `w` until `until`, rotating the guard's key at every multiple of
/// [`PERIOD`] on the way.
fn run_rotating(w: &mut GuardedWorld, until: SimTime) {
    let mut next = PERIOD * (w.sim.now().as_nanos() / PERIOD.as_nanos() + 1);
    while next <= until {
        w.sim.run_until(next);
        w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().rotate_key();
        next += PERIOD;
    }
    w.sim.run_until(until);
}

#[test]
fn service_continues_across_scheduled_rotations() {
    let (mut w, lrs) = world(77, CookieAlg::default());

    // Run through ~6 rotation periods.
    run_rotating(&mut w, SimTime::from_secs(2));

    let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    assert!(
        g.cookie_factory().generation() >= 5,
        "several rotations happened: generation {}",
        g.cookie_factory().generation()
    );
    // The client keeps completing; thanks to the one-generation grace
    // window, most rotations are invisible. The client may hit a brief
    // outage (cookie straddling two rotations) but recovers by refreshing.
    assert!(
        lrs_stats(&w.sim, lrs).completed > 2_000,
        "sustained service across rotations: {} completed",
        lrs_stats(&w.sim, lrs).completed
    );
    // Check the last 500 ms specifically: still alive at the end.
    let before = lrs_stats(&w.sim, lrs).completed;
    run_rotating(&mut w, SimTime::from_millis(2_500));
    let after = lrs_stats(&w.sim, lrs).completed;
    assert!(after > before + 200, "still completing at the end: {}", after - before);
}

#[test]
fn stale_cookie_rejected_then_client_recovers() {
    let (mut w, lrs) = world(78, CookieAlg::default());
    w.sim.run_until(SimTime::from_millis(100));
    let completed_before = lrs_stats(&w.sim, lrs).completed;
    assert!(completed_before > 0);

    // Two manual rotations: every cookie issued so far is now invalid.
    for _ in 0..2 {
        w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().rotate_key();
    }
    w.sim.run_until(SimTime::from_millis(400));

    assert!(
        guard_stats(&w.sim, w.guard).ns_cookie_invalid > 0,
        "the stale cached cookie was rejected at least once"
    );
    assert!(lrs_stats(&w.sim, lrs).timeouts >= 2, "client noticed the outage");
    assert!(
        lrs_stats(&w.sim, lrs).completed > completed_before + 100,
        "client re-ran the exchange and resumed: {} → {}",
        completed_before,
        lrs_stats(&w.sim, lrs).completed
    );
}

/// The fleet grace window at the factory level, in both cookie algorithms
/// and every cookie encoding: a cookie minted under epoch `k` verifies at
/// *any* site holding the shared key while the one-rotation overlap is
/// open, and is rejected everywhere once a second rotation closes it. A
/// site with a different secret never accepts it at any point.
#[test]
fn fleet_sites_sharing_a_key_honour_the_rotation_grace_window() {
    for alg in [CookieAlg::Md5, CookieAlg::SipHash24] {
        let ip = Ipv4Addr::new(192, 0, 2, 77);
        let minting_site = CookieFactory::from_seed(2006).with_alg(alg);
        let mut peer_site = CookieFactory::from_seed(2006).with_alg(alg);
        let stranger = CookieFactory::from_seed(4242).with_alg(alg);

        let cookie = minting_site.generate(ip);
        let suffix = cookie.ns_label_suffix();
        let offset = minting_site.generate_subnet_offset(ip, 256);

        // Epoch k: the shared key verifies at the peer in every encoding.
        assert!(peer_site.verify(ip, &cookie), "{alg:?}: raw cookie at peer");
        assert!(
            peer_site.verify_ns_suffix(ip, &suffix),
            "{alg:?}: NS label at peer"
        );
        assert!(
            peer_site.verify_subnet_offset(ip, offset, 256),
            "{alg:?}: subnet offset at peer"
        );
        assert!(
            !stranger.verify(ip, &cookie),
            "{alg:?}: a site outside the fleet must reject"
        );

        // One rotation at the peer: the overlap window is open, the old
        // cookie still lands on the previous key via its generation bit.
        peer_site.rotate();
        assert!(
            peer_site.verify(ip, &cookie),
            "{alg:?}: grace must cover one rotation"
        );
        assert!(
            peer_site.verify_ns_suffix(ip, &suffix),
            "{alg:?}: NS-label grace must cover one rotation"
        );
        assert!(
            peer_site.verify_subnet_offset(ip, offset, 256),
            "{alg:?}: subnet-offset grace must cover one rotation"
        );

        // A second rotation closes the window: rejected in every encoding.
        peer_site.rotate();
        assert!(
            !peer_site.verify(ip, &cookie),
            "{alg:?}: two rotations must expire the cookie"
        );
        assert!(
            !peer_site.verify_ns_suffix(ip, &suffix),
            "{alg:?}: two rotations must expire the NS label"
        );
        assert!(
            !peer_site.verify_subnet_offset(ip, offset, 256),
            "{alg:?}: two rotations must expire the subnet offset"
        );
    }
}

/// Scheduled rotations behave identically under the paper's MD5 cookie as
/// under the default SipHash-2-4 (the two tests above): same generation
/// cadence, same one-rotation grace window, sustained completions
/// throughout.
#[test]
fn md5_cookies_rotate_with_the_same_grace_as_siphash() {
    let (mut w, lrs) = world(79, CookieAlg::Md5);
    run_rotating(&mut w, SimTime::from_secs(2));

    let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    assert!(
        g.cookie_factory().generation() >= 5,
        "several rotations happened: generation {}",
        g.cookie_factory().generation()
    );
    assert!(
        lrs_stats(&w.sim, lrs).completed > 2_000,
        "sustained service across MD5 rotations: {} completed",
        lrs_stats(&w.sim, lrs).completed
    );
}
