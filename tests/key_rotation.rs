//! Long-horizon key rotation: the guard rotates its secret on a schedule
//! (section III.E: weekly), cached cookies survive exactly one rotation
//! (the generation-bit grace window), and clients whose cookies expire
//! recover by re-running the exchange. The worlds compress the week to
//! 300 ms of simulated time by rotating at those instants themselves.

mod common;

use common::{World, WorldBuilder};
use dnsguard::guard::RemoteGuard;
use guardhash::cookie::{CookieAlg, CookieFactory};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// The compressed rotation period.
const PERIOD: SimTime = SimTime::from_millis(300);

/// Runs `w` until `until`, rotating the guard's key at every multiple of
/// [`PERIOD`] on the way.
fn run_rotating(w: &mut World, until: SimTime) {
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
    let mut w = WorldBuilder::new(77).build();

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
        w.completed() > 2_000,
        "sustained service across rotations: {} completed",
        w.completed()
    );
    // Check the last 500 ms specifically: still alive at the end.
    let before = w.completed();
    run_rotating(&mut w, SimTime::from_millis(2_500));
    let after = w.completed();
    assert!(after > before + 200, "still completing at the end: {}", after - before);
}

#[test]
fn stale_cookie_rejected_then_client_recovers() {
    let mut w = WorldBuilder::new(78).build();
    w.sim.run_until(SimTime::from_millis(100));
    let completed_before = w.completed();
    assert!(completed_before > 0);

    // Two manual rotations: every cookie issued so far is now invalid.
    for _ in 0..2 {
        w.sim.node_mut::<RemoteGuard>(w.guard).unwrap().rotate_key();
    }
    w.sim.run_until(SimTime::from_millis(400));

    assert!(
        w.guard_stats().ns_cookie_invalid > 0,
        "the stale cached cookie was rejected at least once"
    );
    assert!(w.timeouts() >= 2, "client noticed the outage");
    assert!(
        w.completed() > completed_before + 100,
        "client re-ran the exchange and resumed: {} → {}",
        completed_before,
        w.completed()
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
    let mut w = WorldBuilder::new(79).tweak(|c| c.cookie_alg = CookieAlg::Md5).build();
    run_rotating(&mut w, SimTime::from_secs(2));

    let g = w.sim.node_ref::<RemoteGuard>(w.guard).unwrap();
    assert!(
        g.cookie_factory().generation() >= 5,
        "several rotations happened: generation {}",
        g.cookie_factory().generation()
    );
    assert!(
        w.completed() > 2_000,
        "sustained service across MD5 rotations: {} completed",
        w.completed()
    );
}
