//! Anycast-fleet chaos suite: a BGP catchment shift lands mid-flood while
//! the shifted paths are simultaneously lossy and reordering. With one
//! SipHash `key_seed` at both sites the shifted clients' cached cookies
//! verify at the new site on arrival, so the only damage the chaos can do
//! is what loss always does — delay individual transactions. The suite
//! asserts the two fleet invariants end to end: previously-verified
//! clients keep resolving through the shift, and not one spoofed datagram
//! reaches either authoritative server.

use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use bench::worlds::{completions, fleet_world, unverified_at_ans, verified_clients, FleetWorld, PUB};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, FaultPlan};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

const CLIENTS: u8 = 30;
const SHIFT_FRACTION: f64 = 0.55;

/// Queries that reached either ANS without passing verification.
fn spoofed_to_ans(w: &FleetWorld) -> u64 {
    unverified_at_ans(&w.sim, &[w.site_a, w.site_b], &[w.ans_a, w.ans_b])
}

struct ChaosOutcome {
    shifted: Vec<usize>,
    continued: usize,
    all_continued: usize,
    cookie2_invalid: u64,
    /// Site A's and site B's key generations at the end.
    generations: [u64; 2],
    spoofed: u64,
}

/// Warm a verified cohort at site A, light a cookie-guess flood, then move
/// 55% of sources to site B over a link that also drops 10% of datagrams
/// and reorders a further 20% — a routing event and a degraded path at
/// once. Optionally rotate the fleet secret at both sites while the
/// catchment is split.
fn run_chaos_shift(seed: u64, rotate_mid_shift: bool) -> ChaosOutcome {
    let mut w = fleet_world(seed, true);
    let clients = verified_clients(&mut w.sim, CLIENTS).0;

    // Warm-up: the whole cohort must clear RL1's tight budget and cache
    // cookies before the catchment moves.
    w.sim.run_until(SimTime::from_millis(600));

    let attacker = w.sim.add_node(
        Ipv4Addr::new(66, 0, 0, 66),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate: 6_000.0,
            sources: SourceStrategy::Random,
            payload: AttackPayload::CookieLabelGuess {
                zone_suffix: "com".to_string(),
                parent: ".".parse().expect("root name"),
            },
            duration: Some(SimTime::from_millis(1_000)),
        }),
    );

    w.sim.run_until(SimTime::from_millis(700));
    let plan = FaultPlan::new()
        .catchment_shift(SHIFT_FRACTION, w.site_b)
        .loss(0.10)
        .reorder(0.20, SimTime::from_millis(2));
    for &c in &clients {
        w.sim.fault_link(c, w.site_a, plan);
    }
    w.sim.fault_link(attacker, w.site_a, plan);
    let at_shift = completions(&w.sim, &clients);

    if rotate_mid_shift {
        w.sim.run_until(SimTime::from_millis(900));
        for site in [w.site_a, w.site_b] {
            w.sim.node_mut::<RemoteGuard>(site).unwrap().rotate_key();
        }
    }

    w.sim.run_until(SimTime::from_millis(1_900));
    let at_end = completions(&w.sim, &clients);

    let shifted: Vec<usize> = (0..clients.len())
        .filter(|&i| plan.shifts_source(Ipv4Addr::new(10, 0, i as u8 + 1, 1)))
        .collect();
    let continued = shifted.iter().filter(|&&i| at_end[i] > at_shift[i]).count();
    let all_continued = (0..clients.len())
        .filter(|&i| at_end[i] > at_shift[i])
        .count();
    let generation = |site| w.sim.node_ref::<RemoteGuard>(site).unwrap().cookie_factory().generation();
    let generations = [generation(w.site_a), generation(w.site_b)];
    let b = w.sim.node_ref::<RemoteGuard>(w.site_b).unwrap().stats();
    ChaosOutcome {
        shifted,
        continued,
        all_continued,
        cookie2_invalid: b.cookie2_invalid,
        generations,
        spoofed: spoofed_to_ans(&w),
    }
}

/// The headline chaos invariant: a mid-flood shift over a lossy,
/// reordering path strands nobody. Shifted cookies verify at site B (zero
/// key-mismatch rejections) and the flood stays fully contained.
#[test]
fn shift_under_loss_and_reorder_keeps_verified_clients_resolving() {
    let o = run_chaos_shift(71, false);
    assert!(
        o.shifted.len() >= 10,
        "the shift must move a real cohort: {}",
        o.shifted.len()
    );
    assert!(
        o.continued as f64 / o.shifted.len() as f64 >= 0.95,
        "only {}/{} shifted clients kept resolving at site B",
        o.continued,
        o.shifted.len()
    );
    assert_eq!(
        o.cookie2_invalid, 0,
        "loss and reorder must not turn into cookie rejections"
    );
    assert_eq!(
        o.spoofed, 0,
        "no spoofed datagram may reach an ANS, chaos or not"
    );
}

/// Rotating the fleet secret at both sites while the catchment is split —
/// and while the path is degraded — still drops no verified client: each
/// site keeps the previous generation's key, so the grace window is
/// fleet-wide.
#[test]
fn rotation_mid_shift_under_chaos_drops_no_verified_client() {
    let o = run_chaos_shift(73, true);
    assert!(
        o.continued as f64 / o.shifted.len() as f64 >= 0.95,
        "rotation mid-shift stalled shifted clients: {}/{}",
        o.continued,
        o.shifted.len()
    );
    assert!(
        o.all_continued as f64 >= CLIENTS as f64 * 0.95,
        "clients still at site A must be untouched by the rotation: {}/{}",
        o.all_continued,
        CLIENTS
    );
    assert_eq!(o.generations, [1, 1], "both sites rotated once");
    assert_eq!(o.spoofed, 0);
}

/// The per-site MD5 baseline under the same chaos: shifted cookies are
/// rejected at site B (the storm is real), yet containment still holds —
/// the storm hurts availability, never the ANS.
#[test]
fn md5_per_site_storms_but_still_contains_the_flood() {
    let mut w = fleet_world(79, false);
    let clients = verified_clients(&mut w.sim, CLIENTS).0;
    w.sim.run_until(SimTime::from_millis(600));
    let plan = FaultPlan::new()
        .catchment_shift(SHIFT_FRACTION, w.site_b)
        .loss(0.10)
        .reorder(0.20, SimTime::from_millis(2));
    for &c in &clients {
        w.sim.fault_link(c, w.site_a, plan);
    }
    w.sim.run_until(SimTime::from_millis(1_400));
    let b = w.sim.node_ref::<RemoteGuard>(w.site_b).unwrap().stats();
    assert!(
        b.cookie2_invalid > 0,
        "independent per-site secrets must reject the shifted cookies"
    );
    assert!(
        b.fabricated_ns_sent + b.tc_sent + b.grants_sent > 0,
        "rejected clients must be forced into fresh handshakes"
    );
    assert_eq!(spoofed_to_ans(&w), 0, "even mid-storm nothing spoofed passes");
}
