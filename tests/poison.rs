//! Cache poisoning against a stock resolver: the Kaminsky race, port
//! derandomization and fragment substitution, each undefended and against
//! the hardening that blanks it. The worlds are `bench::poison`'s.

use attack::poison::{
    craft_evil_tail, target_name, DerandConfig, FragPoisonConfig, FragPoisoner, KaminskyAttack, KaminskyConfig,
    PortDerandomizer, PortKnowledge,
};
use bench::poison::{big_response_wire, poison_world, victim, ATTACKER, EVIL, RESOLVER, VICTIM_NS};
use dnswire::rdata::RData;
use dnswire::types::RrType;
use netsim::engine::{CpuConfig, FragSub, Simulator};
use netsim::packet::DNS_PORT;
use netsim::time::SimTime;
use netsim::NodeId;
use server::hardening::{PortMode, ResolverHardening};
use server::recursive::RecursiveResolver;
use std::net::Ipv4Addr;

fn poisoned_races(sim: &mut Simulator, lrs: NodeId, races: u32) -> u32 {
    let now = sim.now();
    let r = sim.node_mut::<RecursiveResolver>(lrs).unwrap();
    (0..races)
        .filter(|&i| r.poison_check(now, &target_name(&victim(), i), RrType::A, &[]))
        .count() as u32
}

#[test]
fn kaminsky_poisons_undefended_fixed_port_resolver() {
    // Fixed port 53, no defenses: entropy is the 16-bit txid alone.
    // G = 1M/s × 80 ms = 80K guesses/race → p ≈ 0.70 per race.
    let (mut sim, lrs, _) = poison_world(41, ResolverHardening::default(), SimTime::from_millis(50));
    let atk = sim.add_node(
        ATTACKER,
        CpuConfig::unbounded(),
        KaminskyAttack::new(KaminskyConfig {
            attacker: ATTACKER,
            resolver: RESOLVER,
            spoof_server: VICTIM_NS,
            victim_zone: victim(),
            evil: EVIL,
            forge_rate: 1_000_000.0,
            races: 3,
            race_period: SimTime::from_millis(150),
            arm_delay: SimTime::from_micros(500),
            window: SimTime::from_millis(80),
            ports: PortKnowledge::Exact(DNS_PORT),
        }),
    );
    sim.run_until(SimTime::from_millis(600));
    let forged = sim.node_ref::<KaminskyAttack>(atk).unwrap().forged_sent();
    assert!(forged > 200_000, "flood ran: {forged}");
    let wins = poisoned_races(&mut sim, lrs, 3);
    assert!(wins >= 1, "≥1 of 3 races at p≈0.7 each must land (got {wins})");
    let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
    assert!(stats.poison_successes >= 1);
    assert!(stats.poison_attempts >= 1, "lost races leave mismatch tracks");
}

#[test]
fn kaminsky_blanked_by_full_hardening_stack() {
    let (mut sim, lrs, _) = poison_world(42, ResolverHardening::full(), SimTime::from_millis(30));
    let atk = sim.add_node(
        ATTACKER,
        CpuConfig::unbounded(),
        KaminskyAttack::new(KaminskyConfig {
            attacker: ATTACKER,
            resolver: RESOLVER,
            spoof_server: VICTIM_NS,
            victim_zone: victim(),
            evil: EVIL,
            forge_rate: 400_000.0,
            races: 2,
            race_period: SimTime::from_millis(100),
            arm_delay: SimTime::from_micros(500),
            window: SimTime::from_millis(40),
            ports: PortKnowledge::Range {
                base: 32768,
                range: 16384,
            },
        }),
    );
    sim.run_until(SimTime::from_millis(400));
    assert!(sim.node_ref::<KaminskyAttack>(atk).unwrap().forged_sent() > 20_000);
    assert_eq!(poisoned_races(&mut sim, lrs, 2), 0, "full stack: no race lands");
    assert_eq!(
        sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().poison_successes,
        0
    );
}

#[test]
fn derandomizer_observes_sequential_ports_and_poisons() {
    // Sequential ephemeral ports: the probe reveals port P, the next
    // query uses P+1, and the race degenerates to the fixed-port case.
    let hardening = ResolverHardening {
        port_mode: PortMode::Sequential { base: 40_000 },
        ..ResolverHardening::default()
    };
    let (mut sim, lrs, _) = poison_world(43, hardening, SimTime::from_millis(50));
    let atk = sim.add_node(
        ATTACKER,
        CpuConfig::unbounded(),
        PortDerandomizer::new(DerandConfig {
            attacker: ATTACKER,
            probe_zone: "attacker.net".parse().unwrap(),
            resolver: RESOLVER,
            spoof_server: VICTIM_NS,
            victim_zone: victim(),
            evil: EVIL,
            forge_rate: 1_000_000.0,
            races: 3,
            race_period: SimTime::from_millis(150),
            window: SimTime::from_millis(80),
            port_step: 1,
        }),
    );
    sim.run_until(SimTime::from_millis(700));
    let a = sim.node_ref::<PortDerandomizer>(atk).unwrap();
    assert!(a.probes_seen >= 3, "probes answered: {}", a.probes_seen);
    let observed = a.last_observed_port.expect("resolver revealed a port");
    assert!((40_000..50_000).contains(&observed), "sequential pool port: {observed}");
    assert!(a.forged_sent() > 200_000);
    let wins = poisoned_races(&mut sim, lrs, 3);
    assert!(wins >= 1, "derandomized race must land like fixed-port (got {wins})");
}

#[test]
fn derandomizer_defeated_by_randomized_ports() {
    // Same attacker, but keyed-random ports: the P+1 prediction is
    // wrong and forgeries land on closed ports.
    let hardening = ResolverHardening {
        port_mode: PortMode::Randomized {
            base: 32768,
            range: 16384,
        },
        ..ResolverHardening::default()
    };
    let (mut sim, lrs, _) = poison_world(44, hardening, SimTime::from_millis(30));
    sim.add_node(
        ATTACKER,
        CpuConfig::unbounded(),
        PortDerandomizer::new(DerandConfig {
            attacker: ATTACKER,
            probe_zone: "attacker.net".parse().unwrap(),
            resolver: RESOLVER,
            spoof_server: VICTIM_NS,
            victim_zone: victim(),
            evil: EVIL,
            forge_rate: 300_000.0,
            races: 2,
            race_period: SimTime::from_millis(100),
            window: SimTime::from_millis(40),
            port_step: 1,
        }),
    );
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(poisoned_races(&mut sim, lrs, 2), 0);
}

#[test]
fn fragment_substitution_poisons_undefended_resolver() {
    let (mut sim, lrs, victim_ns) =
        poison_world(45, ResolverHardening::default(), SimTime::from_millis(1));
    let mtu = 300;
    let wire = big_response_wire();
    assert!(wire.len() > mtu + 4, "big RRset overflows MTU: {}", wire.len());
    sim.set_link_mtu(victim_ns, lrs, mtu);
    sim.plant_fragment(
        lrs,
        FragSub {
            src: VICTIM_NS,
            offset: mtu,
            payload: craft_evil_tail(&wire, mtu, EVIL),
        },
    );
    sim.add_node(
        ATTACKER,
        CpuConfig::unbounded(),
        FragPoisoner::new(FragPoisonConfig {
            attacker: ATTACKER,
            resolver: RESOLVER,
            qname: "big.victim.com".parse().unwrap(),
            trials: 1,
            trial_period: SimTime::from_millis(50),
        }),
    );
    sim.run_until(SimTime::from_millis(100));
    assert!(sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().responses_sent >= 1);
    assert!(sim.fault_stats().fragmented >= 1);
    assert!(sim.fault_stats().frag_substituted >= 1);
    let legit: Vec<RData> = (0..24u8)
        .map(|i| RData::A(Ipv4Addr::new(192, 0, 2, 100 + i)))
        .collect();
    let now = sim.now();
    let r = sim.node_mut::<RecursiveResolver>(lrs).unwrap();
    assert!(
        r.poison_check(now, &"big.victim.com".parse().unwrap(), RrType::A, &legit),
        "evil tail record must be cached — no guessing required"
    );
}

#[test]
fn fragment_rejection_defeats_substitution_via_tcp() {
    let hardening = ResolverHardening {
        reject_fragmented: true,
        ..ResolverHardening::default()
    };
    let (mut sim, lrs, victim_ns) = poison_world(46, hardening, SimTime::from_millis(1));
    let mtu = 300;
    let wire = big_response_wire();
    sim.set_link_mtu(victim_ns, lrs, mtu);
    sim.plant_fragment(
        lrs,
        FragSub {
            src: VICTIM_NS,
            offset: mtu,
            payload: craft_evil_tail(&wire, mtu, EVIL),
        },
    );
    sim.add_node(
        ATTACKER,
        CpuConfig::unbounded(),
        FragPoisoner::new(FragPoisonConfig {
            attacker: ATTACKER,
            resolver: RESOLVER,
            qname: "big.victim.com".parse().unwrap(),
            trials: 1,
            trial_period: SimTime::from_millis(50),
        }),
    );
    sim.run_until(SimTime::from_millis(200));
    let legit: Vec<RData> = (0..24u8)
        .map(|i| RData::A(Ipv4Addr::new(192, 0, 2, 100 + i)))
        .collect();
    let now = sim.now();
    let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
    assert!(stats.responses_sent >= 1);
    assert!(stats.frag_rejected >= 1, "reassembled answer discarded");
    assert!(stats.tcp_fallbacks >= 1, "re-queried over TCP");
    let r = sim.node_mut::<RecursiveResolver>(lrs).unwrap();
    assert!(
        !r.poison_check(now, &"big.victim.com".parse().unwrap(), RrType::A, &legit),
        "TCP path carries the genuine RRset only"
    );
}

#[test]
fn craft_evil_tail_replaces_only_final_rdata() {
    let wire = big_response_wire();
    let mtu = 300;
    let tail = craft_evil_tail(&wire, mtu, EVIL);
    assert_eq!(tail.len(), wire.len() - mtu);
    assert_eq!(&tail[tail.len() - 4..], &EVIL.octets());
    assert_eq!(&tail[..tail.len() - 4], &wire[mtu..wire.len() - 4]);
}
