//! Quickstart: deploy a DNS guard in front of an authoritative server,
//! resolve a name through it, and watch a spoofed flood bounce off.
//! Finishes by tracing one cold-start query through each scheme and
//! rendering its causal timeline (stage-by-stage latency attribution).
//!
//! Run: `cargo run --example quickstart`

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, Simulator};
use netsim::time::SimTime;
use server::authoritative::Authority;
use server::nodes::AuthNode;
use server::simclient::{LrsSimConfig, LrsSimulator};
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

fn main() {
    // The paper's hierarchy: root → com → foo.com. We guard the root.
    let (root_zone, _, _) = paper_hierarchy();
    let authority = Authority::new(vec![root_zone]);

    let public = Ipv4Addr::new(198, 41, 0, 4); // advertised root-server address
    let private = Ipv4Addr::new(10, 99, 0, 1); // the real ANS, behind the guard

    let mut sim = Simulator::new(2006);

    // 1. The guard owns the public address (and its /24 for COOKIE2s) and
    //    forwards verified queries to the ANS.
    let config = GuardConfig::new(public, private).with_mode(SchemeMode::DnsBased);
    let guard = sim.add_node(
        public,
        CpuConfig::default(),
        RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
    );
    sim.add_subnet(Ipv4Addr::new(198, 41, 0, 0), 24, guard);

    // 2. The real ANS at a private address.
    sim.add_node(private, CpuConfig::default(), AuthNode::new(private, authority));

    // 3. A legitimate local recursive server, repeatedly resolving
    //    www.foo.com against the guarded root.
    let lrs_ip = Ipv4Addr::new(10, 0, 0, 53);
    let lrs = sim.add_node(
        lrs_ip,
        CpuConfig::default(),
        LrsSimulator::new(LrsSimConfig::new(lrs_ip, public, "www.foo.com".parse().unwrap())),
    );

    // 4. An attacker spraying spoofed queries.
    use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
    sim.add_node(
        Ipv4Addr::new(66, 66, 66, 66),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: public,
            rate: 20_000.0,
            sources: SourceStrategy::Random,
            payload: AttackPayload::PlainQuery("www.foo.com".parse().unwrap()),
            duration: Some(SimTime::from_millis(400)),
        }),
    );

    sim.run_until(SimTime::from_millis(500));

    let lrs_stats = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats;
    let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
    println!("== DNS Guard quickstart (NS-name cookie scheme) ==");
    println!();
    println!("Legitimate LRS:");
    println!("  requests completed : {}", lrs_stats.completed);
    println!("  timeouts           : {}", lrs_stats.timeouts);
    println!();
    println!("Guard:");
    println!("  fabricated NS sent : {}", g.stats().fabricated_ns_sent);
    println!("  valid cookies      : {}", g.stats().ns_cookie_valid);
    println!("  spoofed dropped    : {}", g.stats().spoofed_dropped());
    println!("  rate-limiter drops : {}", g.stats().rl1_dropped);
    println!("  forwarded to ANS   : {}", g.stats().forwarded);
    println!(
        "  amplification      : {:.2}x (paper bound: <1.5x)",
        g.traffic_unverified.amplification()
    );
    println!();
    println!(
        "The legitimate requester kept resolving while {} spoofed packets were shed.",
        g.stats().rl1_dropped + g.stats().spoofed_dropped()
    );

    // 5. One cold-start query through each scheme, rendered as a causal
    //    timeline: where every nanosecond went (handshake vs guard vs ANS).
    println!();
    println!("== Query journeys: one cold-start transaction per scheme ==");
    for scheme in bench::experiments::Scheme::ALL {
        let run = bench::journeys::run_scheme(scheme, 7, SimTime::from_millis(120));
        let scheme = run.scheme;
        let Some(journey) = run.report.complete.first() else {
            println!("\n[{scheme}] no completed journey");
            continue;
        };
        println!(
            "\n[{scheme}] {} extra round trip(s) vs an unguarded query",
            journey.extra_round_trips()
        );
        print!("{}", obs::journey::render_timeline(journey));
    }
}
