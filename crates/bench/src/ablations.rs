//! Ablations of the guard's design choices (the knobs DESIGN.md calls
//! out): the `COOKIE2` range R_y, Rate-Limiter1's reflection budget, SYN
//! cookies at the TCP proxy, and the activation threshold.
//!
//! Run: `cargo run --release -p bench --bin all_experiments -- ablations`

use crate::registry::Outcome;
use crate::report::render_table;
use crate::worlds::{
    attach_flood, attach_lrs, guarded_world, guarded_world_with, measure_throughput, LrsParams, WorldParams,
    ZoneSel, PUB, SUBNET,
};
use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use guardhash::cookie::CookieAlg;
use netsim::engine::CpuConfig;
use netsim::tcp::{Flags, Segment, TcpHost};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// Ablation 1 — `COOKIE2` range: the worst-case false-negative rate is
/// 1/R_y (section III.G); sweep R_y and measure the spray's hit rate.
fn ablate_cookie2_range() -> String {
    let mut rows = Vec::new();
    for range in [16u32, 64, 254, 1024, 4096] {
        let mut p = WorldParams::new(21);
        p.zone = ZoneSel::Foo;
        p.mode = SchemeMode::DnsBased;
        // The paper's `COOKIE2` encoding, over the paper's cookie.
        let mut world = guarded_world_with(p, |c| GuardConfig {
            subnet_range: range,
            ..c.with_cookie_alg(CookieAlg::Md5)
        });
        // Widen the routed subnet for the bigger ranges.
        world.sim.add_subnet(SUBNET, 16, world.guard);
        world.sim.add_node(
            Ipv4Addr::new(66, 0, 0, 21),
            CpuConfig::unbounded(),
            SpoofedFlood::new(FloodConfig {
                target: PUB,
                rate: 200_000.0,
                sources: SourceStrategy::Random,
                payload: AttackPayload::Cookie2Spray {
                    qname: "www.foo.com".parse().unwrap(),
                    subnet_base: SUBNET,
                    range,
                },
                duration: Some(SimTime::from_millis(500)),
            }),
        );
        world.sim.run_until(SimTime::from_millis(600));
        let g = world.sim.node_ref::<RemoteGuard>(world.guard).unwrap();
        let seen = g.stats().cookie2_valid + g.stats().cookie2_invalid;
        let rate = g.stats().cookie2_valid as f64 / seen.max(1) as f64;
        rows.push(vec![
            range.to_string(),
            format!("{:.5}", rate),
            format!("{:.5}", 1.0 / range as f64),
        ]);
    }
    format!(
        "Ablation 1 — COOKIE2 subnet range R_y vs false-negative rate\n{}\n",
        render_table("", &["R_y", "measured hit rate", "predicted 1/R_y"], &rows)
    )
}

/// Ablation 2 — Rate-Limiter1's global budget: reflected bytes under a
/// fixed 100K req/s spoofed flood.
fn ablate_rl1() -> String {
    let mut rows = Vec::new();
    for (label, budget) in [("off", 1e12), ("100K/s", 1e5), ("10K/s (default)", 1e4), ("1K/s", 1e3)] {
        let mut p = WorldParams::new(22);
        p.zone = ZoneSel::Root;
        p.mode = SchemeMode::DnsBased;
        p.open_limiters = false;
        // The limiters are built from the rates the guard is constructed with.
        let mut world = guarded_world_with(p, |mut c| {
            c.rl1_global_rate = budget;
            c.rl1_per_source_rate = budget;
            c
        });
        attach_flood(&mut world.sim, Ipv4Addr::new(66, 0, 0, 22), 100_000.0);
        world.sim.run_until(SimTime::from_secs(1));
        let g = world.sim.node_ref::<RemoteGuard>(world.guard).unwrap();
        rows.push(vec![
            label.to_string(),
            g.stats().fabricated_ns_sent.to_string(),
            format!("{}", g.traffic_unverified.bytes_out),
            format!("{:.2}x", g.traffic_unverified.amplification()),
        ]);
    }
    format!(
        "Ablation 2 — Rate-Limiter1 budget vs reflected traffic (100K spoofed req/s)\n{}\n",
        render_table(
            "",
            &["RL1 budget", "cookie responses", "bytes reflected", "amplification"],
            &rows,
        )
    )
}

/// Ablation 3 — SYN cookies: listener state under a 10K-SYN flood, with
/// the stateless SYN-cookie handshake vs a classic stateful accept.
fn ablate_syn_cookies() -> String {
    let mut rows = Vec::new();
    for (label, cookies) in [("SYN cookies", true), ("stateful accept", false)] {
        let mut host = TcpHost::new(23);
        host.listen(53);
        if cookies {
            host.enable_syn_cookies();
        }
        let mut out = Vec::new();
        for i in 0..10_000u32 {
            let syn = Segment {
                flags: Flags {
                    syn: true,
                    ack: false,
                    fin: false,
                    rst: false,
                },
                seq: i,
                ack: 0,
                data: vec![],
            };
            let pkt = netsim::Packet::tcp(
                netsim::Endpoint::new(Ipv4Addr::from(0x0A00_0000 + i), 1024),
                netsim::Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), 53),
                syn.encode(),
            );
            host.on_segment(&pkt, &mut out);
            out.clear();
        }
        rows.push(vec![label.to_string(), host.conn_count().to_string()]);
    }
    format!(
        "Ablation 3 — SYN cookies vs stateful accept under a 10K-SYN flood\n{}\n",
        render_table("", &["handshake", "half-open state held"], &rows)
    )
}

/// Ablation 4 — activation threshold: CPU spent on spoof detection when
/// there is no attack, for always-on vs threshold-gated guards.
fn ablate_activation() -> String {
    let mut rows = Vec::new();
    for (label, threshold) in [("always on", 0.0), ("threshold 14K", 14_000.0)] {
        let mut p = WorldParams::new(24);
        p.zone = ZoneSel::Foo;
        p.mode = SchemeMode::DnsBased;
        p.activation_threshold = threshold;
        p.ans_costs = server::nodes::ServerCosts::bind9();
        let mut world = guarded_world(p);
        let lrs = attach_lrs(
            &mut world.sim,
            LrsParams::paced(Ipv4Addr::new(10, 0, 9, 1), 20, SimTime::from_millis(100), SimTime::from_millis(10)),
        );
        world.sim.run_until(SimTime::from_millis(500));
        world.sim.reset_cpu_stats(world.guard);
        let window = SimTime::from_secs(1);
        let rps = measure_throughput(&mut world.sim, &[lrs], SimTime::ZERO, window);
        let cpu = world.sim.cpu_stats(world.guard).utilization(window);
        rows.push(vec![
            label.to_string(),
            format!("{rps:.0}"),
            format!("{:.2}%", cpu * 100.0),
        ]);
    }
    format!(
        "Ablation 4 — activation threshold (no attack, 2K req/s legitimate load)\n{}\n\
         The threshold-gated guard forwards without cookie work in peacetime,\n\
         which is the paper's 'enable spoof detection only when the input rate\n\
         exceeds a threshold' recommendation.\n",
        render_table("", &["guard", "legit rps", "guard CPU"], &rows)
    )
}

/// The registry entry: all four ablations, in order.
pub fn experiment() -> Outcome {
    Outcome::report_only(
        [ablate_cookie2_range(), ablate_rl1(), ablate_syn_cookies(), ablate_activation()].concat(),
    )
}
