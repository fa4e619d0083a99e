//! One world that meets every branch of the engine's delivery path —
//! link loss, injected loss, duplication, reorder jitter, corruption, a
//! catchment shift, a pair partition, an isolate, crash and restart, an MTU
//! with a planted fragment, a gateway tap, a direct hop, subnet and exact
//! routes, address and subnet claims, NIC drops, daemon timers — and pins
//! what it delivers, in order, to the values the engine produced before its
//! tables were rebuilt. Only the public API is used, so the file runs
//! unchanged against an older engine.
//!
//! A change that keeps event order, every RNG draw and its order, and the
//! fault accounting leaves every number here alone; one that moves any of
//! them prints the transcript it produced.

use netsim::engine::{Context, CpuConfig, FaultPlan, FragSub, LinkParams, Node, Simulator};
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// `(arrival ns, node, claimed source, payload hash)` per delivered packet,
/// in the order handlers ran.
type Log = Rc<RefCell<Vec<(u64, usize, Ipv4Addr, u64)>>>;

const ANYCAST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const CLAIM: u64 = 9;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn record(log: &Log, ctx: &Context<'_>, pkt: &Packet) {
    let mut tagged = pkt.payload.clone();
    tagged.push(u8::from(pkt.fragmented));
    log.borrow_mut()
        .push((ctx.now().as_nanos(), ctx.node_id(), pkt.src.ip, fnv(&tagged)));
}

/// Sends `left` numbered datagrams of `size` bytes, one per `every`.
struct Talker {
    me: Endpoint,
    to: Endpoint,
    left: u32,
    every: SimTime,
    size: usize,
    log: Log,
}

impl Node for Talker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimTime::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let mut payload = vec![self.me.ip.octets()[3]; self.size];
        payload[..4].copy_from_slice(&self.left.to_be_bytes());
        ctx.charge(SimTime::from_micros(2));
        ctx.send(Packet::udp(self.me, self.to, payload));
        ctx.set_timer(self.every, 0);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        record(&self.log, ctx, &pkt);
    }
}

/// Answers every datagram with its payload doubled, at a CPU cost that
/// lets a short NIC queue overflow; ticks a daemon timer forever; on tag
/// [`CLAIM`] takes over the anycast address and a subnet.
struct Site {
    cost: SimTime,
    log: Log,
}

impl Node for Site {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_daemon_timer(SimTime::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == CLAIM {
            ctx.claim_address(ANYCAST);
            ctx.claim_subnet(Ipv4Addr::new(10, 9, 0, 0), 16);
        } else {
            ctx.set_daemon_timer(SimTime::from_millis(1), 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        record(&self.log, ctx, &pkt);
        ctx.charge(self.cost);
        let mut reply = pkt.payload.clone();
        reply.extend_from_slice(&pkt.payload);
        ctx.send(Packet::udp(pkt.dst, pkt.src, reply));
    }
}

/// A transparent middlebox: passes even-numbered datagrams on through
/// routing and hands odd ones straight to `direct`.
struct Tap {
    direct: usize,
    log: Log,
}

impl Node for Tap {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        record(&self.log, ctx, &pkt);
        if pkt.payload[3].is_multiple_of(2) {
            ctx.send(pkt);
        } else {
            ctx.send_direct(self.direct, pkt);
        }
    }
}

#[test]
fn delivery_transcript_matches_the_engine_before_its_tables_were_rebuilt() {
    let log: Log = Rc::default();
    let mut sim = Simulator::new(0x5eed);
    sim.set_default_delay(SimTime::from_micros(150));

    let site = |cost| Site {
        cost: SimTime::from_micros(cost),
        log: log.clone(),
    };
    let site_a = sim.add_node(
        Ipv4Addr::new(10, 0, 0, 200),
        CpuConfig {
            max_backlog: SimTime::from_micros(150),
        },
        site(200),
    );
    let site_b = sim.add_node(Ipv4Addr::new(10, 0, 0, 201), CpuConfig::default(), site(5));
    sim.add_address(ANYCAST, site_a);
    sim.add_subnet(Ipv4Addr::new(10, 9, 0, 0), 16, site_a);
    sim.add_subnet(Ipv4Addr::new(10, 9, 3, 0), 24, site_b);

    let plan = FaultPlan::new()
        .duplicate(0.2)
        .reorder(0.3, SimTime::from_micros(400))
        .corrupt(0.15)
        .loss(0.1)
        .catchment_shift(0.5, site_b);
    let mut talkers = Vec::new();
    for i in 1..=6u8 {
        // Of these six sources the plan's hash shifts the third, fifth and sixth.
        let ip = Ipv4Addr::new(10, 0, 1, 6 + i);
        let to = match i {
            5 => Endpoint::new(Ipv4Addr::new(10, 9, 3, 3), 53), // the /24 at B
            6 => Endpoint::new(Ipv4Addr::new(10, 9, 7, 7), 53), // the /16 at A
            _ => Endpoint::new(ANYCAST, 53),
        };
        let t = sim.add_node(
            ip,
            CpuConfig::unbounded(),
            Talker {
                me: Endpoint::new(ip, 4000 + u16::from(i)),
                to,
                left: 60,
                every: SimTime::from_micros(470 + 10 * u64::from(i)),
                size: 40 + 8 * usize::from(i),
                log: log.clone(),
            },
        );
        // Three writers of one directed link, in a different order per
        // talker; the reverse direction gets its own record.
        let params = LinkParams {
            delay: SimTime::from_micros(300),
            loss: 0.05,
        };
        match i % 3 {
            0 => {
                sim.connect(t, site_a, params);
                sim.fault_link(t, site_a, plan);
                sim.set_link_mtu(site_a, t, 90);
            }
            1 => {
                sim.set_link_mtu(site_a, t, 90);
                sim.fault_link(t, site_a, plan);
                sim.connect(t, site_a, params);
            }
            _ => {
                sim.fault_link(t, site_a, plan);
                sim.set_link_mtu(site_a, t, 90);
                sim.connect(t, site_a, params);
            }
        }
        // The link a shifted packet actually crosses has faults of its own.
        sim.fault_link(
            t,
            site_b,
            FaultPlan::new().reorder(0.5, SimTime::from_micros(200)),
        );
        sim.fault_link(site_b, t, FaultPlan::new().duplicate(0.1).corrupt(0.1));
        talkers.push(t);
    }
    // A's replies to talker 1 fragment at 90 bytes, and an off-path
    // attacker has planted the tail; the plant aimed at talker 2 claims the
    // wrong offset and never combines.
    sim.plant_fragment(
        talkers[0],
        FragSub {
            src: ANYCAST,
            offset: 90,
            payload: vec![0xEE; 12],
        },
    );
    sim.plant_fragment(
        talkers[1],
        FragSub {
            src: ANYCAST,
            offset: 91,
            payload: vec![0xDD; 12],
        },
    );
    // Talker 4 sits behind a tap; an extra talker aims at nothing.
    let tap = sim.add_node(
        Ipv4Addr::new(10, 0, 2, 1),
        CpuConfig::unbounded(),
        Tap {
            direct: site_b,
            log: log.clone(),
        },
    );
    sim.set_gateway(talkers[3], tap);
    sim.connect_rtt(talkers[3], tap, SimTime::from_micros(40));
    sim.connect_rtt(tap, site_b, SimTime::from_micros(700));
    let lost_ip = Ipv4Addr::new(10, 0, 1, 99);
    sim.add_node(
        lost_ip,
        CpuConfig::unbounded(),
        Talker {
            me: Endpoint::new(lost_ip, 4099),
            to: Endpoint::new(Ipv4Addr::new(8, 8, 8, 8), 53),
            left: 3,
            every: SimTime::from_millis(1),
            size: 16,
            log: log.clone(),
        },
    );

    sim.partition(
        talkers[1],
        site_a,
        SimTime::from_millis(5),
        SimTime::from_millis(9),
    );
    sim.isolate(site_b, SimTime::from_millis(12), SimTime::from_millis(15));
    sim.schedule_timer(site_b, SimTime::from_millis(26), CLAIM);

    sim.run_until(SimTime::from_millis(18));
    sim.crash(site_a);
    sim.run_until(SimTime::from_millis(21));
    sim.restart(site_a);
    sim.clear_fragment_plants(talkers[1]);
    sim.set_default_delay(SimTime::from_micros(90));
    sim.run(); // returns: only the sites' daemon ticks remain

    let log = log.borrow();
    let digest = log.iter().fold(0u64, |h, &(t, node, src, payload)| {
        let mut row = Vec::with_capacity(28);
        row.extend_from_slice(&h.to_be_bytes());
        row.extend_from_slice(&t.to_be_bytes());
        row.extend_from_slice(&(node as u32).to_be_bytes());
        row.extend_from_slice(&src.octets());
        row.extend_from_slice(&payload.to_be_bytes());
        fnv(&row)
    });
    let got = format!(
        "deliveries={} digest={digest:#018x} first={:?} last={:?} now={} unrouted={} a={:?} b={:?} {:?}",
        log.len(),
        log.first().expect("deliveries"),
        log.last().expect("deliveries"),
        sim.now().as_nanos(),
        sim.unrouted(),
        sim.cpu_stats(site_a),
        sim.cpu_stats(site_b),
        sim.fault_stats(),
    );
    let want = "deliveries=664 digest=0x96ec5121b2c5fb90 first=(22000, 8, 10.0.1.10, 5165036211207296500) last=(31575000, 7, 10.9.7.7, 399240001456381503) now=31920000 unrouted=3 a=CpuStats { busy: SimTime(16600000), delivered: 83, dropped: 26 } b=CpuStats { busy: SimTime(1050000), delivered: 210, dropped: 0 } FaultStats { duplicated: 42, reordered: 123, corrupted: 36, injected_loss: 11, shifted: 101, partition_dropped: 29, crash_dropped: 16, fragmented: 79, frag_substituted: 33 }";
    if got != want {
        for row in log.iter() {
            eprintln!("{row:?}");
        }
    }
    assert_eq!(got, want);
}
