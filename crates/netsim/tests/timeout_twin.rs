//! `Context::set_timeout` against its definition: "cancel the old setting,
//! then `set_timer(delay, tag)`". Each world is built twice from the same
//! seed. In one, nodes re-arm their timeouts with `set_timeout`; in the
//! twin they do the same thing the way a node must without it — a
//! `set_timer` per setting, with the setting's generation in the tag, and
//! an `on_timer` that ignores a tag whose generation is not the current
//! one (as the simulated LRS did). The two must run the same handlers at
//! the same instants in the same order, draw the same randomness, and end
//! with the same clock, CPU counters and fault counters.
//!
//! Links have constant delays and handlers constant costs, so packets and
//! timeouts land on the same nanosecond and only the `(time, seq)` order
//! separates them; fault plans draw from the simulator's RNG, so a handler
//! run out of place would shift every later draw.

use netsim::engine::{Context, CpuConfig, CpuStats, FaultPlan, FaultStats, Node, Simulator};
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use rand::Rng;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// What a handler saw: `(now ns, node, packet source port and payload
/// byte, or u32::MAX and the timer tag)`, in the order handlers ran.
type Log = Rc<RefCell<Vec<(u64, usize, u32, u64)>>>;

const NODES: u8 = 5;
const TIMEOUTS: usize = 3;
/// The pacing timer's tag; timeout tags are `id << 32 | generation`.
const TICK: u64 = u64::MAX;

/// Delays a setting draws from: zero, a link hop, two, and a long one —
/// so a re-arm lands both earlier and later than the setting it replaces.
const DELAYS_US: [u64; 5] = [0, 40, 80, 120, 700];

fn ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i + 1)
}

struct Peer {
    me: u8,
    /// `true`: `set_timeout`; `false`: the twin's timer per setting.
    rearmable: bool,
    /// Each timeout's current setting; the twin fires only on it.
    generation: [u64; TIMEOUTS],
    /// Packets and settings left to make; the world quiesces at zero.
    budget: u32,
    log: Log,
}

impl Peer {
    fn arm(&mut self, ctx: &mut Context<'_>, id: usize, delay: SimTime) {
        self.generation[id] += 1;
        let tag = (id as u64) << 32 | self.generation[id];
        if self.rearmable {
            ctx.set_timeout(id, delay, tag);
        } else {
            ctx.set_timer(delay, tag);
        }
    }

    /// What every handler does after logging: charge, then maybe send to a
    /// random peer and maybe re-arm a random timeout, all by RNG draws.
    fn act(&mut self, ctx: &mut Context<'_>) {
        ctx.charge(SimTime::from_micros(5));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if ctx.rng().gen_bool(0.6) {
            let to = (self.me + ctx.rng().gen_range(1..NODES)) % NODES;
            let byte: u8 = ctx.rng().gen();
            let me = Endpoint::new(ip(self.me), 1000 + u16::from(self.me));
            ctx.send(Packet::udp(me, Endpoint::new(ip(to), 7), vec![byte; 24]));
        }
        if ctx.rng().gen_bool(0.7) {
            let id = ctx.rng().gen_range(0..TIMEOUTS);
            let delay = DELAYS_US[ctx.rng().gen_range(0..DELAYS_US.len())];
            self.arm(ctx, id, SimTime::from_micros(delay));
        }
    }
}

impl Node for Peer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for id in 0..TIMEOUTS {
            self.arm(ctx, id, SimTime::from_micros(DELAYS_US[id + 1]));
        }
        ctx.set_timer(SimTime::from_micros(40), TICK);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let from = u32::from(pkt.src.port) << 8 | u32::from(pkt.payload[0]);
        self.log
            .borrow_mut()
            .push((ctx.now().as_nanos(), ctx.node_id(), from, 0));
        self.act(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag != TICK {
            let id = (tag >> 32) as usize;
            if tag & 0xFFFF_FFFF != self.generation[id] {
                assert!(!self.rearmable, "a replaced setting fired");
                return; // the twin's superseded timer
            }
        }
        self.log
            .borrow_mut()
            .push((ctx.now().as_nanos(), ctx.node_id(), u32::MAX, tag));
        if tag == TICK && self.budget > 0 {
            ctx.set_timer(SimTime::from_micros(40), TICK);
        }
        self.act(ctx);
    }
}

/// One checkpoint of a world: its transcript so far, clock, CPU counters
/// and fault counters.
type Snapshot = (
    Vec<(u64, usize, u32, u64)>,
    SimTime,
    Vec<CpuStats>,
    FaultStats,
);

/// Runs one world to each of `horizons` and snapshots it there.
fn run(seed: u64, rearmable: bool, horizons: &[SimTime]) -> Vec<Snapshot> {
    let log: Log = Rc::default();
    let mut sim = Simulator::new(seed);
    sim.set_default_delay(SimTime::from_micros(40));
    let cpu = CpuConfig {
        max_backlog: SimTime::from_micros(15),
    };
    let nodes: Vec<_> = (0..NODES)
        .map(|me| {
            let peer = Peer {
                me,
                rearmable,
                generation: [0; TIMEOUTS],
                budget: 400,
                log: log.clone(),
            };
            sim.add_node(ip(me), cpu, peer)
        })
        .collect();
    // Faults that draw on some links and none on others.
    let plan = FaultPlan::new()
        .duplicate(0.2)
        .reorder(0.2, SimTime::from_micros(80))
        .corrupt(0.1)
        .loss(0.1);
    sim.fault_link_both(nodes[0], nodes[1], plan);
    sim.fault_link(nodes[2], nodes[3], FaultPlan::new().duplicate(0.5));
    sim.fault_link(nodes[4], nodes[0], FaultPlan::new().loss(0.3));
    horizons
        .iter()
        .map(|&until| {
            sim.run_until(until);
            let cpu = nodes.iter().map(|&n| sim.cpu_stats(n)).collect();
            (log.borrow().clone(), sim.now(), cpu, sim.fault_stats())
        })
        .collect()
}

#[test]
fn a_timeout_runs_every_world_as_a_timer_per_setting_does() {
    let ms = SimTime::from_millis;
    // Every budget runs out well inside the last horizon, and both worlds
    // stand still there: the twin's superseded timers have all fired.
    let horizons = [ms(1), ms(3), ms(7), ms(15), ms(30), ms(200)];
    for seed in 0..12 {
        let twin = run(seed, false, &horizons);
        let world = run(seed, true, &horizons);
        for (at, (w, t)) in horizons.iter().zip(world.iter().zip(&twin)) {
            assert_eq!(w.1, t.1, "seed {seed}: clocks at {at:?}");
            assert_eq!(w.2, t.2, "seed {seed}: CPU counters at {at:?}");
            assert_eq!(w.3, t.3, "seed {seed}: fault counters at {at:?}");
            if w.0 != t.0 {
                let split = w.0.iter().zip(&t.0).position(|(a, b)| a != b);
                panic!(
                    "seed {seed}: transcripts part at {at:?}, entry {split:?} of {} / {}",
                    w.0.len(),
                    t.0.len()
                );
            }
        }
        let (log, _, cpu, faults) = &world[horizons.len() - 1];
        let timeouts = log
            .iter()
            .filter(|e| e.2 == u32::MAX && e.3 != TICK)
            .count();
        // The world is busy enough to mean something: timeouts fired, the
        // NIC dropped, and the plans drew.
        assert!(timeouts > 50, "seed {seed}: {timeouts} timeouts fired");
        assert!(
            cpu.iter().any(|c| c.dropped > 0),
            "seed {seed}: no NIC drop"
        );
        assert!(
            faults.duplicated > 0 && faults.reordered > 0,
            "seed {seed}: {faults:?}"
        );
    }
}
