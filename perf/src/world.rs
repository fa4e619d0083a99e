//! The simulated deployment the guard workloads drive: one `RemoteGuard`
//! in front of one free-cost `AuthNode`, plus the benchmark's own sink
//! node, which owns the default route and so receives everything the guard
//! sends toward a (spoofed or legitimate) source.
//!
//! The program under test sees only packets: the harness injects generated
//! datagrams at the sink's position in the network and reads what comes
//! back. Nothing here reaches into the guard beyond its public accessors
//! (`stats`, `table_bytes`, `cookie_factory`).

use bench::worlds::{guarded_world, WorldParams, ZoneSel};
use dnsguard::config::SchemeMode;
use dnsguard::guard::{GuardStats, RemoteGuard};
use guardhash::cookie::CookieFactory;
use netsim::engine::{Context, CpuConfig, Node, NodeId, Simulator};
use netsim::packet::Packet;
use netsim::time::SimTime;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::zone::paper_hierarchy;
use std::net::Ipv4Addr;

pub use bench::worlds::{PRIV, PUB, SUBNET};

/// The sink's own address (TEST-NET-3); it also owns `0.0.0.0/0`.
pub const SINK: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

/// Which guard a world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardSpec {
    /// Scheme for cookie-less requesters.
    pub mode: SchemeMode,
    /// Zone the ANS serves: the root zone refers `www.foo.com` to `com`,
    /// the `foo.com` zone answers it.
    pub zone: ZoneSel,
    /// `false` keeps the paper's default limiters (Rate-Limiter1 at 10 K
    /// cookie responses/s); `true` opens them so every datagram is served.
    pub open_limiters: bool,
}

impl GuardSpec {
    /// DNS-based scheme on the root zone, default limiters: the guard the
    /// paper's Fig. 6 flood meets.
    pub const DEFAULT: GuardSpec = GuardSpec {
        mode: SchemeMode::DnsBased,
        zone: ZoneSel::Root,
        open_limiters: false,
    };
}

/// The authority serving `zone`, as the ANS (and the guard's classifier)
/// hold it.
pub fn authority(zone: ZoneSel) -> Authority {
    let (root, _, foo_zone) = paper_hierarchy();
    Authority::new(vec![match zone {
        ZoneSel::Root => root,
        ZoneSel::Foo => foo_zone,
    }])
}

/// Collects what the guard sends out of the deployment; also stands in for
/// the ANS in worlds that measure the request and the response leg apart.
#[derive(Default)]
pub struct Sink {
    got: Vec<Packet>,
}

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        self.got.push(pkt);
    }
}

/// One guard + ANS + sink simulation.
pub struct World {
    sim: Simulator,
    guard: NodeId,
    ans: NodeId,
    sink: NodeId,
}

impl World {
    /// The same deployment with the ANS replaced by a second sink that
    /// holds what the guard forwards instead of answering it, so that the
    /// request leg and (with [`World::offer_from_ans`]) the response leg
    /// can be timed one after the other.
    pub fn with_held_ans(spec: GuardSpec, seed: u64) -> World {
        let mut world = World::new(spec, seed);
        world.sim.crash(world.ans);
        world.sim.restart_with(world.ans, Sink::default());
        world.drain();
        world
    }

    /// Builds the deployment. CPU queues are unbounded and the ANS is free,
    /// so simulated time never sheds load: every offered datagram is
    /// handled and only wall time is measured.
    pub fn new(spec: GuardSpec, seed: u64) -> World {
        let w = guarded_world(WorldParams {
            seed,
            zone: spec.zone,
            mode: spec.mode,
            guard_cpu: CpuConfig::unbounded(),
            ans_costs: ServerCosts::free(),
            ans_cpu: CpuConfig::unbounded(),
            open_limiters: spec.open_limiters,
            activation_threshold: 0.0,
        });
        let mut sim = w.sim;
        let sink = sim.add_node(SINK, CpuConfig::unbounded(), Sink::default());
        sim.add_subnet(Ipv4Addr::UNSPECIFIED, 0, sink);
        let mut world = World {
            sim,
            guard: w.guard,
            ans: w.ans,
            sink,
        };
        world.drain(); // node start-up events
        world
    }

    /// Offers one datagram now and advances simulated time by `gap`, which
    /// delivers whatever fell due (earlier datagrams, replies, timers).
    #[inline]
    pub fn offer(&mut self, pkt: Packet, gap: SimTime) {
        self.sim.inject(self.sink, pkt);
        self.sim.run_for(gap);
    }

    /// Offers one datagram as the ANS would send it (held-ANS worlds).
    #[inline]
    pub fn offer_from_ans(&mut self, pkt: Packet, gap: SimTime) {
        self.sim.inject(self.ans, pkt);
        self.sim.run_for(gap);
    }

    /// Takes what the stand-in ANS holds, after reserving room for `next`
    /// more (held-ANS worlds).
    pub fn take_held(&mut self, next: usize) -> Vec<Packet> {
        let held = self.sim.node_mut::<Sink>(self.ans).expect("held-ANS world");
        let mut out = Vec::with_capacity(next);
        std::mem::swap(&mut held.got, &mut out);
        out
    }

    /// Simulated seconds since the world began.
    pub fn now_secs(&self) -> f64 {
        self.sim.now().as_secs_f64()
    }

    /// Runs until nothing but housekeeping timers is pending.
    pub fn drain(&mut self) {
        self.sim.run();
    }

    /// Reserves room for `n` more replies so the sink does not allocate
    /// inside a measured region.
    pub fn reserve_replies(&mut self, n: usize) {
        self.sink_mut().got.reserve(n);
    }

    /// Takes everything the sink has received, leaving its buffer empty but
    /// allocated.
    pub fn take_replies(&mut self, into: &mut Vec<Packet>) {
        into.append(&mut self.sink_mut().got);
    }

    fn sink_mut(&mut self) -> &mut Sink {
        self.sim.node_mut::<Sink>(self.sink).expect("sink node")
    }

    fn guard_ref(&self) -> &RemoteGuard {
        self.sim
            .node_ref::<RemoteGuard>(self.guard)
            .expect("guard node")
    }

    /// The guard's disposition counters.
    pub fn guard_stats(&self) -> GuardStats {
        self.guard_ref().stats()
    }

    /// Bytes the guard holds in its forward table and answer stash.
    pub fn table_bytes(&self) -> usize {
        self.guard_ref().table_bytes()
    }

    /// The guard's cookie factory: how the benchmark mints the cookies a
    /// legitimate requester would have been granted.
    pub fn cookie_factory(&self) -> CookieFactory {
        self.guard_ref().cookie_factory().clone()
    }

    /// Bytes received from and sent to unverified sources, `(in, out)`.
    pub fn unverified_bytes(&self) -> (u64, u64) {
        let meter = self.guard_ref().traffic_unverified;
        (meter.bytes_in, meter.bytes_out)
    }

    /// UDP queries the ANS has served.
    pub fn ans_queries(&self) -> u64 {
        self.sim
            .node_ref::<AuthNode>(self.ans)
            .expect("ans node")
            .udp_queries()
    }

    /// Datagrams the guard's (unbounded) NIC queue refused; always 0.
    pub fn guard_nic_drops(&self) -> u64 {
        self.sim.cpu_stats(self.guard).dropped
    }
}
