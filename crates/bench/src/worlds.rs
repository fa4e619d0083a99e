//! The one testbed, mirroring the paper's: guards in front of ANS nodes,
//! LRS workload clients and attackers. Every experiment builds its world,
//! observes it, alerts on it and steps it through this module:
//!
//! * topologies — [`guarded_world`] (one guard, one ANS; the paper's),
//!   [`guarded_hierarchy`] (the same guard as the root of a hierarchy a
//!   stock resolver walks), [`ha_world`] (a primary–standby pair) and
//!   [`fleet_world`] (two anycast sites);
//! * clients and attackers — [`attach_lrs`] over [`LrsParams`],
//!   [`paced_clients`], [`attach_flood`], [`attach_cookie_guess_flood`],
//!   and [`attach_stub`] for hand-made datagrams;
//! * observation — [`observe`] (one [`Obs`] over the simulator and its
//!   guards), [`alert_engine`] (an engine reporting through it),
//!   [`run_stepped`] / [`run_evaluated`] (a callback, or that engine's
//!   evaluation, after the events of every boundary), [`stays_silent`]
//!   (the clean-baseline bar);
//! * readings — [`measure_throughput`], [`completions`], [`guard_stats`],
//!   [`lrs_stats`], [`unverified_at_ans`].

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::{GuardStats, RemoteGuard};
use dnsguard::HaConfig;
use dnswire::message::Message;
use guardhash::cookie::CookieAlg;
use netsim::engine::{Context, CpuConfig, FaultPlan, Node, NodeId, Simulator};
use netsim::packet::Packet;
use netsim::time::SimTime;
use obs::alert::{AlertConfig, AlertEngine};
use obs::trace::Level;
use obs::Obs;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::recursive::{RecursiveResolver, ResolverConfig};
use server::simclient::{CookieMode, LrsSimConfig, LrsSimStats, LrsSimulator};
use server::zone::{paper_hierarchy, COM_SERVER, FOO_SERVER};
use std::net::Ipv4Addr;

/// The guarded server's public (advertised) address.
pub const PUB: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
/// The real ANS address behind the guard.
pub const PRIV: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
/// The guard's interceptable subnet (for `COOKIE2`).
pub const SUBNET: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 0);

/// Which zone the guarded ANS serves — selects referral vs non-referral
/// answers for `www.foo.com`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneSel {
    /// The root zone: queries for `www.foo.com` produce referrals
    /// (NS-name cookie variant).
    Root,
    /// The `foo.com` zone: queries produce terminal answers
    /// (fabricated NS name + IP variant).
    Foo,
}

/// Handles into a guarded world.
pub struct GuardedWorld {
    /// The simulator.
    pub sim: Simulator,
    /// The guard node id.
    pub guard: NodeId,
    /// The ANS node id.
    pub ans: NodeId,
}

/// Parameters for [`guarded_world`].
pub struct WorldParams {
    /// RNG seed.
    pub seed: u64,
    /// Zone selection.
    pub zone: ZoneSel,
    /// Guard scheme for cookie-less requesters.
    pub mode: SchemeMode,
    /// Guard CPU queue bound.
    pub guard_cpu: CpuConfig,
    /// ANS cost model.
    pub ans_costs: ServerCosts,
    /// ANS CPU queue bound.
    pub ans_cpu: CpuConfig,
    /// When true, both rate limiters and the TCP connection limiter are
    /// opened wide (throughput tests measure raw capacity).
    pub open_limiters: bool,
    /// Activation threshold (0 = always on, `f64::INFINITY` = never —
    /// the "protection disabled" pass-through configuration).
    pub activation_threshold: f64,
}

/// The CPU queue bound of a guard or an ANS unless [`WorldParams`] sets
/// another.
const CPU: CpuConfig = CpuConfig {
    max_backlog: SimTime::from_millis(5),
};

impl WorldParams {
    /// Defaults: root zone, DNS-based scheme, generous CPU queues, ANS
    /// simulator costs, limiters open, detection always on.
    pub fn new(seed: u64) -> Self {
        WorldParams {
            seed,
            zone: ZoneSel::Root,
            mode: SchemeMode::DnsBased,
            guard_cpu: CPU,
            ans_costs: ServerCosts::ans_simulator(),
            ans_cpu: CPU,
            open_limiters: true,
            activation_threshold: 0.0,
        }
    }
}

/// What every guard starts from: [`PUB`] in front of `ans` with the
/// `COOKIE2` subnet, otherwise the defaults (the DNS-based scheme).
fn guard_config(ans: Ipv4Addr) -> GuardConfig {
    GuardConfig {
        subnet_base: SUBNET,
        ..GuardConfig::new(PUB, ans)
    }
}

fn add_guard(sim: &mut Simulator, addr: Ipv4Addr, cpu: CpuConfig, config: GuardConfig, zones: &Authority) -> NodeId {
    sim.add_node(addr, cpu, RemoteGuard::new(config, AuthorityClassifier::new(zones.clone())))
}

fn add_ans(sim: &mut Simulator, addr: Ipv4Addr, cpu: CpuConfig, zones: Authority, costs: ServerCosts) -> NodeId {
    sim.add_node(addr, cpu, AuthNode::with_costs(addr, zones, costs))
}

/// Builds the one-guard-one-ANS topology used by most experiments.
pub fn guarded_world(p: WorldParams) -> GuardedWorld {
    guarded_world_with(p, |config| config)
}

/// [`guarded_world`] whose guard is built from `configure`'s edit of the
/// configuration `p` describes — for what a guard reads at construction
/// (limiter budgets, the checkpoint cadence).
pub fn guarded_world_with(p: WorldParams, configure: impl FnOnce(GuardConfig) -> GuardConfig) -> GuardedWorld {
    let (root, _, foo_com) = paper_hierarchy();
    let zone = match p.zone {
        ZoneSel::Root => root,
        ZoneSel::Foo => foo_com,
    };
    let authority = Authority::new(vec![zone]);

    let mut sim = Simulator::new(p.seed);
    let mut config = guard_config(PRIV)
        .with_mode(p.mode)
        .with_activation_threshold(p.activation_threshold);
    if p.open_limiters {
        config.rl1_global_rate = 1e12;
        config.rl1_per_source_rate = 1e12;
        config.rl2_per_source_rate = 1e12;
        config.tcp_conn_rate = 1e12;
    }
    // Experiments run deep TCP pipelines; reap only truly dead connections.
    config.tcp_conn_lifetime = SimTime::from_secs(10);

    let guard = add_guard(&mut sim, PUB, p.guard_cpu, configure(config), &authority);
    sim.add_subnet(SUBNET, 24, guard);
    let ans = add_ans(&mut sim, PRIV, p.ans_cpu, authority, p.ans_costs);
    GuardedWorld { sim, guard, ans }
}

/// The stock resolver's address in [`guarded_hierarchy`].
pub const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);

/// Handles into a guarded hierarchy.
pub struct HierarchyWorld {
    /// The simulator.
    pub sim: Simulator,
    /// The guard in front of the root server.
    pub guard: NodeId,
    /// The stock resolver at [`RESOLVER`].
    pub resolver: NodeId,
}

/// The paper's three-level hierarchy behind a guarded root:
/// [`guarded_world_with`] serving the root zone at [`PUB`] (the root
/// server's address) whatever `p.zone` says, the com and foo.com servers
/// unguarded at their own addresses on `p`'s ANS CPU and costs, and a stock
/// [`RecursiveResolver`] at [`RESOLVER`] whose root hint is the guard. Its
/// clients are [`attach_stub`]s.
pub fn guarded_hierarchy(p: WorldParams, configure: impl FnOnce(GuardConfig) -> GuardConfig) -> HierarchyWorld {
    let (cpu, costs) = (p.ans_cpu, p.ans_costs);
    let GuardedWorld { mut sim, guard, .. } = guarded_world_with(WorldParams { zone: ZoneSel::Root, ..p }, configure);
    let (_, com, foo_com) = paper_hierarchy();
    add_ans(&mut sim, COM_SERVER, cpu, Authority::new(vec![com]), costs);
    add_ans(&mut sim, FOO_SERVER, cpu, Authority::new(vec![foo_com]), costs);
    let config = ResolverConfig::new(RESOLVER, vec![PUB]);
    let resolver = sim.add_node(RESOLVER, CpuConfig::unbounded(), RecursiveResolver::new(config));
    HierarchyWorld { sim, guard, resolver }
}

/// The primary guard's replication address.
pub const REPL_PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);
/// The standby guard's replication address.
pub const REPL_STANDBY: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 3);

/// Handles into a primary–standby world.
pub struct HaWorld {
    /// The simulator.
    pub sim: Simulator,
    /// The primary guard (owns [`PUB`] and the `COOKIE2` subnet at start).
    pub primary: NodeId,
    /// The standby guard (reachable only at [`REPL_STANDBY`] until
    /// takeover).
    pub standby: NodeId,
    /// The ANS node.
    pub ans: NodeId,
}

/// Builds the HA topology: primary at the public address, standby fed over
/// the replication channel, the `foo.com` zone behind them (terminal
/// answers → fabricated-NS + `COOKIE2` path).
///
/// Default rate limiters stay in place so floods genuinely saturate RL1.
pub fn ha_world(seed: u64) -> HaWorld {
    let (_, _, foo_com) = paper_hierarchy();
    let authority = Authority::new(vec![foo_com]);
    let mut sim = Simulator::new(seed);

    let base = guard_config(PRIV);
    let primary_cfg = base.clone().with_ha(HaConfig::primary(REPL_PRIMARY, REPL_STANDBY));
    let standby_cfg = base.with_ha(HaConfig::standby(REPL_STANDBY, REPL_PRIMARY));

    let primary = add_guard(&mut sim, PUB, CPU, primary_cfg, &authority);
    sim.add_subnet(SUBNET, 24, primary);
    sim.add_address(REPL_PRIMARY, primary);
    let standby = add_guard(&mut sim, REPL_STANDBY, CPU, standby_cfg, &authority);
    let ans = add_ans(&mut sim, PRIV, CPU, authority, ServerCosts::ans_simulator());
    HaWorld {
        sim,
        primary,
        standby,
        ans,
    }
}

/// Site B's own address (site A answers on [`PUB`]).
pub const SITE_B: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 3);
/// Site A's private ANS.
pub const ANS_A: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 11);
/// Site B's private ANS.
pub const ANS_B: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 12);

/// Handles into a two-site anycast world.
pub struct FleetWorld {
    /// The simulator.
    pub sim: Simulator,
    /// Site A: owns the route for [`PUB`] and the `COOKIE2` subnet.
    pub site_a: NodeId,
    /// Site B: receives only catchment-shifted traffic.
    pub site_b: NodeId,
    /// Site A's ANS node.
    pub ans_a: NodeId,
    /// Site B's ANS node.
    pub ans_b: NodeId,
}

/// Builds the two-site topology. Both guards advertise [`PUB`]; the
/// simulator's routing table sends it to site A (the "normal" BGP
/// catchment), and a [`FaultPlan::catchment_shift`] later moves a subset
/// of sources to site B. Each site forwards to its own ANS.
///
/// `shared` selects the cookie regime: one `key_seed` at both sites under
/// the default SipHash-2-4, or the paper's MD5 with an independent secret
/// per site. Sites sharing the seed hold the same key at every generation
/// and rotate on their own weekly schedules, which the shared clock keeps
/// in step; an operator rotation
/// ([`rotate_key`](dnsguard::guard::GuardCore::rotate_key)) is applied to
/// every site, as RFC 9018 rotates anycast secrets.
pub fn fleet_world(seed: u64, shared: bool) -> FleetWorld {
    let (_, _, foo_com) = paper_hierarchy();
    let authority = Authority::new(vec![foo_com]);
    let mut sim = Simulator::new(seed);

    let base = |ans: Ipv4Addr| {
        let mut c = guard_config(ans);
        // Tight global cookie budget: the re-handshake storm and the flood
        // compete for it, which is exactly the paper's reflector bound
        // turning a routing event into a denial of verified service.
        c.rl1_global_rate = 120.0;
        c
    };
    let (a_cfg, b_cfg) = if shared {
        (base(ANS_A), base(ANS_B))
    } else {
        let md5 = |ans| base(ans).with_cookie_alg(CookieAlg::Md5);
        let mut b = md5(ANS_B);
        b.key_seed = 4242; // Independent vendor secret at each site.
        (md5(ANS_A), b)
    };

    let site_a = add_guard(&mut sim, PUB, CPU, a_cfg, &authority);
    sim.add_subnet(SUBNET, 24, site_a);
    let site_b = add_guard(&mut sim, SITE_B, CPU, b_cfg, &authority);
    let ans_a = add_ans(&mut sim, ANS_A, CPU, authority.clone(), ServerCosts::ans_simulator());
    let ans_b = add_ans(&mut sim, ANS_B, CPU, authority, ServerCosts::ans_simulator());
    // Site B forwards from the anycast address, so its ANS replies to
    // [`PUB`] — which the routing table hands to site A. Pin the return
    // path: everything ANS-B sends toward site A's catchment belongs at B.
    sim.fault_link(ans_b, site_a, FaultPlan::new().catchment_shift(1.0, site_b));
    FleetWorld {
        sim,
        site_a,
        site_b,
        ans_a,
        ans_b,
    }
}

/// Parameters for an attached workload client.
pub struct LrsParams {
    /// Client address.
    pub ip: Ipv4Addr,
    /// Cookie transport mode.
    pub mode: CookieMode,
    /// Reuse cookies between requests (cache hit) or not (cache miss).
    pub cookie_cache: bool,
    /// Logical in-flight requests.
    pub concurrency: u32,
    /// Response wait before abandoning a request.
    pub wait: SimTime,
    /// Pause between requests on a slot (0 = closed loop).
    pub pace: SimTime,
    /// CPU charged per packet at the client.
    pub per_packet_cost: SimTime,
}

impl LrsParams {
    /// A cookie-caching plain-DNS client: `slots` logical requests in
    /// flight, each abandoned after `wait` and followed `pace` later by
    /// the slot's next.
    pub fn paced(ip: Ipv4Addr, slots: u32, wait: SimTime, pace: SimTime) -> Self {
        LrsParams {
            ip,
            mode: CookieMode::Plain,
            cookie_cache: true,
            concurrency: slots,
            wait,
            pace,
            per_packet_cost: SimTime::ZERO,
        }
    }

    /// A fast closed-loop client (throughput tests).
    pub fn closed_loop(ip: Ipv4Addr, concurrency: u32) -> Self {
        LrsParams::paced(ip, concurrency, SimTime::from_millis(20), SimTime::ZERO)
    }

    /// The same client carrying its cookies as `mode` says.
    pub fn with_mode(self, mode: CookieMode) -> Self {
        LrsParams { mode, ..self }
    }

    /// The same client with its cookie cache on or off (off: every request
    /// repeats the whole exchange).
    pub fn with_cache(self, cookie_cache: bool) -> Self {
        LrsParams { cookie_cache, ..self }
    }
}

/// Attaches an [`LrsSimulator`] querying `www.foo.com` at the public
/// address.
pub fn attach_lrs(sim: &mut Simulator, p: LrsParams) -> NodeId {
    let mut config = LrsSimConfig::new(p.ip, PUB, "www.foo.com".parse().expect("static name"));
    config.mode = p.mode;
    config.cookie_cache = p.cookie_cache;
    config.concurrency = p.concurrency;
    config.wait = p.wait;
    config.pace = p.pace;
    config.per_packet_cost = p.per_packet_cost;
    sim.add_node(p.ip, CpuConfig::unbounded(), LrsSimulator::new(config))
}

/// Attaches a spoofed plain-query flood at `rate` req/s aimed at the public
/// address.
pub fn attach_flood(sim: &mut Simulator, ip: Ipv4Addr, rate: f64) -> NodeId {
    use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
    sim.add_node(
        ip,
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate,
            sources: SourceStrategy::Random,
            payload: AttackPayload::PlainQuery("www.foo.com".parse().expect("static name")),
            duration: None,
        }),
    )
}

/// Attaches the 2⁻³² cookie-label guess flood at `66.0.0.66`: `rate`
/// spoofed queries per second for `duration`, each carrying a random
/// NS-label cookie under `com` — an invalid verify at the guard, never a
/// handshake.
pub fn attach_cookie_guess_flood(sim: &mut Simulator, rate: f64, duration: SimTime) -> NodeId {
    use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
    sim.add_node(
        Ipv4Addr::new(66, 0, 0, 66),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate,
            sources: SourceStrategy::Random,
            payload: AttackPayload::CookieLabelGuess {
                zone_suffix: "com".to_string(),
                parent: ".".parse().expect("root name"),
            },
            duration: Some(duration),
        }),
    )
}

/// A client of hand-made datagrams: sends each at its offset from the
/// stub's start (those at zero from `on_start`) and keeps every datagram
/// delivered to it. A datagram's source is whatever its packet says, so one
/// stub is a resolver's client, a spoofer or a replay of crafted bytes.
pub struct Stub {
    /// What is left to send, the latest offset first.
    sends: Vec<(SimTime, Packet)>,
    /// When the stub started.
    start: SimTime,
    /// Every datagram delivered to the stub, in arrival order.
    pub replies: Vec<Packet>,
}

impl Stub {
    /// The first reply, decoded.
    pub fn reply(&self) -> Option<Message> {
        self.replies.first().and_then(|pkt| Message::decode(&pkt.payload).ok())
    }

    /// Sends what is due now and arms the timer for the next offset.
    fn send_due(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now() - self.start;
        while let Some((_, pkt)) = self.sends.pop_if(|(at, _)| *at <= now) {
            ctx.send(pkt);
        }
        if let Some((at, _)) = self.sends.last() {
            ctx.set_timer(*at - now, 0);
        }
    }
}

impl Node for Stub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start = ctx.now();
        self.send_due(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        self.replies.push(pkt);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        self.send_due(ctx);
    }
}

/// Attaches a [`Stub`] at `ip` sending `sends`, each an (offset from now,
/// datagram) pair.
pub fn attach_stub(sim: &mut Simulator, ip: Ipv4Addr, sends: impl IntoIterator<Item = (SimTime, Packet)>) -> NodeId {
    let mut sends: Vec<_> = sends.into_iter().collect();
    // A stable sort then a reversal: popped from the back, datagrams at one
    // offset leave in the order given.
    sends.sort_by_key(|(at, _)| *at);
    sends.reverse();
    let stub = Stub { sends, start: SimTime::ZERO, replies: Vec::new() };
    sim.add_node(ip, CpuConfig::unbounded(), stub)
}

/// Measures a client's completed-request delta over a window, returning
/// requests/second.
pub fn measure_throughput(
    sim: &mut Simulator,
    clients: &[NodeId],
    warmup: SimTime,
    window: SimTime,
) -> f64 {
    sim.run_for(warmup);
    let before: u64 = completions(sim, clients).iter().sum();
    sim.run_for(window);
    let after: u64 = completions(sim, clients).iter().sum();
    (after - before) as f64 / window.as_secs_f64()
}

/// Attaches `n` [`LrsParams::paced`] clients at `10.0.<i>.1` and returns
/// their nodes and those addresses.
pub fn paced_clients(sim: &mut Simulator, n: u8, slots: u32, wait: SimTime, pace: SimTime) -> (Vec<NodeId>, Vec<Ipv4Addr>) {
    let ips: Vec<Ipv4Addr> = (1..=n).map(|c| Ipv4Addr::new(10, 0, c, 1)).collect();
    let nodes = ips.iter().map(|&ip| attach_lrs(sim, LrsParams::paced(ip, slots, wait, pace))).collect();
    (nodes, ips)
}

/// The [`paced_clients`] of the HA and fleet worlds. Concurrency 1 so a
/// crashed guard, or a site the catchment moved away from, costs each
/// client at most one consecutive timeout — two would invalidate the
/// cached cookie and force the fresh handshake a takeover is supposed to
/// avoid.
pub fn verified_clients(sim: &mut Simulator, n: u8) -> (Vec<NodeId>, Vec<Ipv4Addr>) {
    paced_clients(sim, n, 1, SimTime::from_millis(150), SimTime::from_millis(5))
}

/// Transactions each client has completed so far.
pub fn completions(sim: &Simulator, clients: &[NodeId]) -> Vec<u64> {
    clients.iter().map(|&c| lrs_stats(sim, c).completed).collect()
}

/// A guard's counters.
pub fn guard_stats(sim: &Simulator, guard: NodeId) -> GuardStats {
    sim.node_ref::<RemoteGuard>(guard).expect("guard node").stats()
}

/// An [`LrsSimulator`]'s counters.
pub fn lrs_stats(sim: &Simulator, lrs: NodeId) -> LrsSimStats {
    sim.node_ref::<LrsSimulator>(lrs).expect("lrs node").stats
}

/// Queries that reached an ANS unverified: whatever the `ans` nodes saw
/// beyond what the `guards` forwarded, plus what the guards forwarded
/// plain. The bar is zero.
pub fn unverified_at_ans(sim: &Simulator, guards: &[NodeId], ans: &[NodeId]) -> u64 {
    let stats: Vec<_> = guards.iter().map(|&g| guard_stats(sim, g)).collect();
    let seen: u64 = ans
        .iter()
        .map(|&a| sim.node_ref::<AuthNode>(a).expect("ANS node").total_queries())
        .sum();
    let forwarded: u64 = stats.iter().map(|s| s.forwarded).sum();
    seen.saturating_sub(forwarded) + stats.iter().map(|s| s.plain_forwarded).sum::<u64>()
}

/// What an [`observe`]d bundle registers beside the guards. The variants
/// are the ways the committed exports differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The tracer's own counters (`trace.*`) and the simulator's fault
    /// counters and trace: a whole world behind one bundle.
    World,
    /// The tracer's counters only: one site of a fleet, or the collector
    /// that merges the sites' snapshots — the simulator is neither's to
    /// report.
    Site,
    /// The simulator's only: `BENCH_obs.json` lists no `trace.*` metric,
    /// and an engine that cannot read `trace.ring_dropped` cannot fire
    /// `trace_drops` on a flood that overruns the ring (`analytics`,
    /// `poison`).
    Untraced,
}

/// One telemetry bundle over a world: tracing at `Info`, what `scope`
/// names, and each of `guards` attached.
pub fn observe(sim: &mut Simulator, scope: Scope, guards: &[NodeId]) -> Obs {
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    if scope != Scope::Untraced {
        obs.tracer.adopt_into(&obs.registry);
    }
    if scope != Scope::Site {
        sim.attach_obs(&obs);
    }
    for &guard in guards {
        sim.node_mut::<RemoteGuard>(guard).expect("guard node").attach_obs(&obs);
    }
    obs
}

/// An alert engine that reports through `obs` (transitions as `alert`
/// events, `alert.*` metrics); the caller owns it and evaluates it with
/// [`run_evaluated`].
pub fn alert_engine(obs: &Obs, config: AlertConfig) -> AlertEngine {
    let mut engine = AlertEngine::new(config);
    engine.attach_obs(obs);
    engine
}

/// How often the HA, fleet and journeys worlds and the clean baselines
/// evaluate their engine: every 10 ms of simulated time, so a takeover or
/// a surge is timed to within one tick.
pub const ALERT_TICK: SimTime = SimTime::from_millis(10);

/// Advances the world to `until`, calling `at` *after* the events of every
/// `every`-th instant from now and of `until` itself, never later.
pub fn run_stepped(sim: &mut Simulator, until: SimTime, every: SimTime, mut at: impl FnMut(&mut Simulator)) {
    while sim.now() < until {
        let next = (sim.now() + every).min(until);
        sim.run_until(next);
        at(sim);
    }
}

/// [`run_stepped`], evaluating `engine` over `obs`'s registry at each step.
pub fn run_evaluated(sim: &mut Simulator, obs: &Obs, engine: &mut AlertEngine, until: SimTime, every: SimTime) {
    run_stepped(sim, until, every, |sim| engine.evaluate(sim.now().as_nanos(), &obs.registry.snapshot()));
}

/// The clean-baseline bar: observes the world and its `guards`, evaluates
/// an engine under `config` every [`ALERT_TICK`] to `duration` and returns
/// whether no rule ever fired.
pub fn stays_silent(sim: &mut Simulator, guards: &[NodeId], config: AlertConfig, duration: SimTime) -> bool {
    let obs = observe(sim, Scope::World, guards);
    let mut engine = alert_engine(&obs, config);
    run_evaluated(sim, &obs, &mut engine, duration, ALERT_TICK);
    engine.is_silent()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_observed_alerting_world_registers_every_input_of_a_guard_and_a_simulator() {
        let mut w = guarded_world(WorldParams::new(1));
        let obs = observe(&mut w.sim, Scope::World, &[w.guard]);
        let _engine = alert_engine(&obs, AlertConfig::default());
        let registered = obs.registry.snapshot();
        let missing: Vec<&str> = obs::alert::INPUTS
            .iter()
            .filter(|i| !registered.iter().any(|s| i.reads(s.component, s.name, &s.labels)))
            .map(|i| i.name)
            .collect();
        // What is left is a resolver's.
        assert_eq!(missing, ["poison_attempts", "poison_successes"]);
        assert!(registered.iter().any(|s| s.component == "alert"), "the engine reports through the bundle");

        // The other scopes leave out exactly what they say.
        let site = observe(&mut w.sim, Scope::Site, &[w.guard]).registry.snapshot();
        assert!(site.iter().any(|s| s.component == "trace") && !site.iter().any(|s| s.component == "netsim"));
        let untraced = observe(&mut w.sim, Scope::Untraced, &[w.guard]).registry.snapshot();
        assert!(!untraced.iter().any(|s| s.component == "trace") && untraced.iter().any(|s| s.component == "netsim"));
    }

    #[test]
    fn run_stepped_calls_back_at_every_boundary_and_a_ragged_end_never_past_it() {
        let ms = SimTime::from_millis;
        let mut sim = Simulator::new(1);
        let mut at = Vec::new();
        run_stepped(&mut sim, ms(35), ms(10), |sim| at.push(sim.now()));
        assert_eq!(at, [ms(10), ms(20), ms(30), ms(35)]);
        // Boundaries count from where the world stands, not from zero.
        run_stepped(&mut sim, ms(60), ms(10), |sim| at.push(sim.now()));
        assert_eq!(at[4..], [ms(45), ms(55), ms(60)]);
        run_stepped(&mut sim, ms(60), ms(10), |_| panic!("nothing is left to run"));
        assert_eq!(sim.now(), ms(60));
    }

    #[test]
    fn an_evaluated_world_alerts_the_same_whatever_the_slicing() {
        let ms = SimTime::from_millis;
        let transcript = |phases: &[SimTime]| {
            let mut w = ha_world(7);
            let obs = observe(&mut w.sim, Scope::World, &[w.primary]);
            let mut engine = alert_engine(&obs, AlertConfig::default());
            verified_clients(&mut w.sim, 3);
            attach_cookie_guess_flood(&mut w.sim, 4_000.0, ms(400));
            for &until in phases {
                run_evaluated(&mut w.sim, &obs, &mut engine, until, ALERT_TICK);
            }
            engine.alerts_json().to_string()
        };
        let whole = transcript(&[ms(600)]);
        assert!(whole.contains("\"spoof_surge\""), "the flood must fire: {whole}");
        // Each call ends after the events of its last boundary, where the
        // next begins: three phases see what one call sees.
        assert_eq!(transcript(&[ms(200), ms(400), ms(600)]), whole);
    }

    #[test]
    fn a_stub_keeps_every_reply_in_arrival_order_across_a_duplicating_link() {
        use dnswire::rdata::RData;
        use dnswire::types::{Rcode, RrType};
        use netsim::packet::{Endpoint, DNS_PORT};

        let mut w = guarded_hierarchy(WorldParams::new(1), |config| config);
        let me = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 5353);
        let query = |id, at| {
            let wire = Message::query(id, "www.foo.com".parse().expect("static name"), RrType::A).encode();
            (at, Packet::udp(me, Endpoint::new(RESOLVER, DNS_PORT), wire))
        };
        let stub = attach_stub(&mut w.sim, me.ip, [query(8, SimTime::from_millis(50)), query(7, SimTime::ZERO)]);
        w.sim.fault_link_both(stub, w.resolver, FaultPlan::new().duplicate(1.0));
        w.sim.run();

        let stub = w.sim.node_ref::<Stub>(stub).expect("stub node");
        let ids: Vec<u16> = stub.replies.iter().map(|p| Message::decode(&p.payload).expect("reply").header.id).collect();
        assert!(ids.len() >= 4 && ids.starts_with(&[7, 7]) && ids.ends_with(&[8, 8]), "replies {ids:?}");
        // A later datagram never displaces the first reply.
        let first = stub.reply().expect("the first reply decodes");
        assert_eq!((first.header.id, first.header.rcode), (7, Rcode::NoError));
        assert_eq!(first.answers[0].rdata, RData::A(server::zone::WWW_ADDR));
    }

    #[test]
    fn a_closed_loop_world_queues_one_wait_deadline_per_slot() {
        let mut w = guarded_world(WorldParams::new(3));
        let clients: Vec<_> =
            (1..=3).map(|i| attach_lrs(&mut w.sim, LrsParams::closed_loop(Ipv4Addr::new(10, 0, 1, i), 64))).collect();
        // A slot has one wait deadline and, closed loop, one datagram on the
        // wire at a time; the guard keeps one daemon tick (its rate window).
        let slots = 3 * 64;
        let bound = slots + slots + 1;
        let mut most = 0;
        run_stepped(&mut w.sim, SimTime::from_millis(100), SimTime::from_millis(1), |sim| {
            most = most.max(sim.queued_events());
        });
        assert!(most <= bound, "{most} events queued, bound {bound}");
        let done: u64 = completions(&w.sim, &clients).iter().sum();
        assert!(done > 10_000, "the slots kept busy: {done} requests completed");
    }

    #[test]
    fn paced_is_the_literal_it_replaces() {
        let ip = Ipv4Addr::new(10, 0, 1, 1);
        let fields = |p: LrsParams| (p.ip, p.mode, p.cookie_cache, p.concurrency, p.wait, p.pace, p.per_packet_cost);
        let literal = LrsParams {
            ip,
            mode: CookieMode::Plain,
            cookie_cache: true,
            concurrency: 4,
            wait: SimTime::from_millis(50),
            pace: SimTime::from_millis(2),
            per_packet_cost: SimTime::ZERO,
        };
        assert_eq!(fields(LrsParams::paced(ip, 4, SimTime::from_millis(50), SimTime::from_millis(2))), fields(literal));
        let closed = fields(LrsParams::closed_loop(ip, 64));
        assert_eq!(closed, (ip, CookieMode::Plain, true, 64, SimTime::from_millis(20), SimTime::ZERO, SimTime::ZERO));
        let cold = LrsParams::closed_loop(ip, 64).with_mode(CookieMode::Extension).with_cache(false);
        assert_eq!(fields(cold), (ip, CookieMode::Extension, false, closed.3, closed.4, closed.5, closed.6));
    }
}
