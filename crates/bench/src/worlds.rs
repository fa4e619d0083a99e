//! Standard experiment topologies, mirroring the paper's testbed: one
//! remote DNS guard in front of one ANS, up to three LRS workload clients,
//! and an attacker.

use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, NodeId, Simulator};
use netsim::time::SimTime;
use obs::trace::Level;
use obs::Obs;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::simclient::{CookieMode, LrsSimConfig, LrsSimulator};
use server::zone::paper_hierarchy;
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

impl WorldParams {
    /// Defaults: root zone, DNS-based scheme, generous CPU queues, ANS
    /// simulator costs, limiters open, detection always on.
    pub fn new(seed: u64) -> Self {
        WorldParams {
            seed,
            zone: ZoneSel::Root,
            mode: SchemeMode::DnsBased,
            guard_cpu: CpuConfig {
                max_backlog: SimTime::from_millis(5),
            },
            ans_costs: ServerCosts::ans_simulator(),
            ans_cpu: CpuConfig {
                max_backlog: SimTime::from_millis(5),
            },
            open_limiters: true,
            activation_threshold: 0.0,
        }
    }
}

/// Builds the one-guard-one-ANS topology used by most experiments.
pub fn guarded_world(p: WorldParams) -> GuardedWorld {
    let (root, _, foo_com) = paper_hierarchy();
    let zone = match p.zone {
        ZoneSel::Root => root,
        ZoneSel::Foo => foo_com,
    };
    let authority = Authority::new(vec![zone]);

    let mut sim = Simulator::new(p.seed);
    let mut config = GuardConfig {
        subnet_base: SUBNET,
        ..GuardConfig::new(PUB, PRIV)
    }
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

    let guard = sim.add_node(
        PUB,
        p.guard_cpu,
        RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
    );
    sim.add_subnet(SUBNET, 24, guard);
    let ans = sim.add_node(
        PRIV,
        p.ans_cpu,
        AuthNode::with_costs(PRIV, authority, p.ans_costs),
    );
    GuardedWorld { sim, guard, ans }
}

/// Builds the same topology *without* a guard: the public address routes
/// straight to the ANS (the paper's "DNS guard completely turned off").
pub fn unguarded_world(seed: u64, zone: ZoneSel, ans_costs: ServerCosts, ans_cpu: CpuConfig) -> (Simulator, NodeId) {
    let (root, _, foo_com) = paper_hierarchy();
    let zone = match zone {
        ZoneSel::Root => root,
        ZoneSel::Foo => foo_com,
    };
    let authority = Authority::new(vec![zone]);
    let mut sim = Simulator::new(seed);
    let ans = sim.add_node(PUB, ans_cpu, AuthNode::with_costs(PUB, authority, ans_costs));
    (sim, ans)
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
    /// A fast closed-loop client (throughput tests).
    pub fn closed_loop(ip: Ipv4Addr, concurrency: u32) -> Self {
        LrsParams {
            ip,
            mode: CookieMode::Plain,
            cookie_cache: true,
            concurrency,
            wait: SimTime::from_millis(20),
            pace: SimTime::ZERO,
            per_packet_cost: SimTime::ZERO,
        }
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

/// Measures a client's completed-request delta over a window, returning
/// requests/second.
pub fn measure_throughput(
    sim: &mut Simulator,
    clients: &[NodeId],
    warmup: SimTime,
    window: SimTime,
) -> f64 {
    sim.run_for(warmup);
    let before: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<LrsSimulator>(c).expect("lrs node").stats.completed)
        .sum();
    sim.run_for(window);
    let after: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<LrsSimulator>(c).expect("lrs node").stats.completed)
        .sum();
    (after - before) as f64 / window.as_secs_f64()
}

/// Attaches `n` cookie-caching clients at `10.0.<i>.1` (the HA and fleet
/// worlds). Concurrency 1 so a crashed guard, or a site the catchment moved
/// away from, costs each client at most one consecutive timeout — two would
/// invalidate the cached cookie and force the fresh handshake a takeover is
/// supposed to avoid.
pub fn verified_clients(sim: &mut Simulator, n: u8) -> Vec<NodeId> {
    (1..=n)
        .map(|c| {
            attach_lrs(
                sim,
                LrsParams {
                    ip: Ipv4Addr::new(10, 0, c, 1),
                    mode: CookieMode::Plain,
                    cookie_cache: true,
                    concurrency: 1,
                    wait: SimTime::from_millis(150),
                    pace: SimTime::from_millis(5),
                    per_packet_cost: SimTime::ZERO,
                },
            )
        })
        .collect()
}

/// Transactions each client has completed so far.
pub fn completions(sim: &Simulator, clients: &[NodeId]) -> Vec<u64> {
    clients
        .iter()
        .map(|&c| sim.node_ref::<LrsSimulator>(c).expect("lrs node").stats.completed)
        .collect()
}

/// A telemetry bundle for an instrumented world: info-level tracing, with
/// the tracer's own counters adopted into the registry.
pub fn traced_obs() -> Obs {
    let obs = Obs::new();
    obs.tracer.set_default_level(Level::Info);
    obs.tracer.adopt_into(&obs.registry);
    obs
}
