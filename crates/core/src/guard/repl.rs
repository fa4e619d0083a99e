//! The replication channel ([`crate::ha`]) as the guard runs it: the
//! primary–standby pair and the anycast fleet's key plane. [`HaRuntime`] and
//! [`FleetRuntime`] own the protocol state — the time of the snapshot a
//! standby holds, heartbeat counting, the fleet's sync flag and catch-up
//! back-off — and answer each message and tick with what the guard must
//! do; the `impl GuardCore` below does it (installs state, sends, counts,
//! traces).

use super::core::{GuardCore, Output, Outputs};
use super::health::Backoff;
use crate::checkpoint::KeyState;
use crate::config::GuardConfig;
use crate::ha::{
    decode_repl, encode_repl, repl_secret, FleetConfig, HaConfig, HaRole, ReplPayload, REPL_INTERVAL, REPL_PORT,
};
use guardhash::cookie::{CookieFactory, SecretKey};
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use obs::trace::Value;
use std::net::Ipv4Addr;

/// Consecutive silent HA intervals before the standby declares the primary
/// dead.
const HEARTBEAT_MISSES: u32 = 3;

/// Upper bound on a fleet member's catch-up request backoff.
const CATCH_UP_BACKOFF_MAX: SimTime = SimTime::from_secs(1);

/// One authenticated message on the channel. HA and fleet derive the same
/// secret from the shared key seed, so a site can serve both roles over one
/// port and either runtime's copy opens any message.
fn message(secret: &SecretKey, from: Ipv4Addr, to: Ipv4Addr, payload: &ReplPayload) -> Packet {
    let wire = encode_repl(payload, secret);
    Packet::udp(Endpoint::new(from, REPL_PORT), Endpoint::new(to, REPL_PORT), wire)
}

/// What a standby's tick found: the last heartbeat is `age` old, and
/// whether that made the peer dead and this guard its successor.
#[derive(Debug)]
struct Watch {
    age: SimTime,
    took_over: bool,
}

/// Runtime state of the primary–standby pairing. The primary keeps none
/// of its own: each tick it sends its state whole. The standby keeps the
/// time of the snapshot it holds and counts heartbeats (misses, then
/// takeover).
#[derive(Debug)]
pub(super) struct HaRuntime {
    cfg: HaConfig,
    role: HaRole,
    /// Shared channel-authentication secret (derived from `key_seed`).
    secret: SecretKey,
    /// When the snapshot the standby installed last was taken (`None`
    /// before the first).
    held: Option<u64>,
    /// When the peer last sent an authenticated message.
    last_heartbeat: SimTime,
    /// Consecutive HA ticks without a fresh heartbeat.
    missed: u32,
    /// Whether this guard has claimed the guarded address.
    took_over: bool,
}

impl HaRuntime {
    pub(super) fn new(cfg: HaConfig, key_seed: u64) -> Self {
        HaRuntime {
            role: cfg.role,
            secret: repl_secret(key_seed),
            held: None,
            last_heartbeat: SimTime::ZERO,
            missed: 0,
            took_over: false,
            cfg,
        }
    }

    /// Whether this is a primary that still feeds its standby (a promoted
    /// standby serves traffic but has no peer).
    fn feeds_peer(&self) -> bool {
        self.role == HaRole::Primary && !self.took_over
    }

    /// The primary's tick: `guard`'s state at `now`, addressed to the
    /// standby; `None` unless this is a primary that still feeds one.
    fn ship(&self, now: SimTime, guard: &GuardCore) -> Option<Packet> {
        if !self.feeds_peer() {
            return None;
        }
        let snapshot = ReplPayload::Full(Box::new(guard.replica(now)));
        Some(message(&self.secret, self.cfg.local_addr, self.cfg.peer_addr, &snapshot))
    }

    /// Takes an authenticated message from the peer at `now`. Whatever it
    /// carries, it is a heartbeat. Returns whether the guard installs it:
    /// a standby takes a snapshot taken after the one it holds, so a
    /// reordered channel cannot roll it back.
    fn heard(&mut self, now: SimTime, payload: &ReplPayload) -> bool {
        self.last_heartbeat = now;
        self.missed = 0;
        let ReplPayload::Full(cp) = payload else {
            return false;
        };
        let newer = self.role == HaRole::Standby && self.held.is_none_or(|held| cp.taken_at_nanos > held);
        if newer {
            self.held = Some(cp.taken_at_nanos);
        }
        newer
    }

    /// The standby's tick: counts silent intervals and, past the miss
    /// threshold, declares the peer dead and promotes this guard.
    fn watch(&mut self, now: SimTime) -> Watch {
        let age = now.saturating_sub(self.last_heartbeat);
        self.missed = if age > REPL_INTERVAL { self.missed + 1 } else { 0 };
        let took_over = self.missed >= HEARTBEAT_MISSES;
        if took_over {
            self.took_over = true;
            self.role = HaRole::Primary;
        }
        Watch { age, took_over }
    }
}

/// What a promoted standby claims: the guarded public address, and the
/// smallest subnet that holds every `COOKIE2` host (`subnet_base + 1 ..=
/// subnet_base + subnet_range`), so in-flight verified sources keep working
/// without a fresh cookie round-trip (their cookies verify against the
/// replicated key, `COOKIE2` destinations hash identically).
fn claims(config: &GuardConfig) -> [Output; 2] {
    let host_bits = u32::BITS - config.subnet_range.leading_zeros();
    let prefix = (u32::BITS - host_bits) as u8;
    [Output::ClaimAddress(config.public_addr), Output::ClaimSubnet(config.subnet_base, prefix)]
}

/// What a fleet tick decided.
#[derive(Debug)]
enum FleetTick {
    Idle,
    /// Master: the key generation moved; these announce epoch `.0`.
    Announce(u64, Vec<Packet>),
    /// Unsynced member: this asks the master for the current epoch.
    CatchUp(Packet),
}

/// Runtime state of a fleet site (master or member). The master pushes
/// [`ReplPayload::FleetKey`] epochs; members apply them and request a
/// catch-up (with backoff) while unsynced.
#[derive(Debug)]
pub(super) struct FleetRuntime {
    cfg: FleetConfig,
    secret: SecretKey,
    /// Member: whether a key epoch has been applied yet.
    synced: bool,
    /// Master: the key generation last pushed (`u64::MAX` until the first
    /// push, so startup always announces epoch 0).
    sent_generation: u64,
    /// Member: the catch-up request schedule (doubling per request up to
    /// `CATCH_UP_BACKOFF_MAX`).
    catch_up: Backoff,
}

impl FleetRuntime {
    pub(super) fn new(cfg: FleetConfig, key_seed: u64) -> Self {
        FleetRuntime {
            secret: repl_secret(key_seed),
            synced: false,
            sent_generation: u64::MAX,
            catch_up: Backoff::new(REPL_INTERVAL),
            cfg,
        }
    }

    /// Whether `src` is a site this one exchanges keys with: a member's
    /// master, the master's members.
    fn exchanges_with(&self, src: Ipv4Addr) -> bool {
        if self.cfg.master {
            self.cfg.peers.contains(&src)
        } else {
            src == self.cfg.master_addr
        }
    }

    /// Whether a member adopts the pushed `epoch`, its own key being at
    /// `generation`; it is synced from then on.
    fn adopts(&mut self, epoch: u64, generation: u64) -> bool {
        let news = !self.cfg.master && (!self.synced || generation != epoch);
        if news {
            self.synced = true;
            self.catch_up = Backoff::new(REPL_INTERVAL);
        }
        news
    }

    /// The current key epoch, addressed to the site at `to`.
    fn key_for(&self, to: Ipv4Addr, cookies: &CookieFactory) -> Packet {
        let (epoch, key) = (cookies.generation(), Box::new(KeyState::capture(cookies)));
        message(&self.secret, self.cfg.local_addr, to, &ReplPayload::FleetKey { epoch, key })
    }

    /// One fleet-sync tick: the master announces a new key epoch to every
    /// member when its generation moved; an unsynced member requests a
    /// catch-up with exponential backoff.
    fn tick(&mut self, now: SimTime, cookies: &CookieFactory) -> FleetTick {
        let generation = cookies.generation();
        if self.cfg.master && self.sent_generation != generation {
            self.sent_generation = generation;
            let to_members = self.cfg.peers.iter().map(|&peer| self.key_for(peer, cookies));
            FleetTick::Announce(generation, to_members.collect())
        } else if !self.cfg.master && !self.synced && self.catch_up.due(now, CATCH_UP_BACKOFF_MAX) {
            // `u64::MAX` = "never applied an epoch", so the master always
            // answers — even when both sides still sit at generation 0.
            let ask = ReplPayload::FleetKeyReq { have_epoch: u64::MAX };
            FleetTick::CatchUp(message(&self.secret, self.cfg.local_addr, self.cfg.master_addr, &ask))
        } else {
            FleetTick::Idle
        }
    }
}

impl GuardCore {
    /// How often a driver must call [`GuardCore::on_ha_tick`]; `None` for
    /// a standalone guard.
    pub fn ha_interval(&self) -> Option<SimTime> {
        self.ha.as_ref().map(|_| REPL_INTERVAL)
    }

    /// How often a driver must call [`GuardCore::on_fleet_tick`]; `None`
    /// outside a fleet.
    pub fn fleet_interval(&self) -> Option<SimTime> {
        self.fleet.as_ref().map(|_| REPL_INTERVAL)
    }

    /// The guard's HA role, if paired.
    pub fn ha_role(&self) -> Option<HaRole> {
        self.ha.as_ref().map(|ha| ha.role)
    }

    /// Whether this guard (a standby) has promoted itself and claimed the
    /// guarded address.
    pub fn has_taken_over(&self) -> bool {
        self.ha.as_ref().is_some_and(|ha| ha.took_over)
    }

    /// Whether this guard takes its key from a fleet master. Members never
    /// rotate locally — epochs only originate at the master, or the fleet
    /// keys diverge.
    pub(super) fn is_fleet_member(&self) -> bool {
        self.fleet.as_ref().is_some_and(|f| !f.cfg.master)
    }

    /// Handles an inbound replication-channel datagram — HA pair traffic
    /// and fleet key-sync share the port and the authenticated framing.
    /// Every authenticated message from the HA peer doubles as a
    /// heartbeat; fleet messages carry no liveness meaning.
    pub(super) fn handle_repl(&mut self, now: SimTime, out: &mut Outputs, pkt: Packet) {
        let src = pkt.src.ip;
        let from_peer = self.ha.as_ref().is_some_and(|ha| src == ha.cfg.peer_addr);
        let from_site = self.fleet.as_ref().is_some_and(|f| f.exchanges_with(src));
        let secret = self.ha.as_ref().map(|ha| &ha.secret);
        let secret = secret.or(self.fleet.as_ref().map(|f| &f.secret));
        let payload = secret
            .filter(|_| from_peer || from_site)
            .and_then(|secret| decode_repl(&pkt.payload, secret).ok());
        let Some(payload) = payload else {
            self.metrics.repl_rejected.inc();
            return;
        };
        let install = match &mut self.ha {
            Some(ha) if from_peer => {
                self.metrics.heartbeats_seen.inc();
                ha.heard(now, &payload)
            }
            _ => false,
        };
        match payload {
            ReplPayload::Full(cp) if install => {
                self.apply_checkpoint(&cp, now);
                self.metrics.repl_deltas_applied.inc();
                self.metrics.checkpoint_age_nanos.set(0);
            }
            ReplPayload::FleetKey { epoch, key } if from_site => {
                let generation = self.cookies.generation();
                if self.fleet.as_mut().is_some_and(|f| f.adopts(epoch, generation)) {
                    self.adopt_fleet_key(now, epoch, &key);
                }
            }
            ReplPayload::FleetKeyReq { have_epoch } if from_site && have_epoch != self.cookies.generation() => {
                let master = self.fleet.as_ref().filter(|f| f.cfg.master);
                if let Some(key) = master.map(|f| f.key_for(src, &self.cookies)) {
                    self.metrics.fleet_keys_sent.inc();
                    self.tx(out, key);
                }
            }
            // Authentic, but not this sender's to send or this role's to take.
            _ => {}
        }
    }

    /// Installs a pushed fleet key epoch (member side). The carried state
    /// includes the previous key, so cookies minted under the prior epoch
    /// keep verifying here — the fleet-wide grace window.
    fn adopt_fleet_key(&mut self, now: SimTime, epoch: u64, key: &KeyState) {
        self.cookies.replace(key.to_factory(self.config.cookie_alg));
        self.last_rotation = now;
        self.metrics.fleet_keys_applied.inc();
        let fields = [("epoch", Value::U64(epoch)), ("role", Value::Str("member"))];
        self.metrics.trace.event(now.as_nanos(), "fleet_key_rotate", &fields);
    }

    /// One fleet-sync tick ([`GuardCore::fleet_interval`] apart).
    pub fn on_fleet_tick(&mut self, now: SimTime, out: &mut Outputs) {
        let Some(fleet) = &mut self.fleet else {
            return;
        };
        match fleet.tick(now, &self.cookies) {
            FleetTick::Idle => {}
            FleetTick::Announce(epoch, to_members) => {
                for key in to_members {
                    self.metrics.fleet_keys_sent.inc();
                    self.tx(out, key);
                }
                let fields = [("epoch", Value::U64(epoch)), ("role", Value::Str("master"))];
                self.metrics.trace.event(now.as_nanos(), "fleet_key_rotate", &fields);
            }
            FleetTick::CatchUp(ask) => {
                self.metrics.fleet_key_reqs.inc();
                self.tx(out, ask);
            }
        }
    }

    /// One replication-interval tick ([`GuardCore::ha_interval`] apart):
    /// the primary ships state, the standby watches heartbeats and takes
    /// over past the miss threshold.
    pub fn on_ha_tick(&mut self, now: SimTime, out: &mut Outputs) {
        if let Some(snapshot) = self.ha.as_ref().and_then(|ha| ha.ship(now, self)) {
            self.metrics.repl_deltas_sent.inc();
            self.tx(out, snapshot);
        }
        let standby = self.ha.as_mut().filter(|ha| ha.role == HaRole::Standby);
        let Some(Watch { age, took_over }) = standby.map(|ha| ha.watch(now)) else {
            return;
        };
        // The standby's recoverable state ages from its last applied
        // replication message — that is what `checkpoint_lag` alerts on.
        self.metrics.checkpoint_age_nanos.set(age.as_nanos());
        if !took_over {
            return;
        }
        self.metrics.peer_down_events.inc();
        self.metrics.trace.event(now.as_nanos(), "peer_down", &[]);
        for claim in claims(&self.config) {
            out.push(claim);
        }
        self.last_checkpoint = now;
        self.metrics.failover_takeovers.inc();
        self.metrics.checkpoint_age_nanos.set(0);
        let addr = [("addr", Value::Ip(self.config.public_addr))];
        self.metrics.trace.event(now.as_nanos(), "takeover", &addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::GuardCheckpoint;

    const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 1);
    const STANDBY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 2);

    /// The snapshot, taken at `ms`, of a guard with nothing in its tables.
    fn snapshot(ms: u64) -> ReplPayload {
        ReplPayload::Full(Box::new(GuardCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            seq: 1,
            taken_at_nanos: SimTime::from_millis(ms).as_nanos(),
            key: KeyState::capture(&CookieFactory::from_seed(7)),
            rl1: Default::default(),
            rl2: Default::default(),
            next_txid: 1,
            next_qid: 1,
            active: true,
            last_rotation_nanos: 0,
            fwd: Vec::new(),
            stash: Vec::new(),
        }))
    }

    #[test]
    fn a_standby_installs_only_a_later_snapshot_and_a_primary_none() {
        let at = SimTime::from_millis;
        let mut standby = HaRuntime::new(HaConfig::standby(STANDBY, PRIMARY), 7);
        assert!(standby.heard(at(1), &snapshot(0)), "the first snapshot, whenever taken");
        assert!(standby.heard(at(21), &snapshot(20)));
        // Reordered or repeated: a heartbeat, not state.
        assert!(!standby.heard(at(41), &snapshot(0)));
        assert!(!standby.heard(at(42), &snapshot(20)));
        assert_eq!((standby.last_heartbeat, standby.missed), (at(42), 0));
        assert!(standby.heard(at(61), &snapshot(60)), "one lost in between costs nothing more");
        let fleet_key = ReplPayload::FleetKeyReq { have_epoch: 0 };
        assert!(!standby.heard(at(62), &fleet_key));

        let mut primary = HaRuntime::new(HaConfig::primary(PRIMARY, STANDBY), 7);
        assert!(!primary.heard(at(1), &snapshot(0)), "a primary takes no state");
    }

    #[test]
    fn a_standby_promotes_itself_past_the_miss_threshold() {
        let tick = |ha: &mut HaRuntime, n: u64| ha.watch(SimTime::from_millis(20 * n));
        let mut standby = HaRuntime::new(HaConfig::standby(STANDBY, PRIMARY), 7);
        standby.heard(SimTime::from_millis(20), &snapshot(19));
        for n in 1..=4 {
            let Watch { took_over: false, .. } = tick(&mut standby, n) else {
                panic!("tick {n}: the peer is not dead yet");
            };
        }
        let Watch { age, took_over: true } = tick(&mut standby, 5) else {
            panic!("three silent intervals: promoted");
        };
        assert_eq!(age, SimTime::from_millis(80));
        assert!(standby.took_over && standby.role == HaRole::Primary);
        assert!(!standby.feeds_peer(), "a promoted standby feeds no peer");
    }

    #[test]
    fn take_over_claims_the_smallest_subnet_that_holds_every_cookie2_host() {
        let base = Ipv4Addr::new(198, 41, 0, 0);
        for (range, expected) in [(16u32, 27u8), (64, 25), (127, 25), (254, 24), (255, 24), (1024, 21)] {
            let mut config = GuardConfig::new(Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(10, 99, 0, 1));
            config.subnet_base = base;
            config.subnet_range = range;
            let [Output::ClaimAddress(addr), Output::ClaimSubnet(subnet, prefix)] = claims(&config) else {
                panic!("the address, then the subnet");
            };
            assert_eq!((addr, subnet), (config.public_addr, base));
            let covers = |prefix: u8| {
                let mask = u32::MAX << (32 - prefix as u32);
                (1..=range).all(|host| (u32::from(base) + host) & mask == u32::from(base))
            };
            assert!(covers(prefix), "range {range}: /{prefix} leaves COOKIE2 hosts out");
            assert!(!covers(prefix + 1), "range {range}: /{} would do", prefix + 1);
            assert_eq!(prefix, expected, "range {range}");
        }
    }

    #[test]
    fn fleet_sites_know_their_counterparts_and_members_back_off() {
        let cookies = CookieFactory::from_seed(7);
        let members = vec![Ipv4Addr::new(10, 60, 0, 2), Ipv4Addr::new(10, 60, 0, 3)];
        let mut master = FleetRuntime::new(FleetConfig::master(PRIMARY, members.clone()), 7);
        assert!(master.exchanges_with(members[1]) && !master.exchanges_with(STANDBY));
        let FleetTick::Announce(0, pushed) = master.tick(SimTime::ZERO, &cookies) else {
            panic!("startup announces epoch 0");
        };
        assert_eq!(pushed.iter().map(|p| p.dst.ip).collect::<Vec<_>>(), members);
        assert!(matches!(master.tick(SimTime::from_millis(20), &cookies), FleetTick::Idle));
        assert!(!master.adopts(1, 0), "a master takes no epoch");

        let mut member = FleetRuntime::new(FleetConfig::member(members[0], PRIMARY), 7);
        assert!(member.exchanges_with(PRIMARY) && !member.exchanges_with(members[1]));
        let asked: Vec<u64> = (0..=40)
            .filter(|&n| matches!(member.tick(SimTime::from_millis(20 * n), &cookies), FleetTick::CatchUp(_)))
            .collect();
        assert_eq!(asked, [0, 1, 3, 7, 15, 31]);
        assert!(member.adopts(0, 0), "the first push syncs, even at the same generation");
        assert!(!member.adopts(0, 0), "a repeat of the epoch held is not news");
        assert!(member.adopts(1, 0));
        assert!(matches!(member.tick(SimTime::from_secs(9), &cookies), FleetTick::Idle));
    }
}
