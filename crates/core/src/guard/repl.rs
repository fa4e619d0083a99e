//! The replication channel ([`crate::ha`]) as the guard runs it: the
//! primary–standby pair and the anycast fleet's key plane. [`HaRuntime`] and
//! [`FleetRuntime`] own the protocol state — sequence numbers, sync flags,
//! heartbeat counting, back-offs — and answer each message and tick with
//! what the guard must do; the `impl GuardCore` below does it (applies
//! state, sends, counts, traces).

use super::core::{GuardCore, Output, Outputs};
use super::health::Backoff;
use super::restore::fwd_state_of;
use super::stash::StashKey;
use crate::checkpoint::{GuardCheckpoint, KeyState};
use crate::config::GuardConfig;
use crate::ha::{
    decode_repl, encode_repl, repl_secret, FleetConfig, HaConfig, HaRole, ReplDelta, ReplPayload,
    REPL_INTERVAL, REPL_PORT,
};
use guardhash::cookie::{CookieFactory, SecretKey};
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use obs::trace::Value;
use std::net::Ipv4Addr;

/// Consecutive silent HA intervals before the standby declares the primary
/// dead.
const HEARTBEAT_MISSES: u32 = 3;

/// Upper bound on the standby's resync-request backoff.
const PEER_BACKOFF_MAX: SimTime = SimTime::from_secs(1);

/// Upper bound on a fleet member's catch-up request backoff.
const CATCH_UP_BACKOFF_MAX: SimTime = SimTime::from_secs(1);

/// One authenticated message on the channel. HA and fleet derive the same
/// secret from the shared key seed, so a site can serve both roles over one
/// port and either runtime's copy opens any message.
fn message(secret: &SecretKey, from: Ipv4Addr, to: Ipv4Addr, payload: &ReplPayload) -> Packet {
    let wire = encode_repl(payload, secret);
    Packet::udp(Endpoint::new(from, REPL_PORT), Endpoint::new(to, REPL_PORT), wire)
}

/// Table keys a primary inserted and removed since its last delta.
#[derive(Debug, Default)]
pub(super) struct Pending {
    pub(super) fwd_add: Vec<u16>,
    pub(super) fwd_del: Vec<u16>,
    pub(super) stash_add: Vec<StashKey>,
    pub(super) stash_del: Vec<StashKey>,
}

/// What a guard must do with an authenticated message from its HA peer.
#[derive(Debug)]
enum FromPeer {
    /// Nothing: not this role's to take, or a resync request held back.
    Nothing,
    /// Install the full snapshot it carries.
    Install,
    /// Apply the in-sequence delta it carries.
    Apply,
    /// Ask for a full snapshot, with this request.
    AskResync(Packet),
}

/// What a standby's tick found: the last heartbeat is `age` old, and
/// whether that made the peer dead and this guard its successor.
#[derive(Debug)]
struct Watch {
    age: SimTime,
    took_over: bool,
}

/// Runtime state of the primary–standby pairing. One struct serves both
/// roles: the primary uses the replication-sequence and pending-change
/// fields, the standby the heartbeat fields (miss counting, then takeover).
#[derive(Debug)]
pub(super) struct HaRuntime {
    cfg: HaConfig,
    role: HaRole,
    /// Shared channel-authentication secret (derived from `key_seed`).
    secret: SecretKey,
    // -- primary side --
    /// Last sequence number sent on the channel.
    repl_seq: u64,
    /// Key generation included in the last shipped state (`u64::MAX`
    /// until anything is sent), so rotations ride the next delta.
    sent_generation: u64,
    /// Ship a full snapshot on the next tick (startup, or peer resync).
    need_full: bool,
    /// Table changes since the last delta.
    pending: Pending,
    // -- standby side --
    /// Highest sequence number applied.
    applied_seq: u64,
    /// Whether the standby holds a consistent snapshot (false until the
    /// first `Full` arrives, and again after a sequence gap).
    synced: bool,
    /// When the standby may send another `ResyncReq` (doubling per request
    /// up to `PEER_BACKOFF_MAX`, reset when a full snapshot lands).
    resync: Backoff,
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
            repl_seq: 0,
            sent_generation: u64::MAX,
            need_full: true,
            pending: Pending::default(),
            applied_seq: 0,
            synced: false,
            resync: Backoff::new(REPL_INTERVAL),
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

    fn to_peer(&self, payload: &ReplPayload) -> Packet {
        message(&self.secret, self.cfg.local_addr, self.cfg.peer_addr, payload)
    }

    /// Standby → primary: "my state ends here, send a full snapshot".
    fn resync_req(&self) -> Packet {
        self.to_peer(&ReplPayload::ResyncReq { have_seq: self.applied_seq })
    }

    /// Takes an authenticated message from the peer at `now`. Whatever it
    /// carries, it is a heartbeat.
    fn heard(&mut self, now: SimTime, payload: &ReplPayload) -> FromPeer {
        self.last_heartbeat = now;
        self.missed = 0;
        match (self.role, payload) {
            (HaRole::Standby, ReplPayload::Full(cp)) => {
                self.applied_seq = cp.seq;
                self.synced = true;
                // A consistent snapshot ends any resync conversation.
                self.resync = Backoff::new(REPL_INTERVAL);
                FromPeer::Install
            }
            (HaRole::Standby, ReplPayload::Delta(d)) if self.synced && d.seq == self.applied_seq + 1 => {
                self.applied_seq = d.seq;
                FromPeer::Apply
            }
            // Sequence gap (or never synced): ask for a full snapshot rather
            // than applying a delta out of order — but back the requests
            // off. On a lossy channel every surviving delta is out of
            // sequence; answering each made the primary ship one snapshot
            // per miss, a self-amplifying storm.
            (HaRole::Standby, ReplPayload::Delta(_)) => {
                self.synced = false;
                if self.resync.due(now, PEER_BACKOFF_MAX) {
                    FromPeer::AskResync(self.resync_req())
                } else {
                    FromPeer::Nothing
                }
            }
            (HaRole::Primary, ReplPayload::ResyncReq { .. }) => {
                self.need_full = true;
                FromPeer::Nothing
            }
            // Authentic, but not this role's to take.
            _ => FromPeer::Nothing,
        }
    }

    /// The primary's tick: a full snapshot of `guard` (whose pairing state
    /// this is, taken out for the call) when one is owed, else the changes
    /// since the last message; an empty delta is the heartbeat.
    fn ship(&mut self, now: SimTime, guard: &GuardCore) -> Packet {
        let generation = guard.cookies.generation();
        self.repl_seq += 1;
        let Pending { mut fwd_add, fwd_del, stash_add, stash_del } = std::mem::take(&mut self.pending);
        let payload = if std::mem::take(&mut self.need_full) {
            ReplPayload::Full(GuardCheckpoint { seq: self.repl_seq, ..guard.checkpoint(now) })
        } else {
            fwd_add.sort_unstable();
            fwd_add.dedup();
            let fwd_of = |&txid| guard.fwd.get(txid).and_then(|f| fwd_state_of(txid, f));
            ReplPayload::Delta(ReplDelta {
                seq: self.repl_seq,
                key: (self.sent_generation != generation).then(|| KeyState::capture(&guard.cookies)),
                fwd_add: fwd_add.iter().filter_map(fwd_of).collect(),
                fwd_del,
                stash_add: stash_add.iter().filter_map(|key| guard.stash.get(key).cloned()).collect(),
                stash_del,
                next_txid: guard.next_txid,
                next_qid: guard.next_qid,
                active: guard.active,
            })
        };
        self.sent_generation = generation;
        self.to_peer(&payload)
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
            self.need_full = true;
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
        let (epoch, key) = (cookies.generation(), KeyState::capture(cookies));
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

    /// The change log the next delta is built from, when this guard is a
    /// primary that still feeds its standby.
    pub(super) fn replicated(&mut self) -> Option<&mut Pending> {
        self.ha.as_mut().filter(|ha| ha.feeds_peer()).map(|ha| &mut ha.pending)
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
        let peer_says = match &mut self.ha {
            Some(ha) if from_peer => {
                self.metrics.heartbeats_seen.inc();
                ha.heard(now, &payload)
            }
            _ => FromPeer::Nothing,
        };
        match (payload, peer_says) {
            (ReplPayload::Full(cp), FromPeer::Install) => {
                self.apply_checkpoint(&cp, now);
                self.metrics.repl_deltas_applied.inc();
                self.metrics.checkpoint_age_nanos.set(0);
            }
            (ReplPayload::Delta(d), FromPeer::Apply) => self.apply_delta(now, d),
            (_, FromPeer::AskResync(ask)) => {
                self.metrics.repl_resyncs.inc();
                self.tx(out, ask);
            }
            (ReplPayload::FleetKey { epoch, key }, _) if from_site => {
                let generation = self.cookies.generation();
                if self.fleet.as_mut().is_some_and(|f| f.adopts(epoch, generation)) {
                    self.adopt_fleet_key(now, epoch, &key);
                }
            }
            (ReplPayload::FleetKeyReq { have_epoch }, _)
                if from_site && have_epoch != self.cookies.generation() =>
            {
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

    /// Applies one in-sequence replication delta (standby side).
    fn apply_delta(&mut self, now: SimTime, d: ReplDelta) {
        if let Some(k) = &d.key {
            self.cookies.replace(k.to_factory(self.config.cookie_alg));
        }
        for f in &d.fwd_add {
            self.install_fwd_state(f, now);
        }
        for txid in &d.fwd_del {
            self.remove_fwd(*txid, None);
        }
        for s in &d.stash_add {
            self.install_stash_state(s, now);
        }
        for key in &d.stash_del {
            self.remove_stash(key);
        }
        self.next_txid = self.next_txid.max(d.next_txid.max(1));
        self.next_qid = self.next_qid.max(d.next_qid);
        if self.config.activation_threshold > 0.0 {
            self.active = d.active;
        }
        self.metrics.repl_deltas_applied.inc();
        self.metrics.checkpoint_age_nanos.set(0);
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
        let Some(mut ha) = self.ha.take() else {
            return;
        };
        let shipped = ha.feeds_peer().then(|| ha.ship(now, self));
        let watch = (ha.role == HaRole::Standby).then(|| ha.watch(now));
        self.ha = Some(ha);
        if let Some(state) = shipped {
            self.metrics.repl_deltas_sent.inc();
            self.tx(out, state);
        }
        let Some(Watch { age, took_over }) = watch else {
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
    use crate::ha::decode_repl;

    const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 1);
    const STANDBY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 2);

    fn delta(seq: u64) -> ReplPayload {
        ReplPayload::Delta(ReplDelta { seq, ..ReplDelta::default() })
    }

    /// The snapshot of a guard with nothing in its tables.
    fn snapshot(seq: u64) -> ReplPayload {
        ReplPayload::Full(GuardCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            seq,
            taken_at_nanos: 0,
            key: KeyState::capture(&CookieFactory::from_seed(7)),
            rl1: Default::default(),
            rl2: Default::default(),
            next_txid: 1,
            next_qid: 1,
            active: true,
            last_rotation_nanos: 0,
            fwd: Vec::new(),
            stash: Vec::new(),
        })
    }

    #[test]
    fn a_standby_backs_its_resync_requests_off() {
        let interval = SimTime::from_millis(20);
        let mut standby = HaRuntime::new(HaConfig::standby(STANDBY, PRIMARY), 7);
        assert!(matches!(standby.heard(SimTime::ZERO, &snapshot(1)), FromPeer::Install));
        assert!(matches!(standby.heard(SimTime::from_millis(1), &delta(2)), FromPeer::Apply));
        // Deltas 3..=5 are lost; ten that survive arrive inside one interval.
        let asked: Vec<Packet> = (0..10)
            .filter_map(|n| match standby.heard(SimTime::from_millis(2) + interval * n / 10, &delta(6 + n)) {
                FromPeer::AskResync(ask) => Some(ask),
                FromPeer::Nothing => None,
                other => panic!("an out-of-sequence delta was taken: {other:?}"),
            })
            .collect();
        let [ask] = asked.as_slice() else {
            panic!("one request per back-off interval, not {}", asked.len());
        };
        assert_eq!((ask.src.ip, ask.dst.ip, ask.dst.port), (STANDBY, PRIMARY, REPL_PORT));
        let primary = HaRuntime::new(HaConfig::primary(PRIMARY, STANDBY), 7);
        let have = decode_repl(&ask.payload, &primary.secret);
        assert_eq!(have, Ok(ReplPayload::ResyncReq { have_seq: 2 }));
        // The next goes out one interval on, the one after two more: doubling.
        let at = |ms| SimTime::from_millis(ms);
        assert!(matches!(standby.heard(at(21), &delta(20)), FromPeer::Nothing));
        assert!(matches!(standby.heard(at(22), &delta(21)), FromPeer::AskResync(_)));
        assert!(matches!(standby.heard(at(61), &delta(22)), FromPeer::Nothing));
        assert!(matches!(standby.heard(at(62), &delta(23)), FromPeer::AskResync(_)));
        // Even the delta in sequence is refused until a snapshot lands.
        assert!(matches!(standby.heard(at(63), &delta(3)), FromPeer::Nothing));
        assert!(matches!(standby.heard(at(64), &snapshot(30)), FromPeer::Install));
        assert!(matches!(standby.heard(at(65), &delta(31)), FromPeer::Apply));
        // The snapshot ended the conversation: the next gap asks at once.
        assert!(matches!(standby.heard(at(66), &delta(40)), FromPeer::AskResync(_)));
    }

    #[test]
    fn a_primary_takes_only_the_resync_request() {
        let mut primary = HaRuntime::new(HaConfig::primary(PRIMARY, STANDBY), 7);
        primary.need_full = false;
        assert!(matches!(primary.heard(SimTime::ZERO, &delta(1)), FromPeer::Nothing));
        assert!(matches!(primary.heard(SimTime::ZERO, &snapshot(1)), FromPeer::Nothing));
        assert!(!primary.need_full);
        let ask = ReplPayload::ResyncReq { have_seq: 0 };
        assert!(matches!(primary.heard(SimTime::ZERO, &ask), FromPeer::Nothing));
        assert!(primary.need_full, "the next tick ships a full snapshot");
    }

    #[test]
    fn a_standby_promotes_itself_past_the_miss_threshold() {
        let tick = |ha: &mut HaRuntime, n: u64| ha.watch(SimTime::from_millis(20 * n));
        let mut standby = HaRuntime::new(HaConfig::standby(STANDBY, PRIMARY), 7);
        standby.heard(SimTime::from_millis(20), &snapshot(1));
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
