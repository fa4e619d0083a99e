//! The replication channel ([`crate::ha`]) as the guard runs it: the
//! primary–standby pair. [`HaRuntime`] owns the protocol state — the time
//! of the snapshot a standby holds and heartbeat counting — and answers
//! each message and tick with what the guard must do; the `impl GuardCore`
//! below does it (installs state, sends, counts, traces).

use super::core::{GuardCore, Output, Outputs};
use crate::checkpoint::GuardCheckpoint;
use crate::config::GuardConfig;
use crate::ha::{decode_repl, encode_repl, repl_secret, HaConfig, HaRole, REPL_INTERVAL, REPL_PORT};
use guardhash::cookie::SecretKey;
use netsim::packet::{Endpoint, Packet};
use netsim::time::SimTime;
use obs::trace::Value;

/// Consecutive silent HA intervals before the standby declares the primary
/// dead.
const HEARTBEAT_MISSES: u32 = 3;


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
        let wire = encode_repl(&guard.replica(now), &self.secret);
        let (from, to) = (self.cfg.local_addr, self.cfg.peer_addr);
        Some(Packet::udp(Endpoint::new(from, REPL_PORT), Endpoint::new(to, REPL_PORT), wire))
    }

    /// Takes an authenticated snapshot from the peer at `now`. Whenever it
    /// was taken, it is a heartbeat. Returns whether the guard installs it:
    /// a standby takes a snapshot taken after the one it holds, so a
    /// reordered channel cannot roll it back.
    fn heard(&mut self, now: SimTime, cp: &GuardCheckpoint) -> bool {
        self.last_heartbeat = now;
        self.missed = 0;
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

impl GuardCore {
    /// How often a driver must call [`GuardCore::on_ha_tick`]; `None` for
    /// a standalone guard.
    pub fn ha_interval(&self) -> Option<SimTime> {
        self.ha.as_ref().map(|_| REPL_INTERVAL)
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

    /// Handles an inbound replication-channel datagram. Every authenticated
    /// snapshot from the HA peer doubles as a heartbeat; a standby installs
    /// the newer ones.
    pub(super) fn handle_repl(&mut self, now: SimTime, pkt: Packet) {
        let peer = self.ha.as_mut().filter(|ha| pkt.src.ip == ha.cfg.peer_addr);
        let snapshot = peer.and_then(|ha| decode_repl(&pkt.payload, &ha.secret).ok().map(|cp| (ha, cp)));
        let Some((ha, cp)) = snapshot else {
            self.metrics.repl_rejected.inc();
            return;
        };
        self.metrics.heartbeats_seen.inc();
        if ha.heard(now, &cp) {
            self.apply_checkpoint(&cp, now);
            self.metrics.repl_deltas_applied.inc();
            self.metrics.checkpoint_age_nanos.set(0);
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
    use std::net::Ipv4Addr;

    const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 1);
    const STANDBY: Ipv4Addr = Ipv4Addr::new(10, 50, 0, 2);

    /// The snapshot, taken at `ms`, of a guard with nothing in its tables.
    fn snapshot(ms: u64) -> GuardCheckpoint {
        GuardCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            seq: 1,
            taken_at_nanos: SimTime::from_millis(ms).as_nanos(),
            key_generation: 0,
            rl1: Default::default(),
            rl2: Default::default(),
            next_txid: 1,
            next_qid: 1,
            active: true,
            last_rotation_nanos: 0,
            fwd: Vec::new(),
            stash: Vec::new(),
        }
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
}
