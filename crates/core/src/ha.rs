//! Primary–standby replication for guard high availability.
//!
//! A primary guard streams its state to a standby over a sequenced UDP
//! channel on [`REPL_PORT`]: a [`ReplPayload::Full`] snapshot first, then
//! a [`ReplPayload::Delta`] every [`REPL_INTERVAL`] carrying only what
//! changed since the previous tick. An empty delta doubles as a heartbeat.
//! The standby detects a sequence gap and answers with
//! [`ReplPayload::ResyncReq`], which makes the primary ship a fresh full
//! snapshot; once the primary falls silent, the standby takes the guarded
//! address over.
//!
//! The channel rides the same simulated network the attacker floods, so
//! every message is authenticated: a 16-byte MD5 tag keyed by a secret both
//! guards derive from the shared `key_seed`. A spoofed replication packet
//! fails the tag check and is counted, not applied — without this, an
//! attacker who can spoof the primary's address could feed the standby a
//! poisoned forward table.
//!
//! What deltas deliberately **omit**: rate-limiter bucket fills (the
//! standby rebuilds pressure from scratch — briefly more permissive, never
//! less safe, and not worth the per-source churn on the wire) and TCP relay
//! / probe forward entries (connections die with the primary).

use crate::checkpoint::{
    get_fwd, get_key, get_name, get_stash, put_fwd, put_key, put_name, put_stash, put_u16, put_u32,
    put_u64, DecodeError, FwdState, GuardCheckpoint, KeyState, Reader, StashState,
    CHECKPOINT_VERSION,
};
use dnswire::name::Name;
use guardhash::cookie::SecretKey;
use guardhash::md5::{Md5, DIGEST_LEN};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// UDP port the replication channel uses on both guards.
pub const REPL_PORT: u16 = 8653;

/// Cadence of the replication channel: an HA primary's delta/heartbeat, an
/// HA standby's heartbeat check, a fleet master's key-sync tick and an
/// unsynced member's first catch-up interval.
pub const REPL_INTERVAL: SimTime = SimTime::from_millis(20);

/// Magic prefix of an authenticated replication message body.
pub const REPL_MAGIC: [u8; 4] = *b"GRPL";

/// Which side of the pair a guard plays. (A guard with no
/// [`HaConfig`] at all is standalone.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaRole {
    /// Serves traffic and streams state to the peer.
    Primary,
    /// Applies the stream and takes over when the primary goes silent.
    Standby,
}

/// High-availability pairing configuration.
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// This guard's role at startup.
    pub role: HaRole,
    /// This guard's own replication address (distinct from the guarded
    /// public address, which only the acting primary owns).
    pub local_addr: Ipv4Addr,
    /// The peer's replication address.
    pub peer_addr: Ipv4Addr,
}

impl HaConfig {
    /// A primary streaming from `local` to the standby at `peer`.
    pub fn primary(local: Ipv4Addr, peer: Ipv4Addr) -> Self {
        HaConfig {
            role: HaRole::Primary,
            local_addr: local,
            peer_addr: peer,
        }
    }

    /// A standby at `local` watching the primary at `peer`.
    pub fn standby(local: Ipv4Addr, peer: Ipv4Addr) -> Self {
        HaConfig {
            role: HaRole::Standby,
            ..HaConfig::primary(local, peer)
        }
    }
}

/// Anycast fleet membership: N guard sites front the same public address
/// from different catchments and share one cookie secret, so a client
/// re-routed by a BGP catchment shift keeps verifying without a fresh
/// handshake.
///
/// One site is the key master: it originates rotations and pushes
/// [`ReplPayload::FleetKey`] epochs to every member over the same
/// authenticated channel HA replication uses. Members never rotate
/// locally; they apply pushed epochs, and the carried previous key keeps
/// the paper's one-generation grace window intact fleet-wide — no site
/// ever rejects a cookie minted under the prior epoch.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Whether this site originates key epochs.
    pub master: bool,
    /// This site's own replication address.
    pub local_addr: Ipv4Addr,
    /// Master: the member sites to push epochs to. Member: ignored.
    pub peers: Vec<Ipv4Addr>,
    /// Member: the master's replication address. Master: own address.
    pub master_addr: Ipv4Addr,
}

impl FleetConfig {
    /// The key-master site at `local`, pushing epochs to `members`.
    pub fn master(local: Ipv4Addr, members: Vec<Ipv4Addr>) -> Self {
        FleetConfig {
            master: true,
            local_addr: local,
            peers: members,
            master_addr: local,
        }
    }

    /// A member site at `local` applying epochs from `master`.
    pub fn member(local: Ipv4Addr, master: Ipv4Addr) -> Self {
        FleetConfig {
            master: false,
            local_addr: local,
            peers: Vec::new(),
            master_addr: master,
        }
    }
}

/// One message on the replication channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplPayload {
    /// A complete snapshot (sent first, and on resync).
    Full(GuardCheckpoint),
    /// Changes since the previous tick. An empty delta is a heartbeat.
    Delta(ReplDelta),
    /// Standby→primary: "my state ends at `have_seq`, send a full
    /// snapshot". Also doubles as the standby's liveness probe.
    ResyncReq {
        /// Highest sequence number the standby has applied.
        have_seq: u64,
    },
    /// Master→member: the fleet cookie key at `epoch`. Carries the full
    /// rotation state (current + previous key), so applying it preserves
    /// the one-generation grace window at every site.
    FleetKey {
        /// Key epoch — the master's rotation generation.
        epoch: u64,
        /// The shared key state, previous key included.
        key: KeyState,
    },
    /// Member→master: "my key epoch is `have_epoch`, push the current
    /// one". Sent on join and while catching up after a miss.
    FleetKeyReq {
        /// The member's applied epoch (`u64::MAX` before the first).
        have_epoch: u64,
    },
}

/// Incremental state changes, applied in field order: key first, additions
/// before deletions (an entry added and removed within one tick must end
/// up absent).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplDelta {
    /// Sequence number; the standby requires exactly `applied + 1`.
    pub seq: u64,
    /// New key state, present only when a rotation happened.
    pub key: Option<KeyState>,
    /// Forward-table entries created this tick (still live at send time).
    pub fwd_add: Vec<FwdState>,
    /// Forward-table keys removed this tick.
    pub fwd_del: Vec<u16>,
    /// Stash entries created this tick.
    pub stash_add: Vec<StashState>,
    /// Stash keys removed this tick.
    pub stash_del: Vec<(Ipv4Addr, Name)>,
    /// Allocator high-water marks, so a takeover never reuses a live id.
    pub next_txid: u16,
    /// Journey-id high-water mark.
    pub next_qid: u64,
    /// Whether spoof detection is currently engaged.
    pub active: bool,
}

impl ReplDelta {
    /// Whether this delta carries no state change (pure heartbeat).
    pub fn is_heartbeat(&self) -> bool {
        self.key.is_none()
            && self.fwd_add.is_empty()
            && self.fwd_del.is_empty()
            && self.stash_add.is_empty()
            && self.stash_del.is_empty()
    }
}

/// Why an inbound replication message was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplError {
    /// Authentication tag mismatch (spoofed, corrupted, or wrong pair).
    BadAuth,
    /// Structurally invalid after authentication.
    Decode(DecodeError),
}

/// Derives the shared replication-channel secret from the guards' common
/// key seed. Both halves of a pair run with identical `GuardConfig`
/// seeds, so this needs no extra provisioning.
pub fn repl_secret(key_seed: u64) -> SecretKey {
    SecretKey::from_seed(key_seed ^ 0xA11C_E5EC)
}

fn auth_tag(secret: &SecretKey, body: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Md5::new();
    h.update(secret.as_bytes());
    h.update(body);
    h.finalize()
}

const TAG_FULL: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_RESYNC: u8 = 3;
const TAG_FLEET: u8 = 4;
const TAG_FLEET_REQ: u8 = 5;

/// Serializes and authenticates one replication message:
/// `tag(16) || magic || version || kind || fields`.
pub fn encode_repl(payload: &ReplPayload, secret: &SecretKey) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&REPL_MAGIC);
    put_u32(&mut body, CHECKPOINT_VERSION);
    match payload {
        ReplPayload::Full(cp) => {
            body.push(TAG_FULL);
            let wire = cp.encode();
            put_u32(&mut body, wire.len() as u32);
            body.extend_from_slice(&wire);
        }
        ReplPayload::Delta(d) => {
            body.push(TAG_DELTA);
            put_u64(&mut body, d.seq);
            match &d.key {
                Some(k) => {
                    body.push(1);
                    put_key(&mut body, k);
                }
                None => body.push(0),
            }
            put_u32(&mut body, d.fwd_add.len() as u32);
            for f in &d.fwd_add {
                put_fwd(&mut body, f);
            }
            put_u32(&mut body, d.fwd_del.len() as u32);
            for txid in &d.fwd_del {
                put_u16(&mut body, *txid);
            }
            put_u32(&mut body, d.stash_add.len() as u32);
            for s in &d.stash_add {
                put_stash(&mut body, s);
            }
            put_u32(&mut body, d.stash_del.len() as u32);
            for (ip, name) in &d.stash_del {
                body.extend_from_slice(&ip.octets());
                put_name(&mut body, name);
            }
            put_u16(&mut body, d.next_txid);
            put_u64(&mut body, d.next_qid);
            body.push(d.active as u8);
        }
        ReplPayload::ResyncReq { have_seq } => {
            body.push(TAG_RESYNC);
            put_u64(&mut body, *have_seq);
        }
        ReplPayload::FleetKey { epoch, key } => {
            body.push(TAG_FLEET);
            put_u64(&mut body, *epoch);
            put_key(&mut body, key);
        }
        ReplPayload::FleetKeyReq { have_epoch } => {
            body.push(TAG_FLEET_REQ);
            put_u64(&mut body, *have_epoch);
        }
    }
    let mut out = Vec::with_capacity(DIGEST_LEN + body.len());
    out.extend_from_slice(&auth_tag(secret, &body));
    out.extend_from_slice(&body);
    out
}

/// Authenticates and parses one replication message.
pub fn decode_repl(bytes: &[u8], secret: &SecretKey) -> Result<ReplPayload, ReplError> {
    if bytes.len() < DIGEST_LEN {
        return Err(ReplError::BadAuth);
    }
    let (tag, body) = bytes.split_at(DIGEST_LEN);
    if auth_tag(secret, body) != *tag {
        return Err(ReplError::BadAuth);
    }
    decode_body(body).map_err(ReplError::Decode)
}

fn decode_body(body: &[u8]) -> Result<ReplPayload, DecodeError> {
    let mut r = Reader::new(body);
    if r.bytes(4)? != REPL_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let payload = match r.u8()? {
        TAG_FULL => {
            let len = r.u32()? as usize;
            let wire = r.bytes(len)?;
            ReplPayload::Full(GuardCheckpoint::decode(wire)?)
        }
        // Fields are read in the order they are written here: the wire's.
        TAG_DELTA => ReplPayload::Delta(ReplDelta {
            seq: r.u64()?,
            key: match r.u8()? {
                0 => None,
                1 => Some(get_key(&mut r)?),
                _ => return Err(DecodeError::Malformed("delta key flag")),
            },
            fwd_add: r.count()?.map(|_| get_fwd(&mut r)).collect::<Result<_, _>>()?,
            fwd_del: r.count()?.map(|_| r.u16()).collect::<Result<_, _>>()?,
            stash_add: r.count()?.map(|_| get_stash(&mut r)).collect::<Result<_, _>>()?,
            stash_del: r.count()?.map(|_| Ok((r.ip()?, get_name(&mut r)?))).collect::<Result<_, _>>()?,
            next_txid: r.u16()?,
            next_qid: r.u64()?,
            active: r.u8()? != 0,
        }),
        TAG_RESYNC => ReplPayload::ResyncReq { have_seq: r.u64()? },
        TAG_FLEET => ReplPayload::FleetKey {
            epoch: r.u64()?,
            key: get_key(&mut r)?,
        },
        TAG_FLEET_REQ => ReplPayload::FleetKeyReq { have_epoch: r.u64()? },
        _ => return Err(DecodeError::Malformed("payload kind")),
    };
    r.finish()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{LimiterState, RewriteState};
    use dnswire::question::Question;
    use dnswire::record::Record;
    use dnswire::types::RrType;

    fn secret() -> SecretKey {
        repl_secret(2006)
    }

    fn sample_delta() -> ReplDelta {
        let name: Name = "www.foo.com".parse().unwrap();
        ReplDelta {
            seq: 41,
            key: Some(KeyState {
                current: SecretKey::from_seed(8),
                previous: Some(SecretKey::from_seed(7)),
                generation: 2,
                seed: 2006,
            }),
            fwd_add: vec![FwdState {
                txid: 7,
                requester: (Ipv4Addr::new(10, 0, 0, 7), 1_234),
                reply_from: (Ipv4Addr::new(198, 41, 0, 4), 53),
                orig_txid: 99,
                rewrite: RewriteState::ReferralCookie {
                    cookie_question: Question::new(
                        "PRdeadbeefcom".parse().unwrap(),
                        RrType::Ns,
                    ),
                    question: 0x0123_4567_89AB_CDEF,
                },
                created_nanos: 5_000,
                qid: 3,
            }],
            fwd_del: vec![3, 5],
            stash_add: vec![StashState {
                src: Ipv4Addr::new(10, 0, 0, 9),
                name: name.clone(),
                answers: vec![Record::a(name.clone(), Ipv4Addr::new(192, 0, 2, 8), 30)],
                created_nanos: 4_500,
            }],
            stash_del: vec![(Ipv4Addr::new(10, 0, 0, 2), name)],
            next_txid: 1_000,
            next_qid: 55,
            active: true,
        }
    }

    #[test]
    fn delta_round_trips_authenticated() {
        let payload = ReplPayload::Delta(sample_delta());
        let wire = encode_repl(&payload, &secret());
        assert_eq!(decode_repl(&wire, &secret()), Ok(payload));
    }

    #[test]
    fn resync_round_trips() {
        let payload = ReplPayload::ResyncReq { have_seq: 17 };
        let wire = encode_repl(&payload, &secret());
        assert_eq!(decode_repl(&wire, &secret()), Ok(payload));
    }

    fn sample_checkpoint() -> GuardCheckpoint {
        GuardCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: 1,
            taken_at_nanos: 10,
            key: KeyState {
                current: SecretKey::from_seed(1),
                previous: None,
                generation: 0,
                seed: 2006,
            },
            rl1: LimiterState::default(),
            rl2: LimiterState::default(),
            next_txid: 1,
            next_qid: 0,
            active: false,
            last_rotation_nanos: 0,
            fwd: Vec::new(),
            stash: Vec::new(),
        }
    }

    fn sample_fleet_key() -> ReplPayload {
        ReplPayload::FleetKey {
            epoch: 3,
            key: KeyState {
                current: SecretKey::from_seed(30),
                previous: Some(SecretKey::from_seed(29)),
                generation: 3,
                seed: 2006,
            },
        }
    }

    #[test]
    fn full_snapshot_round_trips() {
        let payload = ReplPayload::Full(sample_checkpoint());
        let wire = encode_repl(&payload, &secret());
        assert_eq!(decode_repl(&wire, &secret()), Ok(payload));
    }

    #[test]
    fn fleet_key_round_trips_authenticated() {
        let payload = sample_fleet_key();
        let wire = encode_repl(&payload, &secret());
        assert_eq!(decode_repl(&wire, &secret()), Ok(payload));
    }

    #[test]
    fn fleet_key_req_round_trips() {
        let payload = ReplPayload::FleetKeyReq { have_epoch: u64::MAX };
        let wire = encode_repl(&payload, &secret());
        assert_eq!(decode_repl(&wire, &secret()), Ok(payload));
    }

    #[test]
    fn wrong_secret_is_rejected() {
        let wire = encode_repl(&ReplPayload::ResyncReq { have_seq: 1 }, &secret());
        assert_eq!(
            decode_repl(&wire, &repl_secret(9_999)),
            Err(ReplError::BadAuth)
        );
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let wire = encode_repl(&ReplPayload::Delta(sample_delta()), &secret());
        for i in (0..wire.len()).step_by(13) {
            let mut tampered = wire.clone();
            tampered[i] ^= 0x40;
            assert!(
                decode_repl(&tampered, &secret()).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    /// What MD5 length extension forges: a body with bytes after its last
    /// field under a tag that verifies. Every kind refuses it.
    #[test]
    fn an_authenticated_trailing_byte_is_rejected() {
        for payload in [
            ReplPayload::Full(sample_checkpoint()),
            ReplPayload::Delta(sample_delta()),
            ReplPayload::ResyncReq { have_seq: 17 },
            sample_fleet_key(),
            ReplPayload::FleetKeyReq { have_epoch: 4 },
        ] {
            let mut body = encode_repl(&payload, &secret()).split_off(DIGEST_LEN);
            body.push(0);
            let forged = [auth_tag(&secret(), &body).as_slice(), &body].concat();
            assert_eq!(
                decode_repl(&forged, &secret()),
                Err(ReplError::Decode(DecodeError::Malformed("trailing bytes"))),
                "{payload:?}"
            );
        }
    }

    #[test]
    fn heartbeat_detection() {
        assert!(ReplDelta::default().is_heartbeat());
        assert!(!sample_delta().is_heartbeat());
    }
}
