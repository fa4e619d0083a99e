//! Primary–standby replication for guard high availability.
//!
//! A primary guard sends its standby its state over a UDP channel on
//! [`REPL_PORT`]: one [`ReplPayload::Full`] snapshot every
//! [`REPL_INTERVAL`], which doubles as the heartbeat. The standby installs
//! a snapshot taken after the one it holds and drops any other, so a lost
//! message costs one interval of staleness and a reordered one cannot roll
//! the standby back; nothing is sequenced and the standby never answers.
//! Once the primary falls silent, the standby takes the guarded address
//! over.
//!
//! The channel rides the same simulated network the attacker floods, so
//! every message is authenticated: a 16-byte MD5 tag keyed by a secret both
//! guards derive from the shared `key_seed`. A spoofed replication packet
//! fails the tag check and is counted, not applied — without this, an
//! attacker who can spoof the primary's address could feed the standby a
//! poisoned forward table.
//!
//! What a snapshot deliberately **omits**: rate-limiter bucket fills (the
//! standby rebuilds pressure from scratch — briefly more permissive, never
//! less safe, and the bulk of the state under a flood) and TCP relay /
//! probe forward entries (connections die with the primary). A snapshot is
//! therefore O(live forwards + stash), bounded by `fwd_bytes_max` +
//! `stash_bytes_max`.

use crate::checkpoint::{
    get_key, put_key, put_u32, put_u64, DecodeError, GuardCheckpoint, KeyState, Reader, CHECKPOINT_VERSION,
};
use guardhash::cookie::SecretKey;
use guardhash::md5::{Md5, DIGEST_LEN};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// UDP port the replication channel uses on both guards.
pub const REPL_PORT: u16 = 8653;

/// Cadence of the replication channel: an HA primary's snapshot, an
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
    /// Installs the snapshots and takes over when the primary goes silent.
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
    /// Primary→standby: the primary's state, every tick, without the
    /// limiter fills.
    Full(Box<GuardCheckpoint>),
    /// Master→member: the fleet cookie key at `epoch`. Carries the full
    /// rotation state (current + previous key), so applying it preserves
    /// the one-generation grace window at every site.
    FleetKey {
        /// Key epoch — the master's rotation generation.
        epoch: u64,
        /// The shared key state, previous key included.
        key: Box<KeyState>,
    },
    /// Member→master: "my key epoch is `have_epoch`, push the current
    /// one". Sent on join and while catching up after a miss.
    FleetKeyReq {
        /// The member's applied epoch (`u64::MAX` before the first).
        have_epoch: u64,
    },
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

// 2 and 3 are unassigned: a message of either kind is malformed.
const TAG_FULL: u8 = 1;
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
            ReplPayload::Full(Box::new(GuardCheckpoint::decode(wire)?))
        }
        TAG_FLEET => ReplPayload::FleetKey {
            epoch: r.u64()?,
            key: Box::new(get_key(&mut r)?),
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
    use crate::checkpoint::{FwdState, LimiterState, RewriteState, StashState};
    use dnswire::name::Name;
    use dnswire::question::Question;
    use dnswire::record::Record;
    use dnswire::types::RrType;

    fn secret() -> SecretKey {
        repl_secret(2006)
    }

    /// A snapshot holding one forward and one stash entry, after a rotation.
    fn sample_checkpoint() -> GuardCheckpoint {
        let name: Name = "www.foo.com".parse().unwrap();
        GuardCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: 41,
            taken_at_nanos: 10_000,
            key: KeyState {
                current: SecretKey::from_seed(8),
                previous: Some(SecretKey::from_seed(7)),
                generation: 2,
                seed: 2006,
            },
            rl1: LimiterState::default(),
            rl2: LimiterState::default(),
            next_txid: 1_000,
            next_qid: 55,
            active: true,
            last_rotation_nanos: 0,
            fwd: vec![FwdState {
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
            stash: vec![StashState {
                src: Ipv4Addr::new(10, 0, 0, 9),
                name: name.clone(),
                answers: vec![Record::a(name, Ipv4Addr::new(192, 0, 2, 8), 30)],
                created_nanos: 4_500,
            }],
        }
    }

    fn sample_fleet_key() -> ReplPayload {
        ReplPayload::FleetKey {
            epoch: 3,
            key: Box::new(KeyState {
                current: SecretKey::from_seed(30),
                previous: Some(SecretKey::from_seed(29)),
                generation: 3,
                seed: 2006,
            }),
        }
    }

    #[test]
    fn full_snapshot_round_trips() {
        let payload = ReplPayload::Full(Box::new(sample_checkpoint()));
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
        let wire = encode_repl(&ReplPayload::Full(Box::new(sample_checkpoint())), &secret());
        assert_eq!(
            decode_repl(&wire, &repl_secret(9_999)),
            Err(ReplError::BadAuth)
        );
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let wire = encode_repl(&ReplPayload::Full(Box::new(sample_checkpoint())), &secret());
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
            ReplPayload::Full(Box::new(sample_checkpoint())),
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
}
