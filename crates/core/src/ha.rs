//! Primary–standby replication for guard high availability.
//!
//! A primary guard sends its standby its state over a UDP channel on
//! [`REPL_PORT`]: one [`GuardCheckpoint`] every [`REPL_INTERVAL`], which
//! doubles as the heartbeat. The standby installs a snapshot taken after
//! the one it holds and drops any other, so a lost message costs one
//! interval of staleness and a reordered one cannot roll the standby back;
//! nothing is sequenced and the standby never answers.
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

use crate::checkpoint::{DecodeError, GuardCheckpoint};
use guardhash::cookie::SecretKey;
use guardhash::md5::{Md5, DIGEST_LEN};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// UDP port the replication channel uses on both guards.
pub const REPL_PORT: u16 = 8653;

/// Cadence of the replication channel: an HA primary's snapshot and an HA
/// standby's heartbeat check.
pub const REPL_INTERVAL: SimTime = SimTime::from_millis(20);

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

/// Serializes and authenticates one snapshot: `tag(16) || checkpoint`,
/// the checkpoint in its own versioned encoding.
pub fn encode_repl(cp: &GuardCheckpoint, secret: &SecretKey) -> Vec<u8> {
    let body = cp.encode();
    let mut out = Vec::with_capacity(DIGEST_LEN + body.len());
    out.extend_from_slice(&auth_tag(secret, &body));
    out.extend_from_slice(&body);
    out
}

/// Authenticates and parses one snapshot.
pub fn decode_repl(bytes: &[u8], secret: &SecretKey) -> Result<GuardCheckpoint, ReplError> {
    if bytes.len() < DIGEST_LEN {
        return Err(ReplError::BadAuth);
    }
    let (tag, body) = bytes.split_at(DIGEST_LEN);
    if auth_tag(secret, body) != *tag {
        return Err(ReplError::BadAuth);
    }
    GuardCheckpoint::decode(body).map_err(ReplError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{FwdState, LimiterState, RewriteState, StashState, CHECKPOINT_VERSION};
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
            key_generation: 2,
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

    #[test]
    fn full_snapshot_round_trips() {
        let cp = sample_checkpoint();
        let wire = encode_repl(&cp, &secret());
        assert_eq!(decode_repl(&wire, &secret()), Ok(cp));
    }

    #[test]
    fn wrong_secret_is_rejected() {
        let wire = encode_repl(&sample_checkpoint(), &secret());
        assert_eq!(
            decode_repl(&wire, &repl_secret(9_999)),
            Err(ReplError::BadAuth)
        );
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let wire = encode_repl(&sample_checkpoint(), &secret());
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
    /// field under a tag that verifies. The decoder refuses it.
    #[test]
    fn an_authenticated_trailing_byte_is_rejected() {
        let mut body = encode_repl(&sample_checkpoint(), &secret()).split_off(DIGEST_LEN);
        body.push(0);
        let forged = [auth_tag(&secret(), &body).as_slice(), &body].concat();
        assert_eq!(
            decode_repl(&forged, &secret()),
            Err(ReplError::Decode(DecodeError::Malformed("trailing bytes")))
        );
    }
}
