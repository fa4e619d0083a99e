//! Versioned, serializable snapshots of guard state.
//!
//! A guard emits one as [`Output::Checkpoint`](crate::guard::Output::Checkpoint)
//! on its [`checkpoint_interval`](crate::config::GuardConfig::checkpoint_interval)
//! cadence, and its driver keeps the latest. A [`GuardCheckpoint`]
//! captures everything a guard needs to resume spoof-detection service
//! after a crash without forcing verified sources
//! through a fresh cookie exchange: the key generation, both rate limiters'
//! token buckets, and the forward/stash tables.
//!
//! It holds no key material. A generation's key is a pure function of the
//! guard's own `key_seed` and the generation
//! ([`CookieFactory::at_generation`](guardhash::cookie::CookieFactory::at_generation)),
//! so the restoring guard re-derives the current and previous keys, and
//! pre-rotation cookies keep verifying through the generation bit. A leaked
//! checkpoint gives away no key, past or future.
//!
//! Restore applies explicit **staleness rules** rather than replaying the
//! snapshot blindly:
//!
//! * forwarding entries past their ANS-timeout deadline are dropped, never
//!   replayed (a response that raced the crash is already unanswerable);
//! * stash entries past the one-shot TTL are dropped;
//! * TCP relays and liveness probes are not checkpointed at all — proxied
//!   connections die with the process and probes are re-issued;
//! * rate-limiter *counters* (admitted/rejected metrics) restart at zero;
//!   only the bucket fill levels carry over.
//!
//! The wire encoding is a small hand-rolled binary format with a magic +
//! version header ([`CHECKPOINT_VERSION`]); DNS names, questions and record
//! sets are carried as embedded DNS messages so the existing wire codec does
//! the heavy lifting. The same encoding rides the primary→standby
//! replication channel (see [`crate::ha`]).

use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::question::Question;
use dnswire::record::Record;
use dnswire::types::RrType;
use netsim::time::SimTime;
use netsim::tokenbucket::TokenBucketState;
use std::fmt;
use std::net::Ipv4Addr;

/// Leading magic of an encoded checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GCKP";

/// Current encoding version. Decoders reject anything else rather than
/// misparse it.
pub const CHECKPOINT_VERSION: u32 = 3;

/// How long a stashed one-shot answer stays servable (mirrors the guard's
/// housekeeping sweep).
pub const STASH_TTL: SimTime = SimTime::from_secs(2);

/// A rate limiter's serializable face: the global bucket (if any) and every
/// tracked per-source bucket, sorted by source address for a deterministic
/// encoding.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LimiterState {
    /// Global budget bucket, `None` for per-source-only limiters.
    pub global: Option<TokenBucketState>,
    /// Per-source buckets, ascending by address.
    pub per_source: Vec<(Ipv4Addr, TokenBucketState)>,
}

/// The serializable subset of a forward-table rewrite, as the guard itself
/// keeps it. TCP relays and probes are deliberately unrepresentable: they
/// must not survive a restart. `question` is the digest of the forwarded
/// question ([`dnswire::question::digest`]), so a restored guard or a
/// standby relays only the answer the primary would; `Fabricated` keeps the
/// forwarded name itself.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteState {
    /// Relay the ANS response as-is (txid restored).
    Passthrough {
        /// Digest of the forwarded question.
        question: u64,
    },
    /// DNS-based referral: re-answer the cookie-name question with glue.
    ReferralCookie {
        /// The cookie-label question the requester asked.
        cookie_question: Question,
        /// Digest of the forwarded question.
        question: u64,
    },
    /// DNS-based non-referral: stash the answer, reply `COOKIE2`.
    Fabricated {
        /// The cookie-label question the requester asked.
        cookie_question: Question,
        /// The restored original name.
        original: Name,
    },
}

/// One in-flight forwarded request.
#[derive(Debug, Clone, PartialEq)]
pub struct FwdState {
    /// Upstream transaction id (the forward-table key).
    pub txid: u16,
    /// Who asked.
    pub requester: (Ipv4Addr, u16),
    /// The guard-side address the reply must come from.
    pub reply_from: (Ipv4Addr, u16),
    /// The requester's original transaction id.
    pub orig_txid: u16,
    /// How to rewrite the ANS response.
    pub rewrite: RewriteState,
    /// Creation sim-time, nanoseconds (drives the staleness rule).
    pub created_nanos: u64,
    /// Journey correlation id.
    pub qid: u64,
}

/// One stashed one-shot answer.
#[derive(Debug, Clone, PartialEq)]
pub struct StashState {
    /// The verified source the answer is held for.
    pub src: Ipv4Addr,
    /// The original query name.
    pub name: Name,
    /// The stashed answer records.
    pub answers: Vec<Record>,
    /// Creation sim-time, nanoseconds.
    pub created_nanos: u64,
}

/// A complete, versioned snapshot of guard state.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardCheckpoint {
    /// Encoding version ([`CHECKPOINT_VERSION`] when produced here).
    pub version: u32,
    /// Monotonic checkpoint sequence number.
    pub seq: u64,
    /// When the snapshot was taken, sim nanoseconds.
    pub taken_at_nanos: u64,
    /// Cookie-key rotation generation; the keys are the guard's own
    /// `key_seed`'s at this generation.
    pub key_generation: u64,
    /// Rate-Limiter1 bucket state.
    pub rl1: LimiterState,
    /// Rate-Limiter2 bucket state.
    pub rl2: LimiterState,
    /// Next upstream transaction id.
    pub next_txid: u16,
    /// Next journey correlation id.
    pub next_qid: u64,
    /// Whether spoof detection was engaged.
    pub active: bool,
    /// Last scheduled key rotation, sim nanoseconds.
    pub last_rotation_nanos: u64,
    /// Live forward-table entries (probes/TCP relays excluded).
    pub fwd: Vec<FwdState>,
    /// Live stash entries.
    pub stash: Vec<StashState>,
}

impl GuardCheckpoint {
    /// Snapshot age relative to `now`.
    pub fn age(&self, now: SimTime) -> SimTime {
        now.saturating_sub(SimTime::from_nanos(self.taken_at_nanos))
    }

    /// Serializes to the versioned binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(512);
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut buf, self.version);
        put_u64(&mut buf, self.seq);
        put_u64(&mut buf, self.taken_at_nanos);
        put_u64(&mut buf, self.key_generation);
        put_limiter(&mut buf, &self.rl1);
        put_limiter(&mut buf, &self.rl2);
        put_u16(&mut buf, self.next_txid);
        put_u64(&mut buf, self.next_qid);
        buf.push(self.active as u8);
        put_u64(&mut buf, self.last_rotation_nanos);
        put_u32(&mut buf, self.fwd.len() as u32);
        for f in &self.fwd {
            put_fwd(&mut buf, f);
        }
        put_u32(&mut buf, self.stash.len() as u32);
        for s in &self.stash {
            put_stash(&mut buf, s);
        }
        buf
    }

    /// Parses the versioned binary form.
    pub fn decode(bytes: &[u8]) -> Result<GuardCheckpoint, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != CHECKPOINT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        // Fields are read in the order they are written here: the wire's.
        let cp = GuardCheckpoint {
            version,
            seq: r.u64()?,
            taken_at_nanos: r.u64()?,
            key_generation: r.u64()?,
            rl1: get_limiter(&mut r)?,
            rl2: get_limiter(&mut r)?,
            next_txid: r.u16()?,
            next_qid: r.u64()?,
            active: r.u8()? != 0,
            last_rotation_nanos: r.u64()?,
            fwd: r.count()?.map(|_| get_fwd(&mut r)).collect::<Result<_, _>>()?,
            stash: r.count()?.map(|_| get_stash(&mut r)).collect::<Result<_, _>>()?,
        };
        r.finish()?;
        Ok(cp)
    }
}

/// Why a checkpoint (or replication message) failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// The magic prefix is wrong.
    BadMagic,
    /// A version this build does not speak.
    UnsupportedVersion(u32),
    /// A structurally invalid field (bad embedded DNS message, bad tag).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated checkpoint"),
            DecodeError::BadMagic => write!(f, "bad checkpoint magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            DecodeError::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---- codec primitives ----------------------------------------------------
//
// Shared with the replication channel (`crate::ha`), hence pub(crate).

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub(crate) fn put_ip(buf: &mut Vec<u8>, ip: Ipv4Addr) {
    buf.extend_from_slice(&ip.octets());
}

/// Length-prefixed embedded DNS message: the workhorse for names,
/// questions and record sets.
pub(crate) fn put_msg(buf: &mut Vec<u8>, msg: &Message) {
    let wire = msg.encode();
    put_u32(buf, wire.len() as u32);
    buf.extend_from_slice(&wire);
}

pub(crate) fn put_question(buf: &mut Vec<u8>, q: &Question) {
    put_msg(
        buf,
        &Message {
            questions: vec![q.clone()],
            ..Message::default()
        },
    );
}

pub(crate) fn put_name(buf: &mut Vec<u8>, n: &Name) {
    put_question(buf, &Question::new(n.clone(), RrType::A));
}

pub(crate) fn put_records(buf: &mut Vec<u8>, rs: &[Record]) {
    put_msg(
        buf,
        &Message {
            answers: rs.to_vec(),
            ..Message::default()
        },
    );
}

pub(crate) fn put_bucket(buf: &mut Vec<u8>, b: &TokenBucketState) {
    put_f64(buf, b.rate_per_sec);
    put_f64(buf, b.burst);
    put_f64(buf, b.tokens);
    put_u64(buf, b.last_nanos);
}

pub(crate) fn put_limiter(buf: &mut Vec<u8>, l: &LimiterState) {
    match &l.global {
        Some(g) => {
            buf.push(1);
            put_bucket(buf, g);
        }
        None => buf.push(0),
    }
    put_u32(buf, l.per_source.len() as u32);
    for (ip, b) in &l.per_source {
        put_ip(buf, *ip);
        put_bucket(buf, b);
    }
}

pub(crate) fn put_fwd(buf: &mut Vec<u8>, f: &FwdState) {
    put_u16(buf, f.txid);
    put_ip(buf, f.requester.0);
    put_u16(buf, f.requester.1);
    put_ip(buf, f.reply_from.0);
    put_u16(buf, f.reply_from.1);
    put_u16(buf, f.orig_txid);
    put_u64(buf, f.created_nanos);
    put_u64(buf, f.qid);
    match &f.rewrite {
        RewriteState::Passthrough { question } => {
            buf.push(0);
            put_u64(buf, *question);
        }
        RewriteState::ReferralCookie {
            cookie_question,
            question,
        } => {
            buf.push(1);
            put_question(buf, cookie_question);
            put_u64(buf, *question);
        }
        RewriteState::Fabricated {
            cookie_question,
            original,
        } => {
            buf.push(2);
            put_question(buf, cookie_question);
            put_name(buf, original);
        }
    }
}

pub(crate) fn put_stash(buf: &mut Vec<u8>, s: &StashState) {
    put_ip(buf, s.src);
    put_name(buf, &s.name);
    put_u64(buf, s.created_nanos);
    put_records(buf, &s.answers);
}

/// Bounds-checked big-endian reader over an encoded checkpoint.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The length prefix of a list, as the range of its items' numbers.
    /// Collecting their `Result`s reserves nothing up front, so a hostile
    /// length costs no memory.
    pub(crate) fn count(&mut self) -> Result<std::ops::Range<u32>, DecodeError> {
        Ok(0..self.u32()?)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn ip(&mut self) -> Result<Ipv4Addr, DecodeError> {
        let b = self.bytes(4)?;
        Ok(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }

    /// Ends a decode: bytes after the last field are an error, as in
    /// `Message::decode`. A replication body is authenticated as
    /// `MD5(secret ‖ body)`, which MD5 length extension lets anyone who saw
    /// one message extend with padding and a suffix of their choosing.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

pub(crate) fn get_msg(r: &mut Reader<'_>) -> Result<Message, DecodeError> {
    let len = r.u32()? as usize;
    let wire = r.bytes(len)?;
    Message::decode(wire).map_err(|_| DecodeError::Malformed("embedded message"))
}

pub(crate) fn get_question(r: &mut Reader<'_>) -> Result<Question, DecodeError> {
    get_msg(r)?
        .questions
        .into_iter()
        .next()
        .ok_or(DecodeError::Malformed("missing question"))
}

pub(crate) fn get_name(r: &mut Reader<'_>) -> Result<Name, DecodeError> {
    Ok(get_question(r)?.name)
}

pub(crate) fn get_records(r: &mut Reader<'_>) -> Result<Vec<Record>, DecodeError> {
    Ok(get_msg(r)?.answers)
}

pub(crate) fn get_bucket(r: &mut Reader<'_>) -> Result<TokenBucketState, DecodeError> {
    Ok(TokenBucketState {
        rate_per_sec: r.f64()?,
        burst: r.f64()?,
        tokens: r.f64()?,
        last_nanos: r.u64()?,
    })
}

pub(crate) fn get_limiter(r: &mut Reader<'_>) -> Result<LimiterState, DecodeError> {
    let global = match r.u8()? {
        0 => None,
        1 => Some(get_bucket(r)?),
        _ => return Err(DecodeError::Malformed("global-bucket flag")),
    };
    let per_source = r.count()?.map(|_| Ok((r.ip()?, get_bucket(r)?))).collect::<Result<_, _>>()?;
    Ok(LimiterState { global, per_source })
}

pub(crate) fn get_fwd(r: &mut Reader<'_>) -> Result<FwdState, DecodeError> {
    Ok(FwdState {
        txid: r.u16()?,
        requester: (r.ip()?, r.u16()?),
        reply_from: (r.ip()?, r.u16()?),
        orig_txid: r.u16()?,
        created_nanos: r.u64()?,
        qid: r.u64()?,
        rewrite: match r.u8()? {
            0 => RewriteState::Passthrough { question: r.u64()? },
            1 => RewriteState::ReferralCookie {
                cookie_question: get_question(r)?,
                question: r.u64()?,
            },
            2 => RewriteState::Fabricated {
                cookie_question: get_question(r)?,
                original: get_name(r)?,
            },
            _ => return Err(DecodeError::Malformed("rewrite tag")),
        },
    })
}

pub(crate) fn get_stash(r: &mut Reader<'_>) -> Result<StashState, DecodeError> {
    Ok(StashState {
        src: r.ip()?,
        name: get_name(r)?,
        created_nanos: r.u64()?,
        answers: get_records(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> GuardCheckpoint {
        let q = Question::new("PRdeadbeefwww.foo.com".parse().unwrap(), RrType::A);
        let original: Name = "www.foo.com".parse().unwrap();
        GuardCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: 9,
            taken_at_nanos: 1_234_567,
            key_generation: 3,
            rl1: LimiterState {
                global: Some(TokenBucketState {
                    rate_per_sec: 10_000.0,
                    burst: 1_000.0,
                    tokens: 17.5,
                    last_nanos: 99,
                }),
                per_source: vec![(
                    Ipv4Addr::new(10, 0, 0, 7),
                    TokenBucketState {
                        rate_per_sec: 100.0,
                        burst: 10.0,
                        tokens: 3.25,
                        last_nanos: 88,
                    },
                )],
            },
            rl2: LimiterState::default(),
            next_txid: 4_242,
            next_qid: 77,
            active: true,
            last_rotation_nanos: 500,
            fwd: vec![
                FwdState {
                    txid: 1,
                    requester: (Ipv4Addr::new(10, 0, 0, 7), 999),
                    reply_from: (Ipv4Addr::new(198, 41, 0, 4), 53),
                    orig_txid: 31_337,
                    rewrite: RewriteState::Passthrough {
                        question: 0xFEED_FACE_CAFE_BEEF,
                    },
                    created_nanos: 1_000_000,
                    qid: 12,
                },
                FwdState {
                    txid: 2,
                    requester: (Ipv4Addr::new(10, 0, 0, 8), 1_001),
                    reply_from: (Ipv4Addr::new(198, 41, 0, 4), 53),
                    orig_txid: 5,
                    rewrite: RewriteState::Fabricated {
                        cookie_question: q.clone(),
                        original: original.clone(),
                    },
                    created_nanos: 1_100_000,
                    qid: 13,
                },
                FwdState {
                    txid: 3,
                    requester: (Ipv4Addr::new(10, 0, 0, 9), 1_002),
                    reply_from: (Ipv4Addr::new(198, 41, 0, 4), 53),
                    orig_txid: 6,
                    rewrite: RewriteState::ReferralCookie {
                        cookie_question: q,
                        question: u64::MAX,
                    },
                    created_nanos: 1_200_000,
                    qid: 14,
                },
            ],
            stash: vec![StashState {
                src: Ipv4Addr::new(10, 0, 0, 8),
                name: original.clone(),
                answers: vec![Record::a(original, Ipv4Addr::new(192, 0, 2, 1), 60)],
                created_nanos: 1_050_000,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = sample_checkpoint();
        let wire = cp.encode();
        let back = GuardCheckpoint::decode(&wire).expect("decodes");
        assert_eq!(back, cp);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut wire = sample_checkpoint().encode();
        wire[0] ^= 0xFF;
        assert_eq!(GuardCheckpoint::decode(&wire), Err(DecodeError::BadMagic));
    }

    #[test]
    fn decode_rejects_unknown_version() {
        let mut wire = sample_checkpoint().encode();
        wire[7] = 99; // low byte of the big-endian version field
        assert!(matches!(
            GuardCheckpoint::decode(&wire),
            Err(DecodeError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn decode_rejects_a_trailing_byte() {
        let mut wire = sample_checkpoint().encode();
        wire.push(0);
        assert_eq!(GuardCheckpoint::decode(&wire), Err(DecodeError::Malformed("trailing bytes")));
    }

    #[test]
    fn decode_rejects_any_truncation() {
        let wire = sample_checkpoint().encode();
        for cut in 0..wire.len() {
            assert!(
                GuardCheckpoint::decode(&wire[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
