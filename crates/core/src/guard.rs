//! The remote DNS guard: the composite pipeline of Figure 4.
//!
//! One node owns the protected ANS's public address (and the surrounding
//! subnet for `COOKIE2` addresses) and dispatches every packet through the
//! cookie checker, the rate limiters and the scheme handlers:
//!
//! ```text
//!                  UDP req                     UDP req
//!  Internet ──► Cookie Checker ──► Rate-Limiter2 ──► ANS
//!                  │    ▲ UDP resp                  │ UDP resp
//!        TCP req   ▼    │                           ▼
//!           ──► TCP proxy ──► Rate-Limiter2     (relayed back)
//!                  │
//!                  └── cookie/TC/NS responses ──► Rate-Limiter1 ──► Internet
//! ```
//!
//! CPU is accounted with the calibrated constants of [`netsim::cost`]: one
//! `packet_cost` per packet in or out, one `cookie_cost` per cookie
//! computation, `tcp_conn_cost` per proxied connection — nothing else. The
//! throughput and utilisation figures of the paper emerge from these charges
//! plus the packet counts of each scheme.

use crate::admission::{AdmissionController, PressureTier};
use crate::checkpoint::{
    FwdState, GuardCheckpoint, KeyState, RewriteState, SharedCheckpointStore, StashState,
    CHECKPOINT_VERSION, STASH_TTL,
};
use crate::classify::{AuthorityClassifier, Classification, Classifier};
use crate::config::{AnsHealthPolicy, GuardConfig, SchemeMode};
use crate::ha::{
    decode_repl, encode_repl, repl_secret, FleetConfig, HaConfig, HaRole, ReplDelta, ReplPayload,
    REPL_PORT,
};
use crate::ratelimit::SourceRateLimiter;
use crate::tcp_proxy::{ProxyAction, TcpProxy};
use dnswire::cookie_ext;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::name::{Name, MAX_LABEL_LEN};
use dnswire::question::Question;
use dnswire::record::Record;
use dnswire::view::MessageView;
use dnswire::writer::{ReplyStart, Section, Writer};
use guardhash::cookie::{Cookie, CookieFactory, SecretKey};
use netsim::engine::{Context, Node};
use netsim::metrics::TrafficMeter;
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use obs::metrics::{Counter, Gauge, Histogram};
use obs::trace::{ComponentTracer, Value};
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Timer tag for the guard's housekeeping window (rate estimation, proxy
/// reaping, forward-table sweeping).
const TAG_WINDOW: u64 = u64::MAX;

/// Timer tag for the high-availability tick (replication deltas on the
/// primary, heartbeat watching on the standby).
const TAG_HA: u64 = u64::MAX - 1;

/// Timer tag for the fleet key-sync tick (epoch pushes on the master,
/// catch-up requests on an unsynced member).
const TAG_FLEET: u64 = u64::MAX - 2;

/// Housekeeping period.
const WINDOW: SimTime = SimTime::from_millis(100);

/// Observable guard counters, by pipeline decision — a snapshot of the
/// live registry-backed counters, from [`RemoteGuard::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardStats {
    /// Queries forwarded to the ANS (verified or pass-through).
    pub forwarded: u64,
    /// Queries relayed while spoof detection was inactive.
    pub passthrough: u64,
    /// Fabricated NS responses sent (DNS-based scheme, message 2).
    pub fabricated_ns_sent: u64,
    /// Truncation responses sent (TCP-based scheme).
    pub tc_sent: u64,
    /// Cookie grants sent (modified-DNS scheme, message 3).
    pub grants_sent: u64,
    /// Requests accepted with a valid extension cookie.
    pub ext_valid: u64,
    /// Requests dropped with an invalid extension cookie.
    pub ext_invalid: u64,
    /// Cookie-label queries accepted (message 3 of the DNS-based scheme).
    pub ns_cookie_valid: u64,
    /// Cookie-label queries dropped as spoofed.
    pub ns_cookie_invalid: u64,
    /// `COOKIE2` queries accepted (message 7).
    pub cookie2_valid: u64,
    /// `COOKIE2` queries dropped as spoofed.
    pub cookie2_invalid: u64,
    /// Plain queries dropped by Rate-Limiter1.
    pub rl1_dropped: u64,
    /// Verified queries dropped by Rate-Limiter2.
    pub rl2_dropped: u64,
    /// Responses relayed back from the ANS.
    pub relayed_responses: u64,
    /// Answers served from the guard's one-shot stash (message 10 fast
    /// path).
    pub stash_hits: u64,
    /// Packets that were not parseable DNS and were dropped.
    pub unparseable: u64,
    /// Forwarded requests the ANS never answered within the timeout.
    pub ans_timeouts: u64,
    /// Times the health monitor declared the ANS down.
    pub ans_down_events: u64,
    /// Liveness probes sent while the ANS was down.
    pub ans_probes: u64,
    /// Times the ANS came back after being declared down.
    pub ans_recoveries: u64,
    /// Queries refused (SERVFAIL or dropped) by the fail-closed policy
    /// while the ANS was down.
    pub failed_closed: u64,
    /// Forward-table entries evicted by the byte bound (oldest first).
    pub fwd_evicted: u64,
    /// Stash entries evicted by the byte bound (oldest first).
    pub stash_evicted: u64,
    /// Every UDP datagram that entered the pipeline (the conservation
    /// total: equals [`GuardStats::disposition_total`]).
    pub udp_datagrams: u64,
    /// ANS responses whose transaction id matched no forward-table entry
    /// (late responses to evicted/expired forwards).
    pub resp_unmatched: u64,
    /// Response-flagged datagrams from sources other than the ANS
    /// (spoofed or misrouted; dropped).
    pub resp_foreign: u64,
    /// Plain queries forwarded unprotected (out-of-bailiwick names, root
    /// queries, or names too deep to fabricate a cookie label for).
    pub plain_forwarded: u64,
    /// Unverified requests shed by the admission controller before any
    /// rate-limiter decision (Surge/Shed pressure tiers).
    pub admission_shed: u64,
    /// State checkpoints written to the attached store.
    pub checkpoints_taken: u64,
    /// Times guard state was rebuilt from a checkpoint or replication
    /// snapshot.
    pub restores: u64,
    /// Checkpointed forward-table entries dropped on restore because they
    /// were already past the ANS-timeout deadline.
    pub restore_stale_fwd: u64,
    /// Checkpointed stash entries dropped on restore as expired.
    pub restore_stale_stash: u64,
    /// Replication deltas (including heartbeats and full snapshots) sent
    /// to the standby.
    pub repl_deltas_sent: u64,
    /// Replication deltas/snapshots applied by the standby.
    pub repl_deltas_applied: u64,
    /// Sequence gaps that forced a full-resync request.
    pub repl_resyncs: u64,
    /// Replication-port packets rejected (wrong peer, failed
    /// authentication, or malformed).
    pub repl_rejected: u64,
    /// Authenticated peer messages seen (every one refreshes the
    /// heartbeat).
    pub heartbeats_seen: u64,
    /// Times the standby declared the primary dead.
    pub peer_down_events: u64,
    /// Times this guard took over the guarded address from a dead peer.
    pub failover_takeovers: u64,
    /// Fleet key epochs pushed to member sites (master only).
    pub fleet_keys_sent: u64,
    /// Fleet key epochs applied from the master (members only).
    pub fleet_keys_applied: u64,
    /// Catch-up key requests sent while unsynced (members only).
    pub fleet_key_reqs: u64,
}

impl GuardStats {
    /// Total requests classified as spoofed and dropped.
    pub fn spoofed_dropped(&self) -> u64 {
        self.ext_invalid + self.ns_cookie_invalid + self.cookie2_invalid
    }

    /// Sum of the mutually-exclusive terminal disposition buckets: every
    /// UDP datagram entering the pipeline lands in exactly one, so this
    /// always equals [`GuardStats::udp_datagrams`]. (Counters like
    /// `forwarded`, `rl2_dropped`, `failed_closed`, `stash_hits`,
    /// `fwd_evicted` describe *later* stages of an already-dispositioned
    /// datagram and are deliberately excluded.)
    pub fn disposition_total(&self) -> u64 {
        self.unparseable
            + self.resp_foreign
            + self.resp_unmatched
            + self.relayed_responses
            + self.passthrough
            + self.rl1_dropped
            + self.grants_sent
            + self.ext_valid
            + self.ext_invalid
            + self.cookie2_valid
            + self.cookie2_invalid
            + self.ns_cookie_valid
            + self.ns_cookie_invalid
            + self.tc_sent
            + self.fabricated_ns_sent
            + self.plain_forwarded
            + self.admission_shed
    }
}

/// Live guard counters: detached registry handles created at construction
/// (recording always works) and adopted into a registry when
/// [`RemoteGuard::attach_obs`] runs.
#[derive(Debug)]
struct GuardMetrics {
    forwarded: Counter,
    passthrough: Counter,
    fabricated_ns_sent: Counter,
    tc_sent: Counter,
    grants_sent: Counter,
    ext_valid: Counter,
    ext_invalid: Counter,
    ns_cookie_valid: Counter,
    ns_cookie_invalid: Counter,
    cookie2_valid: Counter,
    cookie2_invalid: Counter,
    rl1_dropped: Counter,
    rl2_dropped: Counter,
    relayed_responses: Counter,
    stash_hits: Counter,
    unparseable: Counter,
    ans_timeouts: Counter,
    ans_down_events: Counter,
    ans_probes: Counter,
    ans_recoveries: Counter,
    failed_closed: Counter,
    fwd_evicted: Counter,
    stash_evicted: Counter,
    udp_datagrams: Counter,
    resp_unmatched: Counter,
    resp_foreign: Counter,
    plain_forwarded: Counter,
    admission_shed: Counter,
    checkpoints_taken: Counter,
    restores: Counter,
    restore_stale_fwd: Counter,
    restore_stale_stash: Counter,
    repl_deltas_sent: Counter,
    repl_deltas_applied: Counter,
    repl_resyncs: Counter,
    repl_rejected: Counter,
    heartbeats_seen: Counter,
    peer_down_events: Counter,
    failover_takeovers: Counter,
    fleet_keys_sent: Counter,
    fleet_keys_applied: Counter,
    fleet_key_reqs: Counter,
    /// Current pressure tier (0 normal / 1 surge / 2 shed), refreshed each
    /// housekeeping window.
    admission_tier: Gauge,
    /// Staleness of this guard's recoverable state, in nanoseconds: time
    /// since the last checkpoint (acting primary) or since the last
    /// applied replication message (standby). The `checkpoint_lag` alert
    /// thresholds this.
    checkpoint_age_nanos: Gauge,
    /// Encoded size of the most recent checkpoint.
    checkpoint_bytes: Gauge,
    /// Current `fwd_bytes + stash_bytes` (refreshed each housekeeping
    /// window).
    table_bytes: Gauge,
    /// Unverified-traffic amplification ratio × 1000 (refreshed each
    /// housekeeping window) — the paper's ≤ 1.5× reflector bound, as a
    /// gauge the alerting engine can threshold.
    amplification_milli: Gauge,
    /// Forward→response round-trip to the ANS, in nanoseconds.
    ans_rtt_ns: Histogram,
    trace: ComponentTracer,
}

impl Default for GuardMetrics {
    fn default() -> Self {
        GuardMetrics {
            forwarded: Counter::new(),
            passthrough: Counter::new(),
            fabricated_ns_sent: Counter::new(),
            tc_sent: Counter::new(),
            grants_sent: Counter::new(),
            ext_valid: Counter::new(),
            ext_invalid: Counter::new(),
            ns_cookie_valid: Counter::new(),
            ns_cookie_invalid: Counter::new(),
            cookie2_valid: Counter::new(),
            cookie2_invalid: Counter::new(),
            rl1_dropped: Counter::new(),
            rl2_dropped: Counter::new(),
            relayed_responses: Counter::new(),
            stash_hits: Counter::new(),
            unparseable: Counter::new(),
            ans_timeouts: Counter::new(),
            ans_down_events: Counter::new(),
            ans_probes: Counter::new(),
            ans_recoveries: Counter::new(),
            failed_closed: Counter::new(),
            fwd_evicted: Counter::new(),
            stash_evicted: Counter::new(),
            udp_datagrams: Counter::new(),
            resp_unmatched: Counter::new(),
            resp_foreign: Counter::new(),
            plain_forwarded: Counter::new(),
            admission_shed: Counter::new(),
            checkpoints_taken: Counter::new(),
            restores: Counter::new(),
            restore_stale_fwd: Counter::new(),
            restore_stale_stash: Counter::new(),
            repl_deltas_sent: Counter::new(),
            repl_deltas_applied: Counter::new(),
            repl_resyncs: Counter::new(),
            repl_rejected: Counter::new(),
            heartbeats_seen: Counter::new(),
            peer_down_events: Counter::new(),
            failover_takeovers: Counter::new(),
            fleet_keys_sent: Counter::new(),
            fleet_keys_applied: Counter::new(),
            fleet_key_reqs: Counter::new(),
            admission_tier: Gauge::new(),
            checkpoint_age_nanos: Gauge::new(),
            checkpoint_bytes: Gauge::new(),
            table_bytes: Gauge::new(),
            amplification_milli: Gauge::new(),
            ans_rtt_ns: Histogram::new(),
            trace: ComponentTracer::disabled(),
        }
    }
}

impl GuardMetrics {
    fn snapshot(&self) -> GuardStats {
        GuardStats {
            forwarded: self.forwarded.get(),
            passthrough: self.passthrough.get(),
            fabricated_ns_sent: self.fabricated_ns_sent.get(),
            tc_sent: self.tc_sent.get(),
            grants_sent: self.grants_sent.get(),
            ext_valid: self.ext_valid.get(),
            ext_invalid: self.ext_invalid.get(),
            ns_cookie_valid: self.ns_cookie_valid.get(),
            ns_cookie_invalid: self.ns_cookie_invalid.get(),
            cookie2_valid: self.cookie2_valid.get(),
            cookie2_invalid: self.cookie2_invalid.get(),
            rl1_dropped: self.rl1_dropped.get(),
            rl2_dropped: self.rl2_dropped.get(),
            relayed_responses: self.relayed_responses.get(),
            stash_hits: self.stash_hits.get(),
            unparseable: self.unparseable.get(),
            ans_timeouts: self.ans_timeouts.get(),
            ans_down_events: self.ans_down_events.get(),
            ans_probes: self.ans_probes.get(),
            ans_recoveries: self.ans_recoveries.get(),
            failed_closed: self.failed_closed.get(),
            fwd_evicted: self.fwd_evicted.get(),
            stash_evicted: self.stash_evicted.get(),
            udp_datagrams: self.udp_datagrams.get(),
            resp_unmatched: self.resp_unmatched.get(),
            resp_foreign: self.resp_foreign.get(),
            plain_forwarded: self.plain_forwarded.get(),
            admission_shed: self.admission_shed.get(),
            checkpoints_taken: self.checkpoints_taken.get(),
            restores: self.restores.get(),
            restore_stale_fwd: self.restore_stale_fwd.get(),
            restore_stale_stash: self.restore_stale_stash.get(),
            repl_deltas_sent: self.repl_deltas_sent.get(),
            repl_deltas_applied: self.repl_deltas_applied.get(),
            repl_resyncs: self.repl_resyncs.get(),
            repl_rejected: self.repl_rejected.get(),
            heartbeats_seen: self.heartbeats_seen.get(),
            peer_down_events: self.peer_down_events.get(),
            failover_takeovers: self.failover_takeovers.get(),
            fleet_keys_sent: self.fleet_keys_sent.get(),
            fleet_keys_applied: self.fleet_keys_applied.get(),
            fleet_key_reqs: self.fleet_key_reqs.get(),
        }
    }

    fn adopt_into(&self, r: &obs::metrics::Registry) {
        r.adopt_counter("guard", "forwarded", &[], &self.forwarded);
        r.adopt_counter("guard", "passthrough", &[], &self.passthrough);
        r.adopt_counter("guard", "fabricated_ns_sent", &[], &self.fabricated_ns_sent);
        r.adopt_counter("guard", "tc_sent", &[], &self.tc_sent);
        r.adopt_counter("guard", "grants_sent", &[], &self.grants_sent);
        let verify = [
            ("ext", "valid", &self.ext_valid),
            ("ext", "invalid", &self.ext_invalid),
            ("ns_label", "valid", &self.ns_cookie_valid),
            ("ns_label", "invalid", &self.ns_cookie_invalid),
            ("cookie2", "valid", &self.cookie2_valid),
            ("cookie2", "invalid", &self.cookie2_invalid),
        ];
        for (scheme, verdict, counter) in verify {
            r.adopt_counter(
                "guard",
                "verify",
                &[("scheme", scheme), ("verdict", verdict)],
                counter,
            );
        }
        r.adopt_counter("guard", "rl_dropped", &[("limiter", "rl1")], &self.rl1_dropped);
        r.adopt_counter("guard", "rl_dropped", &[("limiter", "rl2")], &self.rl2_dropped);
        r.adopt_counter("guard", "relayed_responses", &[], &self.relayed_responses);
        r.adopt_counter("guard", "stash_hits", &[], &self.stash_hits);
        r.adopt_counter("guard", "unparseable", &[], &self.unparseable);
        r.adopt_counter("guard", "ans_timeouts", &[], &self.ans_timeouts);
        r.adopt_counter("guard", "ans_down_events", &[], &self.ans_down_events);
        r.adopt_counter("guard", "ans_probes", &[], &self.ans_probes);
        r.adopt_counter("guard", "ans_recoveries", &[], &self.ans_recoveries);
        r.adopt_counter("guard", "failed_closed", &[], &self.failed_closed);
        r.adopt_counter("guard", "evicted", &[("table", "fwd")], &self.fwd_evicted);
        r.adopt_counter("guard", "evicted", &[("table", "stash")], &self.stash_evicted);
        r.adopt_counter("guard", "udp_datagrams", &[], &self.udp_datagrams);
        r.adopt_counter("guard", "resp_unmatched", &[], &self.resp_unmatched);
        r.adopt_counter("guard", "resp_foreign", &[], &self.resp_foreign);
        r.adopt_counter("guard", "plain_forwarded", &[], &self.plain_forwarded);
        r.adopt_counter("guard", "admission_shed", &[], &self.admission_shed);
        r.adopt_counter("guard", "checkpoints_taken", &[], &self.checkpoints_taken);
        r.adopt_counter("guard", "restores", &[], &self.restores);
        r.adopt_counter("guard", "restore_stale", &[("table", "fwd")], &self.restore_stale_fwd);
        r.adopt_counter("guard", "restore_stale", &[("table", "stash")], &self.restore_stale_stash);
        r.adopt_counter("guard", "repl_deltas", &[("dir", "sent")], &self.repl_deltas_sent);
        r.adopt_counter("guard", "repl_deltas", &[("dir", "applied")], &self.repl_deltas_applied);
        r.adopt_counter("guard", "repl_resyncs", &[], &self.repl_resyncs);
        r.adopt_counter("guard", "repl_rejected", &[], &self.repl_rejected);
        r.adopt_counter("guard", "heartbeats_seen", &[], &self.heartbeats_seen);
        r.adopt_counter("guard", "peer_down_events", &[], &self.peer_down_events);
        r.adopt_counter("guard", "failover_takeovers", &[], &self.failover_takeovers);
        r.adopt_counter("guard", "fleet_keys", &[("dir", "sent")], &self.fleet_keys_sent);
        r.adopt_counter("guard", "fleet_keys", &[("dir", "applied")], &self.fleet_keys_applied);
        r.adopt_counter("guard", "fleet_key_reqs", &[], &self.fleet_key_reqs);
        r.adopt_gauge("guard", "admission_tier", &[], &self.admission_tier);
        r.adopt_gauge("guard", "checkpoint_age_nanos", &[], &self.checkpoint_age_nanos);
        r.adopt_gauge("guard", "checkpoint_bytes", &[], &self.checkpoint_bytes);
        r.adopt_gauge("guard", "table_bytes", &[], &self.table_bytes);
        r.adopt_gauge("guard", "amplification_milli", &[], &self.amplification_milli);
        r.adopt_histogram("guard", "ans_rtt_ns", &[], &self.ans_rtt_ns);
    }
}

#[derive(Debug)]
enum Rewrite {
    /// Relay the ANS response as-is (txid restored).
    Passthrough,
    /// A health probe: the response only proves liveness, nothing is
    /// relayed.
    Probe,
    /// DNS-based referral: answer the cookie-name question with the glue
    /// addresses from the ANS's referral.
    ReferralCookie { cookie_question: Question },
    /// DNS-based non-referral: stash the real answer, reply `COOKIE2`.
    Fabricated {
        cookie_question: Question,
        original: Name,
    },
    /// TCP proxy relay (token routes back to the connection).
    TcpRelay { token: u64 },
}

#[derive(Debug)]
struct Forwarded {
    requester: Endpoint,
    reply_from: Endpoint,
    orig_txid: u16,
    rewrite: Rewrite,
    created: SimTime,
    /// Journey correlation id: the relay of the ANS reply inherits the
    /// qid of the verify/forward that caused it, which is what lets the
    /// assembler stitch across the txid rewrite.
    qid: u64,
}

impl Forwarded {
    /// Approximate heap footprint, for the forward-table byte bound.
    fn approx_bytes(&self) -> usize {
        let heap = match &self.rewrite {
            Rewrite::Passthrough | Rewrite::Probe | Rewrite::TcpRelay { .. } => 0,
            Rewrite::ReferralCookie { cookie_question } => cookie_question.name.wire_len(),
            Rewrite::Fabricated {
                cookie_question,
                original,
            } => cookie_question.name.wire_len() + original.wire_len(),
        };
        std::mem::size_of::<Self>() + heap
    }
}

/// A query on its way to the ANS.
enum Outgoing<'a> {
    /// An owned query, encoded under the upstream transaction id.
    Owned(Message),
    /// A verified extension query still in its receive buffer: what goes
    /// upstream is its header and question bytes ([`MessageView::without_cookie`])
    /// when it has that shape, and the owned query without its cookie
    /// otherwise.
    CookieQuery(&'a MessageView<'a>),
}

impl Outgoing<'_> {
    /// The requester's transaction id.
    fn id(&self) -> u16 {
        match self {
            Outgoing::Owned(msg) => msg.header.id,
            Outgoing::CookieQuery(view) => view.header.id,
        }
    }

    /// The owned query, cookie stripped.
    fn into_message(self) -> Message {
        match self {
            Outgoing::Owned(msg) => msg,
            Outgoing::CookieQuery(view) => {
                let mut msg = view.to_message();
                cookie_ext::strip_cookie(&mut msg);
                msg
            }
        }
    }

    /// The datagram for the ANS, under transaction id `txid`.
    fn into_wire(self, txid: u16) -> Vec<u8> {
        if let Outgoing::CookieQuery(view) = self {
            if let Some(wire) = view.without_cookie(txid) {
                return wire;
            }
        }
        let mut msg = self.into_message();
        msg.header.id = txid;
        msg.encode()
    }
}

/// What the guard tells a source it has not verified, instead of serving it:
/// the question back, plus at most one record.
enum FirstContact {
    /// TC set: come back over TCP.
    Truncated,
    /// The source's cookie, in the modified-DNS extension.
    Grant(Cookie),
    /// A fabricated referral: the NS record whose target's first label
    /// carries the cookie.
    Referral(Record),
}

#[derive(Debug)]
struct StashEntry {
    answers: Vec<Record>,
    created: SimTime,
}

impl StashEntry {
    /// Approximate heap footprint, for the stash byte bound.
    fn approx_bytes(&self, key_name: &Name) -> usize {
        std::mem::size_of::<Self>()
            + key_name.wire_len()
            + self
                .answers
                .iter()
                .map(|r| std::mem::size_of::<Record>() + r.name.wire_len() + 16)
                .sum::<usize>()
    }
}

/// The serializable image of a forward-table entry, or `None` for probes
/// and TCP relays (those must not survive a restart or be replicated).
fn fwd_state_of(txid: u16, f: &Forwarded) -> Option<FwdState> {
    let rewrite = match &f.rewrite {
        Rewrite::Passthrough => RewriteState::Passthrough,
        Rewrite::ReferralCookie { cookie_question } => RewriteState::ReferralCookie {
            cookie_question: cookie_question.clone(),
        },
        Rewrite::Fabricated {
            cookie_question,
            original,
        } => RewriteState::Fabricated {
            cookie_question: cookie_question.clone(),
            original: original.clone(),
        },
        Rewrite::Probe | Rewrite::TcpRelay { .. } => return None,
    };
    Some(FwdState {
        txid,
        requester: (f.requester.ip, f.requester.port),
        reply_from: (f.reply_from.ip, f.reply_from.port),
        orig_txid: f.orig_txid,
        rewrite,
        created_nanos: f.created.as_nanos(),
        qid: f.qid,
    })
}

/// Timeout-based liveness tracking for the protected ANS.
#[derive(Debug)]
struct AnsHealth {
    /// Forwarded requests expired without a response since the last ANS
    /// response of any kind.
    consecutive_timeouts: u32,
    down: bool,
    /// Current probe backoff interval (while down).
    probe_interval: SimTime,
    next_probe: SimTime,
    /// When the ANS last responded. Expired forwards issued *before* this
    /// are not counted as timeouts — the ANS proved alive after they were
    /// sent, so their loss says nothing new (and requests black-holed
    /// during an outage must not re-trip the monitor after recovery).
    last_response: SimTime,
}

/// Runtime state of the primary–standby pairing. One struct serves both
/// roles: the primary uses the replication-sequence and pending-change
/// fields, the standby the heartbeat/peer-health fields (which mirror the
/// [`AnsHealth`] machinery: miss counting, then probes with exponential
/// backoff).
#[derive(Debug)]
struct HaRuntime {
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
    /// Forward-table keys inserted since the last delta.
    pending_fwd_add: Vec<u16>,
    /// Forward-table keys removed since the last delta.
    pending_fwd_del: Vec<u16>,
    /// Stash keys inserted since the last delta.
    pending_stash_add: Vec<(Ipv4Addr, Name)>,
    /// Stash keys removed since the last delta.
    pending_stash_del: Vec<(Ipv4Addr, Name)>,
    // -- standby side --
    /// Highest sequence number applied.
    applied_seq: u64,
    /// Whether the standby holds a consistent snapshot (false until the
    /// first `Full` arrives, and again after a sequence gap).
    synced: bool,
    /// Earliest time the standby may send another `ResyncReq`. A lossy
    /// channel delivers many out-of-sequence deltas per heartbeat
    /// interval; answering each with a resync request made the primary
    /// ship one full snapshot per miss — a self-amplifying storm.
    next_resync: SimTime,
    /// Current resync-request backoff (doubles per request, capped at
    /// `cfg.probe_max`, reset when a full snapshot lands).
    resync_interval: SimTime,
    /// When the peer last sent an authenticated message.
    last_heartbeat: SimTime,
    /// Consecutive HA ticks without a fresh heartbeat.
    missed: u32,
    /// Whether the peer is currently considered dead.
    peer_down: bool,
    /// Probe backoff while the peer is down and takeover is disabled.
    probe_interval: SimTime,
    next_probe: SimTime,
    /// Whether this guard has claimed the guarded address.
    took_over: bool,
}

impl HaRuntime {
    fn new(cfg: HaConfig, key_seed: u64) -> Self {
        HaRuntime {
            role: cfg.role,
            secret: repl_secret(key_seed),
            repl_seq: 0,
            sent_generation: u64::MAX,
            need_full: true,
            pending_fwd_add: Vec::new(),
            pending_fwd_del: Vec::new(),
            pending_stash_add: Vec::new(),
            pending_stash_del: Vec::new(),
            applied_seq: 0,
            synced: false,
            next_resync: SimTime::ZERO,
            resync_interval: cfg.replication_interval,
            last_heartbeat: SimTime::ZERO,
            missed: 0,
            peer_down: false,
            probe_interval: cfg.replication_interval,
            next_probe: SimTime::ZERO,
            took_over: false,
            cfg,
        }
    }
}

/// Runtime state of a fleet site (master or member). The master pushes
/// [`ReplPayload::FleetKey`] epochs; members apply them and request a
/// catch-up (with backoff) while unsynced.
#[derive(Debug)]
struct FleetRuntime {
    cfg: FleetConfig,
    /// Channel-authentication secret — the same derivation HA uses, so a
    /// site can serve both roles over one port.
    secret: SecretKey,
    /// Member: whether a key epoch has been applied yet.
    synced: bool,
    /// Master: the key generation last pushed (`u64::MAX` until the first
    /// push, so startup always announces epoch 0).
    sent_generation: u64,
    /// Member: earliest time the next catch-up request may go out.
    next_req: SimTime,
    /// Member: current catch-up backoff (doubles per request, capped at
    /// `cfg.req_backoff_max`).
    req_interval: SimTime,
}

impl FleetRuntime {
    fn new(cfg: FleetConfig, key_seed: u64) -> Self {
        FleetRuntime {
            secret: repl_secret(key_seed),
            synced: false,
            sent_generation: u64::MAX,
            next_req: SimTime::ZERO,
            req_interval: cfg.sync_interval,
            cfg,
        }
    }
}

/// The remote DNS guard node.
///
/// Deploy it by routing the ANS's public address *and* the guard subnet to
/// this node, and giving the real ANS a private address:
///
/// ```text
/// sim.add_node(guard_public_ip, cpu, RemoteGuard::new(config, classifier));
/// sim.add_subnet(subnet_base, 24, guard_node);
/// sim.add_node(ans_private_ip, cpu, AuthNode::new(...));
/// ```
pub struct RemoteGuard {
    config: GuardConfig,
    cookies: CookieFactory,
    classifier: AuthorityClassifier,
    rl1: SourceRateLimiter,
    rl2: SourceRateLimiter,
    proxy: TcpProxy,
    fwd: HashMap<u16, Forwarded>,
    /// Insertion order of live `fwd` entries (oldest first) with their
    /// creation stamps; stale fronts (already answered or re-used txids)
    /// are skipped lazily during eviction.
    fwd_order: VecDeque<(u16, SimTime)>,
    fwd_bytes: usize,
    next_txid: u16,
    /// Monotonic journey correlation id, stamped on every decision-point
    /// trace event; never reused (unlike the 16-bit txid space).
    next_qid: u64,
    stash: HashMap<(Ipv4Addr, Name), StashEntry>,
    stash_order: VecDeque<((Ipv4Addr, Name), SimTime)>,
    stash_bytes: usize,
    health: AnsHealth,
    window_count: u64,
    active: bool,
    last_rotation: SimTime,
    /// Live counters (snapshot through [`RemoteGuard::stats`]).
    metrics: GuardMetrics,
    /// All bytes through the guard.
    pub traffic: TrafficMeter,
    /// Bytes exchanged with *unverified* sources (requests in, cookie/TC
    /// responses out) — the amplification-relevant meter.
    pub traffic_unverified: TrafficMeter,
    /// Overload-adaptive admission controller (None ⇒ feature off).
    admission: Option<AdmissionController>,
    /// Where periodic checkpoints are published (None ⇒ no checkpointing).
    checkpoint_store: Option<SharedCheckpointStore>,
    /// Sequence number of the last checkpoint taken or applied.
    checkpoint_seq: u64,
    /// When the last checkpoint was taken (drives the cadence and the
    /// `checkpoint_age_nanos` staleness gauge).
    last_checkpoint: SimTime,
    /// Primary–standby pairing state (None ⇒ standalone guard).
    ha: Option<HaRuntime>,
    /// Anycast-fleet key-sync state (None ⇒ single-site key).
    fleet: Option<FleetRuntime>,
    /// Per-decision-stage latency profiler; a zero-sized no-op unless the
    /// `stage-profiling` cargo feature is on *and* a clock is injected.
    stageprof: crate::stageprof::StageProf,
    /// Streaming source-population sketches (heavy hitters, cardinality,
    /// entropy); a zero-sized no-op unless the `traffic-analytics` cargo
    /// feature is on.
    analytics: crate::analytics::TrafficAnalytics,
}

impl RemoteGuard {
    /// Creates a guard from its configuration and the classifier that knows
    /// the protected ANS's delegations.
    pub fn new(config: GuardConfig, classifier: AuthorityClassifier) -> Self {
        let proxy = TcpProxy::new(
            config.key_seed ^ 0x7CB9,
            config.tcp_conn_rate,
            config.tcp_conn_lifetime,
        );
        RemoteGuard {
            cookies: CookieFactory::from_seed(config.key_seed).with_alg(config.cookie_alg),
            rl1: SourceRateLimiter::new(config.rl1_global_rate, config.rl1_per_source_rate),
            rl2: SourceRateLimiter::per_source_only(config.rl2_per_source_rate),
            proxy,
            fwd: HashMap::new(),
            fwd_order: VecDeque::new(),
            fwd_bytes: 0,
            next_txid: 1,
            next_qid: 1,
            stash: HashMap::new(),
            stash_order: VecDeque::new(),
            stash_bytes: 0,
            health: AnsHealth {
                consecutive_timeouts: 0,
                down: false,
                probe_interval: config.ans_probe_interval,
                next_probe: SimTime::ZERO,
                last_response: SimTime::ZERO,
            },
            window_count: 0,
            active: config.activation_threshold == 0.0,
            last_rotation: SimTime::ZERO,
            metrics: GuardMetrics::default(),
            traffic: TrafficMeter::default(),
            traffic_unverified: TrafficMeter::default(),
            admission: config.admission.clone().map(AdmissionController::new),
            checkpoint_store: None,
            checkpoint_seq: 0,
            last_checkpoint: SimTime::ZERO,
            ha: config.ha.clone().map(|cfg| HaRuntime::new(cfg, config.key_seed)),
            fleet: config
                .fleet
                .clone()
                .map(|cfg| FleetRuntime::new(cfg, config.key_seed)),
            config,
            classifier,
            stageprof: crate::stageprof::StageProf::new(),
            analytics: crate::analytics::TrafficAnalytics::new(),
        }
    }

    /// Creates a guard and immediately applies a previously taken
    /// checkpoint — the crash-restart path. Entries whose deadlines passed
    /// while the guard was down are dropped, never replayed.
    pub fn restore_from_checkpoint(
        config: GuardConfig,
        classifier: AuthorityClassifier,
        cp: &GuardCheckpoint,
        now: SimTime,
    ) -> Self {
        let mut guard = RemoteGuard::new(config, classifier);
        guard.apply_checkpoint(cp, now);
        guard
    }

    /// A snapshot of the guard counters.
    pub fn stats(&self) -> GuardStats {
        self.metrics.snapshot()
    }

    /// Attaches an observability bundle: the guard's counters (plus its
    /// rate limiters and TCP proxy) are adopted into `obs.registry` under
    /// components `guard` and `proxy`, and pipeline decisions start
    /// emitting trace events under component `guard`.
    pub fn attach_obs(&mut self, obs: &obs::Obs) {
        self.metrics.adopt_into(&obs.registry);
        self.rl1.adopt_into(&obs.registry, "guard", "rl1");
        self.rl2.adopt_into(&obs.registry, "guard", "rl2");
        self.proxy.adopt_into(&obs.registry);
        self.stageprof.adopt_into(&obs.registry);
        self.analytics.adopt_into(obs);
        self.metrics.trace = obs.tracer.component("guard");
    }

    /// Arms the stage profiler with a monotonic nanosecond clock (e.g. a
    /// captured `Instant`-based closure in a bench harness). A no-op
    /// unless the crate was built with the `stage-profiling` feature; the
    /// sim-domain guard never reads a wall clock itself.
    pub fn set_stage_clock(&mut self, clock: crate::stageprof::StageClock) {
        self.stageprof.set_clock(clock);
    }

    /// Samples recorded for profiling stage `stage` (see
    /// [`crate::stageprof::STAGE_NAMES`]); always 0 without the
    /// `stage-profiling` feature.
    pub fn stage_sample_count(&self, stage: usize) -> u64 {
        self.stageprof.stage_count(stage)
    }

    /// Runtime switch for the traffic-analytics pipeline (the bench's
    /// reference arm); a no-op without the `traffic-analytics` feature.
    pub fn set_analytics_enabled(&mut self, enabled: bool) {
        self.analytics.set_enabled(enabled);
    }

    /// A freshly derived source-population snapshot (distinct sources,
    /// entropy, top talkers); empty without the `traffic-analytics`
    /// feature.
    pub fn analytics_snapshot(&self) -> obs::sketch::AnalyticsSnapshot {
        self.analytics.snapshot()
    }

    /// A clone of the cumulative traffic sketch for fleet-level merging;
    /// empty without the `traffic-analytics` feature.
    pub fn analytics_sketch(&self) -> obs::sketch::TrafficSketch {
        self.analytics.sketch()
    }

    /// The shared republished snapshot the telemetry `top_sources`
    /// command serves; stays empty without the `traffic-analytics`
    /// feature.
    pub fn analytics_shared(&self) -> crate::analytics::SharedAnalytics {
        self.analytics.shared()
    }

    /// Whether spoof detection is currently engaged.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the health monitor currently judges the ANS down.
    pub fn ans_is_down(&self) -> bool {
        self.health.down
    }

    /// Approximate bytes held by the forward table and answer stash
    /// combined — the quantity bounded by
    /// [`GuardConfig::fwd_bytes_max`]/[`GuardConfig::stash_bytes_max`].
    pub fn table_bytes(&self) -> usize {
        self.fwd_bytes + self.stash_bytes
    }

    /// Mutable access to the configuration. Note that the rate limiters and
    /// TCP proxy are built at construction; changing their rates here does
    /// not rebuild them — but routing-level fields (`tcp_redirect_sources`,
    /// `activation_threshold`, TTLs) take effect immediately.
    pub fn config_mut(&mut self) -> &mut GuardConfig {
        &mut self.config
    }

    /// Rotates the guard's secret key (section III.E).
    pub fn rotate_key(&mut self) {
        self.cookies.rotate();
    }

    /// The guard's cookie factory (tests and the attack crate peek at it).
    pub fn cookie_factory(&self) -> &CookieFactory {
        &self.cookies
    }

    /// Number of live TCP proxy connections.
    pub fn proxy_connections(&self) -> usize {
        self.proxy.open_connections()
    }

    /// TCP proxy counters.
    pub fn proxy_stats(&self) -> crate::tcp_proxy::ProxyStats {
        self.proxy.stats()
    }

    // ---- checkpoint / restore --------------------------------------------

    /// Attaches the store that periodic checkpoints are published to
    /// (enables the cadence configured by
    /// [`GuardConfig::checkpoint_interval`]).
    pub fn attach_checkpoint_store(&mut self, store: SharedCheckpointStore) {
        self.checkpoint_store = Some(store);
    }

    /// Current admission-control tier (`Normal` when the controller is
    /// disabled).
    pub fn admission_tier(&self) -> PressureTier {
        self.admission
            .as_ref()
            .map_or(PressureTier::Normal, |a| a.tier())
    }

    /// The guard's HA role, if paired.
    pub fn ha_role(&self) -> Option<HaRole> {
        self.ha.as_ref().map(|h| h.role)
    }

    /// Whether this guard (a standby) has promoted itself and claimed the
    /// guarded address.
    pub fn has_taken_over(&self) -> bool {
        self.ha.as_ref().is_some_and(|h| h.took_over)
    }

    /// Builds a consistent snapshot of restorable guard state. Pure — the
    /// guard is unchanged; probes and TCP relays are excluded by
    /// construction. Entries are emitted in a deterministic order so equal
    /// states encode to equal bytes.
    pub fn checkpoint(&self, now: SimTime) -> GuardCheckpoint {
        let mut fwd: Vec<FwdState> = self
            .fwd
            .iter()
            .filter_map(|(&txid, f)| fwd_state_of(txid, f))
            .collect();
        fwd.sort_by_key(|f| f.txid);
        let mut stash: Vec<StashState> = self
            .stash
            .iter()
            .map(|((src, name), e)| StashState {
                src: *src,
                name: name.clone(),
                answers: e.answers.clone(),
                created_nanos: e.created.as_nanos(),
            })
            .collect();
        stash.sort_by_key(|s| (u32::from(s.src), format!("{:?}", s.name)));
        GuardCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: self.checkpoint_seq + 1,
            taken_at_nanos: now.as_nanos(),
            key: KeyState::capture(&self.cookies),
            rl1: self.rl1.checkpoint(),
            rl2: self.rl2.checkpoint(),
            next_txid: self.next_txid,
            next_qid: self.next_qid,
            active: self.active,
            last_rotation_nanos: self.last_rotation.as_nanos(),
            fwd,
            stash,
        }
    }

    /// Takes a checkpoint and publishes it to the attached store.
    pub fn take_checkpoint(&mut self, now: SimTime) {
        let Some(store) = self.checkpoint_store.clone() else {
            return;
        };
        let cp = self.checkpoint(now);
        self.checkpoint_seq = cp.seq;
        self.last_checkpoint = now;
        let bytes = cp.encode().len() as u64;
        self.metrics.checkpoints_taken.inc();
        self.metrics.checkpoint_bytes.set(bytes);
        self.metrics.checkpoint_age_nanos.set(0);
        self.metrics.trace.event(
            now.as_nanos(),
            "checkpoint",
            &[("seq", Value::U64(cp.seq)), ("bytes", Value::U64(bytes))],
        );
        store.lock().put(cp);
    }

    /// Replaces restorable state with a checkpoint's. Staleness rules:
    /// forwarding entries past the ANS deadline and stash entries past
    /// [`STASH_TTL`] are dropped — a restart never replays an expired
    /// deadline. Pre-rotation cookies keep verifying because the key state
    /// restores both generations and the generation bit.
    pub fn apply_checkpoint(&mut self, cp: &GuardCheckpoint, now: SimTime) {
        self.cookies = cp.key.to_factory().with_alg(self.config.cookie_alg);
        self.rl1.restore_state(&cp.rl1);
        self.rl2.restore_state(&cp.rl2);
        self.next_txid = cp.next_txid.max(1);
        self.next_qid = cp.next_qid.max(1);
        self.active = if self.config.activation_threshold == 0.0 {
            true
        } else {
            cp.active
        };
        self.last_rotation = SimTime::from_nanos(cp.last_rotation_nanos);
        self.fwd.clear();
        self.fwd_order.clear();
        self.fwd_bytes = 0;
        self.stash.clear();
        self.stash_order.clear();
        self.stash_bytes = 0;
        for f in &cp.fwd {
            self.install_fwd_state(f, now);
        }
        for s in &cp.stash {
            self.install_stash_state(s, now);
        }
        self.checkpoint_seq = cp.seq;
        self.last_checkpoint = SimTime::from_nanos(cp.taken_at_nanos);
        self.metrics.restores.inc();
        self.metrics.trace.event(
            now.as_nanos(),
            "restore",
            &[
                ("seq", Value::U64(cp.seq)),
                ("age_nanos", Value::U64(cp.age(now).as_nanos())),
            ],
        );
    }

    /// Installs one serialized forward entry unless its deadline already
    /// passed (then it is counted stale and dropped, never replayed).
    fn install_fwd_state(&mut self, f: &FwdState, now: SimTime) {
        let created = SimTime::from_nanos(f.created_nanos);
        if now.saturating_sub(created) >= self.config.ans_timeout {
            self.metrics.restore_stale_fwd.inc();
            return;
        }
        let rewrite = match &f.rewrite {
            RewriteState::Passthrough => Rewrite::Passthrough,
            RewriteState::ReferralCookie { cookie_question } => Rewrite::ReferralCookie {
                cookie_question: cookie_question.clone(),
            },
            RewriteState::Fabricated {
                cookie_question,
                original,
            } => Rewrite::Fabricated {
                cookie_question: cookie_question.clone(),
                original: original.clone(),
            },
        };
        self.insert_fwd(
            f.txid,
            Forwarded {
                requester: Endpoint::new(f.requester.0, f.requester.1),
                reply_from: Endpoint::new(f.reply_from.0, f.reply_from.1),
                orig_txid: f.orig_txid,
                rewrite,
                created,
                qid: f.qid,
            },
        );
    }

    /// Installs one serialized stash entry unless it already expired.
    fn install_stash_state(&mut self, s: &StashState, now: SimTime) {
        let created = SimTime::from_nanos(s.created_nanos);
        if now.saturating_sub(created) >= STASH_TTL {
            self.metrics.restore_stale_stash.inc();
            return;
        }
        self.insert_stash(
            (s.src, s.name.clone()),
            StashEntry {
                answers: s.answers.clone(),
                created,
            },
        );
    }

    // ---- primary–standby replication -------------------------------------

    /// Records a replicable forward-table insertion for the next delta.
    fn ha_note_fwd_add(&mut self, txid: u16, rewrite: &Rewrite) {
        if matches!(rewrite, Rewrite::Probe | Rewrite::TcpRelay { .. }) {
            return;
        }
        if let Some(ha) = self.ha.as_mut() {
            if ha.role == HaRole::Primary && !ha.took_over {
                ha.pending_fwd_add.push(txid);
            }
        }
    }

    fn ha_note_fwd_del(&mut self, txid: u16) {
        if let Some(ha) = self.ha.as_mut() {
            if ha.role == HaRole::Primary && !ha.took_over {
                ha.pending_fwd_del.push(txid);
            }
        }
    }

    fn ha_note_stash_add(&mut self, key: &(Ipv4Addr, Name)) {
        if let Some(ha) = self.ha.as_mut() {
            if ha.role == HaRole::Primary && !ha.took_over {
                ha.pending_stash_add.push(key.clone());
            }
        }
    }

    fn ha_note_stash_del(&mut self, key: &(Ipv4Addr, Name)) {
        if let Some(ha) = self.ha.as_mut() {
            if ha.role == HaRole::Primary && !ha.took_over {
                ha.pending_stash_del.push(key.clone());
            }
        }
    }

    /// Sends one authenticated replication message to the peer.
    fn send_repl(&mut self, ctx: &mut Context<'_>, payload: ReplPayload) {
        let Some(ha) = self.ha.as_ref() else {
            return;
        };
        let wire = encode_repl(&payload, &ha.secret);
        let pkt = Packet::udp(
            Endpoint::new(ha.cfg.local_addr, REPL_PORT),
            Endpoint::new(ha.cfg.peer_addr, REPL_PORT),
            wire,
        );
        self.tx(ctx, pkt);
    }

    /// Handles an inbound replication-channel datagram — HA pair traffic
    /// and fleet key-sync share the port and the authenticated framing.
    /// Every authenticated message from the HA peer doubles as a
    /// heartbeat; fleet messages carry no liveness meaning.
    fn handle_repl(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let now = ctx.now();
        let from_ha_peer = self
            .ha
            .as_ref()
            .is_some_and(|ha| pkt.src.ip == ha.cfg.peer_addr);
        let from_fleet_master = self
            .fleet
            .as_ref()
            .is_some_and(|f| !f.cfg.master && pkt.src.ip == f.cfg.master_addr);
        let from_fleet_member = self
            .fleet
            .as_ref()
            .is_some_and(|f| f.cfg.master && f.cfg.peers.contains(&pkt.src.ip));
        if !from_ha_peer && !from_fleet_master && !from_fleet_member {
            self.metrics.repl_rejected.inc();
            return;
        }
        // HA and fleet derive the identical channel secret from the shared
        // key seed, so either runtime's copy authenticates the message.
        let Some(secret) = self
            .ha
            .as_ref()
            .map(|ha| ha.secret.clone())
            .or_else(|| self.fleet.as_ref().map(|f| f.secret.clone()))
        else {
            return;
        };
        let payload = match decode_repl(&pkt.payload, &secret) {
            Ok(p) => p,
            Err(_) => {
                self.metrics.repl_rejected.inc();
                return;
            }
        };
        if from_ha_peer {
            self.metrics.heartbeats_seen.inc();
            if let Some(ha) = self.ha.as_mut() {
                ha.last_heartbeat = now;
                ha.missed = 0;
                if ha.peer_down {
                    ha.peer_down = false;
                    ha.probe_interval = ha.cfg.replication_interval;
                }
            }
        }
        match payload {
            ReplPayload::Full(cp) => {
                if !from_ha_peer || self.ha.as_ref().is_none_or(|ha| ha.role != HaRole::Standby)
                {
                    return;
                }
                self.apply_checkpoint(&cp, now);
                if let Some(ha) = self.ha.as_mut() {
                    ha.applied_seq = cp.seq;
                    ha.synced = true;
                    // A consistent snapshot ends any resync conversation.
                    ha.resync_interval = ha.cfg.replication_interval;
                    ha.next_resync = SimTime::ZERO;
                }
                self.metrics.repl_deltas_applied.inc();
                self.metrics.checkpoint_age_nanos.set(0);
            }
            ReplPayload::Delta(d) => {
                if !from_ha_peer || self.ha.as_ref().is_none_or(|ha| ha.role != HaRole::Standby)
                {
                    return;
                }
                let Some((synced, applied_seq)) =
                    self.ha.as_ref().map(|ha| (ha.synced, ha.applied_seq))
                else {
                    return;
                };
                if !synced || d.seq != applied_seq + 1 {
                    // Sequence gap (or never synced): ask for a full
                    // snapshot rather than applying a delta out of order —
                    // but back the requests off. On a lossy channel every
                    // surviving delta is out of sequence; answering each
                    // with a ResyncReq made the primary ship a full
                    // snapshot per miss, a self-amplifying storm.
                    let send = self.ha.as_mut().is_some_and(|ha| {
                        ha.synced = false;
                        if now >= ha.next_resync {
                            ha.next_resync = now + ha.resync_interval;
                            ha.resync_interval =
                                (ha.resync_interval * 2).min(ha.cfg.probe_max);
                            true
                        } else {
                            false
                        }
                    });
                    if send {
                        self.metrics.repl_resyncs.inc();
                        self.send_repl(ctx, ReplPayload::ResyncReq { have_seq: applied_seq });
                    }
                    return;
                }
                self.apply_delta(ctx, d);
            }
            ReplPayload::ResyncReq { .. } => {
                if !from_ha_peer {
                    return;
                }
                if let Some(ha) = self.ha.as_mut() {
                    if ha.role == HaRole::Primary {
                        ha.need_full = true;
                    }
                }
            }
            ReplPayload::FleetKey { epoch, key } => {
                if !from_fleet_master {
                    return;
                }
                self.apply_fleet_key(now, epoch, &key);
            }
            ReplPayload::FleetKeyReq { have_epoch } => {
                if !from_fleet_member {
                    return;
                }
                if have_epoch != self.cookies.generation() {
                    let key = KeyState::capture(&self.cookies);
                    let epoch = self.cookies.generation();
                    self.metrics.fleet_keys_sent.inc();
                    self.send_fleet(ctx, pkt.src.ip, ReplPayload::FleetKey { epoch, key });
                }
            }
        }
    }

    /// Applies a pushed fleet key epoch (member side). The carried state
    /// includes the previous key, so cookies minted under the prior epoch
    /// keep verifying here — the fleet-wide grace window.
    fn apply_fleet_key(&mut self, now: SimTime, epoch: u64, key: &KeyState) {
        let already = self
            .fleet
            .as_ref()
            .is_some_and(|f| f.synced && self.cookies.generation() == epoch);
        if already {
            return;
        }
        self.cookies = key.to_factory().with_alg(self.config.cookie_alg);
        self.last_rotation = now;
        if let Some(f) = self.fleet.as_mut() {
            f.synced = true;
            f.req_interval = f.cfg.sync_interval;
        }
        self.metrics.fleet_keys_applied.inc();
        self.metrics.trace.event(
            now.as_nanos(),
            "fleet_key_rotate",
            &[("epoch", Value::U64(epoch)), ("role", Value::Str("member"))],
        );
    }

    /// Sends one authenticated fleet message to a specific site.
    fn send_fleet(&mut self, ctx: &mut Context<'_>, to: Ipv4Addr, payload: ReplPayload) {
        let Some(f) = self.fleet.as_ref() else {
            return;
        };
        let wire = encode_repl(&payload, &f.secret);
        let pkt = Packet::udp(
            Endpoint::new(f.cfg.local_addr, REPL_PORT),
            Endpoint::new(to, REPL_PORT),
            wire,
        );
        self.tx(ctx, pkt);
    }

    /// One fleet-sync tick: the master announces a new key epoch to every
    /// member when its generation moved; an unsynced member requests a
    /// catch-up with exponential backoff.
    fn on_fleet_tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let Some(f) = self.fleet.as_ref() else {
            return;
        };
        ctx.set_daemon_timer(f.cfg.sync_interval, TAG_FLEET);
        if f.cfg.master {
            let generation = self.cookies.generation();
            if self.fleet.as_ref().is_some_and(|f| f.sent_generation == generation) {
                return;
            }
            let key = KeyState::capture(&self.cookies);
            let peers = f.cfg.peers.clone();
            if let Some(f) = self.fleet.as_mut() {
                f.sent_generation = generation;
            }
            for peer in peers {
                self.metrics.fleet_keys_sent.inc();
                self.send_fleet(
                    ctx,
                    peer,
                    ReplPayload::FleetKey {
                        epoch: generation,
                        key: key.clone(),
                    },
                );
            }
            self.metrics.trace.event(
                now.as_nanos(),
                "fleet_key_rotate",
                &[
                    ("epoch", Value::U64(generation)),
                    ("role", Value::Str("master")),
                ],
            );
        } else if !f.synced && now >= f.next_req {
            // `u64::MAX` = "never applied an epoch", so the master always
            // answers — even when both sides still sit at generation 0.
            let master = f.cfg.master_addr;
            if let Some(f) = self.fleet.as_mut() {
                f.next_req = now + f.req_interval;
                f.req_interval = (f.req_interval * 2).min(f.cfg.req_backoff_max);
            }
            self.metrics.fleet_key_reqs.inc();
            self.send_fleet(ctx, master, ReplPayload::FleetKeyReq { have_epoch: u64::MAX });
        }
    }

    /// Applies one in-sequence replication delta (standby side).
    fn apply_delta(&mut self, ctx: &mut Context<'_>, d: ReplDelta) {
        let now = ctx.now();
        if let Some(k) = &d.key {
            self.cookies = k.to_factory().with_alg(self.config.cookie_alg);
        }
        for f in &d.fwd_add {
            self.install_fwd_state(f, now);
        }
        for txid in &d.fwd_del {
            self.remove_fwd(*txid);
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
        if let Some(ha) = self.ha.as_mut() {
            ha.applied_seq = d.seq;
        }
        self.metrics.repl_deltas_applied.inc();
        self.metrics.checkpoint_age_nanos.set(0);
    }

    /// One replication-interval tick: the primary ships state, the standby
    /// watches heartbeats and takes over past the miss threshold.
    fn on_ha_tick(&mut self, ctx: &mut Context<'_>) {
        let Some(ha) = self.ha.as_ref() else {
            return;
        };
        ctx.set_daemon_timer(ha.cfg.replication_interval, TAG_HA);
        match ha.role {
            HaRole::Primary => self.ha_primary_tick(ctx),
            HaRole::Standby => self.ha_standby_tick(ctx),
        }
    }

    fn ha_primary_tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if self.ha.as_ref().is_none_or(|ha| ha.took_over) {
            // A promoted standby serves traffic but has no peer to feed.
            return;
        }
        let Some(need_full) = self.ha.as_ref().map(|ha| ha.need_full) else {
            return;
        };
        let generation = self.cookies.generation();
        let payload = if need_full {
            let mut cp = self.checkpoint(now);
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            ha.repl_seq += 1;
            cp.seq = ha.repl_seq;
            ha.need_full = false;
            ha.sent_generation = generation;
            ha.pending_fwd_add.clear();
            ha.pending_fwd_del.clear();
            ha.pending_stash_add.clear();
            ha.pending_stash_del.clear();
            ReplPayload::Full(cp)
        } else {
            let key = if self.ha.as_ref().is_some_and(|ha| ha.sent_generation != generation) {
                Some(KeyState::capture(&self.cookies))
            } else {
                None
            };
            let (mut add_txids, fwd_del, stash_add_keys, stash_del) = {
                let Some(ha) = self.ha.as_mut() else {
                    return;
                };
                ha.sent_generation = generation;
                (
                    std::mem::take(&mut ha.pending_fwd_add),
                    std::mem::take(&mut ha.pending_fwd_del),
                    std::mem::take(&mut ha.pending_stash_add),
                    std::mem::take(&mut ha.pending_stash_del),
                )
            };
            add_txids.sort_unstable();
            add_txids.dedup();
            let fwd_add: Vec<FwdState> = add_txids
                .iter()
                .filter_map(|txid| self.fwd.get(txid).and_then(|f| fwd_state_of(*txid, f)))
                .collect();
            let stash_add: Vec<StashState> = stash_add_keys
                .iter()
                .filter_map(|key| {
                    self.stash.get(key).map(|e| StashState {
                        src: key.0,
                        name: key.1.clone(),
                        answers: e.answers.clone(),
                        created_nanos: e.created.as_nanos(),
                    })
                })
                .collect();
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            ha.repl_seq += 1;
            ReplPayload::Delta(ReplDelta {
                seq: ha.repl_seq,
                key,
                fwd_add,
                fwd_del,
                stash_add,
                stash_del,
                next_txid: self.next_txid,
                next_qid: self.next_qid,
                active: self.active,
            })
        };
        self.metrics.repl_deltas_sent.inc();
        self.send_repl(ctx, payload);
    }

    fn ha_standby_tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let (age, became_down, do_takeover, probe_seq) = {
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            if ha.took_over {
                return;
            }
            let age = now.saturating_sub(ha.last_heartbeat);
            if age > ha.cfg.replication_interval {
                ha.missed += 1;
            } else {
                ha.missed = 0;
            }
            let mut became_down = false;
            if !ha.peer_down && ha.missed >= ha.cfg.heartbeat_miss_threshold {
                ha.peer_down = true;
                ha.next_probe = now;
                ha.probe_interval = ha.cfg.replication_interval;
                became_down = true;
            }
            let mut do_takeover = false;
            let mut probe_seq = None;
            if ha.peer_down {
                if ha.cfg.takeover {
                    do_takeover = true;
                } else if now >= ha.next_probe {
                    // Takeover disabled: keep probing the peer with
                    // exponential backoff (the ANS-probe discipline).
                    probe_seq = Some(ha.applied_seq);
                    ha.next_probe = now + ha.probe_interval;
                    ha.probe_interval = (ha.probe_interval * 2).min(ha.cfg.probe_max);
                }
            }
            (age, became_down, do_takeover, probe_seq)
        };
        // The standby's recoverable state ages from its last applied
        // replication message — that is what `checkpoint_lag` alerts on.
        self.metrics.checkpoint_age_nanos.set(age.as_nanos());
        if became_down {
            self.metrics.peer_down_events.inc();
            self.metrics
                .trace
                .event(now.as_nanos(), "peer_down", &[]);
        }
        if do_takeover {
            self.ha_take_over(ctx);
        } else if let Some(have_seq) = probe_seq {
            self.send_repl(ctx, ReplPayload::ResyncReq { have_seq });
        }
    }

    /// Promotes this standby: claim the guarded public address and the
    /// COOKIE2 subnet so in-flight verified sources keep working without a
    /// fresh cookie round-trip (their cookies verify against the
    /// replicated key, COOKIE2 destinations hash identically).
    fn ha_take_over(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        {
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            ha.took_over = true;
            ha.role = HaRole::Primary;
            ha.need_full = true;
        }
        ctx.claim_address(self.config.public_addr);
        let host_bits = 32 - (self.config.subnet_range + 1).leading_zeros();
        ctx.claim_subnet(self.config.subnet_base, (32 - host_bits) as u8);
        self.last_checkpoint = now;
        self.metrics.failover_takeovers.inc();
        self.metrics.checkpoint_age_nanos.set(0);
        self.metrics.trace.event(
            now.as_nanos(),
            "takeover",
            &[("addr", Value::Ip(self.config.public_addr))],
        );
    }

    /// Sheds the current unverified request if the admission controller
    /// says so. Must be called at most once per request (the Surge tier
    /// alternates).
    fn shed_unverified_now(&mut self, now: SimTime, src: Ipv4Addr) -> bool {
        let Some(adm) = self.admission.as_mut() else {
            return false;
        };
        if adm.shed_unverified() {
            let tier = adm.tier();
            self.metrics.admission_shed.inc();
            self.metrics.trace.event(
                now.as_nanos(),
                "admission_shed",
                &[("src", Value::Ip(src)), ("tier", Value::Str(tier.name()))],
            );
            true
        } else {
            false
        }
    }

    // ---- helpers ---------------------------------------------------------

    fn tx(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        ctx.charge(netsim::cost::packet_cost());
        self.traffic.tx(pkt.wire_size());
        ctx.send(pkt);
    }

    fn tx_unverified(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.traffic_unverified.tx(pkt.wire_size());
        self.tx(ctx, pkt);
    }

    fn charge_cookie(&self, ctx: &mut Context<'_>) {
        ctx.charge(netsim::cost::cookie_cost());
    }

    /// Sends a minimal liveness probe toward the ANS. Any response —
    /// whatever its rcode — marks the ANS alive again.
    fn send_probe(&mut self, ctx: &mut Context<'_>) {
        self.metrics.ans_probes.inc();
        self.metrics.trace.debug(ctx.now().as_nanos(), "ans_probe", &[]);
        let probe =
            Message::iterative_query(0, Name::root(), dnswire::types::RrType::Ns);
        let me = Endpoint::new(self.config.public_addr, DNS_PORT);
        let qid = self.alloc_qid();
        self.forward_to_ans(ctx, Outgoing::Owned(probe), me, me, Rewrite::Probe, qid);
    }

    /// Allocates the next upstream transaction id in O(1). If the id is
    /// still occupied (possible only when >65 K requests are in flight,
    /// i.e. the ANS is hopelessly behind), the old entry is overwritten —
    /// its response, if it ever comes, is treated as lost. This mirrors a
    /// real NAT-style table shedding stale flows under overload.
    fn alloc_txid(&mut self) -> u16 {
        let id = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1).max(1);
        self.remove_fwd(id);
        id
    }

    /// Allocates a journey correlation id.
    fn alloc_qid(&mut self) -> u64 {
        let id = self.next_qid;
        self.next_qid += 1;
        id
    }

    /// Inserts a forward-table entry, evicting oldest entries past the
    /// byte bound.
    fn insert_fwd(&mut self, txid: u16, entry: Forwarded) {
        let now = entry.created;
        self.ha_note_fwd_add(txid, &entry.rewrite);
        self.fwd_bytes += entry.approx_bytes();
        self.fwd_order.push_back((txid, entry.created));
        if let Some(old) = self.fwd.insert(txid, entry) {
            self.fwd_bytes -= old.approx_bytes();
        }
        while self.fwd_bytes > self.config.fwd_bytes_max {
            let Some((old_txid, created)) = self.fwd_order.pop_front() else {
                break;
            };
            // Skip stale queue fronts: answered entries, or txids re-used
            // since (their live entry has a newer creation stamp).
            if self.fwd.get(&old_txid).is_some_and(|f| f.created == created) {
                self.remove_fwd(old_txid);
                self.metrics.fwd_evicted.inc();
                self.metrics.trace.event(
                    now.as_nanos(),
                    "evict",
                    &[("table", Value::Str("fwd")), ("txid", Value::U64(old_txid as u64))],
                );
            }
        }
    }

    fn remove_fwd(&mut self, txid: u16) -> Option<Forwarded> {
        let entry = self.fwd.remove(&txid)?;
        self.fwd_bytes -= entry.approx_bytes();
        if !matches!(entry.rewrite, Rewrite::Probe | Rewrite::TcpRelay { .. }) {
            self.ha_note_fwd_del(txid);
        }
        Some(entry)
    }

    /// Inserts a stash entry, evicting oldest entries past the byte bound.
    fn insert_stash(&mut self, key: (Ipv4Addr, Name), entry: StashEntry) {
        let now = entry.created;
        self.ha_note_stash_add(&key);
        self.stash_bytes += entry.approx_bytes(&key.1);
        self.stash_order.push_back((key.clone(), entry.created));
        if let Some(old) = self.stash.insert(key.clone(), entry) {
            self.stash_bytes -= old.approx_bytes(&key.1);
        }
        while self.stash_bytes > self.config.stash_bytes_max {
            let Some((old_key, created)) = self.stash_order.pop_front() else {
                break;
            };
            if self
                .stash
                .get(&old_key)
                .is_some_and(|s| s.created == created)
            {
                self.remove_stash(&old_key);
                self.metrics.stash_evicted.inc();
                self.metrics.trace.event(
                    now.as_nanos(),
                    "evict",
                    &[("table", Value::Str("stash")), ("src", Value::Ip(old_key.0))],
                );
            }
        }
    }

    fn remove_stash(&mut self, key: &(Ipv4Addr, Name)) -> Option<StashEntry> {
        let entry = self.stash.remove(key)?;
        self.stash_bytes -= entry.approx_bytes(&key.1);
        self.ha_note_stash_del(key);
        Some(entry)
    }

    fn forward_to_ans(
        &mut self,
        ctx: &mut Context<'_>,
        query: Outgoing<'_>,
        requester: Endpoint,
        reply_from: Endpoint,
        rewrite: Rewrite,
        qid: u64,
    ) {
        if self.health.down
            && self.config.health_policy == AnsHealthPolicy::FailClosed
            && !matches!(rewrite, Rewrite::Probe)
        {
            self.metrics.failed_closed.inc();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "fail_closed",
                &[("src", Value::Ip(requester.ip))],
            );
            // UDP requesters get an immediate SERVFAIL so resolvers move on
            // to a sibling server; TCP relays are simply not forwarded (the
            // proxy connection is reaped by the lifetime cap).
            if !matches!(rewrite, Rewrite::TcpRelay { .. }) {
                let mut resp = query.into_message().into_response();
                resp.header.rcode = dnswire::types::Rcode::ServFail;
                let pkt = Packet::udp(reply_from, requester, resp.encode());
                self.tx(ctx, pkt);
            }
            return;
        }
        let orig_txid = query.id();
        let txid = self.alloc_txid();
        let probe = matches!(rewrite, Rewrite::Probe);
        self.insert_fwd(
            txid,
            Forwarded {
                requester,
                reply_from,
                orig_txid,
                rewrite,
                created: ctx.now(),
                qid,
            },
        );
        self.metrics.forwarded.inc();
        // Info-level with both sides of the txid rewrite: the journey
        // assembler's bridge from client-facing to ANS-facing identity.
        // Probes stay at debug — they are not client transactions.
        if probe {
            self.metrics.trace.debug(
                ctx.now().as_nanos(),
                "forward",
                &[("src", Value::Ip(requester.ip)), ("qid", Value::U64(qid))],
            );
        } else {
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "forward",
                &[
                    ("src", Value::Ip(requester.ip)),
                    ("qid", Value::U64(qid)),
                    ("txid", Value::U64(txid as u64)),
                    ("orig_txid", Value::U64(orig_txid as u64)),
                ],
            );
        }
        let pkt = Packet::udp(
            Endpoint::new(self.config.public_addr, DNS_PORT),
            Endpoint::new(self.config.ans_addr, DNS_PORT),
            query.into_wire(txid),
        );
        self.tx(ctx, pkt);
    }

    /// Builds the fabricated NS label on the stack: `PR`, 8 hex cookie chars,
    /// then the first label of the target (child zone or query name). Returns
    /// the buffer and the label's length, which can exceed what a label may
    /// be.
    fn fabricate_label(
        &self,
        src: Ipv4Addr,
        target_first_label: &[u8],
    ) -> ([u8; 10 + MAX_LABEL_LEN], usize) {
        let cookie = self.cookies.generate(src);
        let mut label = [0u8; 10 + MAX_LABEL_LEN];
        let mut len = 0;
        for part in [&b"PR"[..], &cookie.ns_label_hex(), target_first_label] {
            if let Some(slot) = label.get_mut(len..len + part.len()) {
                slot.copy_from_slice(part);
                len += part.len();
            }
        }
        (label, len)
    }

    /// Writes a first-contact answer over the datagram it answers (`start`
    /// is its view's) and sends it back where that came from.
    fn answer_unverified(
        &mut self,
        ctx: &mut Context<'_>,
        pkt: Packet,
        start: ReplyStart,
        answer: FirstContact,
    ) {
        let mut reply = Writer::over(pkt.payload, start);
        match answer {
            FirstContact::Truncated => reply.header.truncated = true,
            FirstContact::Grant(cookie) => {
                cookie_ext::write_cookie(&mut reply, cookie.0, self.config.cookie_ttl);
            }
            FirstContact::Referral(ns) => {
                reply.push(Section::Authority, &ns);
            }
        }
        self.tx_unverified(ctx, Packet::udp(pkt.dst, pkt.src, reply.finish()));
    }

    /// Parses a fabricated label back into `(hex_cookie, original_first_label)`.
    /// The prefix check is case-insensitive because DNS names compare (and
    /// our wire library canonicalises) case-insensitively.
    fn parse_cookie_label(label: &[u8]) -> Option<(&str, &[u8])> {
        let rest = match label.split_first_chunk::<2>() {
            Some((prefix, rest)) if prefix.eq_ignore_ascii_case(b"PR") => rest,
            _ => return None,
        };
        if rest.len() < 8 {
            return None;
        }
        let (hex, original) = rest.split_at(8);
        let hex = std::str::from_utf8(hex).ok()?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some((hex, original))
    }

    /// The usable `COOKIE2` offset space, excluding the guard's own public
    /// address when it falls inside the subnet (a `COOKIE2` equal to the
    /// public address would be routed into the plain-query path).
    fn cookie2_space(&self) -> (u32, Option<u32>) {
        let base = u32::from(self.config.subnet_base);
        let public = u32::from(self.config.public_addr);
        let pub_off = public
            .checked_sub(base + 1)
            .filter(|&off| off < self.config.subnet_range);
        let effective = self.config.subnet_range - pub_off.is_some() as u32;
        debug_assert!(effective >= 1, "cookie2 subnet too small");
        (effective, pub_off)
    }

    fn cookie2_addr(&self, src: Ipv4Addr) -> Ipv4Addr {
        let (effective, pub_off) = self.cookie2_space();
        let y = self.cookies.generate_subnet_offset(src, effective);
        let y = match pub_off {
            Some(p) if y >= p => y + 1,
            _ => y,
        };
        Ipv4Addr::from(u32::from(self.config.subnet_base) + 1 + y)
    }

    fn cookie2_matches(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let (effective, pub_off) = self.cookie2_space();
        let base = u32::from(self.config.subnet_base);
        let host = u32::from(dst);
        if host <= base {
            return false;
        }
        let h = host - base - 1;
        if Some(h) == pub_off {
            return false;
        }
        let presented = match pub_off {
            Some(p) if h > p => h - 1,
            _ => h,
        };
        self.cookies.verify_subnet_offset(src, presented, effective)
    }

    // ---- pipeline --------------------------------------------------------

    /// The decision event of every cookie check, valid or not.
    fn trace_verify(
        &self,
        ctx: &Context<'_>,
        scheme: &'static str,
        verdict: &'static str,
        src: Ipv4Addr,
        qid: u64,
    ) {
        self.metrics.trace.event(
            ctx.now().as_nanos(),
            "verify",
            &[
                ("scheme", Value::Str(scheme)),
                ("verdict", Value::Str(verdict)),
                ("src", Value::Ip(src)),
                ("qid", Value::U64(qid)),
            ],
        );
    }

    fn handle_udp(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        // Replication traffic is control-plane, not DNS: it is dispatched
        // before the datagram counter so the pipeline conservation
        // invariant keeps covering exactly the DNS data path. It is also
        // outside the profiled DNS pipeline.
        if (self.ha.is_some() || self.fleet.is_some()) && pkt.dst.port == REPL_PORT {
            self.handle_repl(ctx, pkt);
            return;
        }
        self.stageprof.begin();
        self.handle_udp_inner(ctx, pkt);
        self.stageprof.finish();
    }

    fn handle_udp_inner(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.metrics.udp_datagrams.inc();
        self.analytics.observe(ctx.now().as_nanos(), pkt.src.ip);
        // The verdict is taken on a borrowed view of the datagram; an owned
        // `Message` is built only for what the guard answers or rewrites.
        let Ok(view) = MessageView::parse(&pkt.payload) else {
            self.metrics.unparseable.inc();
            return;
        };
        self.stageprof.lap(crate::stageprof::STAGE_DECODE);
        if view.header.response {
            if pkt.src.ip != self.config.ans_addr {
                // A response-flagged datagram not from the ANS: spoofed or
                // misrouted; dropped without further processing.
                self.metrics.resp_foreign.inc();
            } else if let Some(fwd) = self.handle_ans_response(ctx, &view, pkt.payload.len()) {
                // A pass-through answer that fits a UDP payload goes out in
                // the buffer it came in, under the requester's id.
                let mut wire = pkt.payload;
                if let Some(id) = wire.first_chunk_mut() {
                    *id = fwd.orig_txid.to_be_bytes();
                }
                self.tx(ctx, Packet::udp(fwd.reply_from, fwd.requester, wire));
            }
            return;
        }
        self.window_count += 1;

        if !self.active {
            // Protection disengaged: transparent forwarding.
            self.metrics.passthrough.inc();
            let qid = self.alloc_qid();
            self.metrics.trace.debug(
                ctx.now().as_nanos(),
                "passthrough",
                &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
            );
            let query = Outgoing::Owned(view.to_message());
            self.forward_to_ans(ctx, query, pkt.src, pkt.dst, Rewrite::Passthrough, qid);
            return;
        }

        // 1. Cookie extension (modified-DNS scheme) takes precedence.
        if let Some(ext) = view.cookie() {
            if ext.is_request() {
                // Unverified work: sheddable under overload, before it can
                // cost an RL1 decision or a cookie computation.
                if self.shed_unverified_now(ctx.now(), pkt.src.ip) {
                    return;
                }
                // Grant a cookie — through Rate-Limiter1 (reflection bound).
                let admitted = self.rl1.admit(ctx.now(), pkt.src.ip);
                self.stageprof.lap(crate::stageprof::STAGE_ADMIT);
                if !admitted {
                    self.metrics.rl1_dropped.inc();
                    self.metrics.trace.event(
                        ctx.now().as_nanos(),
                        "rl_drop",
                        &[("limiter", Value::Str("rl1")), ("src", Value::Ip(pkt.src.ip))],
                    );
                    return;
                }
                self.charge_cookie(ctx);
                let cookie = self.cookies.generate(pkt.src.ip);
                self.metrics.grants_sent.inc();
                let qid = self.alloc_qid();
                self.metrics.trace.event(
                    ctx.now().as_nanos(),
                    "grant",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                self.traffic_unverified.rx(pkt.wire_size());
                let start = view.reply_start();
                self.answer_unverified(ctx, pkt, start, FirstContact::Grant(cookie));
                return;
            }
            self.charge_cookie(ctx);
            let qid = self.alloc_qid();
            let valid = self.cookies.verify(pkt.src.ip, &guardhash::Cookie(ext.cookie));
            self.stageprof.lap(crate::stageprof::STAGE_VERIFY);
            if valid {
                self.metrics.ext_valid.inc();
                self.trace_verify(ctx, "ext", "valid", pkt.src.ip, qid);
                let admitted = self.rl2.admit(ctx.now(), pkt.src.ip);
                self.stageprof.lap(crate::stageprof::STAGE_ADMIT);
                if !admitted {
                    self.metrics.rl2_dropped.inc();
                    self.metrics.trace.event(
                        ctx.now().as_nanos(),
                        "rl_drop",
                        &[
                            ("limiter", Value::Str("rl2")),
                            ("src", Value::Ip(pkt.src.ip)),
                            ("qid", Value::U64(qid)),
                        ],
                    );
                    return;
                }
                let query = Outgoing::CookieQuery(&view);
                self.forward_to_ans(ctx, query, pkt.src, pkt.dst, Rewrite::Passthrough, qid);
            } else {
                self.metrics.ext_invalid.inc();
                self.trace_verify(ctx, "ext", "invalid", pkt.src.ip, qid);
            }
            return;
        }

        // 2. COOKIE2 destination (message 7 of the fabricated NS/IP flow)?
        if pkt.dst.ip != self.config.public_addr {
            self.charge_cookie(ctx);
            let qid = self.alloc_qid();
            let cookie2_ok = self.cookie2_matches(pkt.src.ip, pkt.dst.ip);
            self.stageprof.lap(crate::stageprof::STAGE_VERIFY);
            if !cookie2_ok {
                self.metrics.cookie2_invalid.inc();
                self.trace_verify(ctx, "cookie2", "invalid", pkt.src.ip, qid);
                return;
            }
            self.metrics.cookie2_valid.inc();
            self.trace_verify(ctx, "cookie2", "valid", pkt.src.ip, qid);
            let admitted = self.rl2.admit(ctx.now(), pkt.src.ip);
            self.stageprof.lap(crate::stageprof::STAGE_ADMIT);
            if !admitted {
                self.metrics.rl2_dropped.inc();
                self.metrics.trace.event(
                    ctx.now().as_nanos(),
                    "rl_drop",
                    &[
                        ("limiter", Value::Str("rl2")),
                        ("src", Value::Ip(pkt.src.ip)),
                        ("qid", Value::U64(qid)),
                    ],
                );
                return;
            }
            let msg = view.to_message();
            let Some(question) = msg.question() else {
                return;
            };
            // One-shot stash from the first exchange (messages 4/5).
            if let Some(entry) = self.remove_stash(&(pkt.src.ip, question.name.clone())) {
                self.metrics.stash_hits.inc();
                self.metrics.trace.event(
                    ctx.now().as_nanos(),
                    "stash_hit",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                let mut resp = msg.into_response();
                resp.header.authoritative = true;
                resp.answers = entry.answers;
                let (wire, _) = resp
                    .encode_with_limit(MAX_UDP_PAYLOAD)
                    .unwrap_or_else(|_| (resp.encode(), false));
                let reply = Packet::udp(pkt.dst, pkt.src, wire);
                self.tx(ctx, reply);
                return;
            }
            let query = Outgoing::Owned(msg);
            self.forward_to_ans(ctx, query, pkt.src, pkt.dst, Rewrite::Passthrough, qid);
            return;
        }

        // 3. Cookie-embedded NS-name query (message 3 of the DNS-based
        // scheme)?
        if let Some((hex, original_first)) = view.first_label().and_then(Self::parse_cookie_label) {
            self.handle_cookie_name_query(ctx, &pkt, &view, hex, original_first);
            return;
        }

        // 4. Plain cookie-less query: dispatch per configured scheme. What it
        // is told goes out in the buffer it came in.
        if let Some(answer) = self.handle_plain_query(ctx, &pkt, &view) {
            let start = view.reply_start();
            self.answer_unverified(ctx, pkt, start, answer);
        }
    }

    fn handle_cookie_name_query(
        &mut self,
        ctx: &mut Context<'_>,
        pkt: &Packet,
        view: &MessageView<'_>,
        hex: &str,
        original_first: &[u8],
    ) {
        self.charge_cookie(ctx);
        let qid = self.alloc_qid();
        let suffix_ok = self.cookies.verify_ns_suffix(pkt.src.ip, hex);
        self.stageprof.lap(crate::stageprof::STAGE_VERIFY);
        // Restore the original name BEFORE declaring the query valid: a
        // cookie that verifies but encodes an unrestorable name is still a
        // drop, and must land in exactly one disposition bucket — as does a
        // questionless message (the caller read the question's first label,
        // but this wire-input path stays panic-free). A cookie that does not
        // verify builds nothing.
        let question = suffix_ok.then(|| view.to_message().questions.into_iter().next());
        let restored = question.flatten().and_then(|q| {
            let original = q.name.with_first_label(original_first).ok()?;
            Some((q, original))
        });
        let Some((cookie_question, original)) = restored else {
            self.metrics.ns_cookie_invalid.inc();
            self.trace_verify(ctx, "ns_label", "invalid", pkt.src.ip, qid);
            return;
        };
        self.metrics.ns_cookie_valid.inc();
        self.trace_verify(ctx, "ns_label", "valid", pkt.src.ip, qid);
        if !self.rl2.admit(ctx.now(), pkt.src.ip) {
            self.metrics.rl2_dropped.inc();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "rl_drop",
                &[
                    ("limiter", Value::Str("rl2")),
                    ("src", Value::Ip(pkt.src.ip)),
                    ("qid", Value::U64(qid)),
                ],
            );
            return;
        }
        let rewrite = match self.classifier.classify(&original) {
            Classification::Referral { .. } | Classification::Unknown => {
                Rewrite::ReferralCookie { cookie_question }
            }
            Classification::NonReferral => Rewrite::Fabricated {
                cookie_question,
                original: original.clone(),
            },
        };
        let restored = Message::iterative_query(view.header.id, original, dnswire::types::RrType::A);
        self.forward_to_ans(ctx, Outgoing::Owned(restored), pkt.src, pkt.dst, rewrite, qid);
    }

    /// Admits and counts a plain query and decides what the source is told;
    /// `None` when it is told nothing (dropped, or forwarded unprotected).
    fn handle_plain_query(
        &mut self,
        ctx: &mut Context<'_>,
        pkt: &Packet,
        view: &MessageView<'_>,
    ) -> Option<FirstContact> {
        if !view.has_question() {
            self.metrics.unparseable.inc();
            return None;
        }
        // Plain queries are unverified by definition: sheddable under
        // overload before they reach Rate-Limiter1.
        if self.shed_unverified_now(ctx.now(), pkt.src.ip) {
            return None;
        }
        // Every response to an unverified source passes Rate-Limiter1.
        let admitted = self.rl1.admit(ctx.now(), pkt.src.ip);
        self.stageprof.lap(crate::stageprof::STAGE_ADMIT);
        if !admitted {
            self.metrics.rl1_dropped.inc();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "rl_drop",
                &[("limiter", Value::Str("rl1")), ("src", Value::Ip(pkt.src.ip))],
            );
            return None;
        }
        self.traffic_unverified.rx(pkt.wire_size());
        let mode = if self.config.tcp_redirect_sources.contains(&pkt.src.ip) {
            SchemeMode::TcpBased
        } else {
            self.config.mode
        };
        match mode {
            SchemeMode::TcpBased => {
                self.metrics.tc_sent.inc();
                let qid = self.alloc_qid();
                self.metrics.trace.event(
                    ctx.now().as_nanos(),
                    "tc_sent",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                Some(FirstContact::Truncated)
            }
            SchemeMode::ModifiedOnly => {
                // Treat like a grant request: hand the requester a cookie so
                // a cookie-capable LRS can proceed (message 3).
                self.charge_cookie(ctx);
                let cookie = self.cookies.generate(pkt.src.ip);
                self.metrics.grants_sent.inc();
                let qid = self.alloc_qid();
                self.metrics.trace.event(
                    ctx.now().as_nanos(),
                    "grant",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                Some(FirstContact::Grant(cookie))
            }
            SchemeMode::DnsBased => {
                // Admitted, so it will be answered: the classifier needs the
                // question's name, and only that is built.
                let qname = view.question_name()?;
                let target = match self.classifier.classify(&qname) {
                    Classification::Referral { child_zone } => Some(child_zone),
                    Classification::NonReferral => Some(qname),
                    Classification::Unknown => None,
                };
                let fabricated = target.and_then(|target| {
                    let first = target.first_label()?;
                    self.charge_cookie(ctx);
                    let (label, len) = self.fabricate_label(pkt.src.ip, first);
                    let fab_name = target.with_first_label(label.get(..len)?).ok()?;
                    Some(Record::ns(target, fab_name, self.config.fabricated_ns_ttl))
                });
                let Some(ns) = fabricated else {
                    // Not ours (the ANS will refuse), the root itself, or a
                    // name too deep to carry the cookie label: forward
                    // unprotected.
                    self.metrics.plain_forwarded.inc();
                    let qid = self.alloc_qid();
                    let query = Outgoing::Owned(view.to_message());
                    self.forward_to_ans(ctx, query, pkt.src, pkt.dst, Rewrite::Passthrough, qid);
                    return None;
                };
                self.metrics.fabricated_ns_sent.inc();
                let qid = self.alloc_qid();
                self.metrics.trace.event(
                    ctx.now().as_nanos(),
                    "fabricated_ns",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                Some(FirstContact::Referral(ns))
            }
        }
    }

    /// Matches an ANS response to its forward and relays it. A pass-through
    /// answer that fits one UDP payload is handed back instead — the caller
    /// owns the receive buffer and relays it in place; every other rewrite
    /// builds the owned message here.
    fn handle_ans_response(
        &mut self,
        ctx: &mut Context<'_>,
        view: &MessageView<'_>,
        wire_len: usize,
    ) -> Option<Forwarded> {
        // Any response from the ANS proves it alive, matched or not.
        self.health.consecutive_timeouts = 0;
        self.health.last_response = ctx.now();
        if self.health.down {
            self.health.down = false;
            self.health.probe_interval = self.config.ans_probe_interval;
            self.metrics.ans_recoveries.inc();
            self.metrics.trace.event(ctx.now().as_nanos(), "ans_recovered", &[]);
        }
        let Some(fwd) = self.remove_fwd(view.header.id) else {
            // A late response to an evicted/expired forward (or a txid the
            // guard never issued).
            self.metrics.resp_unmatched.inc();
            return None;
        };
        self.metrics.relayed_responses.inc();
        let rtt_ns = ctx.now().saturating_sub(fwd.created).as_nanos();
        self.metrics.ans_rtt_ns.record(rtt_ns);
        // The relay event closes the journey stage opened by "forward": via
        // names the rewrite applied on the way back to the requester.
        let via = match &fwd.rewrite {
            Rewrite::Probe => None,
            Rewrite::Passthrough => Some("passthrough"),
            Rewrite::ReferralCookie { .. } => Some("referral"),
            Rewrite::Fabricated { .. } => Some("cookie2_redirect"),
            Rewrite::TcpRelay { .. } => Some("tcp"),
        };
        if let Some(via) = via {
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "relay",
                &[
                    ("src", Value::Ip(fwd.requester.ip)),
                    ("qid", Value::U64(fwd.qid)),
                    ("via", Value::Str(via)),
                    ("rtt_ns", Value::U64(rtt_ns)),
                ],
            );
        }
        let mut msg = match fwd.rewrite {
            Rewrite::Probe => return None,
            Rewrite::Passthrough if wire_len <= MAX_UDP_PAYLOAD => return Some(fwd),
            _ => view.to_message(),
        };
        match fwd.rewrite {
            Rewrite::Probe => {}
            Rewrite::Passthrough => {
                msg.header.id = fwd.orig_txid;
                let (wire, _) = msg
                    .encode_with_limit(MAX_UDP_PAYLOAD)
                    .unwrap_or_else(|_| (msg.encode(), false));
                let reply = Packet::udp(fwd.reply_from, fwd.requester, wire);
                self.tx(ctx, reply);
            }
            Rewrite::ReferralCookie { cookie_question } => {
                // Map the referral's glue addresses onto the cookie name
                // ("one name can be mapped to multiple IP addresses").
                let glue: Vec<Record> = msg
                    .additionals
                    .into_iter()
                    .chain(msg.answers)
                    .filter(|r| r.rtype == dnswire::types::RrType::A)
                    .map(|r| Record {
                        name: cookie_question.name.clone(),
                        ..r
                    })
                    .collect();
                let mut reply = Message {
                    header: dnswire::header::Header {
                        id: fwd.orig_txid,
                        response: true,
                        authoritative: true,
                        ..dnswire::header::Header::default()
                    },
                    questions: vec![cookie_question],
                    answers: glue,
                    ..Message::default()
                };
                if reply.answers.is_empty() {
                    reply.header.rcode = dnswire::types::Rcode::ServFail;
                }
                let reply_pkt = Packet::udp(fwd.reply_from, fwd.requester, reply.encode());
                self.tx(ctx, reply_pkt);
            }
            Rewrite::Fabricated {
                cookie_question,
                original,
            } => {
                // Stash the real answer for the imminent COOKIE2 query and
                // answer the cookie-name question with the COOKIE2 address.
                // The COOKIE2 offset derives from the digest already
                // computed when the cookie label was verified, so no extra
                // cookie charge is taken here — but the third computation of
                // the paper's count happens when message 7 is verified.
                self.insert_stash(
                    (fwd.requester.ip, original),
                    StashEntry {
                        answers: msg.answers,
                        created: ctx.now(),
                    },
                );
                let cookie2 = self.cookie2_addr(fwd.requester.ip);
                let reply = Message {
                    header: dnswire::header::Header {
                        id: fwd.orig_txid,
                        response: true,
                        authoritative: true,
                        ..dnswire::header::Header::default()
                    },
                    answers: vec![Record::a(
                        cookie_question.name.clone(),
                        cookie2,
                        self.config.fabricated_ns_ttl,
                    )],
                    questions: vec![cookie_question],
                    ..Message::default()
                };
                let reply_pkt = Packet::udp(fwd.reply_from, fwd.requester, reply.encode());
                self.tx(ctx, reply_pkt);
            }
            Rewrite::TcpRelay { token } => {
                if let Some(pkt) = self.proxy.on_ans_response(token, &msg) {
                    self.tx(ctx, pkt);
                }
            }
        }
        None
    }

    fn handle_tcp(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        // Charge the connection cost when a handshake completes; detect via
        // accepted-count delta.
        let accepted_before = self.proxy.stats().accepted;
        let actions = self.proxy.on_segment(ctx.now(), &pkt);
        if self.proxy.stats().accepted > accepted_before {
            ctx.charge(netsim::cost::tcp_conn_cost());
            self.charge_cookie(ctx); // SYN-cookie computation
            let qid = self.alloc_qid();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "proxy_accept",
                &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
            );
        }
        for action in actions {
            match action {
                ProxyAction::Send(p) => self.tx(ctx, p),
                ProxyAction::ForwardQuery { token, query } => {
                    // Connection-table bookkeeping scales with the number of
                    // open proxied connections (Figure 7(a)); charged once
                    // per relayed request.
                    ctx.charge(netsim::cost::tcp_conn_table_cost(self.proxy.open_connections()));
                    let qid = self.alloc_qid();
                    self.metrics.trace.debug(
                        ctx.now().as_nanos(),
                        "proxy_relay",
                        &[
                            ("src", Value::Ip(pkt.src.ip)),
                            ("qid", Value::U64(qid)),
                            ("token", Value::U64(token)),
                        ],
                    );
                    if !self.rl2.admit(ctx.now(), pkt.src.ip) {
                        self.metrics.rl2_dropped.inc();
                        self.metrics.trace.event(
                            ctx.now().as_nanos(),
                            "rl_drop",
                            &[
                                ("limiter", Value::Str("rl2")),
                                ("src", Value::Ip(pkt.src.ip)),
                                ("qid", Value::U64(qid)),
                            ],
                        );
                        continue;
                    }
                    self.forward_to_ans(
                        ctx,
                        Outgoing::Owned(query),
                        pkt.src,
                        Endpoint::new(self.config.public_addr, DNS_PORT),
                        Rewrite::TcpRelay { token },
                        qid,
                    );
                }
            }
        }
    }
}

impl Node for RemoteGuard {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_daemon_timer(WINDOW, TAG_WINDOW);
        if let Some(ha) = &self.ha {
            ctx.set_daemon_timer(ha.cfg.replication_interval, TAG_HA);
        }
        if let Some(f) = &self.fleet {
            ctx.set_daemon_timer(f.cfg.sync_interval, TAG_FLEET);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        ctx.charge(netsim::cost::packet_cost());
        self.traffic.rx(pkt.wire_size());
        match pkt.proto {
            Proto::Udp => self.handle_udp(ctx, pkt),
            Proto::Tcp => self.handle_tcp(ctx, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TAG_WINDOW => self.on_window(ctx),
            TAG_HA => self.on_ha_tick(ctx),
            TAG_FLEET => self.on_fleet_tick(ctx),
            _ => {}
        }
    }
}

impl RemoteGuard {
    /// The periodic housekeeping window (activation, rotation, expiries,
    /// checkpoint cadence, admission-pressure sampling).
    fn on_window(&mut self, ctx: &mut Context<'_>) {
        ctx.set_daemon_timer(WINDOW, TAG_WINDOW);
        // Activation decision from the inbound request rate.
        if self.config.activation_threshold > 0.0 {
            let rate = self.window_count as f64 / WINDOW.as_secs_f64();
            self.active = rate > self.config.activation_threshold;
        }
        self.window_count = 0;
        // Scheduled key rotation. Fleet members never rotate locally —
        // epochs only originate at the master, or the fleet keys diverge.
        let fleet_member = self.fleet.as_ref().is_some_and(|f| !f.cfg.master);
        if let Some(interval) = self.config.key_rotation_interval {
            if !fleet_member && ctx.now().saturating_sub(self.last_rotation) >= interval {
                self.last_rotation = ctx.now();
                self.cookies.rotate();
            }
        }
        // Housekeeping.
        self.proxy.reap(ctx.now());
        let now = ctx.now();
        // Expire unanswered forwards: each one is an ANS timeout feeding
        // the health monitor.
        let horizon = self.config.ans_timeout;
        let expired: Vec<u16> = self
            .fwd
            .iter()
            .filter(|(_, f)| now.saturating_sub(f.created) >= horizon)
            .map(|(&txid, _)| txid)
            .collect();
        for txid in expired {
            let entry = self.remove_fwd(txid);
            if entry.is_some_and(|f| f.created >= self.health.last_response) {
                self.metrics.ans_timeouts.inc();
                self.health.consecutive_timeouts += 1;
            }
        }
        if !self.health.down
            && self.health.consecutive_timeouts >= self.config.ans_failure_threshold
        {
            self.health.down = true;
            self.health.probe_interval = self.config.ans_probe_interval;
            self.health.next_probe = now; // first probe fires immediately
            self.metrics.ans_down_events.inc();
            self.metrics.trace.event(
                now.as_nanos(),
                "ans_down",
                &[("timeouts", Value::U64(self.health.consecutive_timeouts as u64))],
            );
        }
        if self.health.down && now >= self.health.next_probe {
            self.send_probe(ctx);
            self.health.next_probe = now + self.health.probe_interval;
            self.health.probe_interval =
                (self.health.probe_interval * 2).min(self.config.ans_probe_max);
        }
        let stale: Vec<(Ipv4Addr, Name)> = self
            .stash
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.created) >= STASH_TTL)
            .map(|(k, _)| k.clone())
            .collect();
        for key in stale {
            self.remove_stash(&key);
        }
        // Drop queue entries whose table entry is gone (lazy compaction,
        // so the order queues cannot outgrow the tables they mirror).
        let fwd = &self.fwd;
        self.fwd_order
            .retain(|(txid, created)| fwd.get(txid).is_some_and(|f| f.created == *created));
        let stash = &self.stash;
        self.stash_order
            .retain(|(key, created)| stash.get(key).is_some_and(|s| s.created == *created));
        self.metrics
            .table_bytes
            .set((self.fwd_bytes + self.stash_bytes) as u64);
        // Export the unverified-traffic amplification ratio (paper bound:
        // ≤1.5×) in milli-units so the alert engine can threshold it.
        let amp = self.traffic_unverified.amplification();
        let amp_milli = if amp.is_finite() && amp > 0.0 {
            (amp * 1000.0) as u64
        } else {
            0
        };
        self.metrics.amplification_milli.set(amp_milli);
        // Checkpoint cadence + staleness gauge (acting primary only — a
        // not-yet-promoted standby tracks staleness off its heartbeats).
        let standby_waiting = self
            .ha
            .as_ref()
            .is_some_and(|ha| ha.role == HaRole::Standby);
        if self.checkpoint_store.is_some() && !standby_waiting {
            match self.config.checkpoint_interval {
                Some(interval) if now.saturating_sub(self.last_checkpoint) >= interval => {
                    self.take_checkpoint(now);
                }
                _ => {
                    self.metrics
                        .checkpoint_age_nanos
                        .set(now.saturating_sub(self.last_checkpoint).as_nanos());
                }
            }
        }
        // Admission-pressure sample: RL saturation + forward-table fill.
        if let Some(adm) = self.admission.as_mut() {
            let before = adm.tier();
            let fill = self.fwd_bytes as f64 / self.config.fwd_bytes_max.max(1) as f64;
            let tier = adm.observe(
                self.rl1.admitted(),
                self.rl1.rejected(),
                self.rl2.admitted(),
                self.rl2.rejected(),
                fill,
            );
            self.metrics.admission_tier.set(tier.as_gauge());
            if tier != before {
                self.metrics.trace.event(
                    now.as_nanos(),
                    "tier_change",
                    &[
                        ("from", Value::Str(before.name())),
                        ("to", Value::Str(tier.name())),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::rdata::RData;
    use dnswire::types::{Rcode, RrType};
    use netsim::engine::{CpuConfig, Simulator};
    use server::authoritative::Authority;
    use server::nodes::AuthNode;
    use server::simclient::{CookieMode, LrsSimConfig, LrsSimulator};
    use server::zone::{paper_hierarchy, ROOT_SERVER};

    const ANS_PRIVATE: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
    const GUARD_SUBNET: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 0);

    /// Builds guard + ANS world. `which_zone`: 0 = root (referral answers),
    /// 2 = foo.com (non-referral answers). Returns (sim, guard_id, ans_id).
    fn guarded_world(
        seed: u64,
        which_zone: usize,
        mode: SchemeMode,
    ) -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let (root, com, foo) = paper_hierarchy();
        let zones = [root, com, foo];
        let zone = zones[which_zone].clone();
        let authority = Authority::new(vec![zone]);

        let mut sim = Simulator::new(seed);
        let config = GuardConfig {
            subnet_base: GUARD_SUBNET,
            ..GuardConfig::new(ROOT_SERVER, ANS_PRIVATE)
        }
        .with_mode(mode);
        let guard = sim.add_node(
            ROOT_SERVER,
            CpuConfig::unbounded(),
            RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
        );
        sim.add_subnet(GUARD_SUBNET, 24, guard);
        let ans = sim.add_node(ANS_PRIVATE, CpuConfig::unbounded(), AuthNode::new(ANS_PRIVATE, authority));
        (sim, guard, ans)
    }

    fn add_lrs(sim: &mut Simulator, last: u8, mode: CookieMode, cache: bool) -> netsim::NodeId {
        let ip = Ipv4Addr::new(10, 0, 0, last);
        let mut config = LrsSimConfig::new(ip, ROOT_SERVER, "www.foo.com".parse().unwrap());
        config.mode = mode;
        config.cookie_cache = cache;
        sim.add_node(ip, CpuConfig::unbounded(), LrsSimulator::new(config))
    }

    #[test]
    fn ns_name_scheme_end_to_end_referral() {
        let (mut sim, guard, _ans) = guarded_world(1, 0, SchemeMode::DnsBased);
        let lrs = add_lrs(&mut sim, 2, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(200));
        let lrs_state = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert!(lrs_state.stats.completed > 10, "completed {}", lrs_state.stats.completed);
        assert_eq!(lrs_state.stats.timeouts, 0);
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(guard_state.stats().fabricated_ns_sent >= 1);
        assert!(guard_state.stats().ns_cookie_valid > 10);
        assert_eq!(guard_state.stats().ns_cookie_invalid, 0, "no false positives");
    }

    #[test]
    fn fabricated_ns_ip_scheme_end_to_end() {
        let (mut sim, guard, _ans) = guarded_world(2, 2, SchemeMode::DnsBased);
        let lrs = add_lrs(&mut sim, 3, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(200));
        let lrs_state = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert!(lrs_state.stats.completed > 10, "completed {}", lrs_state.stats.completed);
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(guard_state.stats().cookie2_valid > 10, "COOKIE2 path exercised");
        assert_eq!(guard_state.stats().cookie2_invalid, 0);
        assert!(guard_state.stats().stash_hits >= 1, "first exchange uses the stash");
    }

    #[test]
    fn modified_scheme_end_to_end() {
        let (mut sim, guard, _ans) = guarded_world(3, 2, SchemeMode::ModifiedOnly);
        let lrs = add_lrs(&mut sim, 4, CookieMode::Extension, true);
        sim.run_until(SimTime::from_millis(200));
        let lrs_state = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert!(lrs_state.stats.completed > 10, "completed {}", lrs_state.stats.completed);
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert_eq!(guard_state.stats().grants_sent, 1, "one grant, then cached cookie");
        assert!(guard_state.stats().ext_valid > 10);
        assert_eq!(guard_state.stats().ext_invalid, 0);
    }

    #[test]
    fn tcp_scheme_end_to_end() {
        let (mut sim, guard, _ans) = guarded_world(4, 2, SchemeMode::TcpBased);
        let lrs = add_lrs(&mut sim, 5, CookieMode::Plain, false);
        sim.run_until(SimTime::from_millis(200));
        let lrs_state = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert!(lrs_state.stats.completed > 5, "completed {}", lrs_state.stats.completed);
        assert!(lrs_state.stats.tcp_fallbacks > 5);
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(guard_state.stats().tc_sent > 5);
        assert!(guard_state.proxy_stats().accepted > 5);
        assert!(guard_state.proxy_stats().requests_relayed > 5);
    }

    #[test]
    fn spoofed_cookie_labels_dropped() {
        let (mut sim, guard, ans) = guarded_world(5, 0, SchemeMode::DnsBased);
        // Forge message-3-style queries with random cookie hex from a
        // spoofed source.
        struct Forger;
        impl Node for Forger {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..100u32 {
                    let name: Name = format!("PR{:08x}com", i).parse().unwrap();
                    let q = Message::iterative_query(i as u16, name, RrType::A);
                    ctx.send(Packet::udp(
                        Endpoint::new(Ipv4Addr::new(66, 1, (i >> 8) as u8, i as u8), 999),
                        Endpoint::new(ROOT_SERVER, DNS_PORT),
                        q.encode(),
                    ));
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        sim.add_node(Ipv4Addr::new(66, 1, 0, 0), CpuConfig::unbounded(), Forger);
        sim.run_until(SimTime::from_millis(50));
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert_eq!(guard_state.stats().ns_cookie_invalid, 100);
        assert_eq!(guard_state.stats().forwarded, 0, "nothing reached the ANS");
        assert_eq!(sim.node_ref::<AuthNode>(ans).unwrap().total_queries(), 0);
    }

    #[test]
    fn invalid_ext_cookie_dropped() {
        let (mut sim, guard, ans) = guarded_world(6, 2, SchemeMode::ModifiedOnly);
        struct ExtForger;
        impl Node for ExtForger {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..50u16 {
                    let mut q = Message::iterative_query(i, "www.foo.com".parse().unwrap(), RrType::A);
                    cookie_ext::attach_cookie(&mut q, [0xBA; 16], 0);
                    ctx.send(Packet::udp(
                        Endpoint::new(Ipv4Addr::new(77, 1, 1, (i % 250) as u8), 999),
                        Endpoint::new(ROOT_SERVER, DNS_PORT),
                        q.encode(),
                    ));
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        sim.add_node(Ipv4Addr::new(77, 1, 1, 1), CpuConfig::unbounded(), ExtForger);
        sim.run_until(SimTime::from_millis(50));
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert_eq!(guard_state.stats().ext_invalid, 50);
        assert_eq!(sim.node_ref::<AuthNode>(ans).unwrap().total_queries(), 0);
    }

    #[test]
    fn amplification_bounded_for_dns_based() {
        let (mut sim, guard, _ans) = guarded_world(7, 0, SchemeMode::DnsBased);
        let _lrs = add_lrs(&mut sim, 6, CookieMode::Plain, false); // every request cold
        sim.run_until(SimTime::from_millis(100));
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        let amp = guard_state.traffic_unverified.amplification();
        assert!(amp > 1.0, "NS record adds bytes: {amp}");
        assert!(amp < 1.5, "paper: DNS-based amplification < 50%, got {amp}");
    }

    #[test]
    fn no_amplification_for_tc_and_grants() {
        for (seed, mode, lrs_mode) in [
            (8, SchemeMode::TcpBased, CookieMode::Plain),
            (9, SchemeMode::ModifiedOnly, CookieMode::Extension),
        ] {
            let (mut sim, guard, _ans) = guarded_world(seed, 2, mode);
            let _lrs = add_lrs(&mut sim, 7, lrs_mode, false);
            sim.run_until(SimTime::from_millis(100));
            let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
            let amp = guard_state.traffic_unverified.amplification();
            assert!(amp <= 1.02, "mode {mode:?}: amplification {amp}");
        }
    }

    #[test]
    fn activation_threshold_gates_detection() {
        let (mut sim, guard, _ans) = guarded_world(10, 0, SchemeMode::DnsBased);
        sim.node_mut::<RemoteGuard>(guard).unwrap().config.activation_threshold = 1_000.0;
        sim.node_mut::<RemoteGuard>(guard).unwrap().active = false;
        let lrs = add_lrs(&mut sim, 8, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(300));
        // A single closed-loop client (~1 req/RTT ≈ 2.5K/s on LAN · but each
        // takes ~0.4ms → ~2.5K/s) ... the client rate is above 1K/s so the
        // guard should engage; before engagement requests pass through.
        let guard_state = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(guard_state.stats().passthrough > 0, "initial window passed through");
        assert!(guard_state.is_active(), "guard engaged once rate exceeded threshold");
        assert!(guard_state.stats().fabricated_ns_sent > 0);
        let _ = lrs;
    }

    #[test]
    fn key_rotation_preserves_service() {
        let (mut sim, guard, _ans) = guarded_world(11, 0, SchemeMode::DnsBased);
        let lrs = add_lrs(&mut sim, 9, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(100));
        let before = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed;
        assert!(before > 0);
        sim.node_mut::<RemoteGuard>(guard).unwrap().rotate_key();
        sim.run_until(SimTime::from_millis(200));
        let after = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert!(after.stats.completed > before, "cached cookies still verify after one rotation");
        assert_eq!(sim.node_ref::<RemoteGuard>(guard).unwrap().stats().ns_cookie_invalid, 0);
    }

    #[test]
    fn ans_down_detected_probed_and_recovered() {
        let (mut sim, guard, ans) = guarded_world(20, 0, SchemeMode::DnsBased);
        {
            let cfg = sim.node_mut::<RemoteGuard>(guard).unwrap().config_mut();
            cfg.ans_timeout = SimTime::from_millis(50);
            cfg.ans_failure_threshold = 2;
            cfg.ans_probe_interval = SimTime::from_millis(100);
        }
        let lrs = add_lrs(&mut sim, 11, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(100));
        assert!(!sim.node_ref::<RemoteGuard>(guard).unwrap().ans_is_down());
        assert!(sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed > 0);

        sim.crash(ans);
        sim.run_until(SimTime::from_millis(700));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.ans_is_down(), "health monitor noticed the crash");
        assert_eq!(g.stats().ans_down_events, 1);
        assert!(g.stats().ans_timeouts >= 2);
        assert!(g.stats().ans_probes >= 2, "probing while down");

        sim.restart(ans);
        sim.run_until(SimTime::from_millis(1_500));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(!g.ans_is_down(), "probe response cleared the down state");
        assert_eq!(g.stats().ans_recoveries, 1);
        let completed_after = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed;
        sim.run_until(SimTime::from_millis(1_700));
        assert!(
            sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed > completed_after,
            "service resumed after recovery"
        );
    }

    #[test]
    fn fail_closed_sheds_load_while_ans_down() {
        let (mut sim, guard, ans) = guarded_world(21, 0, SchemeMode::DnsBased);
        {
            let cfg = sim.node_mut::<RemoteGuard>(guard).unwrap().config_mut();
            cfg.ans_timeout = SimTime::from_millis(50);
            cfg.ans_failure_threshold = 2;
            cfg.ans_probe_interval = SimTime::from_millis(100);
            cfg.health_policy = crate::config::AnsHealthPolicy::FailClosed;
        }
        let _lrs = add_lrs(&mut sim, 12, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(100));
        sim.crash(ans);
        sim.run_until(SimTime::from_millis(800));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.ans_is_down());
        assert!(g.stats().failed_closed > 0, "verified queries refused fast");
        // Probes still go out despite the fail-closed gate.
        assert!(g.stats().ans_probes >= 2);
        sim.restart(ans);
        sim.run_until(SimTime::from_millis(1_500));
        assert!(!sim.node_ref::<RemoteGuard>(guard).unwrap().ans_is_down());
    }

    #[test]
    fn forward_table_stays_within_byte_bound() {
        // A spoofed flood of out-of-bailiwick names all get forwarded
        // (passthrough) to an ANS that never answers; the forward table
        // must hold its configured byte bound and evict oldest-first.
        let (root, com, foo) = paper_hierarchy();
        let _ = (root, com);
        let authority = Authority::new(vec![foo]);
        let mut sim = Simulator::new(22);
        let mut config = GuardConfig {
            subnet_base: GUARD_SUBNET,
            ..GuardConfig::new(ROOT_SERVER, ANS_PRIVATE)
        };
        config.rl1_global_rate = 1e12;
        config.rl1_per_source_rate = 1e12;
        config.fwd_bytes_max = 8_192;
        let guard = sim.add_node(
            ROOT_SERVER,
            CpuConfig::unbounded(),
            RemoteGuard::new(config, AuthorityClassifier::new(authority)),
        );
        sim.add_subnet(GUARD_SUBNET, 24, guard);
        // No ANS node at all: every forward is a black hole.
        struct Flood;
        impl Node for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                if tag >= 2_000 {
                    return;
                }
                let name: Name = format!("h{tag}.elsewhere.example").parse().unwrap();
                let q = Message::iterative_query(tag as u16, name, RrType::A);
                ctx.send(Packet::udp(
                    Endpoint::new(Ipv4Addr::from(0x2000_0000 + tag as u32), 999),
                    Endpoint::new(ROOT_SERVER, DNS_PORT),
                    q.encode(),
                ));
                ctx.set_timer(SimTime::from_micros(4), tag + 1); // 250K req/s
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        sim.add_node(Ipv4Addr::new(32, 0, 0, 1), CpuConfig::unbounded(), Flood);
        sim.run_until(SimTime::from_millis(20));
        let g = sim.node_ref::<RemoteGuard>(guard).unwrap();
        assert!(g.stats().forwarded >= 2_000);
        assert!(
            g.table_bytes() <= 8_192,
            "table {} bytes exceeds bound",
            g.table_bytes()
        );
        assert!(g.stats().fwd_evicted > 0, "bound enforced by eviction");
    }

    #[test]
    fn rcode_passthrough_for_unknown_zone() {
        // A query outside the ANS's bailiwick is forwarded and the REFUSED
        // response relayed. (Guard the foo.com zone: example names are then
        // genuinely out of bailiwick; a root guard would own everything.)
        let (mut sim, _guard, _ans) = guarded_world(12, 2, SchemeMode::DnsBased);
        struct Asker {
            reply: Option<Message>,
        }
        impl Node for Asker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let q = Message::iterative_query(5, "out.of.zone.example".parse().unwrap(), RrType::A);
                ctx.send(Packet::udp(
                    Endpoint::new(Ipv4Addr::new(10, 0, 0, 40), 999),
                    Endpoint::new(ROOT_SERVER, DNS_PORT),
                    q.encode(),
                ));
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                self.reply = Message::decode(&pkt.payload).ok();
            }
        }
        let asker = sim.add_node(Ipv4Addr::new(10, 0, 0, 40), CpuConfig::unbounded(), Asker { reply: None });
        sim.run_until(SimTime::from_millis(20));
        let reply = sim.node_ref::<Asker>(asker).unwrap().reply.clone();
        let reply = reply.expect("got a response");
        assert_eq!(reply.header.rcode, Rcode::Refused);
    }

    #[test]
    fn attach_obs_exports_counters_and_decision_trace() {
        let obs = obs::Obs::new();
        obs.tracer.set_default_level(obs::trace::Level::Info);
        let (mut sim, guard, _ans) = guarded_world(30, 0, SchemeMode::DnsBased);
        sim.node_mut::<RemoteGuard>(guard).unwrap().attach_obs(&obs);
        let lrs = add_lrs(&mut sim, 13, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(100));
        let completed = sim.node_ref::<LrsSimulator>(lrs).unwrap().stats.completed;
        assert!(completed > 10);

        // Registry view matches the snapshot view.
        let stats = sim.node_ref::<RemoteGuard>(guard).unwrap().stats();
        let snap = obs.registry.snapshot();
        let find = |name: &str, labels: &[(&str, &str)]| {
            snap.iter()
                .find(|m| {
                    m.component == "guard"
                        && m.name == name
                        && labels.iter().all(|(k, v)| {
                            m.labels.iter().any(|(lk, lv)| lk == k && lv == v)
                        })
                })
                .map(|m| match m.value {
                    obs::metrics::SampleValue::Counter(v) => v,
                    _ => panic!("expected counter"),
                })
        };
        assert_eq!(
            find("verify", &[("scheme", "ns_label"), ("verdict", "valid")]),
            Some(stats.ns_cookie_valid)
        );
        assert_eq!(find("forwarded", &[]), Some(stats.forwarded));
        assert_eq!(find("udp_datagrams", &[]), Some(stats.udp_datagrams));
        assert!(
            snap.iter().any(|m| m.component == "guard"
                && m.name == "ans_rtt_ns"
                && matches!(m.value, obs::metrics::SampleValue::Histogram { count, .. } if count > 0)),
            "ANS round-trips recorded"
        );

        // Decision events arrived in sim-time order.
        let (events, dropped) = obs.tracer.drain();
        assert_eq!(dropped, 0);
        assert!(events.iter().any(|e| e.kind == "verify"));
        assert!(events.iter().any(|e| e.kind == "fabricated_ns"));
        assert!(events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
    }

    #[test]
    fn referral_reply_carries_real_server_address() {
        // The cookie-name answer must hold the true com-server glue.
        let (mut sim, _guard, _ans) = guarded_world(13, 0, SchemeMode::DnsBased);
        let lrs = add_lrs(&mut sim, 10, CookieMode::Plain, true);
        sim.run_until(SimTime::from_millis(50));
        let lrs_state = sim.node_ref::<LrsSimulator>(lrs).unwrap();
        assert!(lrs_state.stats.completed > 0);
        // The LRS's cached NS name resolves through the guard to the real
        // com server address — verified implicitly by completion, and the
        // answer values are checked in the integration tests.
        let _ = RData::A(server::zone::COM_SERVER);
    }
}
