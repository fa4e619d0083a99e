//! The guard's decisions, with no I/O: [`GuardCore`] is handed the time and
//! each datagram and appends what must happen to the driver's [`Outputs`].

use super::fwd::{Forwarded, FwdTable, Rewrite};
use super::stats::{GuardMetrics, GuardStats};
use crate::admission::{AdmissionController, PressureTier};
use crate::analytics::TrafficAnalytics;
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
use dnswire::header::Header;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::name::{Name, MAX_LABEL_LEN};
use dnswire::question::{Question, NO_QUESTION};
use dnswire::record::Record;
use dnswire::types::{Rcode, RrClass, RrType};
use dnswire::view::MessageView;
use dnswire::writer::{ReplyStart, Section, Writer};
use guardhash::cookie::{Cookie, CookieFactory, SecretKey};
use netsim::metrics::TrafficMeter;
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT, UDP_HEADER_BYTES};
use netsim::time::SimTime;
use obs::trace::Value;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Housekeeping period: how often a driver calls [`GuardCore::on_window`].
pub const WINDOW: SimTime = SimTime::from_millis(100);

/// Where a datagram entered the guard. The driver vouches for it: the
/// core relays an answer only off the upstream leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// From the Internet, addressed to the guarded address or subnet.
    Client,
    /// From the protected ANS.
    Upstream,
}

/// One thing the core asks its driver to do.
#[derive(Debug)]
pub enum Output {
    /// Send this packet: an answer to a client, a TCP segment of the proxy,
    /// or a replication message to a peer guard.
    Packet(Packet),
    /// Send this datagram to the protected ANS.
    ToAns(Vec<u8>),
    /// Take over this address (failover).
    ClaimAddress(Ipv4Addr),
    /// Take over this `base/prefix` subnet (failover).
    ClaimSubnet(Ipv4Addr, u8),
}

/// The out-buffer of a driver: what one or more core calls asked for, in
/// order, and the CPU cost they charged. The driver owns it, executes and
/// drains it after each call, and hands the same buffer to the next.
#[derive(Debug, Default)]
pub struct Outputs {
    cost: SimTime,
    queue: Vec<Output>,
}

impl Outputs {
    fn charge(&mut self, cost: SimTime) {
        self.cost += cost;
    }

    fn push(&mut self, output: Output) {
        self.queue.push(output);
    }

    /// The calibrated CPU cost ([`netsim::cost`]) charged since the last
    /// drain. It means something only to the simulator: a driver that
    /// spends real CPU never asks.
    pub fn cost(&self) -> SimTime {
        self.cost
    }

    /// Removes the queued outputs, oldest first, and forgets the cost; the
    /// buffer keeps its room.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Output> {
        self.cost = SimTime::ZERO;
        self.queue.drain(..)
    }
}

impl Forwarded {
    /// The entry for `query`, which `requester` sent to `reply_from`.
    fn of(
        query: &Outgoing<'_>,
        now: SimTime,
        requester: Endpoint,
        reply_from: Endpoint,
        rewrite: Rewrite,
        qid: u64,
    ) -> Forwarded {
        Forwarded {
            requester,
            reply_from,
            orig_txid: query.id(),
            rewrite,
            created: now,
            qid,
        }
    }
}

/// A query on its way to the ANS.
enum Outgoing<'a> {
    /// An owned query, encoded under the upstream transaction id.
    Owned(Message),
    /// A verified query still in its receive buffer: what goes upstream is
    /// its question bytes behind a fresh header
    /// ([`MessageView::question_only`]) when it has that shape — one
    /// spelled-out question and no record but the cookie — and the owned
    /// query without its cookie otherwise.
    Received(&'a MessageView<'a>),
    /// The query a cookie name stood for, restored: `question` asked
    /// iteratively under the requester's `id`, written as it stands.
    Restored { id: u16, question: &'a Question },
}

impl Outgoing<'_> {
    /// The requester's transaction id.
    fn id(&self) -> u16 {
        match self {
            Outgoing::Owned(msg) => msg.header.id,
            Outgoing::Received(view) => view.header.id,
            Outgoing::Restored { id, .. } => *id,
        }
    }

    /// The digest of the question the ANS will be asked.
    fn question(&self) -> u64 {
        match self {
            Outgoing::Owned(msg) => msg.question().map_or(NO_QUESTION, Question::digest),
            Outgoing::Received(view) => view.question_digest(),
            Outgoing::Restored { question, .. } => question.digest(),
        }
    }

    /// The owned query, cookie stripped.
    fn into_message(self) -> Message {
        match self {
            Outgoing::Owned(msg) => msg,
            Outgoing::Received(view) => {
                let mut msg = view.to_message();
                cookie_ext::strip_cookie(&mut msg);
                msg
            }
            Outgoing::Restored { id, question } => Message {
                header: Header::iterative_query(id),
                questions: vec![question.clone()],
                ..Message::default()
            },
        }
    }

    /// The datagram for the ANS, under transaction id `txid`.
    fn into_wire(self, txid: u16) -> Vec<u8> {
        let in_place = match &self {
            Outgoing::Owned(_) => None,
            Outgoing::Received(view) => view.question_only(txid),
            Outgoing::Restored { question, .. } => {
                let header = Header::iterative_query(txid);
                Some(Writer::new(header, std::slice::from_ref(question)).finish())
            }
        };
        in_place.unwrap_or_else(|| {
            let mut msg = self.into_message();
            msg.header.id = txid;
            msg.encode()
        })
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

/// The answer to the cookie-name question a DNS-based exchange is waiting
/// on, to query `id`: one address record under the cookie name per
/// `(class, ttl, address)`, or SERVFAIL when the ANS gave none to pass on.
fn cookie_name_reply<'r>(
    id: u16,
    cookie_question: &Question,
    addresses: impl Iterator<Item = (RrClass, u32, &'r [u8])>,
) -> Vec<u8> {
    let header = Header {
        id,
        response: true,
        authoritative: true,
        rcode: Rcode::ServFail,
        ..Header::default()
    };
    let mut reply = Writer::new(header, std::slice::from_ref(cookie_question));
    for (class, ttl, address) in addresses {
        reply.header.rcode = Rcode::NoError;
        let owner = &cookie_question.name;
        reply.push_raw(Section::Answer, owner, RrType::A, class, ttl, |rdata| {
            rdata.extend_from_slice(address);
        });
    }
    reply.finish()
}

/// A cookie encoding, as the `verify` counters and events name it.
#[derive(Clone, Copy)]
enum Scheme {
    /// The modified-DNS extension.
    Ext,
    /// The `COOKIE2` destination address (message 7).
    Cookie2,
    /// The fabricated NS label (message 3).
    NsLabel,
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
    let Rewrite::Durable(rewrite) = &f.rewrite else {
        return None;
    };
    Some(FwdState {
        txid,
        requester: (f.requester.ip, f.requester.port),
        reply_from: (f.reply_from.ip, f.reply_from.port),
        orig_txid: f.orig_txid,
        rewrite: rewrite.clone(),
        created_nanos: f.created.as_nanos(),
        qid: f.qid,
    })
}

/// The serializable image of a stash entry.
fn stash_state_of(key: &(Ipv4Addr, Name), e: &StashEntry) -> StashState {
    StashState {
        src: key.0,
        name: key.1.clone(),
        answers: e.answers.clone(),
        created_nanos: e.created.as_nanos(),
    }
}

/// Table keys a primary inserted and removed since its last delta.
#[derive(Debug, Default)]
struct Pending {
    fwd_add: Vec<u16>,
    fwd_del: Vec<u16>,
    stash_add: Vec<(Ipv4Addr, Name)>,
    stash_del: Vec<(Ipv4Addr, Name)>,
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
    /// Table changes since the last delta.
    pending: Pending,
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
            pending: Pending::default(),
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

/// The remote DNS guard, sans I/O: every scheme, both rate limiters, the
/// forward table and stash, ANS health, admission, replication,
/// checkpointing and the TCP proxy hand-off, behind entry points that take
/// the time and append to an [`Outputs`].
///
/// A driver owes it three things: [`GuardCore::handle_packet`] for every
/// packet, with the [`Leg`] told truthfully and a clock that never runs
/// backwards; [`GuardCore::on_window`] every [`WINDOW`] (and the HA and
/// fleet ticks at their intervals, when configured); and the execution of
/// every [`Output`], in order.
pub struct GuardCore {
    config: GuardConfig,
    cookies: CookieFactory,
    classifier: AuthorityClassifier,
    rl1: SourceRateLimiter,
    rl2: SourceRateLimiter,
    proxy: TcpProxy,
    fwd: FwdTable,
    /// Forwards overwritten because their transaction id came round again
    /// (see [`GuardCore::lossy_evictions`]).
    fwd_overwritten: u64,
    next_txid: u16,
    /// Monotonic journey correlation id, stamped on every decision-point
    /// trace event; never reused (unlike the 16-bit txid space).
    next_qid: u64,
    stash: HashMap<(Ipv4Addr, Name), StashEntry>,
    stash_order: VecDeque<((Ipv4Addr, Name), SimTime)>,
    stash_bytes: usize,
    health: AnsHealth,
    window_count: u64,
    pub(super) active: bool,
    last_rotation: SimTime,
    /// Live counters (snapshot through [`GuardCore::stats`]).
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
    /// Streaming source-population sketches (heavy hitters, cardinality,
    /// entropy); `None` until [`GuardCore::arm_analytics`].
    analytics: Option<Box<TrafficAnalytics>>,
    /// The bundle given to [`GuardCore::attach_obs`], kept so that arming
    /// analytics afterwards adopts its gauges into the same registry.
    obs: Option<obs::Obs>,
}

impl GuardCore {
    /// Creates a guard from its configuration and the classifier that knows
    /// the protected ANS's delegations.
    pub fn new(config: GuardConfig, classifier: AuthorityClassifier) -> Self {
        let proxy = TcpProxy::new(
            config.key_seed ^ 0x7CB9,
            config.tcp_conn_rate,
            config.tcp_conn_lifetime,
        );
        GuardCore {
            cookies: CookieFactory::from_seed(config.key_seed).with_alg(config.cookie_alg),
            rl1: SourceRateLimiter::new(config.rl1_global_rate, config.rl1_per_source_rate)
                .keyed(config.key_seed),
            rl2: SourceRateLimiter::per_source_only(config.rl2_per_source_rate)
                .keyed(config.key_seed),
            proxy,
            fwd: FwdTable::new(),
            fwd_overwritten: 0,
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
            analytics: None,
            obs: None,
        }
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
        if let Some(analytics) = &mut self.analytics {
            analytics.adopt_into(obs);
        }
        self.metrics.trace = obs.tracer.component("guard");
        self.obs = Some(obs.clone());
    }

    /// Arms the traffic-analytics pipeline: from here on every UDP
    /// datagram's source is folded into the sketch, and the `analytics_*`
    /// gauges and `analytics_topk` events appear in the attached bundle
    /// (whether it was attached before or is attached later). Arming an
    /// armed guard changes nothing.
    pub fn arm_analytics(&mut self) {
        if self.analytics.is_none() {
            let mut analytics = Box::<TrafficAnalytics>::default();
            if let Some(obs) = &self.obs {
                analytics.adopt_into(obs);
            }
            self.analytics = Some(analytics);
        }
    }

    /// A freshly derived source-population snapshot (distinct sources,
    /// entropy, top talkers); empty on an unarmed guard.
    pub fn analytics_snapshot(&self) -> obs::sketch::AnalyticsSnapshot {
        self.analytics.as_ref().map(|a| a.snapshot()).unwrap_or_default()
    }

    /// A clone of the cumulative traffic sketch for fleet-level merging;
    /// empty on an unarmed guard.
    pub fn analytics_sketch(&self) -> obs::sketch::TrafficSketch {
        self.analytics.as_ref().map(|a| a.sketch()).unwrap_or_default()
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
        self.fwd.bytes() + self.stash_bytes
    }

    /// State forgotten before its time, which no registered metric counts:
    /// Rate-Limiter1 and Rate-Limiter2 buckets evicted before they had
    /// refilled ([`SourceRateLimiter::lossy_evictions`]), and forwards
    /// overwritten because their transaction id came round again. Each is
    /// also traced as an `evict` event (`table` = `rl1`, `rl2`, `fwd`).
    pub fn lossy_evictions(&self) -> (u64, u64, u64) {
        (
            self.rl1.lossy_evictions(),
            self.rl2.lossy_evictions(),
            self.fwd_overwritten,
        )
    }

    /// The configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
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

    /// How often a driver must call [`GuardCore::on_ha_tick`]; `None` for
    /// a standalone guard.
    pub fn ha_interval(&self) -> Option<SimTime> {
        self.ha.as_ref().map(|ha| ha.cfg.replication_interval)
    }

    /// How often a driver must call [`GuardCore::on_fleet_tick`]; `None`
    /// outside a fleet.
    pub fn fleet_interval(&self) -> Option<SimTime> {
        self.fleet.as_ref().map(|f| f.cfg.sync_interval)
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
            .filter_map(|(txid, f)| fwd_state_of(txid, f))
            .collect();
        fwd.sort_by_key(|f| f.txid);
        let mut stash: Vec<StashState> = self
            .stash
            .iter()
            .map(|(key, e)| stash_state_of(key, e))
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
        self.stash.clear();
        self.stash_order.clear();
        self.stash_bytes = 0;
        // Oldest first, so each entry goes straight to the table's tail.
        let mut fwd: Vec<&FwdState> = cp.fwd.iter().collect();
        fwd.sort_by_key(|f| f.created_nanos);
        for f in fwd {
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
        self.insert_fwd(
            f.txid,
            Forwarded {
                requester: Endpoint::new(f.requester.0, f.requester.1),
                reply_from: Endpoint::new(f.reply_from.0, f.reply_from.1),
                orig_txid: f.orig_txid,
                rewrite: Rewrite::Durable(f.rewrite.clone()),
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

    /// The pairing state of a primary that still feeds its standby, for
    /// recording a table change in the next delta; `None` otherwise.
    fn replicating(&mut self) -> Option<&mut HaRuntime> {
        let ha = self.ha.as_mut()?;
        (ha.role == HaRole::Primary && !ha.took_over).then_some(ha)
    }

    /// Sends one authenticated replication message to the peer.
    fn send_repl(&mut self, out: &mut Outputs, payload: ReplPayload) {
        let Some(ha) = self.ha.as_ref() else {
            return;
        };
        let wire = encode_repl(&payload, &ha.secret);
        let pkt = Packet::udp(
            Endpoint::new(ha.cfg.local_addr, REPL_PORT),
            Endpoint::new(ha.cfg.peer_addr, REPL_PORT),
            wire,
        );
        self.tx(out, pkt);
    }

    /// Handles an inbound replication-channel datagram — HA pair traffic
    /// and fleet key-sync share the port and the authenticated framing.
    /// Every authenticated message from the HA peer doubles as a
    /// heartbeat; fleet messages carry no liveness meaning.
    fn handle_repl(&mut self, now: SimTime, out: &mut Outputs, pkt: Packet) {
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
        let to_standby =
            from_ha_peer && self.ha.as_ref().is_some_and(|ha| ha.role == HaRole::Standby);
        match payload {
            ReplPayload::Full(cp) if to_standby => {
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
            ReplPayload::Delta(d) if to_standby => {
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
                        self.send_repl(out, ReplPayload::ResyncReq { have_seq: applied_seq });
                    }
                    return;
                }
                self.apply_delta(now, d);
            }
            ReplPayload::ResyncReq { .. } if from_ha_peer => {
                if let Some(ha) = self.ha.as_mut() {
                    if ha.role == HaRole::Primary {
                        ha.need_full = true;
                    }
                }
            }
            ReplPayload::FleetKey { epoch, key } if from_fleet_master => {
                self.apply_fleet_key(now, epoch, &key);
            }
            ReplPayload::FleetKeyReq { have_epoch }
                if from_fleet_member && have_epoch != self.cookies.generation() =>
            {
                let key = KeyState::capture(&self.cookies);
                let epoch = self.cookies.generation();
                self.metrics.fleet_keys_sent.inc();
                self.send_fleet(out, pkt.src.ip, ReplPayload::FleetKey { epoch, key });
            }
            // Authentic, but not this sender's to send or this role's to take.
            _ => {}
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
    fn send_fleet(&mut self, out: &mut Outputs, to: Ipv4Addr, payload: ReplPayload) {
        let Some(f) = self.fleet.as_ref() else {
            return;
        };
        let wire = encode_repl(&payload, &f.secret);
        let pkt = Packet::udp(
            Endpoint::new(f.cfg.local_addr, REPL_PORT),
            Endpoint::new(to, REPL_PORT),
            wire,
        );
        self.tx(out, pkt);
    }

    /// One fleet-sync tick: the master announces a new key epoch to every
    /// member when its generation moved; an unsynced member requests a
    /// catch-up with exponential backoff.
    pub fn on_fleet_tick(&mut self, now: SimTime, out: &mut Outputs) {
        let Some(f) = self.fleet.as_ref() else {
            return;
        };
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
                    out,
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
            self.send_fleet(out, master, ReplPayload::FleetKeyReq { have_epoch: u64::MAX });
        }
    }

    /// Applies one in-sequence replication delta (standby side).
    fn apply_delta(&mut self, now: SimTime, d: ReplDelta) {
        if let Some(k) = &d.key {
            self.cookies = k.to_factory().with_alg(self.config.cookie_alg);
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
        if let Some(ha) = self.ha.as_mut() {
            ha.applied_seq = d.seq;
        }
        self.metrics.repl_deltas_applied.inc();
        self.metrics.checkpoint_age_nanos.set(0);
    }

    /// One replication-interval tick: the primary ships state, the standby
    /// watches heartbeats and takes over past the miss threshold.
    pub fn on_ha_tick(&mut self, now: SimTime, out: &mut Outputs) {
        let Some(ha) = self.ha.as_ref() else {
            return;
        };
        match ha.role {
            HaRole::Primary => self.ha_primary_tick(now, out),
            HaRole::Standby => self.ha_standby_tick(now, out),
        }
    }

    fn ha_primary_tick(&mut self, now: SimTime, out: &mut Outputs) {
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
            ha.pending = Pending::default();
            ReplPayload::Full(cp)
        } else {
            let key = if self.ha.as_ref().is_some_and(|ha| ha.sent_generation != generation) {
                Some(KeyState::capture(&self.cookies))
            } else {
                None
            };
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            ha.sent_generation = generation;
            let mut pending = std::mem::take(&mut ha.pending);
            pending.fwd_add.sort_unstable();
            pending.fwd_add.dedup();
            let fwd_add: Vec<FwdState> = pending
                .fwd_add
                .iter()
                .filter_map(|&txid| self.fwd.get(txid).and_then(|f| fwd_state_of(txid, f)))
                .collect();
            let stash_add: Vec<StashState> = pending
                .stash_add
                .iter()
                .filter_map(|key| self.stash.get(key).map(|e| stash_state_of(key, e)))
                .collect();
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            ha.repl_seq += 1;
            ReplPayload::Delta(ReplDelta {
                seq: ha.repl_seq,
                key,
                fwd_add,
                fwd_del: pending.fwd_del,
                stash_add,
                stash_del: pending.stash_del,
                next_txid: self.next_txid,
                next_qid: self.next_qid,
                active: self.active,
            })
        };
        self.metrics.repl_deltas_sent.inc();
        self.send_repl(out, payload);
    }

    fn ha_standby_tick(&mut self, now: SimTime, out: &mut Outputs) {
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
            self.ha_take_over(now, out);
        } else if let Some(have_seq) = probe_seq {
            self.send_repl(out, ReplPayload::ResyncReq { have_seq });
        }
    }

    /// Promotes this standby: claim the guarded public address and the
    /// COOKIE2 subnet so in-flight verified sources keep working without a
    /// fresh cookie round-trip (their cookies verify against the
    /// replicated key, COOKIE2 destinations hash identically).
    fn ha_take_over(&mut self, now: SimTime, out: &mut Outputs) {
        {
            let Some(ha) = self.ha.as_mut() else {
                return;
            };
            ha.took_over = true;
            ha.role = HaRole::Primary;
            ha.need_full = true;
        }
        out.push(Output::ClaimAddress(self.config.public_addr));
        let host_bits = 32 - (self.config.subnet_range + 1).leading_zeros();
        out.push(Output::ClaimSubnet(self.config.subnet_base, (32 - host_bits) as u8));
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

    fn tx(&mut self, out: &mut Outputs, pkt: Packet) {
        out.charge(netsim::cost::packet_cost());
        self.traffic.tx(pkt.wire_size());
        out.push(Output::Packet(pkt));
    }

    fn tx_ans(&mut self, out: &mut Outputs, wire: Vec<u8>) {
        out.charge(netsim::cost::packet_cost());
        self.traffic.tx(UDP_HEADER_BYTES + wire.len());
        out.push(Output::ToAns(wire));
    }

    fn tx_unverified(&mut self, out: &mut Outputs, pkt: Packet) {
        self.traffic_unverified.tx(pkt.wire_size());
        self.tx(out, pkt);
    }

    /// Sends a minimal liveness probe toward the ANS. Any response —
    /// whatever its rcode — marks the ANS alive again.
    fn send_probe(&mut self, now: SimTime, out: &mut Outputs) {
        self.metrics.ans_probes.inc();
        self.metrics.trace.debug(now.as_nanos(), "ans_probe", &[]);
        let probe = Message::iterative_query(0, Name::root(), RrType::Ns);
        let me = Endpoint::new(self.config.public_addr, DNS_PORT);
        let qid = self.alloc_qid();
        let query = Outgoing::Owned(probe);
        let rewrite = Rewrite::Probe {
            question: query.question(),
        };
        let entry = Forwarded::of(&query, now, me, me, rewrite, qid);
        self.forward_to_ans(out, query, entry);
    }

    /// Allocates the next upstream transaction id in O(1). If the id is
    /// still occupied (possible only when >65 K requests are in flight,
    /// i.e. the ANS is hopelessly behind), the old entry is overwritten —
    /// its response, if it ever comes, is treated as lost. This mirrors a
    /// real NAT-style table shedding stale flows under overload.
    fn alloc_txid(&mut self, now: SimTime) -> u16 {
        let id = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1).max(1);
        if self.remove_fwd(id, None).is_some() {
            self.fwd_overwritten += 1;
            self.trace_evict(now, "fwd", ("txid", Value::U64(id as u64)));
        }
        id
    }

    /// Traces that `table` forgot the entry `key` names before its time.
    fn trace_evict(&self, now: SimTime, table: &'static str, key: (&'static str, Value)) {
        let fields = [("table", Value::Str(table)), key];
        self.metrics.trace.event(now.as_nanos(), "evict", &fields);
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
        if matches!(entry.rewrite, Rewrite::Durable(_)) {
            if let Some(ha) = self.replicating() {
                ha.pending.fwd_add.push(txid);
            }
        }
        self.fwd.insert(txid, entry);
        while self.fwd.bytes() > self.config.fwd_bytes_max {
            let Some((oldest, _)) = self.fwd.oldest() else {
                break;
            };
            self.remove_fwd(oldest, None);
            self.metrics.fwd_evicted.inc();
            self.trace_evict(now, "fwd", ("txid", Value::U64(oldest as u64)));
        }
    }

    /// Removes the forward under `txid` — when `asking` is given, only if
    /// that is the digest of the question it forwarded: the table looks,
    /// compares and only then removes, so an answer to another question
    /// cannot use the entry up.
    fn remove_fwd(&mut self, txid: u16, asking: Option<u64>) -> Option<Forwarded> {
        let held = self.fwd.get(txid)?;
        if asking.is_some_and(|asking| held.question() != asking) {
            return None;
        }
        let entry = self.fwd.remove(txid)?;
        if matches!(entry.rewrite, Rewrite::Durable(_)) {
            if let Some(ha) = self.replicating() {
                ha.pending.fwd_del.push(txid);
            }
        }
        Some(entry)
    }

    /// Inserts a stash entry, evicting oldest entries past the byte bound.
    fn insert_stash(&mut self, key: (Ipv4Addr, Name), entry: StashEntry) {
        let now = entry.created;
        if let Some(ha) = self.replicating() {
            ha.pending.stash_add.push(key.clone());
        }
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
                self.trace_evict(now, "stash", ("src", Value::Ip(old_key.0)));
            }
        }
    }

    fn remove_stash(&mut self, key: &(Ipv4Addr, Name)) -> Option<StashEntry> {
        let entry = self.stash.remove(key)?;
        self.stash_bytes -= entry.approx_bytes(&key.1);
        if let Some(ha) = self.replicating() {
            ha.pending.stash_del.push(key.clone());
        }
        Some(entry)
    }

    /// Sends `query` to the ANS under a fresh transaction id and files
    /// `entry`, what its answer will be matched against and relayed by.
    fn forward_to_ans(&mut self, out: &mut Outputs, query: Outgoing<'_>, entry: Forwarded) {
        let (now, requester, qid) = (entry.created, entry.requester, entry.qid);
        let probe = matches!(entry.rewrite, Rewrite::Probe { .. });
        if self.health.down && self.config.health_policy == AnsHealthPolicy::FailClosed && !probe {
            self.metrics.failed_closed.inc();
            self.metrics.trace.event(
                now.as_nanos(),
                "fail_closed",
                &[("src", Value::Ip(requester.ip))],
            );
            // UDP requesters get an immediate SERVFAIL so resolvers move on
            // to a sibling server; TCP relays are simply not forwarded (the
            // proxy connection is reaped by the lifetime cap).
            if !matches!(entry.rewrite, Rewrite::TcpRelay { .. }) {
                let mut resp = query.into_message().into_response();
                resp.header.rcode = Rcode::ServFail;
                let pkt = Packet::udp(entry.reply_from, requester, resp.encode());
                self.tx(out, pkt);
            }
            return;
        }
        let orig_txid = entry.orig_txid;
        let txid = self.alloc_txid(now);
        self.insert_fwd(txid, entry);
        self.metrics.forwarded.inc();
        // Info-level with both sides of the txid rewrite: the journey
        // assembler's bridge from client-facing to ANS-facing identity.
        // Probes stay at debug — they are not client transactions.
        if probe {
            self.metrics.trace.debug(
                now.as_nanos(),
                "forward",
                &[("src", Value::Ip(requester.ip)), ("qid", Value::U64(qid))],
            );
        } else {
            self.metrics.trace.event(
                now.as_nanos(),
                "forward",
                &[
                    ("src", Value::Ip(requester.ip)),
                    ("qid", Value::U64(qid)),
                    ("txid", Value::U64(txid as u64)),
                    ("orig_txid", Value::U64(orig_txid as u64)),
                ],
            );
        }
        self.tx_ans(out, query.into_wire(txid));
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
        out: &mut Outputs,
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
        self.tx_unverified(out, Packet::udp(pkt.dst, pkt.src, reply.finish()));
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

    /// Takes one packet off `leg` at `now`: the guard's only data-path
    /// entry. What it answers, forwards or relays is appended to `out`.
    #[inline]
    pub fn handle_packet(&mut self, now: SimTime, leg: Leg, pkt: Packet, out: &mut Outputs) {
        out.charge(netsim::cost::packet_cost());
        self.traffic.rx(pkt.wire_size());
        match pkt.proto {
            // Replication traffic is control-plane, not DNS: it is
            // dispatched before the datagram counter so the pipeline
            // conservation invariant keeps covering exactly the DNS data
            // path.
            Proto::Udp
                if (self.ha.is_some() || self.fleet.is_some()) && pkt.dst.port == REPL_PORT =>
            {
                self.handle_repl(now, out, pkt);
            }
            Proto::Udp => self.handle_udp(now, leg, out, pkt),
            Proto::Tcp => self.handle_tcp(now, out, pkt),
        }
    }

    /// The Rate-Limiter1 stage, in front of everything an unverified source
    /// is told: admits `src`, or counts and traces the drop.
    fn admit_unverified(&mut self, now: SimTime, src: Ipv4Addr) -> bool {
        let admitted = self.rl1.admit(now, src);
        if let Some(forgotten) = self.rl1.take_evicted() {
            self.trace_evict(now, "rl1", ("src", Value::Ip(forgotten)));
        }
        if !admitted {
            self.metrics.rl1_dropped.inc();
            let fields = [("limiter", Value::Str("rl1")), ("src", Value::Ip(src))];
            self.metrics.trace.event(now.as_nanos(), "rl_drop", &fields);
        }
        admitted
    }

    /// The Rate-Limiter2 stage, in front of the ANS: admits the request of
    /// the source verified in decision `qid`, or counts and traces the drop.
    fn admit_verified(&mut self, now: SimTime, src: Ipv4Addr, qid: u64) -> bool {
        let admitted = self.rl2.admit(now, src);
        if let Some(forgotten) = self.rl2.take_evicted() {
            self.trace_evict(now, "rl2", ("src", Value::Ip(forgotten)));
        }
        if !admitted {
            self.metrics.rl2_dropped.inc();
            let fields = [
                ("limiter", Value::Str("rl2")),
                ("src", Value::Ip(src)),
                ("qid", Value::U64(qid)),
            ];
            self.metrics.trace.event(now.as_nanos(), "rl_drop", &fields);
        }
        admitted
    }

    /// The stages every cookie scheme shares once its check has run: count
    /// and trace the verdict, then pass a valid request through
    /// Rate-Limiter2. `true` when the request goes on to the ANS.
    fn verified(
        &mut self,
        now: SimTime,
        scheme: Scheme,
        valid: bool,
        src: Ipv4Addr,
        qid: u64,
    ) -> bool {
        let m = &self.metrics;
        let (name, cell) = match (scheme, valid) {
            (Scheme::Ext, true) => ("ext", &m.ext_valid),
            (Scheme::Ext, false) => ("ext", &m.ext_invalid),
            (Scheme::Cookie2, true) => ("cookie2", &m.cookie2_valid),
            (Scheme::Cookie2, false) => ("cookie2", &m.cookie2_invalid),
            (Scheme::NsLabel, true) => ("ns_label", &m.ns_cookie_valid),
            (Scheme::NsLabel, false) => ("ns_label", &m.ns_cookie_invalid),
        };
        cell.inc();
        m.trace.event(
            now.as_nanos(),
            "verify",
            &[
                ("scheme", Value::Str(name)),
                ("verdict", Value::Str(if valid { "valid" } else { "invalid" })),
                ("src", Value::Ip(src)),
                ("qid", Value::U64(qid)),
            ],
        );
        valid && self.admit_verified(now, src, qid)
    }

    /// Counts a cookie grant and returns it: what an unverified source is
    /// told under the modified-DNS scheme (message 3).
    fn grant(&mut self, now: SimTime, out: &mut Outputs, src: Ipv4Addr) -> FirstContact {
        out.charge(netsim::cost::cookie_cost());
        let cookie = self.cookies.generate(src);
        self.metrics.grants_sent.inc();
        let qid = self.alloc_qid();
        self.metrics.trace.event(
            now.as_nanos(),
            "grant",
            &[("src", Value::Ip(src)), ("qid", Value::U64(qid))],
        );
        FirstContact::Grant(cookie)
    }

    fn handle_udp(&mut self, now: SimTime, leg: Leg, out: &mut Outputs, pkt: Packet) {
        self.metrics.udp_datagrams.inc();
        if let Some(analytics) = &mut self.analytics {
            analytics.observe(now.as_nanos(), pkt.src.ip);
        }
        // The verdict is taken on a borrowed view of the datagram; an owned
        // `Message` is built only for what the guard answers or rewrites.
        let Ok(view) = MessageView::parse(&pkt.payload) else {
            self.metrics.unparseable.inc();
            return;
        };
        if view.header.response {
            if leg != Leg::Upstream {
                // A response-flagged datagram not from the ANS: spoofed or
                // misrouted; dropped without further processing.
                self.metrics.resp_foreign.inc();
            } else if let Some(fwd) = self.handle_ans_response(now, out, &view) {
                // A pass-through answer that fits a UDP payload goes out in
                // the buffer it came in, under the requester's id.
                let mut wire = pkt.payload;
                if let Some(id) = wire.first_chunk_mut() {
                    *id = fwd.orig_txid.to_be_bytes();
                }
                self.tx(out, Packet::udp(fwd.reply_from, fwd.requester, wire));
            }
            return;
        }
        self.window_count += 1;
        let src = pkt.src.ip;

        if !self.active {
            // Protection disengaged: transparent forwarding.
            self.metrics.passthrough.inc();
            let qid = self.alloc_qid();
            self.metrics.trace.debug(
                now.as_nanos(),
                "passthrough",
                &[("src", Value::Ip(src)), ("qid", Value::U64(qid))],
            );
            let query = Outgoing::Owned(view.to_message());
            self.forward_passthrough(now, out, query, &pkt, qid);
            return;
        }

        // 1. Cookie extension (modified-DNS scheme) takes precedence.
        if let Some(ext) = view.cookie() {
            if ext.is_request() {
                // Unverified work: sheddable under overload, before it can
                // cost an RL1 decision or a cookie computation. The grant
                // goes through Rate-Limiter1 (reflection bound).
                if self.shed_unverified_now(now, src) || !self.admit_unverified(now, src) {
                    return;
                }
                let grant = self.grant(now, out, src);
                self.traffic_unverified.rx(pkt.wire_size());
                let start = view.reply_start();
                self.answer_unverified(out, pkt, start, grant);
                return;
            }
            out.charge(netsim::cost::cookie_cost());
            let qid = self.alloc_qid();
            let valid = self.cookies.verify(src, &guardhash::Cookie(ext.cookie));
            if self.verified(now, Scheme::Ext, valid, src, qid) {
                self.forward_passthrough(now, out, Outgoing::Received(&view), &pkt, qid);
            }
            return;
        }

        // 2. COOKIE2 destination (message 7 of the fabricated NS/IP flow)?
        if pkt.dst.ip != self.config.public_addr {
            out.charge(netsim::cost::cookie_cost());
            let qid = self.alloc_qid();
            let valid = self.cookie2_matches(src, pkt.dst.ip);
            if !self.verified(now, Scheme::Cookie2, valid, src, qid) {
                return;
            }
            if !view.has_question() {
                return;
            }
            // One-shot stash from the first exchange (messages 4/5). The key
            // needs the question's name, so it is built only while the stash
            // holds something.
            let stashed = if self.stash.is_empty() {
                None
            } else {
                view.question_name().and_then(|qname| self.remove_stash(&(src, qname)))
            };
            if let Some(entry) = stashed {
                self.metrics.stash_hits.inc();
                self.metrics.trace.event(
                    now.as_nanos(),
                    "stash_hit",
                    &[("src", Value::Ip(src)), ("qid", Value::U64(qid))],
                );
                let mut resp = view.to_message().into_response();
                resp.header.authoritative = true;
                resp.answers = entry.answers;
                let (wire, _) = resp
                    .encode_with_limit(MAX_UDP_PAYLOAD)
                    .unwrap_or_else(|_| (resp.encode(), false));
                let reply = Packet::udp(pkt.dst, pkt.src, wire);
                self.tx(out, reply);
                return;
            }
            self.forward_passthrough(now, out, Outgoing::Received(&view), &pkt, qid);
            return;
        }

        // 3. Cookie-embedded NS-name query (message 3 of the DNS-based
        // scheme)?
        if let Some((hex, original_first)) = view.first_label().and_then(Self::parse_cookie_label) {
            self.handle_cookie_name_query(now, out, &pkt, &view, hex, original_first);
            return;
        }

        // 4. Plain cookie-less query: dispatch per configured scheme. What it
        // is told goes out in the buffer it came in.
        if let Some(answer) = self.handle_plain_query(now, out, &pkt, &view) {
            let start = view.reply_start();
            self.answer_unverified(out, pkt, start, answer);
        }
    }

    /// Forwards `query`, received as `pkt`, for an answer that is relayed
    /// as it comes.
    fn forward_passthrough(
        &mut self,
        now: SimTime,
        out: &mut Outputs,
        query: Outgoing<'_>,
        pkt: &Packet,
        qid: u64,
    ) {
        let rewrite = Rewrite::Durable(RewriteState::Passthrough {
            question: query.question(),
        });
        let entry = Forwarded::of(&query, now, pkt.src, pkt.dst, rewrite, qid);
        self.forward_to_ans(out, query, entry);
    }

    fn handle_cookie_name_query(
        &mut self,
        now: SimTime,
        out: &mut Outputs,
        pkt: &Packet,
        view: &MessageView<'_>,
        hex: &str,
        original_first: &[u8],
    ) {
        out.charge(netsim::cost::cookie_cost());
        let qid = self.alloc_qid();
        let suffix_ok = self.cookies.verify_ns_suffix(pkt.src.ip, hex);
        // Restore the original name BEFORE declaring the query valid: a
        // cookie that verifies but encodes an unrestorable name is still a
        // drop, and must land in exactly one disposition bucket — as does a
        // questionless message (the caller read the question's first label,
        // but this wire-input path stays panic-free). A cookie that does not
        // verify builds nothing; one that does builds the two questions —
        // the cookie name's, kept for the answer, and the one it stood for —
        // and no message.
        let restored = suffix_ok.then(|| view.question()).flatten().and_then(|q| {
            let original = q.name.with_first_label(original_first).ok()?;
            Some((q, Question::new(original, RrType::A)))
        });
        let admitted = self.verified(now, Scheme::NsLabel, restored.is_some(), pkt.src.ip, qid);
        let Some((cookie_question, restored)) = restored.filter(|_| admitted) else {
            return;
        };
        let rewrite = if self.classifier.answers_directly(&restored.name) {
            RewriteState::Fabricated {
                cookie_question,
                original: restored.name.clone(),
            }
        } else {
            RewriteState::ReferralCookie {
                cookie_question,
                question: restored.digest(),
            }
        };
        let rewrite = Rewrite::Durable(rewrite);
        let query = Outgoing::Restored {
            id: view.header.id,
            question: &restored,
        };
        let entry = Forwarded::of(&query, now, pkt.src, pkt.dst, rewrite, qid);
        self.forward_to_ans(out, query, entry);
    }

    /// Admits and counts a plain query and decides what the source is told;
    /// `None` when it is told nothing (dropped, or forwarded unprotected).
    fn handle_plain_query(
        &mut self,
        now: SimTime,
        out: &mut Outputs,
        pkt: &Packet,
        view: &MessageView<'_>,
    ) -> Option<FirstContact> {
        if !view.has_question() {
            self.metrics.unparseable.inc();
            return None;
        }
        // Plain queries are unverified by definition: sheddable under
        // overload before they reach Rate-Limiter1.
        if self.shed_unverified_now(now, pkt.src.ip) {
            return None;
        }
        // Every response to an unverified source passes Rate-Limiter1.
        if !self.admit_unverified(now, pkt.src.ip) {
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
                    now.as_nanos(),
                    "tc_sent",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                Some(FirstContact::Truncated)
            }
            SchemeMode::ModifiedOnly => {
                // Treat like a grant request: hand the requester a cookie so
                // a cookie-capable LRS can proceed (message 3).
                Some(self.grant(now, out, pkt.src.ip))
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
                    out.charge(netsim::cost::cookie_cost());
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
                    self.forward_passthrough(now, out, query, pkt, qid);
                    return None;
                };
                self.metrics.fabricated_ns_sent.inc();
                let qid = self.alloc_qid();
                self.metrics.trace.event(
                    now.as_nanos(),
                    "fabricated_ns",
                    &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
                );
                Some(FirstContact::Referral(ns))
            }
        }
    }

    /// Matches an ANS response to its forward and relays it. A pass-through
    /// answer that fits one UDP payload is handed back instead — the caller
    /// owns the receive buffer and relays it in place. The cookie-name
    /// rewrites write their own answer from the records the view shows and a
    /// TCP relay frames the received bytes; only a pass-through answer too
    /// long for UDP is built as an owned message, to be cut down.
    fn handle_ans_response(
        &mut self,
        now: SimTime,
        out: &mut Outputs,
        view: &MessageView<'_>,
    ) -> Option<Forwarded> {
        // Any response from the ANS proves it alive, matched or not.
        self.health.consecutive_timeouts = 0;
        self.health.last_response = now;
        if self.health.down {
            self.health.down = false;
            self.health.probe_interval = self.config.ans_probe_interval;
            self.metrics.ans_recoveries.inc();
            self.metrics.trace.event(now.as_nanos(), "ans_recovered", &[]);
        }
        // The response must carry the id and the question of a live forward.
        let Some(fwd) = self.remove_fwd(view.header.id, Some(view.question_digest())) else {
            // A late response to an evicted/expired forward, a txid the
            // guard never issued, or an answer to another question.
            self.metrics.resp_unmatched.inc();
            return None;
        };
        self.metrics.relayed_responses.inc();
        let rtt_ns = now.saturating_sub(fwd.created).as_nanos();
        self.metrics.ans_rtt_ns.record(rtt_ns);
        // The relay event closes the journey stage opened by "forward": via
        // names the rewrite applied on the way back to the requester.
        let via = match &fwd.rewrite {
            Rewrite::Probe { .. } => None,
            Rewrite::Durable(RewriteState::Passthrough { .. }) => Some("passthrough"),
            Rewrite::Durable(RewriteState::ReferralCookie { .. }) => Some("referral"),
            Rewrite::Durable(RewriteState::Fabricated { .. }) => Some("cookie2_redirect"),
            Rewrite::TcpRelay { .. } => Some("tcp"),
        };
        if let Some(via) = via {
            self.metrics.trace.event(
                now.as_nanos(),
                "relay",
                &[
                    ("src", Value::Ip(fwd.requester.ip)),
                    ("qid", Value::U64(fwd.qid)),
                    ("via", Value::Str(via)),
                    ("rtt_ns", Value::U64(rtt_ns)),
                ],
            );
        }
        let wire = view.as_bytes();
        match fwd.rewrite {
            Rewrite::Probe { .. } => {}
            Rewrite::Durable(RewriteState::Passthrough { .. }) if wire.len() <= MAX_UDP_PAYLOAD => {
                return Some(fwd)
            }
            Rewrite::Durable(RewriteState::Passthrough { .. }) => {
                let mut msg = view.to_message();
                msg.header.id = fwd.orig_txid;
                let (wire, _) = msg
                    .encode_with_limit(MAX_UDP_PAYLOAD)
                    .unwrap_or_else(|_| (msg.encode(), false));
                let reply = Packet::udp(fwd.reply_from, fwd.requester, wire);
                self.tx(out, reply);
            }
            Rewrite::Durable(RewriteState::ReferralCookie { cookie_question, .. }) => {
                // Map the referral's glue addresses onto the cookie name
                // ("one name can be mapped to multiple IP addresses"): the
                // additional section's first, then any in the answer.
                let addresses = |section| {
                    let records = view.records().filter(move |r| r.section == section && r.rtype == RrType::A);
                    records.map(|r| (r.class, r.ttl, r.rdata()))
                };
                let glue = addresses(Section::Additional).chain(addresses(Section::Answer));
                let reply = cookie_name_reply(fwd.orig_txid, &cookie_question, glue);
                self.tx(out, Packet::udp(fwd.reply_from, fwd.requester, reply));
            }
            Rewrite::Durable(RewriteState::Fabricated {
                cookie_question,
                original,
            }) => {
                // Stash the real answer for the imminent COOKIE2 query and
                // answer the cookie-name question with the COOKIE2 address.
                // The COOKIE2 offset derives from the digest already
                // computed when the cookie label was verified, so no extra
                // cookie charge is taken here — but the third computation of
                // the paper's count happens when message 7 is verified.
                let answers = view.records().filter(|r| r.section == Section::Answer);
                self.insert_stash(
                    (fwd.requester.ip, original),
                    StashEntry {
                        answers: answers.map(|r| r.to_record()).collect(),
                        created: now,
                    },
                );
                let cookie2 = self.cookie2_addr(fwd.requester.ip).octets();
                let redirect = (RrClass::In, self.config.fabricated_ns_ttl, cookie2.as_slice());
                let reply = cookie_name_reply(fwd.orig_txid, &cookie_question, std::iter::once(redirect));
                self.tx(out, Packet::udp(fwd.reply_from, fwd.requester, reply));
            }
            Rewrite::TcpRelay { token, .. } => {
                if let Some(pkt) = self.proxy.on_ans_response(token, wire, fwd.orig_txid) {
                    self.tx(out, pkt);
                }
            }
        }
        None
    }

    fn handle_tcp(&mut self, now: SimTime, out: &mut Outputs, pkt: Packet) {
        // Charge the connection cost when a handshake completes; detect via
        // accepted-count delta.
        let accepted_before = self.proxy.stats().accepted;
        let actions = self.proxy.on_segment(now, &pkt);
        if self.proxy.stats().accepted > accepted_before {
            out.charge(netsim::cost::tcp_conn_cost());
            out.charge(netsim::cost::cookie_cost()); // SYN-cookie computation
            let qid = self.alloc_qid();
            self.metrics.trace.event(
                now.as_nanos(),
                "proxy_accept",
                &[("src", Value::Ip(pkt.src.ip)), ("qid", Value::U64(qid))],
            );
        }
        for action in actions {
            match action {
                ProxyAction::Send(p) => self.tx(out, p),
                ProxyAction::ForwardQuery { token, query } => {
                    // Connection-table bookkeeping scales with the number of
                    // open proxied connections (Figure 7(a)); charged once
                    // per relayed request.
                    out.charge(netsim::cost::tcp_conn_table_cost(self.proxy.open_connections()));
                    let qid = self.alloc_qid();
                    self.metrics.trace.debug(
                        now.as_nanos(),
                        "proxy_relay",
                        &[
                            ("src", Value::Ip(pkt.src.ip)),
                            ("qid", Value::U64(qid)),
                            ("token", Value::U64(token)),
                        ],
                    );
                    if !self.admit_verified(now, pkt.src.ip, qid) {
                        continue;
                    }
                    let query = Outgoing::Owned(query);
                    let rewrite = Rewrite::TcpRelay {
                        token,
                        question: query.question(),
                    };
                    let me = Endpoint::new(self.config.public_addr, DNS_PORT);
                    let entry = Forwarded::of(&query, now, pkt.src, me, rewrite, qid);
                    self.forward_to_ans(out, query, entry);
                }
            }
        }
    }

    /// The periodic housekeeping window (activation, rotation, expiries,
    /// checkpoint cadence, admission-pressure sampling).
    pub fn on_window(&mut self, now: SimTime, out: &mut Outputs) {
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
            if !fleet_member && now.saturating_sub(self.last_rotation) >= interval {
                self.last_rotation = now;
                self.cookies.rotate();
            }
        }
        // Housekeeping.
        self.proxy.reap(now);
        // Expire unanswered forwards: each one is an ANS timeout feeding
        // the health monitor.
        while let Some((txid, oldest)) = self.fwd.oldest() {
            if now.saturating_sub(oldest.created) < self.config.ans_timeout {
                break;
            }
            let entry = self.remove_fwd(txid, None);
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
            self.send_probe(now, out);
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
        // so the order queue cannot outgrow the table it mirrors).
        let stash = &self.stash;
        self.stash_order
            .retain(|(key, created)| stash.get(key).is_some_and(|s| s.created == *created));
        self.metrics
            .table_bytes
            .set((self.fwd.bytes() + self.stash_bytes) as u64);
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
            let fill = self.fwd.bytes() as f64 / self.config.fwd_bytes_max.max(1) as f64;
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
