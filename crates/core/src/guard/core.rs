//! The guard's decisions, with no I/O: [`GuardCore`] is handed the time and
//! each datagram and appends what must happen to the driver's [`Outputs`].

use super::fwd::{Forwarded, FwdTable, Rewrite, WireIds};
use super::health::AnsHealth;
use super::keys::{Keys, Verdict};
use super::repl::HaRuntime;
use super::schemes::{self, FirstContact, Outgoing, Scheme};
use super::stash::Stash;
use super::stats::{GuardMetrics, GuardStats, StatsHandle};
use crate::checkpoint::{GuardCheckpoint, RewriteState, StashState};
use crate::classify::{AuthorityClassifier, Classification, Classifier};
use crate::config::{GuardConfig, SchemeMode, KEY_ROTATION_INTERVAL};
use crate::ha::REPL_PORT;
use crate::ratelimit::SourceRateLimiter;
use crate::tcp_proxy::{ProxyAction, TcpProxy};
use dnswire::cookie_ext;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::name::Name;
use dnswire::question::Question;
use dnswire::record::Record;
use dnswire::types::{RrClass, RrType};
use dnswire::view::MessageView;
use dnswire::writer::{ReplyStart, Section, Writer};
use guardhash::cookie::CookieFactory;
use netsim::metrics::TrafficMeter;
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use obs::trace::Value;
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
    /// Keep this snapshot as the latest: the guard's state as it was when
    /// its checkpoint cadence came due. Only the newest one matters.
    Checkpoint(Box<GuardCheckpoint>),
}

// One entry per datagram sent: a checkpoint must not widen the queue.
const _: () = assert!(std::mem::size_of::<Output>() == 48);

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

    pub(super) fn push(&mut self, output: Output) {
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

/// The remote DNS guard, sans I/O: every scheme, both rate limiters, the
/// forward table and stash, ANS health, replication,
/// checkpointing and the TCP proxy hand-off, behind entry points that take
/// the time and append to an [`Outputs`].
///
/// A driver owes it three things: [`GuardCore::handle_packet`] for every
/// packet, with the [`Leg`] told truthfully and a clock that never runs
/// backwards; [`GuardCore::on_window`] every [`WINDOW`] (and the HA
/// tick at its interval, when configured); and the execution of
/// every [`Output`], in order. Executing an [`Output::Checkpoint`] means
/// keeping it, in place of the one before, where a restart can read it; a
/// driver whose configuration sets no checkpoint cadence never sees one.
///
/// The fields are open to the sibling modules that hold the rest of the
/// guard's `impl`: `restore` (checkpoints) and `repl` (HA).
pub struct GuardCore {
    pub(super) config: GuardConfig,
    pub(super) cookies: Keys,
    classifier: AuthorityClassifier,
    pub(super) rl1: SourceRateLimiter,
    pub(super) rl2: SourceRateLimiter,
    proxy: TcpProxy,
    pub(super) fwd: FwdTable,
    /// The ids forwards leave with: a keyed permutation of their table keys.
    wire_ids: WireIds,
    /// Forwards overwritten because their transaction id came round again
    /// (see [`GuardCore::lossy_evictions`]).
    fwd_overwritten: u64,
    pub(super) next_txid: u16,
    /// Monotonic journey correlation id, stamped on every decision-point
    /// trace event; never reused (unlike the 16-bit txid space).
    pub(super) next_qid: u64,
    pub(super) stash: Stash,
    health: AnsHealth,
    window_count: u64,
    pub(super) active: bool,
    pub(super) last_rotation: SimTime,
    /// Live counters (snapshot through [`GuardCore::stats`]).
    pub(super) metrics: GuardMetrics,
    /// Bytes exchanged with *unverified* sources (requests in, cookie/TC
    /// responses out) — the amplification-relevant meter.
    pub traffic_unverified: TrafficMeter,
    /// Sequence number of the last checkpoint taken or applied.
    pub(super) checkpoint_seq: u64,
    /// When the last checkpoint was taken (drives the cadence and the
    /// `checkpoint_age_nanos` staleness gauge).
    pub(super) last_checkpoint: SimTime,
    /// Primary–standby pairing state (None ⇒ standalone guard).
    pub(super) ha: Option<HaRuntime>,
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
            cookies: Keys::new(config.key_seed, config.cookie_alg),
            rl1: SourceRateLimiter::new(config.rl1_global_rate, config.rl1_per_source_rate)
                .keyed(config.key_seed),
            rl2: SourceRateLimiter::per_source_only(config.rl2_per_source_rate)
                .keyed(config.key_seed),
            proxy,
            fwd: FwdTable::new(),
            wire_ids: WireIds::new(config.key_seed),
            fwd_overwritten: 0,
            next_txid: 1,
            next_qid: 1,
            stash: Stash::default(),
            health: AnsHealth::default(),
            window_count: 0,
            active: config.activation_threshold == 0.0,
            last_rotation: SimTime::ZERO,
            metrics: GuardMetrics::default(),
            traffic_unverified: TrafficMeter::default(),
            checkpoint_seq: 0,
            last_checkpoint: SimTime::ZERO,
            ha: config.ha.clone().map(|cfg| HaRuntime::new(cfg, config.key_seed)),
            config,
            classifier,
        }
    }

    /// A snapshot of the guard counters.
    pub fn stats(&self) -> GuardStats {
        self.metrics.snapshot()
    }

    /// A read-only handle on the guard counters, for another thread to
    /// snapshot while this guard's owner keeps running it.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle(self.metrics.clone())
    }

    /// Attaches an observability bundle: the guard's counters (plus its
    /// rate limiters and TCP proxy) are adopted into `obs.registry` under
    /// components `guard` and `proxy`, and pipeline decisions start
    /// emitting trace events under component `guard`.
    pub fn attach_obs(&mut self, obs: &obs::Obs) {
        self.metrics.adopt_into(&obs.registry, &[]);
        self.rl1.adopt_into(&obs.registry, "guard", "rl1");
        self.rl2.adopt_into(&obs.registry, "guard", "rl2");
        self.proxy.adopt_into(&obs.registry);
        self.metrics.trace = obs.tracer.component("guard");
    }

    /// Whether spoof detection is currently engaged.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the health monitor currently judges the ANS down.
    pub fn ans_is_down(&self) -> bool {
        self.health.is_down()
    }

    /// Approximate bytes held by the forward table and answer stash
    /// combined — the quantity bounded by
    /// [`GuardConfig::fwd_bytes_max`]/[`GuardConfig::stash_bytes_max`].
    pub fn table_bytes(&self) -> usize {
        self.fwd.bytes() + self.stash.bytes()
    }

    /// State forgotten before its time, which no registered metric counts:
    /// Rate-Limiter1 and Rate-Limiter2 buckets evicted before they had
    /// refilled ([`SourceRateLimiter::lossy_evictions`]), and forwards
    /// overwritten because their transaction id came round again. Each is
    /// also traced as an `evict` event (`table` = `rl1`, `rl2`, `fwd`).
    pub fn lossy_evictions(&self) -> (u64, u64, u64) {
        (self.rl1.lossy_evictions(), self.rl2.lossy_evictions(), self.fwd_overwritten)
    }

    /// The configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Rotates the guard's secret key (section III.E).
    pub fn rotate_key(&mut self) {
        self.cookies.rotate();
    }

    /// The guard's cookie factory (tests and the attack crate peek at it).
    pub fn cookie_factory(&self) -> &CookieFactory {
        &self.cookies
    }

    /// The set of the verdict memo that `src` lives in (experiments that
    /// aim verified sources at one set peek at it).
    pub fn memo_set(&self, src: Ipv4Addr) -> usize {
        self.cookies.set_of(src)
    }

    /// Number of live TCP proxy connections.
    pub fn proxy_connections(&self) -> usize {
        self.proxy.open_connections()
    }

    /// TCP proxy counters.
    pub fn proxy_stats(&self) -> crate::tcp_proxy::ProxyStats {
        self.proxy.stats()
    }

    // ---- helpers ---------------------------------------------------------

    pub(super) fn tx(&mut self, out: &mut Outputs, pkt: Packet) {
        out.charge(netsim::cost::packet_cost());
        out.push(Output::Packet(pkt));
    }

    fn tx_ans(&mut self, out: &mut Outputs, wire: Vec<u8>) {
        out.charge(netsim::cost::packet_cost());
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
        let rewrite = Rewrite::Probe { question: query.question() };
        let entry = Forwarded::of(&query, now, me, me, rewrite, qid);
        self.forward_to_ans(out, query, entry);
    }

    /// Allocates the next forward-table key in O(1): sequential, so the
    /// table's index is walked in order; the ANS sees its [`WireIds`]
    /// image. If the key is still occupied (possible only when more than
    /// 65 K requests are in flight, i.e. the ANS is hopelessly behind), the
    /// old entry is overwritten — its response, if it ever comes, is treated
    /// as lost. This mirrors a real NAT-style table shedding stale flows
    /// under overload.
    fn alloc_txid(&mut self, now: SimTime) -> u16 {
        let id = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1).max(1);
        if self.remove_fwd(id, None).is_some() {
            self.fwd_overwritten += 1;
            self.trace_evict(now, "fwd", self.wire_txid(id));
        }
        id
    }

    /// The trace field naming the forward filed under `txid`: the id it
    /// left with.
    fn wire_txid(&self, txid: u16) -> (&'static str, Value) {
        ("txid", Value::U64(u64::from(self.wire_ids.wire(txid))))
    }

    /// The fields of a decision event: the source, and the journey id that
    /// stitches the decision to the rest of its transaction.
    fn src_qid(src: Ipv4Addr, qid: u64) -> [(&'static str, Value); 2] {
        [("src", Value::Ip(src)), ("qid", Value::U64(qid))]
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
    pub(super) fn insert_fwd(&mut self, txid: u16, entry: Forwarded) {
        let now = entry.created;
        self.fwd.insert(txid, entry);
        while self.fwd.bytes() > self.config.fwd_bytes_max {
            let Some((oldest, _)) = self.fwd.oldest() else {
                break;
            };
            self.remove_fwd(oldest, None);
            self.metrics.fwd_evicted.inc();
            self.trace_evict(now, "fwd", self.wire_txid(oldest));
        }
    }

    /// Removes the forward under `txid` — when `asking` is given, only if
    /// that is the digest of the question it forwarded: the table looks,
    /// compares and only then removes, so an answer to another question
    /// cannot use the entry up.
    pub(super) fn remove_fwd(&mut self, txid: u16, asking: Option<u64>) -> Option<Forwarded> {
        let held = self.fwd.get(txid)?;
        if asking.is_some_and(|asking| held.question() != asking) {
            return None;
        }
        self.fwd.remove(txid)
    }

    /// Inserts a stash entry, evicting oldest entries past the byte bound.
    pub(super) fn insert_stash(&mut self, entry: StashState) {
        let now = SimTime::from_nanos(entry.created_nanos);
        for (evicted, _) in self.stash.insert(entry, self.config.stash_bytes_max) {
            self.metrics.stash_evicted.inc();
            self.trace_evict(now, "stash", ("src", Value::Ip(evicted)));
        }
    }

    /// Files `entry`, what the answer will be matched against and relayed
    /// by, under a fresh table key, and sends `query` to the ANS under that
    /// key's wire id.
    fn forward_to_ans(&mut self, out: &mut Outputs, query: Outgoing<'_>, entry: Forwarded) {
        let (now, requester, qid) = (entry.created, entry.requester, entry.qid);
        let probe = matches!(entry.rewrite, Rewrite::Probe { .. });
        let orig_txid = entry.orig_txid;
        let txid = self.alloc_txid(now);
        self.insert_fwd(txid, entry);
        self.metrics.forwarded.inc();
        let wire_id = self.wire_ids.wire(txid);
        // Info-level with both sides of the txid rewrite: the journey
        // assembler's bridge from client-facing to ANS-facing identity.
        // Probes stay at debug — they are not client transactions.
        let [src, qid] = Self::src_qid(requester.ip, qid);
        if probe {
            self.metrics.trace.debug(now.as_nanos(), "forward", &[src, qid]);
        } else {
            let txid = ("txid", Value::U64(u64::from(wire_id)));
            let orig_txid = ("orig_txid", Value::U64(orig_txid as u64));
            self.metrics.trace.event(now.as_nanos(), "forward", &[src, qid, txid, orig_txid]);
        }
        self.tx_ans(out, query.into_wire(wire_id));
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

    // ---- pipeline --------------------------------------------------------

    /// Takes one packet off `leg` at `now`: the guard's only data-path
    /// entry. What it answers, forwards or relays is appended to `out`.
    #[inline]
    pub fn handle_packet(&mut self, now: SimTime, leg: Leg, pkt: Packet, out: &mut Outputs) {
        out.charge(netsim::cost::packet_cost());
        match pkt.proto {
            // Replication traffic is control-plane, not DNS: it is
            // dispatched before the datagram counter so the pipeline
            // conservation invariant keeps covering exactly the DNS data
            // path.
            Proto::Udp if self.ha.is_some() && pkt.dst.port == REPL_PORT => self.handle_repl(now, pkt),
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
            let [src, qid] = Self::src_qid(src, qid);
            let fields = [("limiter", Value::Str("rl2")), src, qid];
            self.metrics.trace.event(now.as_nanos(), "rl_drop", &fields);
        }
        admitted
    }

    /// The stages every cookie scheme shares once its check has run: count
    /// and trace the verdict, pass a valid request through Rate-Limiter2,
    /// and count an admitted fresh one as a proof of address (what the
    /// limiter drops proves nothing to the alert rules). `true` when the
    /// request goes on to the ANS.
    fn verified(
        &mut self,
        now: SimTime,
        scheme: Scheme,
        verdict: Verdict,
        src: Ipv4Addr,
        qid: u64,
    ) -> bool {
        let m = &self.metrics;
        let (name, valid_cell, invalid_cell) = match scheme {
            Scheme::Ext => ("ext", &m.ext_valid, &m.ext_invalid),
            Scheme::Cookie2 => ("cookie2", &m.cookie2_valid, &m.cookie2_invalid),
            Scheme::NsLabel => ("ns_label", &m.ns_cookie_valid, &m.ns_cookie_invalid),
        };
        let valid = verdict.valid();
        if valid { valid_cell } else { invalid_cell }.inc();
        let verdict_field = ("verdict", Value::Str(if valid { "valid" } else { "invalid" }));
        let [from, decision] = Self::src_qid(src, qid);
        let fields = [("scheme", Value::Str(name)), verdict_field, from, decision];
        m.trace.event(now.as_nanos(), "verify", &fields);
        let admitted = valid && self.admit_verified(now, src, qid);
        if admitted && verdict == Verdict::Fresh {
            let m = &self.metrics;
            match scheme {
                Scheme::Ext => &m.ext_proofs,
                Scheme::Cookie2 => &m.cookie2_proofs,
                Scheme::NsLabel => &m.ns_label_proofs,
            }
            .inc();
        }
        admitted
    }

    /// Counts a cookie grant and returns it: what an unverified source is
    /// told under the modified-DNS scheme (message 3).
    fn grant(&mut self, now: SimTime, out: &mut Outputs, src: Ipv4Addr) -> FirstContact {
        out.charge(netsim::cost::cookie_cost());
        let cookie = self.cookies.generate(src);
        self.metrics.grants_sent.inc();
        let qid = self.alloc_qid();
        self.metrics.trace.event(now.as_nanos(), "grant", &Self::src_qid(src, qid));
        FirstContact::Grant(cookie)
    }

    fn handle_udp(&mut self, now: SimTime, leg: Leg, out: &mut Outputs, pkt: Packet) {
        self.metrics.udp_datagrams.inc();
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
            self.metrics.trace.debug(now.as_nanos(), "passthrough", &Self::src_qid(src, qid));
            let query = Outgoing::Owned(view.to_message());
            self.forward_passthrough(now, out, query, &pkt, qid);
            return;
        }

        // 1. Cookie extension (modified-DNS scheme) takes precedence.
        if let Some(ext) = view.cookie() {
            if ext.is_request() {
                // Unverified work: the grant goes through Rate-Limiter1
                // (reflection bound).
                if !self.admit_unverified(now, src) {
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
            let valid = schemes::cookie2_matches(&mut self.cookies, &self.config, src, pkt.dst.ip);
            if !self.verified(now, Scheme::Cookie2, valid, src, qid) || !view.has_question() {
                return;
            }
            // One-shot stash from the first exchange (messages 4/5). The key
            // needs the question's name, so it is built only while the stash
            // holds something.
            let asked = (!self.stash.is_empty()).then(|| view.question_name()).flatten();
            if let Some(entry) = asked.and_then(|qname| self.stash.remove(&(src, qname))) {
                self.metrics.stash_hits.inc();
                self.metrics.trace.event(now.as_nanos(), "stash_hit", &Self::src_qid(src, qid));
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
        if let Some((hex, original_first)) = view.first_label().and_then(schemes::parse_cookie_label) {
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
        let suffix = self.cookies.verify_ns_suffix(pkt.src.ip, hex);
        // Restore the original name BEFORE declaring the query valid: a
        // cookie that verifies but encodes an unrestorable name is still a
        // drop, and must land in exactly one disposition bucket — as does a
        // questionless message (the caller read the question's first label,
        // but this wire-input path stays panic-free). A cookie that does not
        // verify builds nothing; one that does builds the two questions —
        // the cookie name's, kept for the answer, and the one it stood for —
        // and no message.
        let restored = suffix.valid().then(|| view.question()).flatten().and_then(|q| {
            let original = q.name.with_first_label(original_first).ok()?;
            Some((q, Question::new(original, RrType::A)))
        });
        let verdict = if restored.is_some() { suffix } else { Verdict::Invalid };
        let admitted = self.verified(now, Scheme::NsLabel, verdict, pkt.src.ip, qid);
        let Some((cookie_question, restored)) = restored.filter(|_| admitted) else {
            return;
        };
        let rewrite = if self.classifier.answers_directly(&restored.name) {
            RewriteState::Fabricated { cookie_question, original: restored.name.clone() }
        } else {
            RewriteState::ReferralCookie { cookie_question, question: restored.digest() }
        };
        let query = Outgoing::Restored { id: view.header.id, question: &restored };
        let entry = Forwarded::of(&query, now, pkt.src, pkt.dst, Rewrite::Durable(rewrite), qid);
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
        // Plain queries are unverified by definition: every response to an
        // unverified source passes Rate-Limiter1.
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
                self.metrics.trace.event(now.as_nanos(), "tc_sent", &Self::src_qid(pkt.src.ip, qid));
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
                    let (label, len) = schemes::fabricate_label(&self.cookies, pkt.src.ip, first);
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
                let fields = Self::src_qid(pkt.src.ip, qid);
                self.metrics.trace.event(now.as_nanos(), "fabricated_ns", &fields);
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
        // The response must carry the wire id and the question of a live
        // forward.
        let asking = view.question_digest();
        let fwd = self.wire_ids.key(view.header.id).and_then(|txid| self.remove_fwd(txid, Some(asking)));
        let Some(fwd) = fwd else {
            // A late response to an evicted/expired forward, an id the
            // guard never issued (0 included), or an answer to another
            // question: it may as well come from a spoofer of the ANS
            // address, so it says nothing about the ANS.
            self.metrics.resp_unmatched.inc();
            return None;
        };
        // Only the answer to a forward of the guard's own proves the ANS alive.
        if self.health.on_response(now) {
            self.metrics.ans_recoveries.inc();
            self.metrics.trace.event(now.as_nanos(), "ans_recovered", &[]);
        }
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
            let [src, qid] = Self::src_qid(fwd.requester.ip, fwd.qid);
            let fields = [src, qid, ("via", Value::Str(via)), ("rtt_ns", Value::U64(rtt_ns))];
            self.metrics.trace.event(now.as_nanos(), "relay", &fields);
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
                let reply = schemes::cookie_name_reply(fwd.orig_txid, &cookie_question, glue);
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
                self.insert_stash(StashState {
                    src: fwd.requester.ip,
                    name: original,
                    answers: answers.map(|r| r.to_record()).collect(),
                    created_nanos: now.as_nanos(),
                });
                let cookie2 = schemes::cookie2_addr(&self.cookies, &self.config, fwd.requester.ip);
                let cookie2 = cookie2.octets();
                let redirect = (RrClass::In, self.config.fabricated_ns_ttl, cookie2.as_slice());
                let redirect = std::iter::once(redirect);
                let reply = schemes::cookie_name_reply(fwd.orig_txid, &cookie_question, redirect);
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
            let fields = Self::src_qid(pkt.src.ip, qid);
            self.metrics.trace.event(now.as_nanos(), "proxy_accept", &fields);
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
                    let [src, decision] = Self::src_qid(pkt.src.ip, qid);
                    let fields = [src, decision, ("token", Value::U64(token))];
                    self.metrics.trace.debug(now.as_nanos(), "proxy_relay", &fields);
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

    /// The periodic housekeeping window, [`WINDOW`] apart.
    pub fn on_window(&mut self, now: SimTime, out: &mut Outputs) {
        self.decide_activation();
        self.rotate_if_due(now);
        self.proxy.reap(now);
        self.expire_forwards(now);
        self.watch_ans(now, out);
        self.stash.expire(now);
        self.export_gauges();
        self.checkpoint_if_due(now, out);
    }

    /// Engages or disengages spoof detection on the window's request rate.
    fn decide_activation(&mut self) {
        if self.config.activation_threshold > 0.0 {
            let rate = self.window_count as f64 / WINDOW.as_secs_f64();
            self.active = rate > self.config.activation_threshold;
        }
        self.window_count = 0;
    }

    /// Scheduled key rotation.
    fn rotate_if_due(&mut self, now: SimTime) {
        if now.saturating_sub(self.last_rotation) >= KEY_ROTATION_INTERVAL {
            self.last_rotation = now;
            self.cookies.rotate();
        }
    }

    /// Expires unanswered forwards: each one is an ANS timeout feeding the
    /// health monitor.
    fn expire_forwards(&mut self, now: SimTime) {
        while let Some((txid, oldest)) = self.fwd.oldest() {
            if now.saturating_sub(oldest.created) < self.config.ans_timeout {
                break;
            }
            let entry = self.remove_fwd(txid, None);
            if entry.is_some_and(|f| self.health.on_expired(f.created)) {
                self.metrics.ans_timeouts.inc();
            }
        }
    }

    /// Applies the health monitor's verdict on the window: the down event,
    /// and a probe when one is due.
    fn watch_ans(&mut self, now: SimTime, out: &mut Outputs) {
        if let Some(timeouts) = self.health.went_down(&self.config) {
            self.metrics.ans_down_events.inc();
            let timeouts = [("timeouts", Value::U64(timeouts as u64))];
            self.metrics.trace.event(now.as_nanos(), "ans_down", &timeouts);
        }
        if self.health.probe_due(now) {
            self.send_probe(now, out);
        }
    }

    /// Refreshes the table-size gauge and the unverified-traffic
    /// amplification ratio (paper bound: ≤1.5×), the latter in milli-units
    /// so the alert engine can threshold it.
    fn export_gauges(&mut self) {
        self.metrics.table_bytes.set(self.table_bytes() as u64);
        let amp = self.traffic_unverified.amplification();
        let amp_milli = if amp.is_finite() && amp > 0.0 {
            (amp * 1000.0) as u64
        } else {
            0
        };
        self.metrics.amplification_milli.set(amp_milli);
    }
}
