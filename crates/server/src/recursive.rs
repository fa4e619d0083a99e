//! The local recursive server (LRS): accepts recursive queries from stubs,
//! resolves them iteratively against authoritative servers, caches results,
//! retries on timeout, and falls back to TCP when a response arrives with
//! the TC (truncation) flag — exactly the behaviours the three guard
//! schemes lean on.
//!
//! The resolver is deliberately *unmodified* with respect to the guard: it
//! follows NS records wherever they point (including fabricated
//! `PR<cookie>` names), honours TTLs, and speaks ordinary UDP/TCP DNS. The
//! DNS-based and TCP-based schemes work against this stock resolver; only
//! the modified-DNS scheme needs a local guard *in front of* it.
//!
//! A [`ResolverConfig`] holds what differs between resolvers: the address,
//! the root hints, the upstream timeout (the poisoning experiment stretches
//! it over its race window) and the unilateral hardening that experiment
//! sweeps. The retry budget and the per-packet CPU charge are constants,
//! and every client is served.

use crate::cache::Cache;
use crate::hardening::{KeyedSeq, PortMode, ResolverHardening};
use crate::tcpclient::TcpQueryClient;
use dnswire::message::{Message, MAX_UDP_PAYLOAD};
use dnswire::name::Name;
use dnswire::question::Question;
use dnswire::rdata::RData;
use dnswire::types::{Rcode, RrType};
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, Proto, DNS_PORT};
use netsim::time::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Total upstream attempts per question before giving up.
const MAX_RETRIES: u32 = 3;

/// CPU cost charged per packet handled.
const PACKET_COST: SimTime = SimTime::from_micros(2);

/// Configuration of a recursive resolver node.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// The resolver's own address (it listens on UDP/TCP port 53 and sends
    /// iterative queries from this address).
    pub addr: Ipv4Addr,
    /// Root server addresses used when no deeper cut is cached.
    pub root_hints: Vec<Ipv4Addr>,
    /// How long to wait for an upstream response before retrying. BIND 9
    /// uses 2 s (Figure 5); the paper's LRS simulator uses 10 ms.
    pub timeout: SimTime,
    /// Unilateral anti-poisoning defenses (default: all off).
    pub hardening: ResolverHardening,
}

impl ResolverConfig {
    /// A resolver at `addr` with the given root hints and simulator-style
    /// 10 ms timeout.
    pub fn new(addr: Ipv4Addr, root_hints: Vec<Ipv4Addr>) -> Self {
        ResolverConfig {
            addr,
            root_hints,
            timeout: SimTime::from_millis(10),
            hardening: ResolverHardening::default(),
        }
    }
}

obs::counters! {
    /// Observable resolver counters — a snapshot of the live registry-backed
    /// counters, from [`RecursiveResolver::stats`].
    pub struct ResolverStats;
    /// Live resolver counters: detached registry handles, adopted by
    /// [`RecursiveResolver::attach_obs`].
    struct ResolverMetrics: "resolver" {
        /// Recursive queries accepted from clients.
        client_queries,
        /// Responses returned to clients (any rcode).
        responses_sent,
        /// Iterative queries sent upstream (UDP).
        upstream_sent,
        /// Upstream timeouts (each triggers a retry or failure).
        timeouts,
        /// Queries retried over TCP after a TC response.
        tcp_fallbacks,
        /// Jobs that exhausted retries and answered SERVFAIL.
        servfails,
        /// Response-shaped datagrams aimed at an in-flight query's 4-tuple
        /// that failed acceptance — the footprint of a guessing race.
        poison_attempts,
        /// In-flight queries abandoned by the anomaly gate (re-queried TCP).
        gate_trips,
        /// Records refused by strict bailiwick filtering.
        bailiwick_dropped,
        /// Fragmented responses discarded (re-queried over TCP).
        frag_rejected,
        /// Ground-truth poisonings detected by [`RecursiveResolver::poison_check`].
        poison_successes,
    }
    fields {
        trace: obs::trace::ComponentTracer,
    }
}

#[derive(Debug)]
enum JobOrigin {
    /// A client asked; answer back over UDP.
    Client { id: u16, from: Endpoint },
    /// Internal sub-resolution (NS address chase) for a parent job.
    Sub { parent: usize },
}

#[derive(Debug)]
struct Job {
    /// Current resolution target (follows CNAMEs).
    target: Name,
    qtype: RrType,
    /// The original question (for the client response).
    original: Question,
    origin: JobOrigin,
    /// Remaining referral/CNAME/sub-query budget.
    budget: u8,
    attempts: u32,
    /// Records accumulated for the final answer (CNAME chain).
    answer_prefix: Vec<dnswire::record::Record>,
    /// Set while a child sub-resolution is outstanding.
    waiting: bool,
    /// Zone of the cut currently being queried — the bailiwick responses
    /// are filtered against.
    zone: Name,
}

#[derive(Debug)]
struct Pending {
    job: usize,
    server: Ipv4Addr,
    txid: u16,
    done: bool,
    /// Local port the query left from; the response must come back to it.
    local_port: u16,
    /// The qname exactly as sent (0x20-cased when enabled); the response
    /// must echo it.
    qname: Name,
    qtype: RrType,
    /// Bailiwick of the server this query went to.
    zone: Name,
    /// Wrong responses seen for this op (anomaly-gate evidence).
    mismatches: u32,
    /// True for TCP fallback queries — UDP responses never match them.
    via_tcp: bool,
}

/// One in-flight UDP iterative query, from [`RecursiveResolver::in_flight`].
/// Tests and attack oracles use this to read the ground-truth race state
/// (what an omniscient — not off-path — adversary would know).
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Transaction id of the outstanding query.
    pub txid: u16,
    /// Authoritative server it was sent to.
    pub server: Ipv4Addr,
    /// Local port it left from.
    pub local_port: u16,
    /// Exact qname as sent (0x20-cased when enabled).
    pub qname: Name,
    /// Query type.
    pub qtype: RrType,
}

/// The recursive resolver node.
pub struct RecursiveResolver {
    config: ResolverConfig,
    cache: Cache,
    jobs: Vec<Option<Job>>,
    pending: HashMap<u64, Pending>,
    txid_to_op: HashMap<u16, u64>,
    next_op: u64,
    /// Keyed txid stream (domain-separated from ports and case bits).
    txid_seq: KeyedSeq,
    /// Keyed stream for randomized UDP source ports and TCP ephemerals.
    port_seq: KeyedSeq,
    /// Keyed coin-flip stream for 0x20 case randomization.
    case_seq: KeyedSeq,
    /// Cursor of the `PortMode::Sequential` discipline.
    next_src_port: u16,
    /// TCP re-queries, each token the op it answers.
    tcp: TcpQueryClient,
    /// Live counters (snapshot through [`RecursiveResolver::stats`]).
    metrics: ResolverMetrics,
}

impl RecursiveResolver {
    /// Creates a resolver from `config`.
    pub fn new(config: ResolverConfig) -> Self {
        // The keyed txid/port/case generators draw from the address, so
        // every resolver has its own deterministic stream.
        let seed = u64::from(u32::from(config.addr)) ^ 0x9e37_79b9_7f4a_7c15;
        RecursiveResolver {
            tcp: TcpQueryClient::new(config.addr, u64::from(u32::from(config.addr))),
            txid_seq: KeyedSeq::new(seed, 1),
            port_seq: KeyedSeq::new(seed, 2),
            case_seq: KeyedSeq::new(seed, 3),
            config,
            cache: Cache::new(),
            jobs: Vec::new(),
            pending: HashMap::new(),
            txid_to_op: HashMap::new(),
            next_op: 1,
            next_src_port: 0,
            metrics: ResolverMetrics::default(),
        }
    }

    /// A snapshot of the resolver counters.
    pub fn stats(&self) -> ResolverStats {
        self.metrics.snapshot()
    }

    /// Adopts this resolver's counters into `obs.registry` under component
    /// `resolver`, labelled by node address, and starts emitting trace
    /// events (timeouts, TCP fallbacks, SERVFAILs) under the same
    /// component.
    pub fn attach_obs(&mut self, obs: &obs::Obs) {
        let node = self.config.addr.to_string();
        self.metrics.adopt_into(&obs.registry, &[("node", node.as_str())]);
        self.metrics.trace = obs.tracer.component("resolver");
    }

    /// Read access to the cache (tests & experiments).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Snapshot of every in-flight UDP iterative query — the omniscient
    /// race state a ground-truth harness may read (an off-path attacker
    /// cannot).
    pub fn in_flight(&self) -> Vec<InFlight> {
        self.pending
            .values()
            .filter(|p| !p.done && !p.via_tcp)
            .map(|p| InFlight {
                txid: p.txid,
                server: p.server,
                local_port: p.local_port,
                qname: p.qname.clone(),
                qtype: p.qtype,
            })
            .collect()
    }

    /// Ground-truth poisoning probe: reports (and counts) whether the
    /// cache holds any record for `name`/`rtype` whose rdata is *not* in
    /// the legitimate set. Emits a `poison_success` trace event on hit —
    /// the exact moment an attacker-controlled record entered the cache.
    pub fn poison_check(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RrType,
        legit: &[RData],
    ) -> bool {
        let Some(records) = self.cache.peek(now, name, rtype) else {
            return false;
        };
        let poisoned = records.iter().any(|r| !legit.contains(&r.rdata));
        if poisoned {
            self.metrics.poison_successes.inc();
            self.metrics.trace.event(
                now.as_nanos(),
                "poison_success",
                &[("qtype", obs::trace::Value::U64(u64::from(rtype.code())))],
            );
        }
        poisoned
    }

    fn my_udp(&self) -> Endpoint {
        Endpoint::new(self.config.addr, DNS_PORT)
    }

    // ---- job lifecycle -------------------------------------------------

    fn start_job(&mut self, question: Question, origin: JobOrigin) -> usize {
        let job = Job {
            target: question.name.clone(),
            qtype: question.qtype,
            original: question,
            origin,
            budget: 24,
            attempts: 0,
            answer_prefix: Vec::new(),
            waiting: false,
            zone: Name::root(),
        };
        let id = self
            .jobs
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.jobs.push(None);
                self.jobs.len() - 1
            });
        self.jobs[id] = Some(job);
        id
    }

    fn step(&mut self, ctx: &mut Context<'_>, job_id: usize) {
        let now = ctx.now();
        let Some(job) = self.jobs[job_id].as_mut() else {
            return;
        };
        if job.waiting {
            return;
        }
        if job.budget == 0 {
            self.finish_err(ctx, job_id, Rcode::ServFail);
            return;
        }

        // 1. Cached final answer?
        let target = job.target.clone();
        let qtype = job.qtype;
        if let Some(records) = self.cache.get(now, &target, qtype) {
            let Some(job) = self.jobs[job_id].as_mut() else { return };
            let mut answers = std::mem::take(&mut job.answer_prefix);
            answers.extend(records);
            self.finish_ok(ctx, job_id, answers);
            return;
        }
        // 2. Cached CNAME? Chase it.
        if qtype != RrType::Cname {
            if let Some(cnames) = self.cache.get(now, &target, RrType::Cname) {
                if let Some(RData::Cname(next)) = cnames.first().map(|r| r.rdata.clone()) {
                    let job = self.jobs[job_id].as_mut().expect("job alive");
                    job.answer_prefix.extend(cnames);
                    job.target = next;
                    job.budget -= 1;
                    self.step(ctx, job_id);
                    return;
                }
            }
        }
        // 2b. Cached negative answer (RFC 2308)?
        if let Some(neg) = self.cache.get_negative(now, &target, qtype) {
            let rcode = if neg.nxdomain { Rcode::NxDomain } else { Rcode::NoError };
            self.finish_negative(ctx, job_id, rcode, Some(neg.soa));
            return;
        }

        // 3. Pick servers from the deepest cached cut, else root hints.
        let servers = self.server_candidates(ctx, job_id, now, &target);
        let Some(servers) = servers else {
            return; // parked on a sub-resolution, or failed
        };
        if servers.is_empty() {
            self.finish_err(ctx, job_id, Rcode::ServFail);
            return;
        }

        // 4. Send the iterative query.
        let job = self.jobs[job_id].as_mut().expect("job alive");
        let server = servers[(job.attempts as usize) % servers.len()];
        job.attempts += 1;
        self.send_upstream(ctx, job_id, server);
    }

    /// Returns the candidate server addresses for `target`, or `None` if the
    /// job was parked on a sub-resolution (or failed during parking).
    fn server_candidates(
        &mut self,
        ctx: &mut Context<'_>,
        job_id: usize,
        now: SimTime,
        target: &Name,
    ) -> Option<Vec<Ipv4Addr>> {
        match self.cache.best_zone_cut(now, target) {
            None => {
                if let Some(job) = self.jobs[job_id].as_mut() {
                    job.zone = Name::root();
                }
                Some(self.config.root_hints.clone())
            }
            Some((cut, ns_names)) => {
                let mut addrs = Vec::new();
                for ns in &ns_names {
                    addrs.extend(self.cache.addresses(now, ns));
                }
                if !addrs.is_empty() {
                    if let Some(job) = self.jobs[job_id].as_mut() {
                        job.zone = cut;
                    }
                    return Some(addrs);
                }
                // No addresses for any NS name: resolve the first NS name.
                let ns = ns_names[0].clone();
                let job = self.jobs[job_id].as_mut().expect("job alive");
                if job.budget == 0 {
                    self.finish_err(ctx, job_id, Rcode::ServFail);
                    return None;
                }
                job.budget -= 1;
                job.waiting = true;
                let sub_q = Question::new(ns, RrType::A);
                let sub = self.start_job(sub_q, JobOrigin::Sub { parent: job_id });
                self.step(ctx, sub);
                None
            }
        }
    }

    /// Keyed txid draw, never colliding with an in-flight query (RFC 5452).
    fn alloc_txid(&mut self) -> u16 {
        let in_use = &self.txid_to_op;
        self.txid_seq.draw_u16(|v| v != 0 && !in_use.contains_key(&v))
    }

    /// Picks the outbound UDP source port per the configured discipline.
    fn alloc_udp_port(&mut self) -> u16 {
        match self.config.hardening.port_mode {
            PortMode::Fixed => DNS_PORT,
            PortMode::Sequential { base } => {
                let p = if self.next_src_port < base {
                    base
                } else {
                    self.next_src_port
                };
                self.next_src_port = if p == u16::MAX { base } else { p + 1 };
                p
            }
            PortMode::Randomized { base, range } => {
                let in_use: std::collections::HashSet<u16> = self
                    .pending
                    .values()
                    .filter(|p| !p.done && !p.via_tcp)
                    .map(|p| p.local_port)
                    .collect();
                let mut port = 0u16;
                self.port_seq.draw_u16(|v| {
                    let cand = base.wrapping_add(v % range.max(1));
                    if cand != DNS_PORT && !in_use.contains(&cand) {
                        port = cand;
                        true
                    } else {
                        false
                    }
                });
                port
            }
        }
    }

    /// 0x20-cases `name` by keyed coin-flips when enabled; identity
    /// otherwise.
    fn cased_qname(&mut self, name: &Name) -> Name {
        if !self.config.hardening.case_randomization {
            return name.clone();
        }
        let seq = &mut self.case_seq;
        let mut bits = 0u64;
        let mut have = 0u32;
        name.with_case(|| {
            if have == 0 {
                bits = seq.next_u64();
                have = 64;
            }
            let up = bits & 1 == 1;
            bits >>= 1;
            have -= 1;
            up
        })
    }

    fn send_upstream(&mut self, ctx: &mut Context<'_>, job_id: usize, server: Ipv4Addr) {
        let job = self.jobs[job_id].as_ref().expect("job alive");
        let target = job.target.clone();
        let qtype = job.qtype;
        let zone = job.zone.clone();
        let txid = self.alloc_txid();
        let qname = self.cased_qname(&target);
        let local_port = self.alloc_udp_port();
        let op = self.next_op;
        self.next_op += 1;

        let query = Message::iterative_query(txid, qname.clone(), qtype);
        let pkt = Packet::udp(
            Endpoint::new(self.config.addr, local_port),
            Endpoint::new(server, DNS_PORT),
            query.encode(),
        );
        ctx.charge(PACKET_COST);
        ctx.send(pkt);
        ctx.set_timer(self.config.timeout, op);
        self.pending.insert(
            op,
            Pending {
                job: job_id,
                server,
                txid,
                done: false,
                local_port,
                qname,
                qtype,
                zone,
                mismatches: 0,
                via_tcp: false,
            },
        );
        self.txid_to_op.insert(txid, op);
        self.metrics.upstream_sent.inc();
    }

    fn finish_ok(&mut self, ctx: &mut Context<'_>, job_id: usize, answers: Vec<dnswire::record::Record>) {
        self.finish(ctx, job_id, Rcode::NoError, answers, Vec::new());
    }

    fn finish_err(&mut self, ctx: &mut Context<'_>, job_id: usize, rcode: Rcode) {
        if rcode == Rcode::ServFail {
            self.metrics.servfails.inc();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "servfail",
                &[("job", obs::trace::Value::U64(job_id as u64))],
            );
        }
        self.finish(ctx, job_id, rcode, Vec::new(), Vec::new());
    }

    /// Finishes with a negative answer, carrying the authorising SOA.
    fn finish_negative(
        &mut self,
        ctx: &mut Context<'_>,
        job_id: usize,
        rcode: Rcode,
        soa: Option<dnswire::record::Record>,
    ) {
        self.finish(ctx, job_id, rcode, Vec::new(), soa.into_iter().collect());
    }

    fn finish(
        &mut self,
        ctx: &mut Context<'_>,
        job_id: usize,
        rcode: Rcode,
        answers: Vec<dnswire::record::Record>,
        authorities: Vec<dnswire::record::Record>,
    ) {
        let Some(job) = self.jobs[job_id].take() else {
            return;
        };
        // Cancel any outstanding pendings for this job.
        for p in self.pending.values_mut() {
            if p.job == job_id {
                p.done = true;
            }
        }
        match job.origin {
            JobOrigin::Client { id, from } => {
                let response = Message {
                    header: dnswire::header::Header {
                        id,
                        response: true,
                        recursion_desired: true,
                        recursion_available: true,
                        rcode,
                        ..dnswire::header::Header::default()
                    },
                    questions: vec![job.original.clone()],
                    answers,
                    authorities,
                    ..Message::default()
                };
                let (wire, _) = response
                    .encode_with_limit(MAX_UDP_PAYLOAD)
                    .unwrap_or_else(|_| (response.error_response(Rcode::ServFail).encode(), false));
                ctx.charge(PACKET_COST);
                ctx.send(Packet::udp(self.my_udp(), from, wire));
                self.metrics.responses_sent.inc();
            }
            JobOrigin::Sub { parent } => {
                if let Some(pjob) = self.jobs.get_mut(parent).and_then(Option::as_mut) {
                    pjob.waiting = false;
                    self.step(ctx, parent);
                }
            }
        }
    }

    // ---- packet handling -----------------------------------------------

    fn handle_client_query(&mut self, ctx: &mut Context<'_>, pkt: Packet, msg: Message) {
        self.metrics.client_queries.inc();
        let Some(question) = msg.question().cloned() else {
            let formerr = msg.error_response(Rcode::FormErr);
            ctx.send(Packet::udp(pkt.dst, pkt.src, formerr.encode()));
            return;
        };
        let job = self.start_job(
            question,
            JobOrigin::Client {
                id: msg.header.id,
                from: pkt.src,
            },
        );
        self.step(ctx, job);
    }

    fn handle_upstream_response(&mut self, ctx: &mut Context<'_>, pkt: Packet, msg: Message) {
        // Full 5-tuple + question-section acceptance (RFC 5452): the txid
        // must map to an in-flight UDP op, the packet must travel
        // server:53 -> our recorded local port, and the question must echo
        // our qname/qtype — case-sensitively when 0x20 is on. Anything
        // less is how txid-only matching made Kaminsky races cheap.
        let case_sensitive = self.config.hardening.case_randomization;
        let accepted = self.txid_to_op.get(&msg.header.id).copied().filter(|op| {
            self.pending.get(op).is_some_and(|p| {
                !p.done
                    && !p.via_tcp
                    && p.server == pkt.src.ip
                    && pkt.src.port == DNS_PORT
                    && pkt.dst.port == p.local_port
                    && msg.question().is_some_and(|q| {
                        q.qtype == p.qtype
                            && if case_sensitive {
                                q.name.eq_case_sensitive(&p.qname)
                            } else {
                                q.name == p.qname
                            }
                    })
            })
        });
        let Some(op) = accepted else {
            self.note_mismatch(ctx, &pkt);
            return;
        };
        let pending = self.pending.get(&op).expect("accepted op pending");
        let job_id = pending.job;
        let server = pending.server;
        let zone = pending.zone.clone();
        self.retire_op(op);

        if self.config.hardening.reject_fragmented && pkt.fragmented {
            // The response was reassembled from IP fragments: everything
            // past the first fragment is unauthenticated ("Fragmentation
            // Considered Poisonous"). Discard and re-ask over TCP.
            self.metrics.frag_rejected.inc();
            self.metrics.tcp_fallbacks.inc();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "frag_rejected",
                &[
                    ("server", obs::trace::Value::Ip(server)),
                    ("job", obs::trace::Value::U64(job_id as u64)),
                ],
            );
            self.query_over_tcp(ctx, job_id, server);
            return;
        }

        if msg.header.truncated {
            // TC flag: retry this query over TCP to the same server.
            self.metrics.tcp_fallbacks.inc();
            self.metrics.trace.event(
                ctx.now().as_nanos(),
                "tcp_fallback",
                &[
                    ("server", obs::trace::Value::Ip(pkt.src.ip)),
                    ("job", obs::trace::Value::U64(job_id as u64)),
                ],
            );
            self.query_over_tcp(ctx, job_id, pkt.src.ip);
            return;
        }
        self.process_answer(ctx, job_id, &zone, msg);
    }

    /// A response-shaped datagram that failed acceptance. When it is aimed
    /// at an in-flight query's exact 4-tuple it is the footprint of a
    /// blind guessing race (the POPS observation): count it, and once the
    /// armed anomaly gate's threshold is crossed, abandon the UDP race —
    /// the forger can't win a race that no longer exists — and re-ask over
    /// TCP.
    fn note_mismatch(&mut self, ctx: &mut Context<'_>, pkt: &Packet) {
        if pkt.src.port != DNS_PORT {
            return; // not even shaped like an authoritative answer
        }
        let gate = self.config.hardening.anomaly_gate;
        let now = ctx.now().as_nanos();
        let mut targeted = false;
        let mut tripped: Vec<(u64, usize, Ipv4Addr)> = Vec::new();
        for (&op, p) in self.pending.iter_mut() {
            if p.done || p.via_tcp || p.server != pkt.src.ip || p.local_port != pkt.dst.port {
                continue;
            }
            targeted = true;
            p.mismatches += 1;
            if p.mismatches == 1 {
                self.metrics.trace.event(
                    now,
                    "poison_attempt",
                    &[
                        ("server", obs::trace::Value::Ip(p.server)),
                        ("job", obs::trace::Value::U64(p.job as u64)),
                    ],
                );
            }
            if gate.is_some_and(|k| p.mismatches >= k) {
                tripped.push((op, p.job, p.server));
            }
        }
        if targeted {
            self.metrics.poison_attempts.inc();
        }
        for (op, job_id, server) in tripped {
            self.retire_op(op);
            self.metrics.gate_trips.inc();
            self.metrics.tcp_fallbacks.inc();
            self.metrics.trace.event(
                now,
                "anomaly_gate",
                &[
                    ("server", obs::trace::Value::Ip(server)),
                    ("job", obs::trace::Value::U64(job_id as u64)),
                ],
            );
            self.query_over_tcp(ctx, job_id, server);
        }
    }

    fn process_answer(&mut self, ctx: &mut Context<'_>, job_id: usize, zone: &Name, mut msg: Message) {
        let now = ctx.now();
        let Some(job) = self.jobs[job_id].as_mut() else {
            return;
        };
        job.budget = job.budget.saturating_sub(1);
        let target = job.target.clone();
        let qtype = job.qtype;

        // Strict bailiwick: a server only speaks for its own zone. Records
        // it has no authority over (Kaminsky's out-of-zone NS + glue
        // payload) are dropped before they can touch the cache.
        if self.config.hardening.strict_bailiwick {
            let before = msg.answers.len() + msg.authorities.len() + msg.additionals.len();
            msg.answers.retain(|r| r.name.is_subdomain_of(zone));
            msg.authorities.retain(|r| r.name.is_subdomain_of(zone));
            msg.additionals.retain(|r| r.name.is_subdomain_of(zone));
            let dropped =
                before - (msg.answers.len() + msg.authorities.len() + msg.additionals.len());
            if dropped > 0 {
                self.metrics.bailiwick_dropped.add(dropped as u64);
                self.metrics.trace.event(
                    now.as_nanos(),
                    "bailiwick_drop",
                    &[
                        ("job", obs::trace::Value::U64(job_id as u64)),
                        ("dropped", obs::trace::Value::U64(dropped as u64)),
                    ],
                );
            }
        }

        // Cache everything the server told us.
        self.cache.put(now, &msg.answers);
        self.cache.put(now, &msg.authorities);
        self.cache.put(now, &msg.additionals);

        let soa_of = |m: &Message| {
            m.authorities
                .iter()
                .find(|r| r.rtype == RrType::Soa)
                .cloned()
        };
        match msg.header.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => {
                let soa = soa_of(&msg);
                if let Some(soa) = &soa {
                    self.cache.put_negative(now, &target, qtype, true, soa);
                }
                self.finish_negative(ctx, job_id, Rcode::NxDomain, soa);
                return;
            }
            rcode => {
                self.finish_err(ctx, job_id, rcode);
                return;
            }
        }

        // Terminal answer for the current target?
        let direct: Vec<_> = msg
            .answers
            .iter()
            .filter(|r| r.name == target && r.rtype == qtype)
            .cloned()
            .collect();
        if !direct.is_empty() {
            let job = self.jobs[job_id].as_mut().expect("job alive");
            let mut answers = std::mem::take(&mut job.answer_prefix);
            answers.extend(direct);
            self.finish_ok(ctx, job_id, answers);
            return;
        }

        // CNAME for the target?
        if let Some(cname) = msg
            .answers
            .iter()
            .find(|r| r.name == target && r.rtype == RrType::Cname)
        {
            if let RData::Cname(next) = &cname.rdata {
                let next = next.clone();
                let cname = cname.clone();
                let job = self.jobs[job_id].as_mut().expect("job alive");
                job.answer_prefix.push(cname);
                job.target = next;
                self.step(ctx, job_id);
                return;
            }
        }

        // Referral: continue the iteration (the cache now knows the cut).
        if msg.is_referral() {
            self.step(ctx, job_id);
            return;
        }

        // NODATA (NoError, no matching records): cache and report.
        let soa = soa_of(&msg);
        if let Some(soa) = &soa {
            self.cache.put_negative(now, &target, qtype, false, soa);
        }
        let job = self.jobs[job_id].as_mut().expect("job alive");
        let answers = std::mem::take(&mut job.answer_prefix);
        if answers.is_empty() {
            self.finish_negative(ctx, job_id, Rcode::NoError, soa);
        } else {
            self.finish_ok(ctx, job_id, answers);
        }
    }

    fn retire_op(&mut self, op: u64) {
        if let Some(p) = self.pending.remove(&op) {
            self.txid_to_op.remove(&p.txid);
        }
    }

    // ---- TCP fallback ----------------------------------------------------

    fn query_over_tcp(&mut self, ctx: &mut Context<'_>, job_id: usize, server: Ipv4Addr) {
        let Some(job) = self.jobs[job_id].as_ref() else {
            return;
        };
        let target = job.target.clone();
        let qtype = job.qtype;
        let zone = job.zone.clone();
        let txid = self.alloc_txid();
        let op = self.next_op;
        self.next_op += 1;
        let query = Message::iterative_query(txid, target.clone(), qtype);

        // Keyed ephemeral port from the same pool real stacks use,
        // avoiding ports with a live fallback connection.
        let pool = |v: u16| 40_000 + v % 20_000;
        let tcp = &self.tcp;
        let tcp_port = pool(self.port_seq.draw_u16(|v| !tcp.port_in_use(pool(v))));
        if let Some(syn) = self.tcp.start_query(tcp_port, server, &query.encode(), op) {
            ctx.charge(PACKET_COST);
            ctx.send(syn);
        }
        ctx.set_timer(self.config.timeout * 3, op);
        self.pending.insert(
            op,
            Pending {
                job: job_id,
                server,
                txid,
                done: false,
                local_port: tcp_port,
                qname: target,
                qtype,
                zone,
                mismatches: 0,
                via_tcp: true,
            },
        );
        self.txid_to_op.insert(txid, op);
    }

    /// Sends what the client has to send (handshake, query, FIN), then
    /// hands each completed response to its op, if the op is still live.
    /// An op that timed out keeps its connection; its late answer is
    /// dropped here.
    fn handle_tcp_segment(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let mut out = Vec::new();
        let done = self.tcp.on_segment(&pkt, &mut out);
        for p in out {
            ctx.charge(PACKET_COST);
            ctx.send(p);
        }
        for (op, frame) in done {
            let Some(p) = self.pending.get(&op).filter(|p| !p.done) else {
                continue;
            };
            let Ok(msg) = Message::decode(&frame) else {
                continue;
            };
            let job_id = p.job;
            let zone = p.zone.clone();
            self.retire_op(op);
            self.process_answer(ctx, job_id, &zone, msg);
        }
    }
}

impl Node for RecursiveResolver {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        ctx.charge(PACKET_COST);
        match pkt.proto {
            Proto::Tcp => self.handle_tcp_segment(ctx, pkt),
            Proto::Udp => {
                let Ok(msg) = Message::decode(&pkt.payload) else {
                    return;
                };
                if msg.header.response {
                    self.handle_upstream_response(ctx, pkt, msg);
                } else {
                    self.handle_client_query(ctx, pkt, msg);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, op: u64) {
        let Some(pending) = self.pending.get(&op) else {
            return;
        };
        if pending.done {
            self.retire_op(op);
            return;
        }
        let job_id = pending.job;
        self.retire_op(op);
        self.metrics.timeouts.inc();
        self.metrics.trace.event(
            ctx.now().as_nanos(),
            "timeout",
            &[
                ("job", obs::trace::Value::U64(job_id as u64)),
                ("op", obs::trace::Value::U64(op)),
            ],
        );
        let give_up = match self.jobs[job_id].as_ref() {
            Some(job) => job.attempts >= MAX_RETRIES,
            None => return,
        };
        if give_up {
            self.finish_err(ctx, job_id, Rcode::ServFail);
        } else {
            self.step(ctx, job_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::Authority;
    use crate::nodes::AuthNode;
    use crate::zone::{paper_hierarchy, COM_SERVER, FOO_SERVER, ROOT_SERVER, WWW_ADDR};
    use netsim::engine::{CpuConfig, Simulator};

    /// A stub client that sends one recursive query and remembers the reply.
    struct OneShot {
        me: Endpoint,
        lrs: Endpoint,
        qname: Name,
        reply: Option<Message>,
    }

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let q = Message::query(77, self.qname.clone(), RrType::A);
            ctx.send(Packet::udp(self.me, self.lrs, q.encode()));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            self.reply = Message::decode(&pkt.payload).ok();
        }
    }

    fn build_world(seed: u64) -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let (root, com, foo) = paper_hierarchy();
        let mut sim = Simulator::new(seed);
        let lrs_ip = Ipv4Addr::new(10, 0, 0, 53);
        let stub_ip = Ipv4Addr::new(10, 0, 0, 1);

        sim.add_node(
            ROOT_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(ROOT_SERVER, Authority::new(vec![root])),
        );
        sim.add_node(
            COM_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(COM_SERVER, Authority::new(vec![com])),
        );
        sim.add_node(
            FOO_SERVER,
            CpuConfig::unbounded(),
            AuthNode::new(FOO_SERVER, Authority::new(vec![foo])),
        );
        let lrs = sim.add_node(
            lrs_ip,
            CpuConfig::unbounded(),
            RecursiveResolver::new(ResolverConfig::new(
                lrs_ip,
                vec![ROOT_SERVER],
            )),
        );
        let stub = sim.add_node(
            stub_ip,
            CpuConfig::unbounded(),
            OneShot {
                me: Endpoint::new(stub_ip, 5000),
                lrs: Endpoint::new(lrs_ip, DNS_PORT),
                qname: "www.foo.com".parse().unwrap(),
                reply: None,
            },
        );
        (sim, lrs, stub)
    }

    #[test]
    fn full_iterative_resolution() {
        let (mut sim, lrs, stub) = build_world(1);
        sim.run();
        let reply = sim
            .node_ref::<OneShot>(stub)
            .unwrap()
            .reply
            .clone()
            .expect("stub got a reply");
        assert_eq!(reply.header.rcode, Rcode::NoError);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
        assert_eq!(stats.client_queries, 1);
        assert_eq!(stats.responses_sent, 1);
        // root → com → foo.com: exactly three upstream queries on a cold cache.
        assert_eq!(stats.upstream_sent, 3);
    }

    #[test]
    fn second_query_answered_from_cache() {
        let (mut sim, lrs, _stub) = build_world(2);
        sim.run();
        let first_upstream = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().upstream_sent;

        // Second client asks the same question.
        let stub2_ip = Ipv4Addr::new(10, 0, 0, 2);
        sim.add_node(
            stub2_ip,
            CpuConfig::unbounded(),
            OneShot {
                me: Endpoint::new(stub2_ip, 5001),
                lrs: Endpoint::new(Ipv4Addr::new(10, 0, 0, 53), DNS_PORT),
                qname: "www.foo.com".parse().unwrap(),
                reply: None,
            },
        );
        sim.run();
        let resolver = sim.node_ref::<RecursiveResolver>(lrs).unwrap();
        assert_eq!(resolver.stats().upstream_sent, first_upstream, "no new upstream queries");
        assert_eq!(resolver.stats().responses_sent, 2);
    }

    #[test]
    fn nxdomain_propagates() {
        let (mut sim, _lrs, _stub) = build_world(3);
        let stub2_ip = Ipv4Addr::new(10, 0, 0, 3);
        let stub2 = sim.add_node(
            stub2_ip,
            CpuConfig::unbounded(),
            OneShot {
                me: Endpoint::new(stub2_ip, 5002),
                lrs: Endpoint::new(Ipv4Addr::new(10, 0, 0, 53), DNS_PORT),
                qname: "missing.foo.com".parse().unwrap(),
                reply: None,
            },
        );
        sim.run();
        let reply = sim.node_ref::<OneShot>(stub2).unwrap().reply.clone().unwrap();
        assert_eq!(reply.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn negative_answers_cached() {
        // First NXDOMAIN query walks the hierarchy; the second is answered
        // from the negative cache with no new upstream traffic.
        let (mut sim, lrs, _stub) = build_world(7);
        sim.run();
        let ask = |sim: &mut Simulator, port: u16, host: u8| -> Message {
            let stub_ip = Ipv4Addr::new(10, 0, 0, host);
            let stub = sim.add_node(
                stub_ip,
                CpuConfig::unbounded(),
                OneShot {
                    me: Endpoint::new(stub_ip, port),
                    lrs: Endpoint::new(Ipv4Addr::new(10, 0, 0, 53), DNS_PORT),
                    qname: "missing.foo.com".parse().unwrap(),
                    reply: None,
                },
            );
            sim.run();
            sim.node_ref::<OneShot>(stub).unwrap().reply.clone().unwrap()
        };
        let first = ask(&mut sim, 6001, 31);
        assert_eq!(first.header.rcode, Rcode::NxDomain);
        assert!(
            first.authorities.iter().any(|r| r.rtype == RrType::Soa),
            "negative answer carries the SOA"
        );
        let upstream = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().upstream_sent;
        let second = ask(&mut sim, 6002, 32);
        assert_eq!(second.header.rcode, Rcode::NxDomain);
        assert_eq!(
            sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().upstream_sent,
            upstream,
            "second NXDOMAIN served from the negative cache"
        );
    }

    #[test]
    fn timeout_then_servfail_when_server_dead() {
        // Root hint points at an address nobody owns → timeouts → SERVFAIL.
        let mut sim = Simulator::new(5);
        let lrs_ip = Ipv4Addr::new(10, 0, 0, 53);
        let lrs = sim.add_node(
            lrs_ip,
            CpuConfig::unbounded(),
            RecursiveResolver::new(ResolverConfig::new(lrs_ip, vec![Ipv4Addr::new(203, 0, 113, 99)])),
        );
        let stub_ip = Ipv4Addr::new(10, 0, 0, 1);
        let stub = sim.add_node(
            stub_ip,
            CpuConfig::unbounded(),
            OneShot {
                me: Endpoint::new(stub_ip, 5000),
                lrs: Endpoint::new(lrs_ip, DNS_PORT),
                qname: "www.foo.com".parse().unwrap(),
                reply: None,
            },
        );
        sim.run();
        let reply = sim.node_ref::<OneShot>(stub).unwrap().reply.clone().unwrap();
        assert_eq!(reply.header.rcode, Rcode::ServFail);
        let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
        assert_eq!(stats.timeouts as u32, 3);
        assert_eq!(stats.servfails, 1);
    }

    // ---- poisoning / hardening regression tests ------------------------

    const LRS_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const STUB_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Builds the paper hierarchy, a resolver with `hardening` and a stub.
    /// Returns `(sim, lrs, stub, [root, com, foo])`.
    fn hardened_world(
        seed: u64,
        hardening: crate::hardening::ResolverHardening,
    ) -> (Simulator, netsim::NodeId, netsim::NodeId, [netsim::NodeId; 3]) {
        let (root, com, foo) = paper_hierarchy();
        let mut sim = Simulator::new(seed);
        let mut auth_ids = [0usize; 3];
        for (i, (ip, zone)) in [(ROOT_SERVER, root), (COM_SERVER, com), (FOO_SERVER, foo)]
            .into_iter()
            .enumerate()
        {
            auth_ids[i] = sim.add_node(
                ip,
                CpuConfig::unbounded(),
                AuthNode::new(ip, Authority::new(vec![zone])),
            );
        }
        let lrs = sim.add_node(
            LRS_IP,
            CpuConfig::unbounded(),
            RecursiveResolver::new(ResolverConfig { hardening, ..ResolverConfig::new(LRS_IP, vec![ROOT_SERVER]) }),
        );
        let stub = sim.add_node(
            STUB_IP,
            CpuConfig::unbounded(),
            OneShot {
                me: Endpoint::new(STUB_IP, 5000),
                lrs: Endpoint::new(LRS_IP, DNS_PORT),
                qname: "www.foo.com".parse().unwrap(),
                reply: None,
            },
        );
        (sim, lrs, stub, auth_ids)
    }

    /// Steps the sim until the resolver has an iterative query in flight
    /// to `server`, returning its ground-truth race state.
    fn wait_for_query_to(
        sim: &mut Simulator,
        lrs: netsim::NodeId,
        server: Ipv4Addr,
    ) -> crate::recursive::InFlight {
        for step in 1..400u64 {
            sim.run_until(SimTime::from_micros(step * 50));
            let inflight = sim.node_ref::<RecursiveResolver>(lrs).unwrap().in_flight();
            if let Some(q) = inflight.into_iter().find(|q| q.server == server) {
                return q;
            }
        }
        panic!("no in-flight query to {server} observed");
    }

    fn final_answer(sim: &mut Simulator, stub: netsim::NodeId) -> Message {
        sim.run();
        sim.node_ref::<OneShot>(stub)
            .unwrap()
            .reply
            .clone()
            .expect("stub answered")
    }

    #[test]
    fn spoofed_response_from_wrong_server_ignored() {
        // A response with the *correct* txid, port and question but the
        // wrong source address must not be accepted (RFC 5452 5-tuple
        // check). Ground truth comes from `in_flight`, not from assuming
        // a predictable txid — there no longer is one.
        let (mut sim, lrs, stub, _) = hardened_world(6, Default::default());
        let q = wait_for_query_to(&mut sim, lrs, ROOT_SERVER);
        let mut forged = Message::iterative_query(q.txid, q.qname.clone(), q.qtype).response();
        forged.answers.push(dnswire::record::Record::a(
            "www.foo.com".parse().unwrap(),
            Ipv4Addr::new(6, 6, 6, 6),
            600,
        ));
        sim.inject(
            stub,
            Packet::udp(
                Endpoint::new(Ipv4Addr::new(66, 66, 66, 66), DNS_PORT),
                Endpoint::new(LRS_IP, q.local_port),
                forged.encode(),
            ),
        );
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR), "forgery rejected");
    }

    #[test]
    fn wrong_question_forgery_ignored_and_counted() {
        // Correct txid, correct 5-tuple, wrong question section: the
        // forgery must be dropped (question echo check) and counted as a
        // poisoning attempt.
        let (mut sim, lrs, stub, _) = hardened_world(7, Default::default());
        let q = wait_for_query_to(&mut sim, lrs, ROOT_SERVER);
        let evil: Name = "evil.com".parse().unwrap();
        let mut forged = Message::iterative_query(q.txid, evil.clone(), RrType::A).response();
        forged
            .answers
            .push(dnswire::record::Record::a(evil.clone(), Ipv4Addr::new(6, 6, 6, 6), 600));
        sim.inject(
            stub,
            Packet::udp(
                Endpoint::new(ROOT_SERVER, DNS_PORT),
                Endpoint::new(LRS_IP, q.local_port),
                forged.encode(),
            ),
        );
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        let now = sim.now();
        let lrs_node = sim.node_mut::<RecursiveResolver>(lrs).unwrap();
        assert!(lrs_node.stats().poison_attempts >= 1, "attempt footprint recorded");
        assert!(
            !lrs_node.poison_check(now, &evil, RrType::A, &[]),
            "evil.com never entered the cache"
        );
    }

    #[test]
    fn wrong_case_echo_rejected_with_0x20() {
        // With 0x20 on, a response echoing the question in the wrong case
        // is a forgery fingerprint and must be dropped.
        let hardening = crate::hardening::ResolverHardening {
            case_randomization: true,
            ..Default::default()
        };
        let (mut sim, lrs, stub, _) = hardened_world(11, hardening);
        let q = wait_for_query_to(&mut sim, lrs, ROOT_SERVER);
        let lowercase: Name = "www.foo.com".parse().unwrap();
        assert!(
            !q.qname.eq_case_sensitive(&lowercase),
            "seed 11 must yield a mixed-case query for this test to bite"
        );
        let mut forged = Message::iterative_query(q.txid, lowercase, q.qtype).response();
        forged.answers.push(dnswire::record::Record::a(
            "www.foo.com".parse().unwrap(),
            Ipv4Addr::new(6, 6, 6, 6),
            600,
        ));
        sim.inject(
            stub,
            Packet::udp(
                Endpoint::new(ROOT_SERVER, DNS_PORT),
                Endpoint::new(LRS_IP, q.local_port),
                forged.encode(),
            ),
        );
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR), "case forgery rejected");
        assert!(sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats().poison_attempts >= 1);
    }

    #[test]
    fn full_hardening_stack_still_resolves() {
        // Randomized ports + 0x20 + bailiwick + gate + fragment rejection
        // must be invisible to a legitimate resolution (servers echo the
        // question byte-for-byte, ports route back, nothing trips).
        let (mut sim, lrs, stub, _) = hardened_world(13, crate::hardening::ResolverHardening::full());
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
        assert_eq!(stats.poison_attempts, 0, "clean run leaves no attack footprint");
        assert_eq!(stats.gate_trips, 0);
        assert_eq!(stats.frag_rejected, 0);
        assert_eq!(stats.servfails, 0);
    }

    #[test]
    fn anomaly_gate_abandons_race_and_requeries_over_tcp() {
        // A burst of wrong-txid responses on an in-flight query's 4-tuple
        // trips the gate: the UDP race is abandoned and the query re-asked
        // over TCP, which still resolves correctly.
        let hardening = crate::hardening::ResolverHardening {
            anomaly_gate: Some(3),
            ..Default::default()
        };
        let (mut sim, lrs, stub, _) = hardened_world(17, hardening);
        let q = wait_for_query_to(&mut sim, lrs, ROOT_SERVER);
        for i in 0..3u16 {
            let guess = q.txid.wrapping_add(1).wrapping_add(i);
            let mut forged = Message::iterative_query(guess, q.qname.clone(), q.qtype).response();
            forged.answers.push(dnswire::record::Record::a(
                "www.foo.com".parse().unwrap(),
                Ipv4Addr::new(6, 6, 6, 6),
                600,
            ));
            sim.inject(
                stub,
                Packet::udp(
                    Endpoint::new(ROOT_SERVER, DNS_PORT),
                    Endpoint::new(LRS_IP, q.local_port),
                    forged.encode(),
                ),
            );
        }
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
        assert!(stats.gate_trips >= 1, "gate tripped: {stats:?}");
        assert!(stats.tcp_fallbacks >= 1);
        assert!(stats.poison_attempts >= 3);
    }

    #[test]
    fn strict_bailiwick_drops_out_of_zone_records() {
        // An accepted response from the `com` server carrying an
        // out-of-zone additional record (the classic poisoning payload)
        // has that record stripped before caching; the in-zone referral
        // still drives the resolution forward.
        let hardening = crate::hardening::ResolverHardening {
            strict_bailiwick: true,
            ..Default::default()
        };
        let (mut sim, lrs, stub, _) = hardened_world(19, hardening);
        let q = wait_for_query_to(&mut sim, lrs, COM_SERVER);
        let evil: Name = "evil.org".parse().unwrap();
        let mut forged = Message::iterative_query(q.txid, q.qname.clone(), q.qtype).response();
        // In-zone referral: NS foo.com -> ns.foo.com with glue at the real
        // foo server, so resolution proceeds.
        forged.authorities.push(dnswire::record::Record::ns(
            "foo.com".parse().unwrap(),
            "ns.foo.com".parse().unwrap(),
            600,
        ));
        forged.additionals.push(dnswire::record::Record::a(
            "ns.foo.com".parse().unwrap(),
            FOO_SERVER,
            600,
        ));
        // Out-of-zone payload that bailiwick must strip.
        forged
            .additionals
            .push(dnswire::record::Record::a(evil.clone(), Ipv4Addr::new(6, 6, 6, 6), 600));
        sim.inject(
            stub,
            Packet::udp(
                Endpoint::new(COM_SERVER, DNS_PORT),
                Endpoint::new(LRS_IP, q.local_port),
                forged.encode(),
            ),
        );
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        let now = sim.now();
        let lrs_node = sim.node_mut::<RecursiveResolver>(lrs).unwrap();
        assert!(lrs_node.stats().bailiwick_dropped >= 1);
        assert!(
            !lrs_node.poison_check(now, &evil, RrType::A, &[]),
            "out-of-zone record never cached"
        );
    }

    #[test]
    fn fragmented_response_rejected_and_retried_over_tcp() {
        // With `reject_fragmented`, a response reassembled from IP
        // fragments is discarded and the query re-asked over TCP.
        let hardening = crate::hardening::ResolverHardening {
            reject_fragmented: true,
            ..Default::default()
        };
        let (mut sim, lrs, stub, auth) = hardened_world(23, hardening);
        // Fragment everything larger than 40 bytes from the foo server.
        sim.set_link_mtu(auth[2], lrs, 40);
        let reply = final_answer(&mut sim, stub);
        assert_eq!(reply.answers[0].rdata, RData::A(WWW_ADDR));
        let stats = sim.node_ref::<RecursiveResolver>(lrs).unwrap().stats();
        assert!(stats.frag_rejected >= 1, "{stats:?}");
        assert!(stats.tcp_fallbacks >= 1);
        assert!(sim.fault_stats().fragmented >= 1);
    }

    /// A root server that answers every UDP query with TC and never
    /// completes a TCP handshake, recording the source port of each SYN.
    #[derive(Default)]
    struct TcOnly {
        syn_ports: Vec<u16>,
    }

    impl Node for TcOnly {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            match pkt.proto {
                Proto::Udp => {
                    let mut tc = Message::decode(&pkt.payload).unwrap().response();
                    tc.header.truncated = true;
                    ctx.send(Packet::udp(pkt.dst, pkt.src, tc.encode()));
                }
                Proto::Tcp => {
                    if netsim::tcp::Segment::decode(&pkt.payload).is_some_and(|s| s.flags.syn) {
                        self.syn_ports.push(pkt.src.port);
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_tcp_fallbacks_leave_from_distinct_keyed_ports() {
        // Two clients' first queries both come back TC; both re-asks are
        // open at once. Each leaves from the resolver's keyed 40 000..60 000
        // pool, and the second avoids the first's port.
        let mut sim = Simulator::new(31);
        let root = sim.add_node(ROOT_SERVER, CpuConfig::unbounded(), TcOnly::default());
        sim.add_node(
            LRS_IP,
            CpuConfig::unbounded(),
            RecursiveResolver::new(ResolverConfig::new(LRS_IP, vec![ROOT_SERVER])),
        );
        for (host, qname) in [(1, "www.foo.com"), (2, "foo.com")] {
            let ip = Ipv4Addr::new(10, 0, 0, host);
            let stub = OneShot {
                me: Endpoint::new(ip, 5000),
                lrs: Endpoint::new(LRS_IP, DNS_PORT),
                qname: qname.parse().unwrap(),
                reply: None,
            };
            sim.add_node(ip, CpuConfig::unbounded(), stub);
        }
        // Before the first TCP timeout (3 × 10 ms) retries anything.
        sim.run_until(SimTime::from_millis(5));
        let ports = &sim.node_ref::<TcOnly>(root).unwrap().syn_ports;
        assert_eq!(ports.len(), 2, "{ports:?}");
        assert_ne!(ports[0], ports[1]);
        assert!(ports.iter().all(|p| (40_000..60_000).contains(p)), "{ports:?}");
    }

    #[test]
    fn txid_and_port_allocation_is_not_sequential() {
        // The default-config allocators must not hand out predictable
        // sequences: observe several resolutions' in-flight txids and
        // assert they are not consecutive.
        let hardening = crate::hardening::ResolverHardening {
            port_mode: crate::hardening::PortMode::Randomized { base: 10_000, range: 16_384 },
            ..Default::default()
        };
        let (mut sim, lrs, _stub, _) = hardened_world(29, hardening);
        let mut txids = Vec::new();
        let mut ports = Vec::new();
        for server in [ROOT_SERVER, COM_SERVER, FOO_SERVER] {
            let q = wait_for_query_to(&mut sim, lrs, server);
            txids.push(q.txid);
            ports.push(q.local_port);
        }
        let consecutive = |v: &[u16]| v.windows(2).all(|w| w[1] == w[0].wrapping_add(1));
        assert!(!consecutive(&txids), "txids look sequential: {txids:?}");
        assert!(!consecutive(&ports), "ports look sequential: {ports:?}");
        assert!(ports.iter().all(|&p| (10_000..26_384).contains(&p)));
    }
}
