//! The four guard workloads: a pre-built ring of datagrams replayed with
//! simulated pacing through `RemoteGuard` worlds, everything the guard
//! emits collected by the sink and checked after every round.
//!
//! Each lane of a workload (one datagram class) gets a world of its own, so
//! what a world still has in flight when a class run ends belongs to the
//! same class as the run that follows.

use super::{note, Round, Workload};
use crate::ring::{Class, Datagram, Ring, CLASS_RUN, RING};
use crate::shadow::Shadow;
use crate::spans::{SpanId, Spans};
use crate::stats;
use crate::world::{GuardSpec, World, PRIV, PUB};
use bench::worlds::ZoneSel;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::GuardStats;
use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::rdata::RData;
use dnswire::types::{Rcode, RrType};
use guardhash::cookie::{Cookie, CookieFactory};
use netsim::packet::Packet;
use netsim::time::SimTime;
use server::zone::{COM_SERVER, WWW_ADDR};
use std::time::Instant;

/// A guard workload's fixed parameters.
#[derive(Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Lanes; lane `i` replays into world `i`.
    pub lanes: &'static [(Class, GuardSpec)],
    /// Datagrams per round (a multiple of `CLASS_RUN × lanes`).
    pub round: usize,
    /// Datagrams per latency sample, sized so a sample is about 60 µs.
    pub batch: usize,
    /// Simulated time between consecutive datagrams of one lane.
    pub gap: SimTime,
}

const OPEN_ROOT: GuardSpec = GuardSpec {
    mode: SchemeMode::DnsBased,
    zone: ZoneSel::Root,
    open_limiters: true,
};
const OPEN_TCP: GuardSpec = GuardSpec {
    mode: SchemeMode::TcpBased,
    zone: ZoneSel::Foo,
    open_limiters: true,
};
const OPEN_MODIFIED: GuardSpec = GuardSpec {
    mode: SchemeMode::ModifiedOnly,
    zone: ZoneSel::Foo,
    open_limiters: true,
};
const MODIFIED: GuardSpec = GuardSpec {
    mode: SchemeMode::ModifiedOnly,
    zone: ZoneSel::Foo,
    open_limiters: false,
};
const DNS_FOO: GuardSpec = GuardSpec {
    mode: SchemeMode::DnsBased,
    zone: ZoneSel::Foo,
    open_limiters: false,
};

/// The four specs. Round sizes are whole numbers of ring passes or class
/// runs and take roughly 0.1 s each on the reference guest.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "spoof_flood",
        lanes: &[(Class::Plain, GuardSpec::DEFAULT)],
        round: 3 * RING,
        batch: 128,
        gap: SimTime::from_micros(4), // the paper's 250 K req/s flood
    },
    Spec {
        name: "cookie_flood",
        lanes: &[
            (Class::ExtForged, GuardSpec::DEFAULT),
            (Class::NsLabelForged, GuardSpec::DEFAULT),
            (Class::Cookie2Forged, GuardSpec::DEFAULT),
        ],
        round: 3 * RING,
        batch: 128,
        gap: SimTime::from_micros(4),
    },
    Spec {
        name: "first_contact",
        lanes: &[
            (Class::Plain, OPEN_ROOT),
            (Class::Plain, OPEN_TCP),
            (Class::Plain, OPEN_MODIFIED),
        ],
        round: 192 * CLASS_RUN,
        batch: 32,
        gap: SimTime::from_micros(10),
    },
    Spec {
        name: "legit_steady",
        lanes: &[
            (Class::ExtValid, MODIFIED),
            (Class::NsLabelValid, GuardSpec::DEFAULT),
            (Class::Cookie2Valid, DNS_FOO),
        ],
        round: 120 * CLASS_RUN,
        batch: 16,
        gap: SimTime::from_micros(10),
    },
];

/// The spec called `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What the guard does with a lane's datagrams; also the label of its spans
/// and of the per-class layer metrics.
pub fn disposition(class: Class, spec: GuardSpec) -> &'static str {
    match (class, spec.mode, spec.open_limiters) {
        (Class::Plain, _, false) => "rl1_drop",
        (Class::Plain, SchemeMode::DnsBased, true) => "fabricated_ns",
        (Class::Plain, SchemeMode::TcpBased, true) => "tc",
        (Class::Plain, SchemeMode::ModifiedOnly, true) => "grant",
        (Class::ExtForged, ..) => "ext_invalid",
        (Class::NsLabelForged, ..) => "ns_label_invalid",
        (Class::Cookie2Forged, ..) => "cookie2_invalid",
        (Class::ExtValid, ..) => "ext_forward",
        (Class::NsLabelValid, ..) => "ns_label_forward",
        (Class::Cookie2Valid, ..) => "cookie2_forward",
    }
}

/// The disposition counter a lane's client datagrams must all land in
/// (together with `rl1_dropped` when the limiters are at their defaults).
fn lane_counter(class: Class, mode: SchemeMode, s: &GuardStats) -> u64 {
    match (class, mode) {
        (Class::Plain, SchemeMode::DnsBased) => s.fabricated_ns_sent,
        (Class::Plain, SchemeMode::TcpBased) => s.tc_sent,
        (Class::Plain, SchemeMode::ModifiedOnly) => s.grants_sent,
        (Class::ExtForged, _) => s.ext_invalid,
        (Class::NsLabelForged, _) => s.ns_cookie_invalid,
        (Class::Cookie2Forged, _) => s.cookie2_invalid,
        (Class::ExtValid, _) => s.ext_valid,
        (Class::NsLabelValid, _) => s.ns_cookie_valid,
        (Class::Cookie2Valid, _) => s.cookie2_valid,
    }
}

/// The most cookie responses a guard with default limiters may have sent
/// after `secs` simulated seconds: Rate-Limiter1's global rate × time plus
/// its burst of a tenth of a second's worth. This bounds what a guard can
/// reflect toward unverified sources.
fn rl1_budget(secs: f64) -> u64 {
    let rate = GuardConfig::new(PUB, PRIV).rl1_global_rate;
    (rate * secs + rate / 10.0).ceil() as u64
}

struct LaneState {
    class: Class,
    spec: GuardSpec,
    world: World,
    factory: CookieFactory,
    before: GuardStats,
    ans_before: u64,
    replies_total: u64,
}

/// A guard workload, set up.
pub struct GuardWorkload {
    spec: &'static Spec,
    lanes: Vec<LaneState>,
    ring: Ring,
    cursor: usize,
    shadow: Option<Shadow>,
    replies: Vec<Packet>,
    table_bytes: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl GuardWorkload {
    /// Builds the worlds and the ring, then replays one untimed round so
    /// tables, buffers and the allocator reach their steady state.
    pub fn new(spec: &'static Spec, seed: u64) -> GuardWorkload {
        let mut w = Self::cold(spec, seed);
        w.round(None);
        w
    }

    /// Set-up without the warm-up round (the tests plant faults here).
    pub fn cold(spec: &'static Spec, seed: u64) -> GuardWorkload {
        let lanes: Vec<LaneState> = spec
            .lanes
            .iter()
            .enumerate()
            .map(|(i, &(class, gspec))| {
                let world = World::new(gspec, seed.wrapping_add(i as u64));
                let factory = world.cookie_factory();
                LaneState {
                    class,
                    spec: gspec,
                    before: world.guard_stats(),
                    ans_before: world.ans_queries(),
                    world,
                    factory,
                    replies_total: 0,
                }
            })
            .collect();
        let classes: Vec<Class> = lanes.iter().map(|l| l.class).collect();
        let factories: Vec<CookieFactory> = lanes.iter().map(|l| l.factory.clone()).collect();
        let ring = Ring::build(&classes, &factories, seed);
        GuardWorkload {
            spec,
            lanes,
            ring,
            cursor: 0,
            shadow: None,
            replies: Vec::new(),
            table_bytes: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// The ring (tests compare and tamper with it).
    pub fn ring_mut(&mut self) -> &mut Ring {
        &mut self.ring
    }

    /// Lane `i`'s cookie factory.
    pub fn factory(&self, lane: usize) -> &CookieFactory {
        &self.lanes[lane].factory
    }

    /// Cumulative disposition counters of every lane, in lane order.
    pub fn dispositions(&self) -> Vec<GuardStats> {
        self.lanes.iter().map(|l| l.world.guard_stats()).collect()
    }

    fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        note(&mut self.failures, what);
    }

    fn expect(&mut self, lane: usize, what: &str, got: u64, want: u64) {
        if got != want {
            let name = disposition(self.lanes[lane].class, self.lanes[lane].spec);
            self.fail(
                got.abs_diff(want),
                format!(
                    "{}: lane {lane} ({name}): {what} = {got}, expected {want}",
                    self.spec.name
                ),
            );
        }
    }

    /// Checks one reply the sink received; `None` when it is what the
    /// datagram with its transaction id should have caused.
    fn reply_fault(&self, reply: &Packet) -> Option<String> {
        let Ok(msg) = Message::decode(&reply.payload) else {
            return Some("undecodable reply".into());
        };
        let Datagram {
            pkt: sent,
            class,
            lane,
        } = &self.ring.items[usize::from(msg.header.id)];
        let lane = &self.lanes[*lane];
        if reply.dst != sent.src || reply.src != sent.dst {
            return Some(format!(
                "reply {}→{} does not answer datagram {}→{}",
                reply.src, reply.dst, sent.src, sent.dst
            ));
        }
        if !msg.header.response || msg.header.rcode != Rcode::NoError {
            return Some(format!("reply to {} is not a NOERROR response", sent.src));
        }
        let src = sent.src.ip;
        let ok = match (class, lane.spec.mode) {
            // Fabricated referral: an NS whose first label is PR + the
            // source's cookie.
            (Class::Plain, SchemeMode::DnsBased) => {
                msg.authorities.iter().any(|r| match &r.rdata {
                    RData::Ns(ns) => ns
                        .first_label_str()
                        .and_then(|l| l.get(2..10))
                        .is_some_and(|hex| lane.factory.verify_ns_suffix(src, hex)),
                    _ => false,
                })
            }
            (Class::Plain, SchemeMode::TcpBased) => msg.header.truncated,
            (Class::Plain, SchemeMode::ModifiedOnly) => cookie_ext::find_cookie(&msg)
                .is_some_and(|ext| lane.factory.verify(src, &Cookie(ext.cookie))),
            (Class::ExtValid | Class::Cookie2Valid, _) => a_answer(&msg) == Some(WWW_ADDR),
            // The root zone refers to `com`; the guard answers the cookie
            // name with the glue address of the `com` server.
            (Class::NsLabelValid, _) => a_answer(&msg) == Some(COM_SERVER),
            (Class::ExtForged | Class::NsLabelForged | Class::Cookie2Forged, _) => false,
        };
        (!ok).then(|| format!("wrong answer to {:?} datagram from {src}: {msg}", class))
    }

    fn check_round(&mut self, offered: &[u64]) {
        for (i, &n) in offered.iter().enumerate() {
            let l = &self.lanes[i];
            let (class, spec) = (l.class, l.spec);
            let (now, before, ans_before) = (l.world.guard_stats(), l.before, l.ans_before);
            let ans = l.world.ans_queries() - ans_before;
            let nic = l.world.guard_nic_drops();
            let legit = class.is_legit();
            let landed =
                lane_counter(class, spec.mode, &now) - lane_counter(class, spec.mode, &before);
            let rl1 = now.rl1_dropped - before.rl1_dropped;
            if class == Class::Plain && !spec.open_limiters {
                self.expect(i, "rl1_dropped + answered", rl1 + landed, n);
            } else {
                self.expect(i, "datagrams in the lane's disposition", landed, n);
                self.expect(i, "rl1_dropped", rl1, 0);
            }
            // A spoofed datagram at the ANS is the failure the guard exists
            // to prevent.
            self.expect(
                i,
                "queries reaching the ANS",
                ans,
                if legit { n } else { 0 },
            );
            self.expect(
                i,
                "forwarded",
                now.forwarded - before.forwarded,
                if legit { n } else { 0 },
            );
            self.expect(
                i,
                "relayed_responses",
                now.relayed_responses - before.relayed_responses,
                if legit { n } else { 0 },
            );
            self.expect(
                i,
                "udp_datagrams",
                now.udp_datagrams - before.udp_datagrams,
                if legit { 2 * n } else { n },
            );
            self.expect(
                i,
                "disposition_total",
                now.disposition_total(),
                now.udp_datagrams,
            );
            self.expect(i, "guard NIC drops", nic, 0);
            let l = &mut self.lanes[i];
            l.before = now;
            l.ans_before += ans;
        }

        // Replies: each must answer the datagram whose id it carries, and
        // each lane must have produced exactly as many as it answered.
        let mut replies = std::mem::take(&mut self.replies);
        let mut per_lane = vec![0u64; self.lanes.len()];
        for l in &mut self.lanes {
            l.world.take_replies(&mut replies);
        }
        for reply in &replies {
            if let Some(id) = reply.payload.first_chunk::<2>() {
                per_lane[self.ring.items[usize::from(u16::from_be_bytes(*id))].lane] += 1;
            }
            if let Some(fault) = self.reply_fault(reply) {
                self.fail(1, format!("{}: {fault}", self.spec.name));
            }
        }
        replies.clear();
        self.replies = replies;
        for (i, &count) in per_lane.iter().enumerate() {
            let l = &mut self.lanes[i];
            l.replies_total += count;
            let (class, spec, total) = (l.class, l.spec, l.replies_total);
            let secs = l.world.now_secs();
            let stats = l.before;
            let answered = lane_counter(class, spec.mode, &stats);
            // One reply per answered datagram; forged cookies get none.
            let forged = class != Class::Plain && !class.is_legit();
            self.expect(
                i,
                "replies (cumulative)",
                total,
                if forged { 0 } else { answered },
            );
            if class == Class::Plain && !spec.open_limiters {
                let budget = rl1_budget(secs);
                if total > budget {
                    self.fail(
                        total - budget,
                        format!("{}: {total} cookie responses in {secs:.3} s exceed Rate-Limiter1's {budget}", self.spec.name),
                    );
                }
            }
        }
    }
}

fn a_answer(msg: &Message) -> Option<std::net::Ipv4Addr> {
    msg.answers.iter().find_map(|r| match r.rdata {
        RData::A(ip) if r.rtype == RrType::A => Some(ip),
        _ => None,
    })
}

impl Workload for GuardWorkload {
    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn round(&mut self, trace: Option<(&mut Spans, SpanId)>) -> Round {
        let spec = self.spec;
        let n = spec.round;
        // Untimed preparation: the round's packets are cloned out of the
        // ring (the guard consumes what it is handed) and the sinks get
        // room for every possible reply, so neither costs the measured
        // region an allocation.
        let mut offered = vec![0u64; self.lanes.len()];
        let pkts: Vec<(usize, Packet)> = (0..n)
            .map(|k| {
                let d = &self.ring.items[(self.cursor + k) % RING];
                offered[d.lane] += 1;
                (d.lane, d.pkt.clone())
            })
            .collect();
        for (lane, &count) in self.lanes.iter_mut().zip(&offered) {
            lane.world.reserve_replies(count as usize);
        }
        let mut samples: Vec<f64> = Vec::with_capacity(n / spec.batch + 1);

        let ns = match trace {
            None => {
                let mut pkts = pkts.into_iter();
                let started = Instant::now();
                loop {
                    let t0 = Instant::now();
                    let mut k = 0u32;
                    for (w, pkt) in pkts.by_ref().take(spec.batch) {
                        self.lanes[w].world.offer(pkt, spec.gap);
                        k += 1;
                    }
                    if k == 0 {
                        break;
                    }
                    samples.push(t0.elapsed().as_nanos() as f64 / f64::from(k) / 1e3);
                }
                self.table_bytes = self.lanes.iter().map(|l| l.world.table_bytes()).sum();
                for lane in &mut self.lanes {
                    lane.world.drain();
                }
                started.elapsed().as_nanos() as f64
            }
            Some((spans, round_span)) => {
                // One `batch` span per class run: the real guard call, then
                // the shadow pipeline replaying the same datagrams' layer
                // primitives as sibling spans.
                let mut shadow = self.shadow.take().unwrap_or_else(|| {
                    Shadow::new(
                        self.lanes
                            .iter()
                            .map(|l| (l.class, l.spec, l.factory.clone()))
                            .collect(),
                    )
                });
                let mut guard_ns = 0u64;
                let mut pkts = pkts.into_iter();
                for run in 0..n / CLASS_RUN {
                    let first = &self.ring.items[(self.cursor + run * CLASS_RUN) % RING];
                    let lane_ix = first.lane;
                    let label = disposition(self.lanes[lane_ix].class, self.lanes[lane_ix].spec);
                    let batch = spans.open("batch", label, CLASS_RUN as u32, Some(round_span));
                    let guard = spans.open("dnsguard.guard", label, CLASS_RUN as u32, Some(batch));
                    for (w, pkt) in pkts.by_ref().take(CLASS_RUN) {
                        self.lanes[w].world.offer(pkt, spec.gap);
                    }
                    let dur = spans.close(guard);
                    guard_ns += dur;
                    samples.push(dur as f64 / CLASS_RUN as f64 / 1e3);
                    let start = (self.cursor + run * CLASS_RUN) % RING;
                    shadow.replay(
                        lane_ix,
                        &self.ring.items[start..start + CLASS_RUN],
                        spec.gap,
                        spans,
                        batch,
                    );
                    spans.close(batch);
                }
                let drain = spans.open("dnsguard.guard", "drain", 0, Some(round_span));
                for lane in &mut self.lanes {
                    lane.world.drain();
                }
                guard_ns += spans.close(drain);
                self.shadow = Some(shadow);
                guard_ns as f64
            }
        };

        self.cursor = (self.cursor + n) % RING;
        self.attempted += n as u64;
        self.check_round(&offered);
        let (p50_us, p99_us) = stats::p50_p99(&mut samples);
        Round {
            ns,
            ops: n as u64,
            p50_us,
            p99_us,
        }
    }

    fn attempted(&self) -> u64 {
        self.attempted
    }

    fn failed(&self) -> u64 {
        self.failed
    }

    fn failures(&self) -> &[String] {
        &self.failures
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let (mut dgrams, mut rl1, mut fwd, mut bytes_in, mut bytes_out) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for l in &self.lanes {
            let s = l.world.guard_stats();
            // Client datagrams only: ANS responses also count as datagrams.
            dgrams += s.udp_datagrams - s.relayed_responses;
            rl1 += s.rl1_dropped;
            fwd += s.forwarded;
            let (i, o) = l.world.unverified_bytes();
            bytes_in += i;
            bytes_out += o;
        }
        let share = |x: u64| x as f64 / dgrams.max(1) as f64;
        vec![
            ("dnsguard.rl1_drop_share", share(rl1)),
            ("dnsguard.forward_share", share(fwd)),
            (
                "dnsguard.reflected_bytes_ratio",
                if bytes_in == 0 {
                    0.0
                } else {
                    bytes_out as f64 / bytes_in as f64
                },
            ),
            ("dnsguard.table_bytes", self.table_bytes as f64),
        ]
    }
}
