//! Per-disposition guard costs: homogeneous batches of one datagram class
//! through a `RemoteGuard`, timed and allocation-counted per datagram.
//!
//! Each class has a world of its own whose ANS is a stand-in that holds what
//! the guard forwards, so the three forwarding classes time the request leg
//! only (`*_forward_ns`: verify, limiter, forward-table insert, re-encode),
//! and the answers, built untimed from the held queries, are then offered
//! back as the ANS would send them to time the response leg on its own
//! (`ans_relay_ns`, averaged over the three rewrites). Together with
//! `server.answer_*_ns` the two legs make up what `legit_steady` pays.
//!
//! `rl1_drop` cannot be made perfectly homogeneous from outside: the default
//! Rate-Limiter1 admits its 10 K responses/s whatever is offered. Offered at
//! 1 M datagrams per simulated second, the guard's own simulated service time
//! paces it at about 850 K/s and 98.8 % of the batch ends at the limiter.

use crate::alloc;
use crate::ring::{Class, Ring};
use crate::stats;
use crate::workload::guard::disposition;
use crate::world::{authority, GuardSpec, World};
use bench::worlds::ZoneSel;
use dnsguard::config::SchemeMode;
use dnswire::message::Message;
use netsim::packet::Packet;
use netsim::time::SimTime;
use server::authoritative::Authority;
use std::time::Instant;

/// Datagrams per class and sweep.
const BATCH: usize = 2048;
/// Datagrams in a class's ring: four sweeps' worth.
const RING_LEN: usize = 4 * BATCH;

const fn spec(mode: SchemeMode, zone: ZoneSel, open_limiters: bool) -> GuardSpec {
    GuardSpec {
        mode,
        zone,
        open_limiters,
    }
}

/// `(class, guard, gap between datagrams in simulated µs)`.
const CLASSES: [(Class, GuardSpec, u64); 10] = [
    (Class::Plain, GuardSpec::DEFAULT, 1),
    (Class::ExtForged, GuardSpec::DEFAULT, 4),
    (Class::NsLabelForged, GuardSpec::DEFAULT, 4),
    (Class::Cookie2Forged, GuardSpec::DEFAULT, 4),
    (
        Class::Plain,
        spec(SchemeMode::DnsBased, ZoneSel::Root, true),
        10,
    ),
    (
        Class::Plain,
        spec(SchemeMode::TcpBased, ZoneSel::Foo, true),
        10,
    ),
    (
        Class::Plain,
        spec(SchemeMode::ModifiedOnly, ZoneSel::Foo, true),
        10,
    ),
    (
        Class::ExtValid,
        spec(SchemeMode::ModifiedOnly, ZoneSel::Foo, false),
        10,
    ),
    (Class::NsLabelValid, GuardSpec::DEFAULT, 10),
    (
        Class::Cookie2Valid,
        spec(SchemeMode::DnsBased, ZoneSel::Foo, false),
        10,
    ),
];

struct ClassBench {
    name: &'static str,
    class: Class,
    gap: SimTime,
    world: World,
    authority: Authority,
    ring: Ring,
    cursor: usize,
    ns: Vec<f64>,
    allocs: Vec<f64>,
    relay_ns: Vec<f64>,
    relay_allocs: Vec<f64>,
}

/// The per-class benches.
pub struct ClassBenches {
    benches: Vec<ClassBench>,
    /// Raw `(bench, is relay leg, ns per datagram)` of the current sweep.
    pending: Vec<(usize, bool, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    scratch: Vec<Packet>,
}

impl ClassBenches {
    /// Builds one world and one ring per class.
    pub fn new(seed: u64) -> ClassBenches {
        let benches = CLASSES
            .iter()
            .enumerate()
            .map(|(i, &(class, gspec, gap_us))| {
                let world = World::with_held_ans(gspec, seed.wrapping_add(i as u64));
                let ring = Ring::build_sized(&[class], &[world.cookie_factory()], seed, RING_LEN);
                ClassBench {
                    name: disposition(class, gspec),
                    class,
                    gap: SimTime::from_micros(gap_us),
                    world,
                    authority: authority(gspec.zone),
                    ring,
                    cursor: 0,
                    ns: Vec::new(),
                    allocs: Vec::new(),
                    relay_ns: Vec::new(),
                    relay_allocs: Vec::new(),
                }
            })
            .collect();
        ClassBenches {
            benches,
            pending: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// One batch per class (and its response leg).
    pub fn sweep(&mut self) {
        for i in 0..self.benches.len() {
            let b = &mut self.benches[i];
            let before = b.world.guard_stats();
            let pkts: Vec<Packet> = (0..BATCH)
                .map(|k| b.ring.items[(b.cursor + k) % RING_LEN].pkt.clone())
                .collect();
            b.cursor = (b.cursor + BATCH) % RING_LEN;
            b.world.reserve_replies(BATCH);
            drop(b.world.take_held(BATCH));

            let a0 = alloc::allocs();
            let t0 = Instant::now();
            for pkt in pkts {
                b.world.offer(pkt, b.gap);
            }
            b.world.drain();
            let ns = t0.elapsed().as_nanos() as f64;
            b.allocs.push((alloc::allocs() - a0) as f64 / BATCH as f64);
            self.pending.push((i, false, ns / BATCH as f64));

            let mut relayed = 0;
            if b.class.is_legit() {
                // The ANS's answers, built outside the timing.
                let answers: Vec<Packet> = b
                    .world
                    .take_held(0)
                    .into_iter()
                    .filter_map(|q| {
                        let query = Message::decode(&q.payload).ok()?;
                        let wire = b.authority.answer(&query).0.encode_with_limit(512).ok()?.0;
                        Some(Packet::udp(q.dst, q.src, wire))
                    })
                    .collect();
                relayed = answers.len() as u64;
                let a0 = alloc::allocs();
                let t0 = Instant::now();
                for pkt in answers {
                    b.world.offer_from_ans(pkt, b.gap);
                }
                b.world.drain();
                let ns = t0.elapsed().as_nanos() as f64;
                b.relay_allocs
                    .push((alloc::allocs() - a0) as f64 / BATCH as f64);
                self.pending.push((i, true, ns / BATCH as f64));
            }

            // Every datagram accounted for, every forward relayed, and one
            // reply per answered datagram.
            let after = b.world.guard_stats();
            self.scratch.clear();
            b.world.take_replies(&mut self.scratch);
            let handled = after.disposition_total() - before.disposition_total();
            let relays = after.relayed_responses - before.relayed_responses;
            let want_relays = if b.class.is_legit() { BATCH as u64 } else { 0 };
            self.attempted += BATCH as u64;
            if handled != BATCH as u64 + want_relays
                || relays != want_relays
                || relayed != want_relays
            {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!(
                        "class bench {}: {handled} datagrams dispositioned, {relayed} held, {relays} relayed of {BATCH}",
                        b.name
                    ));
                }
            }
        }
    }

    /// Files the last sweep's timings, host-normalised by `scale`.
    pub fn commit(&mut self, scale: f64) {
        for (i, relay, ns) in self.pending.drain(..) {
            let b = &mut self.benches[i];
            if relay { &mut b.relay_ns } else { &mut b.ns }.push(ns * scale);
        }
    }

    /// `dnsguard.<class>_ns` and `dnsguard.<class>_allocs` for the ten
    /// classes and `ans_relay`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for b in &self.benches {
            out.push((format!("dnsguard.{}_ns", b.name), stats::p25(&b.ns)));
            out.push((format!("dnsguard.{}_allocs", b.name), stats::p50(&b.allocs)));
        }
        let relays: Vec<&ClassBench> = self.benches.iter().filter(|b| b.class.is_legit()).collect();
        let mean = |f: &dyn Fn(&ClassBench) -> f64| {
            relays.iter().map(|b| f(b)).sum::<f64>() / relays.len() as f64
        };
        out.push((
            "dnsguard.ans_relay_ns".into(),
            mean(&|b| stats::p25(&b.relay_ns)),
        ));
        out.push((
            "dnsguard.ans_relay_allocs".into(),
            mean(&|b| stats::p50(&b.relay_allocs)),
        ));
        out
    }

    /// Datagrams offered.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Batches whose counters did not add up.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of the first few failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
