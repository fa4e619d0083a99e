//! The feedback-probing attack of section III.G: "send an attack request
//! to the ANS with a guessed y value. While the attack traffic is going on,
//! the attacker does a normal DNS query to the ANS to probe its performance
//! and see if the guessed value is correct."
//!
//! The prober alternates per-candidate bursts (spoofing the victim's
//! address at one `COOKIE2` destination) with timing probes from its own
//! real address. A correct guess loads the ANS and slows the probe;
//! Rate-Limiter2 exists precisely to erase that signal.

use dnswire::message::Message;
use dnswire::types::RrType;
use netsim::engine::{Context, Node};
use netsim::packet::{Endpoint, Packet, DNS_PORT};
use netsim::time::SimTime;
use std::net::Ipv4Addr;

/// Configuration of the prober.
#[derive(Debug, Clone)]
pub struct ProberConfig {
    /// The attacker's own (real) address, used for probes.
    pub attacker: Ipv4Addr,
    /// The victim address being spoofed in the guess bursts.
    pub victim: Ipv4Addr,
    /// Guard public address (probes go here).
    pub guard: Ipv4Addr,
    /// Guard `COOKIE2` subnet base (guess bursts go here).
    pub subnet_base: Ipv4Addr,
    /// Candidate `y` values to test.
    pub candidates: Vec<u32>,
    /// Burst rate during each candidate's window, req/s.
    pub burst_rate: f64,
    /// Length of each candidate's burst window.
    pub burst_len: SimTime,
    /// Probes sent per candidate (averaged).
    pub probes_per_candidate: u32,
}

/// Per-candidate measurement.
#[derive(Debug, Clone)]
pub struct CandidateResult {
    /// The `y` value tested.
    pub y: u32,
    /// Mean probe latency observed during this candidate's burst.
    pub mean_probe_latency: SimTime,
    /// Probes that timed out entirely.
    pub probe_timeouts: u32,
}

enum Phase {
    /// Obtain the attacker's own (legitimate) cookie NS name, so probes
    /// traverse the guard *to the ANS* and sense its load.
    Setup,
    Bursting { candidate: usize, sent: u64, started: SimTime },
    Done,
}

/// The feedback prober node.
pub struct FeedbackProber {
    config: ProberConfig,
    phase: Phase,
    probe_seq: u16,
    /// The attacker's own cookie NS name (learned in setup); queries for it
    /// are verified by the guard and forwarded to the ANS.
    probe_name: Option<dnswire::Name>,
    outstanding_probe: Option<(u16, SimTime)>,
    latencies: Vec<(usize, SimTime)>,
    timeouts: Vec<u32>,
    /// Results, filled as candidates complete.
    pub results: Vec<CandidateResult>,
}

const TAG_TICK: u64 = 1;
/// Probe-timeout tags carry the probe sequence number in the upper bits so
/// a stale timer from an already-answered probe is ignored.
const TAG_PROBE_BASE: u64 = 1 << 32;
const PROBE_TIMEOUT: SimTime = SimTime::from_millis(30);

impl FeedbackProber {
    /// Creates the prober; it starts with the first candidate at t=0.
    pub fn new(config: ProberConfig) -> Self {
        let n = config.candidates.len();
        FeedbackProber {
            config,
            phase: Phase::Setup,
            probe_seq: 0,
            probe_name: None,
            outstanding_probe: None,
            latencies: Vec::new(),
            timeouts: vec![0; n],
            results: Vec::new(),
        }
    }

    /// Whether all candidates have been measured.
    pub fn finished(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// The candidate whose probes were slowest — the attacker's best guess.
    pub fn best_guess(&self) -> Option<u32> {
        self.results
            .iter()
            .max_by_key(|r| (r.probe_timeouts, r.mean_probe_latency))
            .map(|r| r.y)
    }

    fn send_probe(&mut self, ctx: &mut Context<'_>) {
        self.probe_seq = self.probe_seq.wrapping_add(1).max(1);
        let qname = self
            .probe_name
            .clone()
            .unwrap_or_else(|| "www.foo.com".parse().expect("static"));
        let q = Message::iterative_query(self.probe_seq, qname, RrType::A);
        ctx.send(Packet::udp(
            Endpoint::new(self.config.attacker, 7000),
            Endpoint::new(self.config.guard, DNS_PORT),
            q.encode(),
        ));
        self.outstanding_probe = Some((self.probe_seq, ctx.now()));
        ctx.set_timer(PROBE_TIMEOUT, TAG_PROBE_BASE | self.probe_seq as u64);
    }

    fn finish_candidate(&mut self, ctx: &mut Context<'_>, candidate: usize) {
        let samples: Vec<SimTime> = self
            .latencies
            .iter()
            .filter(|(c, _)| *c == candidate)
            .map(|(_, l)| *l)
            .collect();
        let mean = if samples.is_empty() {
            PROBE_TIMEOUT
        } else {
            samples.iter().copied().sum::<SimTime>() / samples.len() as u64
        };
        self.results.push(CandidateResult {
            y: self.config.candidates[candidate],
            mean_probe_latency: mean,
            probe_timeouts: self.timeouts[candidate],
        });
        let next = candidate + 1;
        if next >= self.config.candidates.len() {
            self.phase = Phase::Done;
        } else {
            self.phase = Phase::Bursting {
                candidate: next,
                sent: 0,
                started: ctx.now(),
            };
            ctx.set_timer(SimTime::ZERO, TAG_TICK);
        }
    }
}

impl Node for FeedbackProber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Setup: a plain query earns the attacker its own cookie NS name.
        self.send_probe(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TAG_TICK => {
                let Phase::Bursting { candidate, sent, started } = &mut self.phase else {
                    return;
                };
                let candidate = *candidate;
                let elapsed = ctx.now().saturating_sub(*started);
                if elapsed >= self.config.burst_len {
                    self.finish_candidate(ctx, candidate);
                    return;
                }
                // Emit the due portion of the burst, spoofed as the victim.
                let due = (elapsed.as_secs_f64() * self.config.burst_rate) as u64;
                let batch = due.saturating_sub(*sent).min(500);
                *sent += batch;
                let y = self.config.candidates[candidate];
                let dst = Ipv4Addr::from(u32::from(self.config.subnet_base) + 1 + y);
                for i in 0..batch {
                    let q = Message::iterative_query(
                        (i % 65_535) as u16,
                        "www.foo.com".parse().expect("static"),
                        RrType::A,
                    );
                    ctx.send(Packet::udp(
                        Endpoint::new(self.config.victim, 6000),
                        Endpoint::new(dst, DNS_PORT),
                        q.encode(),
                    ));
                }
                ctx.set_timer(SimTime::from_micros(100), TAG_TICK);
            }
            tag if tag & TAG_PROBE_BASE != 0 => {
                let seq = (tag & 0xFFFF) as u16;
                if matches!(self.outstanding_probe, Some((s, _)) if s == seq) {
                    self.outstanding_probe = None;
                    if let Phase::Bursting { candidate, .. } = self.phase {
                        self.timeouts[candidate] += 1;
                    }
                    self.send_probe(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let Ok(msg) = Message::decode(&pkt.payload) else {
            return;
        };
        let Some((want, sent_at)) = self.outstanding_probe else {
            return;
        };
        if msg.header.id != want {
            return;
        }
        self.outstanding_probe = None;
        match self.phase {
            Phase::Setup => {
                // Learn the fabricated NS name from the guard's referral.
                if let Some(ns) = msg
                    .authorities
                    .iter()
                    .find_map(|r| match &r.rdata {
                        dnswire::RData::Ns(n) => Some(n.clone()),
                        _ => None,
                    })
                {
                    self.probe_name = Some(ns);
                    self.phase = Phase::Bursting {
                        candidate: 0,
                        sent: 0,
                        started: ctx.now(),
                    };
                    ctx.set_timer(SimTime::ZERO, TAG_TICK);
                }
                self.send_probe(ctx);
            }
            Phase::Bursting { candidate, .. } => {
                self.latencies.push((candidate, ctx.now() - sent_at));
                self.send_probe(ctx);
            }
            Phase::Done => {}
        }
    }
}
