//! Query-journey reconstruction: stitching the event ring back into
//! per-transaction causal timelines.
//!
//! The guard's telemetry is deliberately flat — one ring of [`Event`]s —
//! but every decision event now carries a stable `qid` correlation field,
//! so a transaction's chain (initial query → challenge → client retry →
//! cookie verify → forward to the ANS → relay of the reply) can be
//! reassembled offline. Three discontinuities make this nontrivial, and
//! each is bridged explicitly:
//!
//! * **the txid rewrite** — the guard re-ids queries before forwarding
//!   (`orig_txid` maps in `guard/core.rs`); the forward's `qid` is stored in
//!   the guard's forward table, so the `relay` event shares the `qid` of
//!   the `verify`/`forward` that caused it and no txid matching is needed;
//! * **the COOKIE2 destination-IP change** — the redirected retry arrives
//!   at a different server address with a fresh `qid`; the assembler links
//!   it to the journey whose previous stage was a `cookie2_redirect` relay
//!   from the same client;
//! * **the TC→TCP fallback hop** — the retry arrives over TCP through the
//!   proxy; `proxy_accept` is linked to the pending `tc_sent` challenge of
//!   the same client, and the first proxied `forward` to that client's
//!   connection continues the journey.
//!
//! Cookies are stateless by design (the server keeps *no* per-challenge
//! state — that is the paper's whole point), so challenge→retry links
//! cannot ride a server-side id; they are reconstructed per client
//! address, oldest pending challenge first, which matches the retry order
//! of a well-behaved resolver.
//!
//! [`JourneyAssembler`] consumes a drained trace; [`JourneyReport`] then
//! offers latency attribution (cookie-acquisition round trips vs guard
//! processing vs ANS service time — the paper's response-time
//! decomposition), JSONL and chrome-trace (`trace_event`) exporters,
//! per-stage registry histograms, and a rendered per-query timeline.

use crate::export::Json;
use crate::metrics::Registry;
use crate::trace::{Event, Value};
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// One step of a journey: the decision event's kind, its time, and the
/// discriminating detail (`scheme` for verifies, `via` for relays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The originating event kind (`"fabricated_ns"`, `"verify"`, ...).
    pub name: &'static str,
    /// Event time in nanoseconds.
    pub t_nanos: u64,
    /// `scheme` field for verifies, `via` for relays, `""` otherwise.
    pub detail: &'static str,
    /// The fleet node index the stage was observed on (0 in single-node
    /// assemblies).
    pub node: u32,
}

/// Where one inter-stage gap is attributed, from the gap's left stage.
fn gap_class(from: &Stage) -> &'static str {
    match from.name {
        // After a challenge or redirect the guard is waiting on the
        // client's round trip: cookie-acquisition cost.
        "fabricated_ns" | "tc_sent" | "grant" => "handshake",
        "relay" if from.detail == "cookie2_redirect" => "handshake",
        // After a forward the guard is waiting on the ANS.
        "forward" => "ans",
        // Everything else is guard-side processing.
        _ => "guard",
    }
}

/// Where the gap between two adjacent stages is attributed. A gap whose
/// endpoints sit on different fleet nodes is the catchment-shift hop —
/// time the query spent crossing sites, not in any one guard's pipeline.
fn gap_class_pair(from: &Stage, to: &Stage) -> &'static str {
    if from.node != to.node {
        "inter_site"
    } else {
        gap_class(from)
    }
}

/// End-to-end latency split by who the guard was waiting on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Client round trips spent acquiring/presenting cookies (the paper's
    /// "extra RTT" cost) plus TCP handshake time.
    pub handshake_ns: u64,
    /// Guard-side processing between arrival and forward.
    pub guard_ns: u64,
    /// ANS service time (forward → reply).
    pub ans_ns: u64,
    /// Time spent crossing sites when a catchment shift moved the client
    /// to another fleet node mid-journey (0 for single-node journeys).
    pub inter_site_ns: u64,
}

impl Attribution {
    /// Sum of the classes — equals the journey's end-to-end time.
    pub fn total(&self) -> u64 {
        self.handshake_ns + self.guard_ns + self.ans_ns + self.inter_site_ns
    }
}

/// One reconstructed client transaction.
#[derive(Debug, Clone)]
pub struct Journey {
    /// The first correlation id observed (the challenge's, when present).
    pub qid: u64,
    /// The client address the journey belongs to.
    pub src: Ipv4Addr,
    /// Stages in causal order.
    pub stages: Vec<Stage>,
    /// Whether a terminal stage (final relay or stash hit) was seen.
    pub complete: bool,
}

impl Journey {
    /// Stage names in order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name).collect()
    }

    /// Journey start time (first stage).
    pub fn start_nanos(&self) -> u64 {
        self.stages.first().map(|s| s.t_nanos).unwrap_or(0)
    }

    /// End-to-end guard-observed latency: last stage minus first.
    pub fn total_ns(&self) -> u64 {
        match (self.stages.first(), self.stages.last()) {
            (Some(a), Some(b)) => b.t_nanos - a.t_nanos,
            _ => 0,
        }
    }

    /// Consecutive inter-stage gaps (`len = stages - 1`); they sum to
    /// [`Journey::total_ns`] by construction.
    pub fn durations(&self) -> Vec<u64> {
        self.stages
            .windows(2)
            .map(|w| w[1].t_nanos - w[0].t_nanos)
            .collect()
    }

    /// Splits the end-to-end latency into handshake / guard / ANS time.
    pub fn attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for w in self.stages.windows(2) {
            let gap = w[1].t_nanos - w[0].t_nanos;
            match gap_class_pair(&w[0], &w[1]) {
                "handshake" => a.handshake_ns += gap,
                "ans" => a.ans_ns += gap,
                "inter_site" => a.inter_site_ns += gap,
                _ => a.guard_ns += gap,
            }
        }
        a
    }

    /// Distinct fleet nodes the journey touched, in first-seen order.
    pub fn nodes(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for s in &self.stages {
            if !out.contains(&s.node) {
                out.push(s.node);
            }
        }
        out
    }

    /// Whether the journey crossed fleet nodes (a stitched catchment-shift
    /// timeline).
    pub fn spans_nodes(&self) -> bool {
        self.stages.windows(2).any(|w| w[0].node != w[1].node)
    }

    /// The scheme that shaped this journey, inferred from its stages.
    pub fn scheme(&self) -> &'static str {
        let has = |k: &str| self.stages.iter().any(|s| s.name == k);
        let detail = |d: &str| self.stages.iter().any(|s| s.detail == d);
        if has("tc_sent") || has("proxy_accept") {
            "tcp"
        } else if has("stash_hit") || detail("cookie2") || detail("cookie2_redirect") {
            "cookie2"
        } else if has("grant") || detail("ext") {
            "ext"
        } else if has("fabricated_ns") || detail("ns_label") {
            "ns_label"
        } else {
            "passthrough"
        }
    }

    /// Extra client round trips this journey cost beyond an unguarded
    /// query/response: each guard→client response before the final answer
    /// is one, and a TCP handshake adds one more. Matches the paper's
    /// per-scheme expectation: NS-label and extension ≈ 1, COOKIE2
    /// redirect and TC→TCP ≈ 2, warm cache 0.
    pub fn extra_round_trips(&self) -> u32 {
        let responses = self
            .stages
            .iter()
            .filter(|s| {
                matches!(s.name, "fabricated_ns" | "tc_sent" | "grant" | "relay" | "stash_hit")
            })
            .count() as u32;
        let handshake = u32::from(self.stages.iter().any(|s| s.name == "proxy_accept"));
        responses.saturating_sub(1) + handshake
    }
}

/// Stitches drained trace events into [`Journey`]s.
///
/// Feed events in time order via [`JourneyAssembler::observe`] (or use
/// [`JourneyReport::assemble`]), then call [`JourneyAssembler::finish`].
#[derive(Debug, Default)]
pub struct JourneyAssembler {
    /// Slot arena; completed slots are taken and never reused.
    slots: Vec<Option<Journey>>,
    /// (node, correlation id) → open slot. Keyed per node because every
    /// fleet node allocates qids independently — the same qid on two sites
    /// is two different transactions.
    by_qid: HashMap<(u32, u64), usize>,
    /// Open journeys waiting on a client round trip, per client, oldest
    /// first.
    awaiting: HashMap<Ipv4Addr, VecDeque<usize>>,
    complete: Vec<Journey>,
    orphan_stages: u64,
    rejected_verifies: u64,
}

impl JourneyAssembler {
    /// An empty assembler.
    pub fn new() -> JourneyAssembler {
        JourneyAssembler::default()
    }

    fn open_slot(&mut self, node: u32, qid: u64, src: Ipv4Addr, stage: Stage) -> usize {
        let idx = self.slots.len();
        self.slots.push(Some(Journey {
            qid,
            src,
            stages: vec![stage],
            complete: false,
        }));
        self.by_qid.insert((node, qid), idx);
        idx
    }

    /// Takes the oldest open journey of `src` whose last stage satisfies
    /// `pred`, pruning slots that already completed.
    fn take_awaiting(
        &mut self,
        src: Ipv4Addr,
        pred: impl Fn(&Stage) -> bool,
    ) -> Option<usize> {
        let queue = self.awaiting.get_mut(&src)?;
        let mut i = 0;
        while i < queue.len() {
            let idx = queue[i];
            match self.slots[idx].as_ref() {
                None => {
                    queue.remove(i);
                }
                Some(j) if j.stages.last().is_some_and(&pred) => {
                    queue.remove(i);
                    return Some(idx);
                }
                Some(_) => i += 1,
            }
        }
        None
    }

    fn push_stage(&mut self, idx: usize, stage: Stage) {
        if let Some(j) = self.slots[idx].as_mut() {
            j.stages.push(stage);
        }
    }

    fn complete_slot(&mut self, idx: usize) {
        if let Some(mut j) = self.slots[idx].take() {
            j.complete = true;
            self.complete.push(j);
        }
    }

    /// Processes one trace event from a single-node trace (node 0). Events
    /// without a `qid` field, and events from components other than the
    /// guard, are ignored.
    pub fn observe(&mut self, e: &Event) {
        self.observe_on(0, e);
    }

    /// Processes one trace event observed on fleet node `node`. Traces
    /// from several nodes must be merged into one time-ordered stream
    /// (after per-node clock-offset correction) before feeding them here;
    /// per-source challenge adoption then stitches a journey across a
    /// catchment shift exactly as it stitches across a destination-IP
    /// change — the pending challenge just lives on another node.
    pub fn observe_on(&mut self, node: u32, e: &Event) {
        if e.component != "guard" {
            return;
        }
        let Some(Value::U64(qid)) = e.field("qid") else {
            return;
        };
        let src = match e.field("src") {
            Some(Value::Ip(ip)) => ip,
            _ => Ipv4Addr::UNSPECIFIED,
        };
        let detail_of = |name: &str| match e.field(name) {
            Some(Value::Str(s)) => s,
            _ => "",
        };
        match e.kind {
            // Challenges: a new journey starts, waiting on the client.
            "fabricated_ns" | "tc_sent" | "grant" => {
                let stage = Stage { name: e.kind, t_nanos: e.t_nanos, detail: "", node };
                let idx = self.open_slot(node, qid, src, stage);
                self.awaiting.entry(src).or_default().push_back(idx);
            }
            // TCP handshake completed: continues the client's pending TC
            // challenge, then waits for the proxied query.
            "proxy_accept" => {
                let stage = Stage { name: "proxy_accept", t_nanos: e.t_nanos, detail: "", node };
                let idx = match self.take_awaiting(src, |s| s.name == "tc_sent") {
                    Some(idx) => {
                        self.push_stage(idx, stage);
                        self.by_qid.insert((node, qid), idx);
                        idx
                    }
                    None => self.open_slot(node, qid, src, stage),
                };
                self.awaiting.entry(src).or_default().push_back(idx);
            }
            // A valid verify is the client's retry landing; link it to the
            // pending challenge (or redirect) it answers — possibly issued
            // by another node, when the client's catchment shifted between
            // challenge and retry. No pending challenge means a warm
            // cookie cache: a fresh journey.
            "verify" => {
                if detail_of("verdict") != "valid" {
                    self.rejected_verifies += 1;
                    return;
                }
                let scheme = detail_of("scheme");
                let stage = Stage { name: "verify", t_nanos: e.t_nanos, detail: scheme, node };
                let linked = match scheme {
                    "ns_label" => self.take_awaiting(src, |s| s.name == "fabricated_ns"),
                    "ext" => self.take_awaiting(src, |s| s.name == "grant"),
                    "cookie2" => self.take_awaiting(src, |s| {
                        s.name == "relay" && s.detail == "cookie2_redirect"
                    }),
                    _ => None,
                };
                match linked {
                    Some(idx) => {
                        self.push_stage(idx, stage);
                        self.by_qid.insert((node, qid), idx);
                    }
                    None => {
                        self.open_slot(node, qid, src, stage);
                    }
                }
            }
            // Forward to the ANS: continues the verify's journey via qid
            // (the guard threads the qid through its forward table), or the
            // proxied connection's journey by client address.
            "forward" => {
                let stage = Stage { name: "forward", t_nanos: e.t_nanos, detail: "", node };
                if let Some(&idx) = self.by_qid.get(&(node, qid)) {
                    self.push_stage(idx, stage);
                } else if let Some(idx) = self.take_awaiting(src, |s| s.name == "proxy_accept") {
                    self.push_stage(idx, stage);
                    self.by_qid.insert((node, qid), idx);
                } else {
                    self.open_slot(node, qid, src, stage);
                }
            }
            // Relay of the ANS reply: terminal, unless it is the COOKIE2
            // redirect answer — then the journey waits for the client to
            // requery the fabricated address.
            "relay" => {
                let via = detail_of("via");
                let found = self.by_qid.get(&(node, qid)).copied().filter(|&i| self.slots[i].is_some());
                match found {
                    Some(idx) => {
                        let stage = Stage { name: "relay", t_nanos: e.t_nanos, detail: via, node };
                        self.push_stage(idx, stage);
                        if via == "cookie2_redirect" {
                            self.awaiting.entry(src).or_default().push_back(idx);
                        } else {
                            self.complete_slot(idx);
                        }
                    }
                    None => self.orphan_stages += 1,
                }
            }
            // Stash hit: the COOKIE2 answer served from the guard's stash —
            // terminal.
            "stash_hit" => {
                let found = self.by_qid.get(&(node, qid)).copied().filter(|&i| self.slots[i].is_some());
                match found {
                    Some(idx) => {
                        let stage = Stage { name: "stash_hit", t_nanos: e.t_nanos, detail: "", node };
                        self.push_stage(idx, stage);
                        self.complete_slot(idx);
                    }
                    None => self.orphan_stages += 1,
                }
            }
            _ => {}
        }
    }

    /// Closes the assembler: completed journeys, still-open (incomplete)
    /// journeys, and the orphan/rejected tallies.
    pub fn finish(mut self) -> JourneyReport {
        let incomplete: Vec<Journey> = self.slots.drain(..).flatten().collect();
        JourneyReport {
            complete: self.complete,
            incomplete,
            orphan_stages: self.orphan_stages,
            rejected_verifies: self.rejected_verifies,
        }
    }
}

/// The outcome of assembling one drained trace.
#[derive(Debug, Clone)]
pub struct JourneyReport {
    /// Journeys that reached a terminal stage.
    pub complete: Vec<Journey>,
    /// Journeys still open when the trace ended (unanswered challenges,
    /// in-flight forwards).
    pub incomplete: Vec<Journey>,
    /// Terminal stages (relay / stash hit) whose correlation id matched no
    /// open journey — nonzero only when the ring dropped earlier stages.
    pub orphan_stages: u64,
    /// Invalid-verdict verifies seen (spoof noise; never journeys).
    pub rejected_verifies: u64,
}

impl JourneyReport {
    /// Assembles a full report from events in time order.
    pub fn assemble(events: &[Event]) -> JourneyReport {
        let mut asm = JourneyAssembler::new();
        for e in events {
            asm.observe(e);
        }
        asm.finish()
    }

    /// Complete journeys per client-completed transaction — the coverage
    /// figure the chaos acceptance gates on (≥ 0.99). Can exceed 1.0 when
    /// duplicated packets complete a transaction twice.
    pub fn reconstruction_ratio(&self, client_completed: u64) -> f64 {
        if client_completed == 0 {
            return if self.complete.is_empty() { 1.0 } else { f64::INFINITY };
        }
        self.complete.len() as f64 / client_completed as f64
    }

    /// Records the report into `registry`: per-scheme journey counters and
    /// per-stage-class latency histograms under component `journey`.
    pub fn record_into(&self, registry: &Registry) {
        for j in &self.complete {
            let scheme = j.scheme();
            let labels = [("scheme", scheme)];
            registry.counter("journey", "assembled", &labels).inc();
            let a = j.attribution();
            registry.histogram("journey", "total_ns", &labels).record(j.total_ns());
            registry.histogram("journey", "handshake_ns", &labels).record(a.handshake_ns);
            registry.histogram("journey", "guard_ns", &labels).record(a.guard_ns);
            registry.histogram("journey", "ans_ns", &labels).record(a.ans_ns);
            registry.histogram("journey", "inter_site_ns", &labels).record(a.inter_site_ns);
            registry
                .histogram("journey", "extra_rtt", &labels)
                .record(u64::from(j.extra_round_trips()));
        }
        registry.counter("journey", "incomplete", &[]).add(self.incomplete.len() as u64);
        registry.counter("journey", "orphan_stages", &[]).add(self.orphan_stages);
        registry
            .counter("journey", "rejected_verifies", &[])
            .add(self.rejected_verifies);
    }

    /// Complete journeys in the chrome `trace_event` format: one `"X"`
    /// span per journey (tid = qid) plus one nested `"X"` span per
    /// inter-stage gap, categorised by attribution class. Load the rendered
    /// document in `chrome://tracing` / Perfetto.
    pub fn chrome_trace_json(&self) -> Json {
        let span = |name: String, cat: &str, ts_nanos: u64, dur_nanos: u64, qid: u64, args: Option<Json>| {
            let mut members = vec![
                ("name", name.into()),
                ("cat", cat.into()),
                ("ph", "X".into()),
                ("ts", Json::fixed(ts_nanos as f64 / 1_000.0, 3)),
                ("dur", Json::fixed(dur_nanos as f64 / 1_000.0, 3)),
                ("pid", 1u64.into()),
                ("tid", qid.into()),
            ];
            members.extend(args.map(|args| ("args", args)));
            Json::obj(members)
        };
        let mut spans = Vec::new();
        for j in &self.complete {
            let name = format!("{} qid={}", j.scheme(), j.qid);
            let args = Json::obj([("src", j.src.to_string().into()), ("extra_rtt", j.extra_round_trips().into())]);
            spans.push(span(name, "journey", j.start_nanos(), j.total_ns(), j.qid, Some(args)));
            for w in j.stages.windows(2) {
                spans.push(span(
                    format!("{}\u{2192}{}", w[0].name, w[1].name),
                    gap_class_pair(&w[0], &w[1]),
                    w[0].t_nanos,
                    w[1].t_nanos - w[0].t_nanos,
                    j.qid,
                    None,
                ));
            }
        }
        Json::obj([("traceEvents", Json::Arr(spans)), ("displayTimeUnit", "ms".into())])
    }
}

/// Renders one journey as a human-readable timeline (the quickstart's
/// per-query view).
pub fn render_timeline(j: &Journey) -> String {
    let a = j.attribution();
    let us = |ns: u64| ns as f64 / 1_000.0;
    let inter = if a.inter_site_ns > 0 {
        format!(", inter-site {:.1}us", us(a.inter_site_ns))
    } else {
        String::new()
    };
    let mut out = format!(
        "journey qid={} scheme={} src={} {} total={:.1}us \
         (handshake {:.1}us, guard {:.1}us, ans {:.1}us{inter}, {} extra RTT)\n",
        j.qid,
        j.scheme(),
        j.src,
        if j.complete { "complete" } else { "incomplete" },
        us(j.total_ns()),
        us(a.handshake_ns),
        us(a.guard_ns),
        us(a.ans_ns),
        j.extra_round_trips(),
    );
    let t0 = j.start_nanos();
    for (i, s) in j.stages.iter().enumerate() {
        let label = if s.detail.is_empty() {
            s.name.to_string()
        } else {
            format!("{} ({})", s.name, s.detail)
        };
        let note = if i == 0 {
            String::new()
        } else {
            let prev = &j.stages[i - 1];
            format!("  [+{:.1}us {}]", us(s.t_nanos - prev.t_nanos), gap_class_pair(prev, s))
        };
        let node = if s.node != 0 { format!(" @node{}", s.node) } else { String::new() };
        out.push_str(&format!("  {:>10.1}us  {label}{node}{note}\n", us(s.t_nanos - t0)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Level, Tracer};

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    fn tracer() -> (Tracer, crate::trace::ComponentTracer) {
        let t = Tracer::new(256);
        t.set_default_level(Level::Info);
        let c = t.component("guard");
        (t, c)
    }

    fn qid(v: u64) -> (&'static str, Value) {
        ("qid", Value::U64(v))
    }

    fn src() -> (&'static str, Value) {
        ("src", Value::Ip(SRC))
    }

    #[test]
    fn ns_label_chain_stitches_across_challenge() {
        let (tracer, g) = tracer();
        g.event(1_000, "fabricated_ns", &[src(), qid(1)]);
        g.event(
            401_000,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")), src(), qid(2)],
        );
        g.event(402_000, "forward", &[src(), qid(2)]);
        g.event(802_000, "relay", &[("via", Value::Str("referral")), src(), qid(2)]);
        let report = JourneyReport::assemble(&tracer.drain().0);
        assert_eq!(report.complete.len(), 1);
        assert_eq!(report.incomplete.len(), 0);
        assert_eq!(report.orphan_stages, 0);
        let j = &report.complete[0];
        assert_eq!(j.stage_names(), vec!["fabricated_ns", "verify", "forward", "relay"]);
        assert_eq!(j.scheme(), "ns_label");
        assert_eq!(j.extra_round_trips(), 1);
        let a = j.attribution();
        assert_eq!(a.handshake_ns, 400_000);
        assert_eq!(a.guard_ns, 1_000);
        assert_eq!(a.ans_ns, 400_000);
        assert_eq!(a.total(), j.total_ns(), "attribution sums to end-to-end");
    }

    #[test]
    fn cookie2_chain_stitches_across_destination_change() {
        let (tracer, g) = tracer();
        g.event(0, "fabricated_ns", &[src(), qid(1)]);
        g.event(
            400,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")), src(), qid(2)],
        );
        g.event(410, "forward", &[src(), qid(2)]);
        g.event(800, "relay", &[("via", Value::Str("cookie2_redirect")), src(), qid(2)]);
        // The retry lands on the fabricated COOKIE2 address: new qid.
        g.event(
            1_200,
            "verify",
            &[("scheme", Value::Str("cookie2")), ("verdict", Value::Str("valid")), src(), qid(3)],
        );
        g.event(1_210, "stash_hit", &[src(), qid(3)]);
        let report = JourneyReport::assemble(&tracer.drain().0);
        assert_eq!(report.complete.len(), 1, "one journey despite three qids");
        let j = &report.complete[0];
        assert_eq!(
            j.stage_names(),
            vec!["fabricated_ns", "verify", "forward", "relay", "verify", "stash_hit"]
        );
        assert_eq!(j.scheme(), "cookie2");
        assert_eq!(j.extra_round_trips(), 2);
        assert_eq!(j.attribution().total(), j.total_ns());
    }

    #[test]
    fn tcp_chain_stitches_across_fallback_hop() {
        let (tracer, g) = tracer();
        g.event(0, "tc_sent", &[src(), qid(1)]);
        g.event(900, "proxy_accept", &[src(), qid(2)]);
        g.event(1_300, "forward", &[src(), qid(3)]);
        g.event(1_700, "relay", &[("via", Value::Str("tcp")), src(), qid(3)]);
        let report = JourneyReport::assemble(&tracer.drain().0);
        assert_eq!(report.complete.len(), 1);
        let j = &report.complete[0];
        assert_eq!(j.stage_names(), vec!["tc_sent", "proxy_accept", "forward", "relay"]);
        assert_eq!(j.scheme(), "tcp");
        assert_eq!(j.extra_round_trips(), 2, "TC response plus TCP handshake");
    }

    #[test]
    fn warm_cache_journey_and_invalid_verify() {
        let (tracer, g) = tracer();
        // Warm cache: verify with no pending challenge.
        g.event(
            10,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")), src(), qid(5)],
        );
        g.event(20, "forward", &[src(), qid(5)]);
        g.event(400, "relay", &[("via", Value::Str("referral")), src(), qid(5)]);
        // Spoof noise.
        g.event(
            50,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("invalid")), src(), qid(6)],
        );
        let report = JourneyReport::assemble(&tracer.drain().0);
        assert_eq!(report.complete.len(), 1);
        assert_eq!(report.complete[0].extra_round_trips(), 0, "no challenge: warm path");
        assert_eq!(report.rejected_verifies, 1);
    }

    #[test]
    fn relay_without_context_is_an_orphan() {
        let (tracer, g) = tracer();
        g.event(5, "relay", &[("via", Value::Str("referral")), src(), qid(77)]);
        let report = JourneyReport::assemble(&tracer.drain().0);
        assert_eq!(report.orphan_stages, 1);
        assert!(report.complete.is_empty());
    }

    #[test]
    fn concurrent_clients_do_not_cross_link() {
        let (tracer, g) = tracer();
        let other = Ipv4Addr::new(10, 0, 0, 10);
        g.event(0, "fabricated_ns", &[("src", Value::Ip(SRC)), qid(1)]);
        g.event(10, "fabricated_ns", &[("src", Value::Ip(other)), qid(2)]);
        g.event(
            400,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")),
              ("src", Value::Ip(other)), qid(3)],
        );
        let report = JourneyReport::assemble(&tracer.drain().0);
        assert_eq!(report.incomplete.len(), 2);
        let linked = report.incomplete.iter().find(|j| j.src == other).unwrap();
        assert_eq!(linked.stage_names(), vec!["fabricated_ns", "verify"]);
        let unlinked = report.incomplete.iter().find(|j| j.src == SRC).unwrap();
        assert_eq!(unlinked.stage_names(), vec!["fabricated_ns"], "stranger's retry not taken");
    }

    #[test]
    fn cross_node_stitch_attributes_inter_site_gap() {
        // Challenge on node 0, retry landing on node 1 after a catchment
        // shift; same qid value on both nodes must not collide.
        let (tracer_a, a) = tracer();
        let (tracer_b, b) = tracer();
        a.event(1_000, "fabricated_ns", &[src(), qid(7)]);
        b.event(
            501_000,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")), src(), qid(7)],
        );
        b.event(502_000, "forward", &[src(), qid(7)]);
        b.event(902_000, "relay", &[("via", Value::Str("referral")), src(), qid(7)]);
        let mut asm = JourneyAssembler::new();
        let mut merged: Vec<(u32, Event)> = Vec::new();
        merged.extend(tracer_a.drain().0.into_iter().map(|e| (0u32, e)));
        merged.extend(tracer_b.drain().0.into_iter().map(|e| (1u32, e)));
        merged.sort_by_key(|(_, e)| e.t_nanos);
        for (node, e) in &merged {
            asm.observe_on(*node, e);
        }
        let report = asm.finish();
        assert_eq!(report.complete.len(), 1, "one journey across two nodes");
        let j = &report.complete[0];
        assert!(j.spans_nodes());
        assert_eq!(j.nodes(), vec![0, 1]);
        assert_eq!(j.stage_names(), vec!["fabricated_ns", "verify", "forward", "relay"]);
        let attr = j.attribution();
        assert_eq!(attr.inter_site_ns, 500_000, "challenge→shifted retry is the hop");
        assert_eq!(attr.handshake_ns, 0, "cross-node gap reclassified off handshake");
        assert_eq!(attr.guard_ns, 1_000);
        assert_eq!(attr.ans_ns, 400_000);
        assert_eq!(attr.total(), j.total_ns(), "attribution still sums exactly");
    }

    #[test]
    fn same_qid_on_two_nodes_does_not_collide() {
        let (tracer_a, a) = tracer();
        let (tracer_b, b) = tracer();
        let other = Ipv4Addr::new(10, 0, 0, 40);
        // Two independent warm verifies, one per node, same qid value.
        a.event(
            10,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")), src(), qid(1)],
        );
        a.event(20, "forward", &[src(), qid(1)]);
        b.event(
            15,
            "verify",
            &[("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid")),
              ("src", Value::Ip(other)), qid(1)],
        );
        b.event(25, "forward", &[("src", Value::Ip(other)), qid(1)]);
        a.event(400, "relay", &[("via", Value::Str("referral")), src(), qid(1)]);
        b.event(450, "relay", &[("via", Value::Str("referral")), ("src", Value::Ip(other)), qid(1)]);
        let mut asm = JourneyAssembler::new();
        let mut merged: Vec<(u32, Event)> = Vec::new();
        merged.extend(tracer_a.drain().0.into_iter().map(|e| (0u32, e)));
        merged.extend(tracer_b.drain().0.into_iter().map(|e| (1u32, e)));
        merged.sort_by_key(|(_, e)| e.t_nanos);
        for (node, e) in &merged {
            asm.observe_on(*node, e);
        }
        let report = asm.finish();
        assert_eq!(report.complete.len(), 2, "two distinct journeys");
        assert_eq!(report.orphan_stages, 0);
        assert!(report.complete.iter().all(|j| !j.spans_nodes()));
    }

    #[test]
    fn exports_are_valid_json() {
        let (tracer, g) = tracer();
        g.event(0, "grant", &[src(), qid(1)]);
        g.event(
            400,
            "verify",
            &[("scheme", Value::Str("ext")), ("verdict", Value::Str("valid")), src(), qid(2)],
        );
        g.event(410, "forward", &[src(), qid(2)]);
        g.event(800, "relay", &[("via", Value::Str("passthrough")), src(), qid(2)]);
        let report = JourneyReport::assemble(&tracer.drain().0);
        let chrome = report.chrome_trace_json().to_string();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        let reg = Registry::new();
        report.record_into(&reg);
        let snap = reg.snapshot();
        assert!(snap.iter().any(|s| s.component == "journey" && s.name == "assembled"));
        let rendered = render_timeline(&report.complete[0]);
        assert!(rendered.contains("scheme=ext"));
        assert!(rendered.contains("grant"));
    }
}
