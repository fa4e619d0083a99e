//! Fleet telemetry collector: polls every node's [`TelemetryServer`]
//! endpoint and feeds an [`obs::fleet::FleetAggregator`].
//!
//! Each poll issues two commands per node over one TCP connection —
//! `snapshot` (non-consuming metrics read) and `drain_traces` (the
//! consuming, atomic trace read). The replies are this workspace's own
//! wire formats, read back by the module that writes them
//! ([`obs::export::parse_metrics`], [`obs::export::parse_event`]); only the
//! `drain_traces` envelope is the telemetry server's and is opened here.
//!
//! Failure handling is deliberately lossy-but-safe:
//!
//! * a node that refuses the connection, times out, or truncates a reply
//!   simply contributes nothing this round — its `last_seen` age keeps
//!   growing and [`FleetAggregator::evaluate`] edges it into `node_silent`;
//! * replies are read through a buffered line reader, so a snapshot split
//!   across many TCP segments (or coalesced with the trace reply) parses
//!   identically;
//! * an unparseable reply is dropped whole (counted, never partially
//!   ingested), so a half-written line cannot corrupt the merged view.
//!
//! [`TelemetryServer`]: crate::telemetry::TelemetryServer

use obs::export::{parse_event, parse_json, parse_metrics, Json};
use obs::fleet::FleetAggregator;
use obs::metrics::Counter;
use obs::trace::Event;
use obs::Obs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-connection budget: connect and per-read timeout. Nodes are on
/// loopback (or a LAN hop) — anything slower than this is "silent".
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Opens one `drain_traces` reply (`{"events":[...],"dropped":N}`) into
/// offset-uncorrected events plus the node's drop count. `None` if the
/// envelope is malformed; an event [`parse_event`] does not take (a
/// component or kind outside `obs::vocab`) is skipped: it could never match
/// a journey or an alert rule.
pub fn parse_drain_reply(reply: &str) -> Option<(Vec<Event>, u64)> {
    let doc = parse_json(reply).ok()?;
    let dropped = doc.get("dropped")?.as_u64()?;
    let Json::Arr(raw) = doc.get("events")? else {
        return None;
    };
    Some((raw.iter().filter_map(parse_event).collect(), dropped))
}

/// Polls a fleet of [`TelemetryServer`] endpoints and feeds a
/// [`FleetAggregator`]. A new collector ([`Default`]) has no nodes; add them
/// with [`FleetCollector::add_node`].
///
/// [`TelemetryServer`]: crate::telemetry::TelemetryServer
#[derive(Default)]
pub struct FleetCollector {
    agg: FleetAggregator,
    endpoints: Vec<SocketAddr>,
    polls: Counter,
    poll_failures: Counter,
    parse_failures: Counter,
}

impl FleetCollector {
    /// Adopts the aggregator's and the collector's own metrics/trace into
    /// `obs`.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.agg.attach_obs(obs);
        obs.registry.adopt_counter("fleet", "polls", &[], &self.polls);
        obs.registry
            .adopt_counter("fleet", "poll_failures", &[], &self.poll_failures);
        obs.registry
            .adopt_counter("fleet", "parse_failures", &[], &self.parse_failures);
    }

    /// Registers a node's telemetry endpoint. `offset_nanos` is the
    /// correction *added* to the node's timestamps to express them on the
    /// fleet clock (a node whose clock runs 7 ms ahead registers −7 ms).
    pub fn add_node(&mut self, addr: SocketAddr, offset_nanos: i64) -> u32 {
        let id = self.agg.register_node(offset_nanos);
        self.endpoints.push(addr);
        id
    }

    /// Polls every node once (snapshot + atomic trace drain) and ingests
    /// whatever arrived intact. `t_nanos` is the fleet-clock poll time
    /// stamped on the snapshots. Returns how many nodes answered with a
    /// parseable snapshot; nodes that failed contribute nothing and age
    /// toward `node_silent`.
    pub fn poll(&mut self, t_nanos: u64) -> usize {
        let mut answered = 0;
        for (idx, addr) in self.endpoints.iter().enumerate() {
            self.polls.inc();
            let (snap_line, drain_line) = match fetch(*addr) {
                Ok(lines) => lines,
                Err(_) => {
                    self.poll_failures.inc();
                    continue;
                }
            };
            match parse_metrics(&snap_line) {
                Some(samples) => {
                    self.agg.observe_snapshot(idx as u32, t_nanos, samples);
                    answered += 1;
                }
                None => self.parse_failures.inc(),
            }
            match parse_drain_reply(&drain_line) {
                Some((events, _dropped)) => self.agg.observe_trace(idx as u32, &events),
                None => self.parse_failures.inc(),
            }
        }
        answered
    }

    /// [`FleetCollector::poll`] followed by a rule evaluation at the same
    /// fleet time. Returns how many nodes answered.
    pub fn poll_and_evaluate(&mut self, t_nanos: u64) -> usize {
        let answered = self.poll(t_nanos);
        self.agg.evaluate(t_nanos);
        answered
    }

    /// The aggregator (merged snapshots, stitching, alert state).
    pub fn aggregator(&self) -> &FleetAggregator {
        &self.agg
    }
}

/// One polling round-trip: both commands on one connection, one reply line
/// each. Any IO error (refused, timeout, early close) fails the whole
/// round — partial data is never returned.
fn fetch(addr: SocketAddr) -> std::io::Result<(String, String)> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(b"snapshot\ndrain_traces\n")?;
    writer.flush()?;
    let mut snap = String::new();
    reader.read_line(&mut snap)?;
    let mut drain = String::new();
    reader.read_line(&mut drain)?;
    if snap.is_empty() || drain.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "telemetry reply truncated",
        ));
    }
    Ok((snap, drain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryServer;
    use obs::alert::{AlertConfig, AlertEngine};
    use obs::export::{event_json, metrics_json, parse_metrics as parse_snapshot_reply};
    use obs::metrics::SampleValue;
    use obs::trace::{Level, Value};
    use std::net::{Ipv4Addr, TcpListener};
    use std::time::Duration;

    #[test]
    fn snapshot_reply_round_trips_all_metric_kinds() {
        let obs = Obs::new();
        obs.registry
            .counter("guard", "verify", &[("verdict", "invalid")])
            .add(41);
        obs.registry.gauge("guard", "amp_milli", &[]).set(900);
        let h = obs.registry.histogram("guard", "latency_ns", &[]);
        h.record(0);
        h.record(1_000);
        h.record(1_000_000);
        let json = metrics_json(&obs.registry.snapshot()).to_string();
        let parsed = parse_snapshot_reply(&json).expect("round trip");
        assert_eq!(parsed.len(), 3);
        let find = |name: &str| parsed.iter().find(|s| s.name == name).unwrap();
        assert_eq!(find("verify").value, SampleValue::Counter(41));
        assert_eq!(
            find("verify").labels,
            vec![("verdict".to_string(), "invalid".to_string())]
        );
        assert_eq!(find("amp_milli").value, SampleValue::Gauge(900));
        match &find("latency_ns").value {
            SampleValue::Histogram { count, sum, buckets } => {
                assert_eq!(*count, 3);
                assert_eq!(*sum, 1_001_000);
                assert!(!buckets.is_empty());
                let total: u64 = buckets.iter().map(|(_, n)| n).sum();
                assert_eq!(total, 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn drain_reply_round_trips_events_and_drops_foreign_strings() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let t = obs.tracer.component("guard");
        t.event(
            5_000,
            "verify",
            &[
                ("src", Value::Ip(Ipv4Addr::new(10, 0, 3, 1))),
                ("qid", Value::U64(77)),
                ("verdict", Value::Str("valid")),
                ("scheme", Value::Bool(true)),
            ],
        );
        let (events, _) = obs.tracer.drain();
        let reply = format!("{{\"events\":[{}],\"dropped\":2}}", event_json(&events[0]));
        let (parsed, dropped) = parse_drain_reply(&reply).expect("round trip");
        assert_eq!(dropped, 2);
        assert_eq!(parsed.len(), 1);
        let e = &parsed[0];
        assert_eq!(e.t_nanos, 5_000);
        assert_eq!(e.component, "guard");
        assert_eq!(e.kind, "verify");
        assert_eq!(e.field("src"), Some(Value::Ip(Ipv4Addr::new(10, 0, 3, 1))));
        assert_eq!(e.field("qid"), Some(Value::U64(77)));
        assert_eq!(e.field("verdict"), Some(Value::Str("valid")));
        assert_eq!(e.field("scheme"), Some(Value::Bool(true)));

        // A reply from something that is not our guard: unknown kind means
        // the event is skipped, not mangled into a lookalike.
        let foreign =
            "{\"events\":[{\"t\":1,\"component\":\"guard\",\"kind\":\"exfiltrate\",\"fields\":{}}],\"dropped\":0}";
        let (parsed, _) = parse_drain_reply(foreign).unwrap();
        assert!(parsed.is_empty());

        // Structurally broken JSON rejects the whole reply.
        assert!(parse_drain_reply("{\"events\":[{\"t\":1").is_none());
        assert!(parse_snapshot_reply("{\"metrics\":[{]}").is_none());
    }

    #[test]
    fn collector_merges_two_live_nodes_and_ages_a_dead_one_into_silence() {
        // Two live nodes, each with its own Obs and telemetry endpoint.
        let mk_node = |invalids: u64| {
            let obs = Obs::new();
            obs.tracer.set_default_level(Level::Info);
            let engine = AlertEngine::new(AlertConfig::default());
            let server =
                TelemetryServer::spawn(&obs, engine, Duration::from_millis(250)).unwrap();
            obs.registry
                .counter("guard", "verify", &[("verdict", "invalid")])
                .add(invalids);
            obs.tracer.component("guard").event(
                1_000,
                "rl_drop",
                &[("limiter", Value::Str("rl1"))],
            );
            (obs, server)
        };
        let (_obs_a, server_a) = mk_node(30);
        let (_obs_b, server_b) = mk_node(12);

        // A third endpoint that is already gone: bind, grab the addr, drop.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };

        let fleet_obs = Obs::new();
        fleet_obs.tracer.set_default_level(Level::Info);
        let mut collector = FleetCollector::default();
        collector.attach_obs(&fleet_obs);
        collector.add_node(server_a.addr(), 0);
        collector.add_node(server_b.addr(), 0);
        collector.add_node(dead_addr, 0);

        assert_eq!(collector.poll_and_evaluate(10_000_000), 2);
        // Baseline pass: counters merged (sum), traces ingested.
        let merged = collector.aggregator().merged_snapshot();
        let verify = merged
            .iter()
            .find(|s| s.name == "verify")
            .expect("merged verify cell");
        assert_eq!(verify.value, SampleValue::Counter(42));
        assert_eq!(collector.aggregator().event_count(), 2);

        // The traces were *drained*: a second poll brings no duplicates.
        assert_eq!(collector.poll_and_evaluate(160_000_000), 2);
        assert_eq!(collector.aggregator().event_count(), 2);

        // The dead node never reported and the silent window has elapsed.
        assert!(collector.aggregator().is_node_silent(2));
        assert!(collector
            .aggregator()
            .fired_rules()
            .contains(&"node_silent"));
        // Collector bookkeeping: 6 polls, 2 failed (the dead node).
        assert_eq!(collector.polls.get(), 6);
        assert_eq!(collector.poll_failures.get(), 2);
        assert_eq!(collector.parse_failures.get(), 0);

        server_a.shutdown();
        server_b.shutdown();
    }
}
