//! Fleet-level observability: cross-node telemetry aggregation,
//! distributed journey stitching, and fleet alert rules.
//!
//! A single guard's telemetry (metrics registry, trace ring, alert
//! engine) is strictly per-node. An anycast fleet breaks that view twice
//! over: a catchment shift strands half a journey on each site, and a
//! flood that concentrates in one catchment is invisible to every other
//! node's thresholds. [`FleetAggregator`] closes the gap without adding
//! any hot-path cost on the nodes themselves — it consumes what the
//! per-node observability layer already produces:
//!
//! * **snapshots** ([`FleetAggregator::observe_snapshot`]) — per-node
//!   `Registry::snapshot` outputs, merged order-independently: counters
//!   sum, gauges take the max, log₂ histograms merge bucket-by-bucket
//!   ([`merge_histograms`]) so fleet quantiles are computed from exact
//!   merged buckets, not averaged per-node quantiles;
//! * **drained traces** ([`FleetAggregator::observe_trace`]) — per-node
//!   event streams on the fleet's one clock, stitched
//!   into cross-node journeys ([`FleetAggregator::stitch`]) via the
//!   node-aware [`JourneyAssembler`], attributing the catchment-shift
//!   hop as `inter_site` time, each journey counted and traced once
//!   however often it is stitched;
//! * **fleet rules** ([`FleetAggregator::evaluate`]) — `fleet_spoof_surge`
//!   (global invalid-verify rate across every node), `site_rate_skew`
//!   (one site's datagram rate dwarfing another's — the asymmetric-
//!   catchment signature the Whac-A-Mole spoofing study detects by
//!   comparing anycast sites), and `node_silent` (a node stopped
//!   reporting — crash or partition), all on counter-reset-safe per-cell
//!   clamped deltas. Every threshold is a constant beside the rule that
//!   reads it; the aggregator has no settings.

use crate::journey::{JourneyAssembler, JourneyReport};
use crate::metrics::{Counter, Gauge, MetricSample, SampleValue};
use crate::trace::{Event, Value};
use crate::vocab;
use crate::Obs;
use crate::alert::{input, ActiveAlert, AlertState, AlertTransition, Input, Read, Signal, Signals};
use crate::export::{sample_json, Json};
use std::collections::{BTreeMap, BTreeSet};

/// `node_silent` fires when a registered node has not delivered a snapshot
/// for this long: more than two 50 ms rule evaluations with no report.
const SILENT_AFTER_NANOS: u64 = 120_000_000;

/// Fleet-wide invalid-verify rate (events/s, summed across nodes)
/// above which `fleet_spoof_surge` fires.
const SPOOF_INVALID_PER_SEC: f64 = 200.0;
/// `site_rate_skew` fires when the busiest site's datagram rate
/// exceeds the quietest reporting site's by more than this factor.
const SKEW_RATIO: f64 = 4.0;
/// Skew is only meaningful under load: the busiest site must exceed
/// this rate (events/s) before `site_rate_skew` can fire.
const SKEW_FLOOR_PER_SEC: f64 = 1_000.0;

/// Every metric the fleet rules read, of each node's latest snapshot.
/// `tests/telemetry_vocab.rs` holds each row to a registration site.
pub const INPUTS: &[Input] = &[
    input(None, "verify", Some(("verdict", "invalid")), Signal::Invalid, Read::Delta),
    input(Some("guard"), "udp_datagrams", None, Signal::Datagrams, Read::Delta),
];

/// Merges two `(exclusive_upper_bound, count)` bucket lists (the
/// [`crate::metrics::Histogram::buckets`] form) by adding counts at equal
/// bounds. The result is sorted by bound; merging is commutative and
/// associative by construction, so any merge order over any partition of
/// the samples yields identical buckets.
pub fn merge_histograms(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for &(bound, n) in a.iter().chain(b) {
        *merged.entry(bound).or_default() += n;
    }
    merged.into_iter().collect()
}

#[derive(Debug)]
struct NodeState {
    /// Fleet time of the last snapshot received (`None` until the first).
    last_seen_nanos: Option<u64>,
    /// Whether the node is currently considered silent (edge-tracked so
    /// the `node_silent` trace event fires once per outage).
    silent: bool,
    last_samples: Vec<MetricSample>,
}

/// Aggregates snapshots and traces from every fleet node; see the module
/// docs. Deterministic and I/O-free: time arrives as arguments, data
/// arrives through `observe_*` (the netsim fleet of `bench::fleetobs`
/// feeds it in-process). A new aggregator ([`Default`]) has no nodes
/// and is not yet attached to an observer.
#[derive(Default)]
pub struct FleetAggregator {
    nodes: Vec<NodeState>,
    /// Node-tagged events, in arrival order; sorted by time at stitch
    /// time.
    events: Vec<(u32, Event)>,
    /// The cross-node journeys already counted and traced, each by its
    /// first stage's node and time and its correlation id.
    stitched: BTreeSet<(u32, u64, u64)>,
    /// The alert state machine; its cells are keyed per (node, cell).
    alerts: AlertState,
    nodes_reporting: Gauge,
    snapshots_ingested: Counter,
    trace_events_ingested: Counter,
    stitched_journeys: Counter,
}

impl std::fmt::Debug for FleetAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetAggregator")
            .field("nodes", &self.nodes.len())
            .field("events", &self.events.len())
            .field("active", &self.alerts.active_rules())
            .finish()
    }
}

impl FleetAggregator {
    /// Wires the aggregator's own telemetry into `obs`: trace component
    /// `fleet`, per-rule `fleet.alert_fired{rule}` counters, and the
    /// ingestion metrics.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let fired =
            |rule| (rule, obs.registry.counter("fleet", "alert_fired", &[("rule", rule)]));
        self.alerts.attach(obs.tracer.component("fleet"), vocab::rules(true).map(fired));
        obs.registry.adopt_gauge("fleet", "nodes_reporting", &[], &self.nodes_reporting);
        obs.registry
            .adopt_counter("fleet", "snapshots_ingested", &[], &self.snapshots_ingested);
        obs.registry
            .adopt_counter("fleet", "trace_events_ingested", &[], &self.trace_events_ingested);
        obs.registry
            .adopt_counter("fleet", "stitched_journeys", &[], &self.stitched_journeys);
    }

    /// Registers a node and returns its index. Its events and snapshots
    /// are stamped on the fleet's clock.
    pub fn register_node(&mut self) -> u32 {
        self.nodes.push(NodeState {
            last_seen_nanos: None,
            silent: false,
            last_samples: Vec::new(),
        });
        (self.nodes.len() - 1) as u32
    }

    /// Whether node `node` was considered silent at the last
    /// [`FleetAggregator::evaluate`] (unknown nodes are not silent, they
    /// are nonexistent — `false`).
    pub fn is_node_silent(&self, node: u32) -> bool {
        self.nodes.get(node as usize).is_some_and(|n| n.silent)
    }

    /// Ingests one `Registry::snapshot` from `node`, taken at fleet time
    /// `t_nanos`. A node that delivers none ages into `node_silent` at the
    /// next [`FleetAggregator::evaluate`].
    pub fn observe_snapshot(&mut self, node: u32, t_nanos: u64, samples: Vec<MetricSample>) {
        let Some(state) = self.nodes.get_mut(node as usize) else {
            return;
        };
        state.last_seen_nanos = Some(t_nanos);
        state.last_samples = samples;
        self.snapshots_ingested.inc();
    }

    /// Ingests drained trace events from `node`.
    pub fn observe_trace(&mut self, node: u32, events: &[Event]) {
        for e in events {
            self.events.push((node, e.clone()));
            self.trace_events_ingested.inc();
        }
    }

    /// Number of buffered trace events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Stitches every buffered trace event — across nodes — into
    /// journeys. Events are merged into one fleet-clock-ordered stream and
    /// fed through the node-aware assembler. Non-consuming: the event
    /// buffer is kept so later calls (after more traces arrive) see the
    /// full history. The first call to complete a journey that spans nodes
    /// emits its `journey_stitch` trace event and bumps
    /// `fleet.stitched_journeys`; later calls report it again but count and
    /// trace it no more.
    pub fn stitch(&mut self) -> JourneyReport {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].1.t_nanos, self.events[i].0));
        let mut asm = JourneyAssembler::new();
        for &i in &order {
            let (node, ref e) = self.events[i];
            asm.observe_on(node, e);
        }
        let report = asm.finish();
        for j in report.complete.iter().filter(|j| j.spans_nodes()) {
            let first = j.stages.first().map_or((0, 0), |s| (s.node, s.t_nanos));
            if !self.stitched.insert((first.0, first.1, j.qid)) {
                continue;
            }
            self.stitched_journeys.inc();
            let a = j.attribution();
            self.alerts.trace.event(
                j.stages.last().map(|s| s.t_nanos).unwrap_or(0),
                "journey_stitch",
                &[
                    ("qid", Value::U64(j.qid)),
                    ("src", Value::Ip(j.src)),
                    ("nodes", Value::U64(j.nodes().len() as u64)),
                    ("inter_site_ns", Value::U64(a.inter_site_ns)),
                ],
            );
        }
        report
    }

    /// Merges the most recent snapshot of every node into one fleet-wide
    /// sample set, ordered by flat key: counters sum, gauges take the
    /// max, histograms merge bucket-by-bucket. The merge folds nodes in
    /// registration order, but [`merge_histograms`] and saturating sums
    /// are order-independent, so any fold order yields the same result.
    pub fn merged_snapshot(&self) -> Vec<MetricSample> {
        let mut merged: BTreeMap<String, MetricSample> = BTreeMap::new();
        for node in &self.nodes {
            for s in &node.last_samples {
                let key = s.key();
                match merged.get_mut(&key) {
                    None => {
                        merged.insert(key, s.clone());
                    }
                    Some(acc) => match (&mut acc.value, &s.value) {
                        (SampleValue::Counter(a), SampleValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (SampleValue::Gauge(a), SampleValue::Gauge(b)) => {
                            *a = (*a).max(*b);
                        }
                        (
                            SampleValue::Histogram { count, sum, buckets },
                            SampleValue::Histogram { count: c2, sum: s2, buckets: b2 },
                        ) => {
                            *count = count.saturating_add(*c2);
                            *sum = sum.saturating_add(*s2);
                            *buckets = merge_histograms(buckets, b2);
                        }
                        // Kind mismatch across nodes: keep the first seen.
                        _ => {}
                    },
                }
            }
        }
        merged.into_values().collect()
    }

    /// [`FleetAggregator::merged_snapshot`] in the same `{"metrics":[...]}`
    /// shape as `export::metrics_json`, including p50/p95/p99 recomputed
    /// from the merged buckets.
    pub fn merged_snapshot_json(&self) -> Json {
        Json::obj([("metrics", Json::Arr(self.merged_snapshot().iter().map(sample_json).collect()))])
    }

    /// Evaluates the fleet rules at fleet time `t_nanos` against every
    /// node's most recent snapshot. Like the per-node engine, the first
    /// call records baselines only; counter deltas are computed per
    /// (node, cell) and clamped to zero before summing, so a node
    /// restarting (counters jump backwards) or attaching mid-run cannot
    /// fake or mask a surge.
    pub fn evaluate(&mut self, t_nanos: u64) {
        // Phase 1: node liveness (edge-tracked per node).
        let mut silent_count = 0u64;
        let mut reporting = 0u64;
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            let age = match node.last_seen_nanos {
                Some(seen) => t_nanos.saturating_sub(seen),
                // Never reported: silent once a full window elapsed.
                None => t_nanos,
            };
            let now_silent = age > SILENT_AFTER_NANOS;
            if now_silent && !node.silent {
                self.alerts.trace.event(
                    t_nanos,
                    "node_silent",
                    &[("node", Value::U64(idx as u64)), ("age_ns", Value::U64(age))],
                );
            }
            node.silent = now_silent;
            if now_silent {
                silent_count += 1;
            } else {
                reporting += 1;
            }
        }
        self.nodes_reporting.set(reporting);

        // Phase 2: per-cell clamped deltas, summed globally and per node.
        let mut d_invalid = 0u64;
        let mut node_datagram_deltas: Vec<(usize, u64)> = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let mut sig = Signals::default();
            for s in &node.last_samples {
                for input in INPUTS.iter().filter(|i| i.reads(s.component, s.name, &s.labels)) {
                    let key = || format!("{idx}|{}", s.key());
                    sig.fold(input, &s.value, |now| self.alerts.cell_delta(key(), now));
                }
            }
            d_invalid += sig.get(Signal::Invalid);
            let d_datagrams = sig.get(Signal::Datagrams);
            if !node.silent {
                node_datagram_deltas.push((idx, d_datagrams));
            }
        }

        let Some(dt) = self.alerts.interval(t_nanos) else {
            return;
        };
        let rate = |d: u64| d as f64 * 1e9 / dt as f64;

        let spoof_rate = rate(d_invalid);
        self.alerts.set_state(
            t_nanos,
            "fleet_spoof_surge",
            spoof_rate > SPOOF_INVALID_PER_SEC,
            spoof_rate,
            SPOOF_INVALID_PER_SEC,
        );

        // Asymmetric catchment: the busiest reporting site dwarfs the
        // quietest. Needs at least two reporting sites and real load.
        let (skewed, ratio) = if node_datagram_deltas.len() >= 2 {
            let max = node_datagram_deltas.iter().map(|&(_, d)| d).max().unwrap_or(0);
            let min = node_datagram_deltas.iter().map(|&(_, d)| d).min().unwrap_or(0);
            let max_rate = rate(max);
            let ratio = max_rate / rate(min).max(1.0);
            (max_rate > SKEW_FLOOR_PER_SEC && ratio > SKEW_RATIO, ratio)
        } else {
            (false, 0.0)
        };
        self.alerts.set_state(t_nanos, "site_rate_skew", skewed, ratio, SKEW_RATIO);

        self.alerts.set_state(
            t_nanos,
            "node_silent",
            silent_count > 0,
            silent_count as f64,
            1.0,
        );
    }

    /// Currently-firing fleet alerts, in rule-name order.
    pub fn active(&self) -> Vec<ActiveAlert> {
        self.alerts.active()
    }

    /// Every fire/clear transition so far, oldest first.
    pub fn history(&self) -> &[AlertTransition] {
        self.alerts.history()
    }

    /// True when no fleet rule ever fired.
    pub fn is_silent(&self) -> bool {
        self.alerts.history().is_empty()
    }

    /// Rules that fired at least once, deduplicated, in first-fire order.
    pub fn fired_rules(&self) -> Vec<&'static str> {
        self.alerts.fired_rules()
    }

    /// The active set and transition history as one JSON object, matching
    /// the per-node engine's `alerts_json` shape.
    pub fn alerts_json(&self) -> Json {
        self.alerts.alerts_json()
    }
}

/// Registers a fresh registry's worth of samples for merge tests.
#[cfg(test)]
fn node_samples(build: impl FnOnce(&crate::metrics::Registry)) -> Vec<MetricSample> {
    let reg = crate::metrics::Registry::new();
    build(&reg);
    reg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::quantile_from_buckets;
    use crate::trace::{Level, Tracer};
    use std::net::Ipv4Addr;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn counters_sum_gauges_max_histograms_merge() {
        let mut agg = FleetAggregator::default();
        let a = agg.register_node();
        let b = agg.register_node();
        agg.observe_snapshot(
            a,
            0,
            node_samples(|r| {
                r.counter("guard", "udp_datagrams", &[]).add(10);
                r.gauge("guard", "table_bytes", &[]).set(100);
                let h = r.histogram("guard", "ans_rtt_ns", &[]);
                h.record(1_000);
                h.record(2_000);
            }),
        );
        agg.observe_snapshot(
            b,
            0,
            node_samples(|r| {
                r.counter("guard", "udp_datagrams", &[]).add(32);
                r.gauge("guard", "table_bytes", &[]).set(70);
                let h = r.histogram("guard", "ans_rtt_ns", &[]);
                h.record(1_500);
                h.record(64_000);
            }),
        );
        let merged = agg.merged_snapshot();
        let find = |name: &str| merged.iter().find(|s| s.name == name).unwrap();
        assert!(matches!(find("udp_datagrams").value, SampleValue::Counter(42)));
        assert!(matches!(find("table_bytes").value, SampleValue::Gauge(100)));
        match &find("ans_rtt_ns").value {
            SampleValue::Histogram { count, sum, buckets } => {
                assert_eq!(*count, 4);
                assert_eq!(*sum, 68_500);
                let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
                assert_eq!(total, 4);
                assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "bounds sorted");
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn one_nodes_merged_snapshot_is_its_metrics_json_byte_for_byte() {
        // Registered in flat-key order, which is the order a merge lists.
        let reg = crate::metrics::Registry::new();
        reg.histogram("guard", "ans_rtt_ns", &[]).record(1_500);
        reg.gauge("guard", "table_bytes", &[]).set(812);
        reg.counter("guard", "verify", &[("scheme", "ext"), ("verdict", "in\"valid")]).add(7);
        let samples = reg.snapshot();
        let mut agg = FleetAggregator::default();
        let node = agg.register_node();
        let json = crate::export::metrics_json(&samples).to_string();
        agg.observe_snapshot(node, 0, samples);
        assert_eq!(agg.merged_snapshot_json().to_string(), json);
    }

    #[test]
    fn merge_histograms_is_order_independent() {
        // All 6 permutations of three bucket lists produce identical
        // merges.
        let parts: [Vec<(u64, u64)>; 3] = [
            vec![(1, 3), (1024, 5)],
            vec![(2, 1), (1024, 2), (u64::MAX, 1)],
            vec![(1, 1), (4, 7)],
        ];
        let perms = [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let expect = merge_histograms(&merge_histograms(&parts[0], &parts[1]), &parts[2]);
        for p in perms {
            let got =
                merge_histograms(&merge_histograms(&parts[p[0]], &parts[p[1]]), &parts[p[2]]);
            assert_eq!(got, expect, "permutation {p:?}");
        }
        let total: u64 = expect.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn fleet_spoof_surge_sums_across_nodes() {
        // 150/s per node: below the 200/s threshold individually, over it
        // fleet-wide.
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let mut agg = FleetAggregator::default();
        agg.attach_obs(&obs);
        let a = agg.register_node();
        let b = agg.register_node();
        let mk = |n: u64| {
            node_samples(|r| {
                r.counter("guard", "verify", &[("scheme", "ns_label"), ("verdict", "invalid")])
                    .add(n);
            })
        };
        agg.observe_snapshot(a, 0, mk(0));
        agg.observe_snapshot(b, 0, mk(0));
        agg.evaluate(0);
        assert!(agg.is_silent(), "baseline");
        agg.observe_snapshot(a, SEC, mk(150));
        agg.observe_snapshot(b, SEC, mk(150));
        agg.evaluate(SEC);
        assert!(agg.active().iter().any(|x| x.rule == "fleet_spoof_surge"));
        agg.observe_snapshot(a, 2 * SEC, mk(150));
        agg.observe_snapshot(b, 2 * SEC, mk(150));
        agg.evaluate(2 * SEC);
        assert!(agg.active().is_empty(), "rates calm: clears");
        assert_eq!(agg.fired_rules(), vec!["fleet_spoof_surge"]);
        assert_eq!(
            obs.registry
                .counter("fleet", "alert_fired", &[("rule", "fleet_spoof_surge")])
                .get(),
            1
        );
    }

    #[test]
    fn node_counter_reset_does_not_mask_fleet_surge() {
        // Node A restarts mid-flood (its counter falls back to zero);
        // node B keeps flooding. The fleet rule must stay firing.
        let mut agg = FleetAggregator::default();
        let a = agg.register_node();
        let b = agg.register_node();
        let mk = |n: u64| {
            node_samples(|r| {
                r.counter("guard", "verify", &[("scheme", "ns_label"), ("verdict", "invalid")])
                    .add(n);
            })
        };
        agg.observe_snapshot(a, 0, mk(5_000));
        agg.observe_snapshot(b, 0, mk(0));
        agg.evaluate(0);
        agg.observe_snapshot(a, SEC, mk(10_000));
        agg.observe_snapshot(b, SEC, mk(1_000));
        agg.evaluate(SEC);
        assert!(agg.active().iter().any(|x| x.rule == "fleet_spoof_surge"));
        // A restarts: 10_000 → 50. B: +1_000.
        agg.observe_snapshot(a, 2 * SEC, mk(50));
        agg.observe_snapshot(b, 2 * SEC, mk(2_000));
        agg.evaluate(2 * SEC);
        assert!(
            agg.active().iter().any(|x| x.rule == "fleet_spoof_surge"),
            "reset node must not mask the other node's surge"
        );
    }

    #[test]
    fn site_rate_skew_fires_on_asymmetric_catchment_only() {
        let mut agg = FleetAggregator::default();
        let a = agg.register_node();
        let b = agg.register_node();
        let mk = |n: u64| {
            node_samples(|r| {
                r.counter("guard", "udp_datagrams", &[]).add(n);
            })
        };
        agg.observe_snapshot(a, 0, mk(0));
        agg.observe_snapshot(b, 0, mk(0));
        agg.evaluate(0);
        // Balanced load: silent.
        agg.observe_snapshot(a, SEC, mk(3_000));
        agg.observe_snapshot(b, SEC, mk(2_500));
        agg.evaluate(SEC);
        assert!(agg.is_silent(), "balanced sites stay silent");
        // Flood concentrates on A: 8000/s vs 300/s → ratio ≫ 4.
        agg.observe_snapshot(a, 2 * SEC, mk(11_000));
        agg.observe_snapshot(b, 2 * SEC, mk(2_800));
        agg.evaluate(2 * SEC);
        assert!(agg.active().iter().any(|x| x.rule == "site_rate_skew"));
        // Low absolute load never fires, however skewed.
        let mut calm = FleetAggregator::default();
        let a2 = calm.register_node();
        let b2 = calm.register_node();
        calm.observe_snapshot(a2, 0, mk(0));
        calm.observe_snapshot(b2, 0, mk(0));
        calm.evaluate(0);
        calm.observe_snapshot(a2, SEC, mk(500));
        calm.observe_snapshot(b2, SEC, mk(2));
        calm.evaluate(SEC);
        assert!(calm.is_silent(), "skew below the load floor stays silent");
    }

    #[test]
    fn node_silent_edge_triggers_on_lost_node() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let mut agg = FleetAggregator::default();
        agg.attach_obs(&obs);
        let a = agg.register_node();
        let b = agg.register_node();
        let mk = || node_samples(|r| r.counter("guard", "udp_datagrams", &[]).inc());
        agg.observe_snapshot(a, 0, mk());
        agg.observe_snapshot(b, 0, mk());
        agg.evaluate(0);
        assert!(agg.is_silent());
        // B crashes: only A keeps reporting.
        agg.observe_snapshot(a, SEC, mk());
        agg.evaluate(SEC);
        assert!(agg.active().iter().any(|x| x.rule == "node_silent"));
        let events: Vec<_> = obs.tracer.recent(64);
        assert_eq!(
            events.iter().filter(|e| e.kind == "node_silent").count(),
            1,
            "edge-triggered: one event per outage"
        );
        // Still silent at the next tick: no second edge event.
        agg.observe_snapshot(a, 2 * SEC, mk());
        agg.evaluate(2 * SEC);
        assert_eq!(obs.tracer.recent(64).iter().filter(|e| e.kind == "node_silent").count(), 1);
        // B comes back: rule clears.
        agg.observe_snapshot(a, 3 * SEC, mk());
        agg.observe_snapshot(b, 3 * SEC, mk());
        agg.evaluate(3 * SEC);
        assert!(!agg.active().iter().any(|x| x.rule == "node_silent"));
        assert_eq!(agg.fired_rules(), vec!["node_silent"]);
    }

    use proptest::prelude::*;

    proptest! {
        /// Merging N node histograms in any order yields identical bucket
        /// counts and p50/p95/p99 to recording every sample on one node.
        #[test]
        fn prop_merge_matches_single_node_recording(
            samples in proptest::collection::vec((0u64..1u64 << 48, 0usize..4), 1..300),
            seed in any::<u64>(),
        ) {
            use crate::metrics::Histogram;
            let all = Histogram::new();
            let nodes: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
            for &(v, n) in &samples {
                all.record(v);
                nodes[n].record(v);
            }
            // Fold the per-node buckets in a seed-derived order.
            let mut order: Vec<usize> = (0..4).collect();
            order.sort_by_key(|&i| seed.rotate_left(i as u32 * 16) ^ (i as u64));
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for &i in &order {
                merged = merge_histograms(&merged, &nodes[i].buckets());
            }
            let count = samples.len() as u64;
            prop_assert_eq!(&merged, &all.buckets());
            for q in [0.50, 0.95, 0.99] {
                prop_assert_eq!(
                    quantile_from_buckets(&merged, count, q),
                    quantile_from_buckets(&all.buckets(), count, q),
                    "quantile {} diverged", q
                );
            }
        }
    }

    #[test]
    fn stitch_traces_cross_node_journeys_on_the_fleet_clock() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let mut agg = FleetAggregator::default();
        agg.attach_obs(&obs);
        let a = agg.register_node();
        let b = agg.register_node();
        let src = Ipv4Addr::new(10, 0, 3, 1);
        let ta = Tracer::new(64);
        ta.set_default_level(Level::Info);
        let ga = ta.component("guard");
        let tb = Tracer::new(64);
        tb.set_default_level(Level::Info);
        let gb = tb.component("guard");
        ga.event(1_000_000, "fabricated_ns", &[("src", Value::Ip(src)), ("qid", Value::U64(1))]);
        // B verifies the challenge A issued 1 ms earlier.
        gb.event(
            2_000_000,
            "verify",
            &[
                ("scheme", Value::Str("ns_label")),
                ("verdict", Value::Str("valid")),
                ("src", Value::Ip(src)),
                ("qid", Value::U64(1)),
            ],
        );
        gb.event(2_100_000, "forward", &[("src", Value::Ip(src)), ("qid", Value::U64(1))]);
        gb.event(
            2_500_000,
            "relay",
            &[("via", Value::Str("referral")), ("src", Value::Ip(src)), ("qid", Value::U64(1))],
        );
        agg.observe_trace(a, &ta.drain().0);
        agg.observe_trace(b, &tb.drain().0);
        let report = agg.stitch();
        assert_eq!(report.complete.len(), 1);
        let j = &report.complete[0];
        assert!(j.spans_nodes());
        let attr = j.attribution();
        assert_eq!(attr.inter_site_ns, 1_000_000, "2 ms − 1 ms hop");
        assert_eq!(attr.total(), j.total_ns());
        assert_eq!(
            obs.registry.counter("fleet", "stitched_journeys", &[]).get(),
            1
        );
        let (events, _) = obs.tracer.drain();
        let stitch: Vec<_> = events.iter().filter(|e| e.kind == "journey_stitch").collect();
        assert_eq!(stitch.len(), 1);
        assert_eq!(stitch[0].field("nodes"), Some(Value::U64(2)));
        assert_eq!(stitch[0].field("inter_site_ns"), Some(Value::U64(1_000_000)));
    }

    /// One cross-node journey: challenged on node `a` at `t`, verified,
    /// forwarded and answered on node `b` 2 ms later.
    fn straddle(agg: &mut FleetAggregator, (a, b): (u32, u32), src: Ipv4Addr, qid: u64, t: u64) {
        let (ta, tb) = (Tracer::new(64), Tracer::new(64));
        ta.set_default_level(Level::Info);
        tb.set_default_level(Level::Info);
        let (ga, gb) = (ta.component("guard"), tb.component("guard"));
        // Node `b` numbers its queries on its own: the source links them.
        let src = ("src", Value::Ip(src));
        let (qid_a, qid_b) = (("qid", Value::U64(qid)), ("qid", Value::U64(qid + 100)));
        ga.event(t, "fabricated_ns", &[src, qid_a]);
        let valid = [("scheme", Value::Str("ns_label")), ("verdict", Value::Str("valid"))];
        gb.event(t + 2_000_000, "verify", &[valid[0], valid[1], src, qid_b]);
        gb.event(t + 2_100_000, "forward", &[src, qid_b]);
        gb.event(t + 2_500_000, "relay", &[("via", Value::Str("referral")), src, qid_b]);
        agg.observe_trace(a, &ta.drain().0);
        agg.observe_trace(b, &tb.drain().0);
    }

    #[test]
    fn a_journey_is_counted_and_traced_once_however_often_stitch_runs() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let mut agg = FleetAggregator::default();
        agg.attach_obs(&obs);
        let nodes = (agg.register_node(), agg.register_node());
        let stitched = || obs.registry.counter("fleet", "stitched_journeys", &[]).get();
        straddle(&mut agg, nodes, Ipv4Addr::new(10, 0, 3, 1), 1, 1_000_000);
        assert_eq!(agg.stitch().complete.len(), 1);
        assert_eq!(agg.stitch().complete.len(), 1, "stitching again reports the journey again");
        assert_eq!(stitched(), 1);
        straddle(&mut agg, nodes, Ipv4Addr::new(10, 0, 3, 2), 2, 5_000_000);
        assert_eq!(agg.stitch().complete.len(), 2, "the whole history, the new journey with it");
        assert_eq!(stitched(), 2);
        let (events, _) = obs.tracer.drain();
        let stitches = events.iter().filter(|e| e.kind == "journey_stitch");
        let qids: Vec<_> = stitches.map(|e| e.field("qid")).collect();
        assert_eq!(qids, [Some(Value::U64(1)), Some(Value::U64(2))], "one event per journey");
    }
}
