//! The metric tables (the source `BENCHMARK.json` is checked against) and
//! the reduction of samples, spans and layer results to named values.

use crate::json::Value;
use crate::layers::LayerReport;
use crate::run::Samples;
use crate::spans::{SpanId, Spans};
use crate::stats;
use std::collections::BTreeMap;

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the share
/// of the parent's median by which the metric may worsen before `compare`
/// (and the driver) call it a regression.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The end-to-end metrics, printed for every workload with `--trace 0`.
/// All times are host-normalised (see [`crate::probe`]).
///
/// The 99th percentile of the per-operation samples is *not* among them:
/// at the 60 µs granularity of a replay batch it mostly measures what a
/// guest timer tick costs on the day (it spread 5–17 % between runs where
/// the median spread 2–9 %), so it is reported per layer, without a bound,
/// as `run.op_p99_us`.
pub const END_TO_END: [EndToEnd; 3] = [
    // Operations per second in the lower-quartile round: datagrams through
    // the guard, simulated packets delivered, or loopback queries answered.
    ("throughput_per_s", "1/s", "higher", 0.20),
    // Median time per operation (per query on loopback, per small batch
    // elsewhere), lower quartile over rounds.
    ("op_p50_us", "us", "lower", 0.25),
    // Median of three set-ups: worlds, ring, warm-up.
    ("setup_s", "s", "lower", 0.25),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer metrics, printed for every workload with `--trace 1`. The
/// layer benches are the same whatever the workload; the `span.*`,
/// `noise.*`, share and residual figures describe the workload that ran
/// (and read 0 where a workload has no such thing).
pub const PER_LAYER: [PerLayer; 78] = [
    ("dnswire.decode_query_ns", "ns", "lower"),
    ("dnswire.decode_ext_query_ns", "ns", "lower"),
    ("dnswire.decode_referral_ns", "ns", "lower"),
    ("dnswire.allocs_per_decode", "count", "lower"),
    ("dnswire.encode_query_ns", "ns", "lower"),
    ("dnswire.encode_referral_ns", "ns", "lower"),
    ("dnswire.encode_grant_ns", "ns", "lower"),
    ("dnswire.allocs_per_encode", "count", "lower"),
    ("guardhash.md5_80B_ns", "ns", "lower"),
    ("guardhash.siphash_ns", "ns", "lower"),
    ("guardhash.generate_md5_ns", "ns", "lower"),
    ("guardhash.verify_md5_ns", "ns", "lower"),
    ("guardhash.generate_sip_ns", "ns", "lower"),
    ("guardhash.verify_sip_ns", "ns", "lower"),
    ("guardhash.verify_ns_suffix_ns", "ns", "lower"),
    ("dnsguard.rl_admit_hot_ns", "ns", "lower"),
    ("dnsguard.rl_admit_spray_ns", "ns", "lower"),
    ("dnsguard.classify_ns", "ns", "lower"),
    ("dnsguard.rl1_drop_ns", "ns", "lower"),
    ("dnsguard.rl1_drop_allocs", "count", "lower"),
    ("dnsguard.ext_invalid_ns", "ns", "lower"),
    ("dnsguard.ext_invalid_allocs", "count", "lower"),
    ("dnsguard.ns_label_invalid_ns", "ns", "lower"),
    ("dnsguard.ns_label_invalid_allocs", "count", "lower"),
    ("dnsguard.cookie2_invalid_ns", "ns", "lower"),
    ("dnsguard.cookie2_invalid_allocs", "count", "lower"),
    ("dnsguard.fabricated_ns_ns", "ns", "lower"),
    ("dnsguard.fabricated_ns_allocs", "count", "lower"),
    ("dnsguard.tc_ns", "ns", "lower"),
    ("dnsguard.tc_allocs", "count", "lower"),
    ("dnsguard.grant_ns", "ns", "lower"),
    ("dnsguard.grant_allocs", "count", "lower"),
    ("dnsguard.ext_forward_ns", "ns", "lower"),
    ("dnsguard.ext_forward_allocs", "count", "lower"),
    ("dnsguard.ns_label_forward_ns", "ns", "lower"),
    ("dnsguard.ns_label_forward_allocs", "count", "lower"),
    ("dnsguard.cookie2_forward_ns", "ns", "lower"),
    ("dnsguard.cookie2_forward_allocs", "count", "lower"),
    ("dnsguard.ans_relay_ns", "ns", "lower"),
    ("dnsguard.ans_relay_allocs", "count", "lower"),
    ("dnsguard.residual_ns", "ns", "lower"),
    ("dnsguard.residual_share", "share", "lower"),
    ("dnsguard.table_bytes", "bytes", "lower"),
    ("dnsguard.rl1_drop_share", "share", "higher"),
    ("dnsguard.forward_share", "share", "higher"),
    ("dnsguard.reflected_bytes_ratio", "ratio", "lower"),
    ("netsim.dispatch_ns", "ns", "lower"),
    ("netsim.timer_ns", "ns", "lower"),
    ("netsim.token_bucket_take_ns", "ns", "lower"),
    ("netsim.wall_per_sim_s", "ratio", "lower"),
    ("server.answer_terminal_ns", "ns", "lower"),
    ("server.answer_referral_ns", "ns", "lower"),
    ("obs.counter_inc_ns", "ns", "lower"),
    ("obs.trace_event_off_ns", "ns", "lower"),
    ("obs.trace_event_on_ns", "ns", "lower"),
    ("obs.sketch_observe_ns", "ns", "lower"),
    ("runtime.udp_echo_rtt_us", "us", "lower"),
    ("runtime.ans_direct_rtt_us", "us", "lower"),
    ("runtime.guard_added_us", "us", "lower"),
    ("runtime.grant_exchange_us", "us", "lower"),
    ("span.guard_ns", "ns", "lower"),
    ("span.netsim_dispatch_ns", "ns", "lower"),
    ("span.dnswire_decode_ns", "ns", "lower"),
    ("span.guardhash_ns", "ns", "lower"),
    ("span.rl_admit_ns", "ns", "lower"),
    ("span.classify_ns", "ns", "lower"),
    ("span.server_answer_ns", "ns", "lower"),
    ("span.dnswire_encode_ns", "ns", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.rounds", "count", "higher"),
    ("noise.p50_over_p25", "ratio", "lower"),
    ("noise.quiet_share", "share", "higher"),
    ("host.probe_ratio", "ratio", "lower"),
    ("raw.throughput_per_s", "1/s", "higher"),
    ("raw.op_p50_us", "us", "lower"),
    ("raw.op_p99_us", "us", "lower"),
    ("run.rounds", "count", "higher"),
    ("run.op_p99_us", "us", "lower"),
];

/// Span name → the `span.*` metric it is summed into.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("dnsguard.guard", "span.guard_ns"),
    ("netsim.dispatch", "span.netsim_dispatch_ns"),
    ("dnswire.decode", "span.dnswire_decode_ns"),
    ("guardhash.verify", "span.guardhash_ns"),
    ("guardhash.generate", "span.guardhash_ns"),
    ("dnsguard.rl_admit", "span.rl_admit_ns"),
    ("dnsguard.classify", "span.classify_ns"),
    ("server.answer", "span.server_answer_ns"),
    ("dnswire.encode", "span.dnswire_encode_ns"),
];

/// Named values in insertion order.
pub type Metrics = Vec<(String, f64)>;

/// The end-to-end values from an untraced pass and the set-up times.
pub fn end_to_end(samples: &Samples, setup_s: &[f64]) -> Metrics {
    vec![
        ("throughput_per_s".into(), samples.throughput_per_s()),
        ("op_p50_us".into(), samples.op_p50_us()),
        ("setup_s".into(), stats::p50(setup_s)),
    ]
}

/// Noise and raw-clock diagnostics of an untraced pass.
pub fn diagnostics(samples: &Samples) -> Metrics {
    let raw_ns: Vec<f64> = samples.rounds.iter().map(|s| s.round.ns).collect();
    let raw = |f: fn(&crate::workload::Round) -> f64| -> Vec<f64> {
        samples.rounds.iter().map(|s| f(&s.round)).collect()
    };
    vec![
        ("noise.p50_over_p25".into(), stats::p50_over_p25(&raw_ns)),
        ("noise.quiet_share".into(), stats::quiet_share(&raw_ns)),
        ("host.probe_ratio".into(), samples.probe_ratio()),
        (
            "raw.throughput_per_s".into(),
            samples.raw_throughput_per_s(),
        ),
        ("raw.op_p50_us".into(), stats::p25(&raw(|r| r.p50_us))),
        ("raw.op_p99_us".into(), stats::p25(&raw(|r| r.p99_us))),
        ("run.rounds".into(), samples.rounds.len() as f64),
        ("run.op_p99_us".into(), samples.op_p99_us()),
    ]
}

/// What the traced pass adds: the span breakdown of its lower-quartile
/// round, per operation and host-normalised, the residual, and the cost of
/// tracing itself.
///
/// The breakdown is taken from one round, the traced round whose guard time
/// is closest to the lower quartile, so that its parts add up exactly:
/// `span.guard_ns` = the other `span.*` + `dnsguard.residual_ns`.
pub fn traced(plain: &Samples, traced: &Samples, spans: &Spans, round_ids: &[SpanId]) -> Metrics {
    let mut out = Metrics::new();
    let mut sums: BTreeMap<&str, f64> = SPAN_METRICS.iter().map(|&(_, m)| (m, 0.0)).collect();
    if !traced.rounds.is_empty() {
        let pick = stats::p25_round(&traced.round_ns());
        let (round_id, sample) = (round_ids[pick], traced.rounds[pick]);
        let all = spans.all();
        // A stage span's parent is a batch span whose parent is the round;
        // the drain span hangs off the round directly.
        let in_round = |parent: Option<SpanId>| {
            parent.is_some_and(|p| p == round_id || all[p as usize].parent == Some(round_id))
        };
        for s in all.iter().filter(|s| in_round(s.parent)) {
            let metric = SPAN_METRICS
                .iter()
                .find(|(name, _)| *name == s.name)
                .map(|&(_, m)| m);
            if let Some(m) = metric {
                *sums.get_mut(m).expect("initialised above") += s.dur_ns() as f64;
            }
        }
        let per_op = sample.scale / sample.round.ops.max(1) as f64;
        for v in sums.values_mut() {
            *v *= per_op;
        }
    }
    let guard = sums["span.guard_ns"];
    let parts: f64 = sums
        .iter()
        .filter(|(k, _)| **k != "span.guard_ns")
        .map(|(_, v)| v)
        .sum();
    // Workloads without a shadow pipeline have no breakdown: no residual.
    let residual = if parts > 0.0 { guard - parts } else { 0.0 };
    out.extend(sums.iter().map(|(k, v)| (k.to_string(), *v)));
    out.push(("dnsguard.residual_ns".into(), residual));
    out.push((
        "dnsguard.residual_share".into(),
        if guard > 0.0 { residual / guard } else { 0.0 },
    ));
    let overhead = if plain.rounds.is_empty() || traced.rounds.is_empty() {
        0.0
    } else {
        traced.ns_per_op() / plain.ns_per_op() - 1.0
    };
    out.push(("trace.overhead_share".into(), overhead));
    out.push(("trace.rounds".into(), traced.rounds.len() as f64));
    out
}

/// Every per-layer metric in table order: what `layers`, the workload's
/// facts and the traced pass produced, 0 for what does not apply.
pub fn per_layer(layers: &LayerReport, parts: &[Metrics]) -> Metrics {
    let mut known: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, value) in layers.metrics.iter().chain(parts.iter().flatten()) {
        known.insert(name, *value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name.to_string(), known.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// The unit of metric `name`.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &Metrics) -> Value {
    metrics.iter().fold(Value::obj(), |obj, (name, value)| {
        obj.with(
            name,
            Value::obj().with("value", *value).with("unit", unit(name)),
        )
    })
}

/// The result object the driver reads from the last line of stdout.
pub fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> Value {
    Value::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics_json(metrics))
}

/// A human-readable table of `metrics`, one per line.
pub fn table(title: &str, metrics: &Metrics) -> String {
    let mut out = format!("{title}\n");
    for (name, value) in metrics {
        let shown = if value.abs() >= 1000.0 {
            format!("{value:.0}")
        } else {
            format!("{value:.4}")
        };
        out.push_str(&format!("  {name:<36} {shown:>14} {}\n", unit(name)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn per_layer_fills_gaps_with_zero_and_keeps_table_order() {
        let layers = LayerReport {
            metrics: vec![("guardhash.siphash_ns".into(), 12.5)],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        let got = per_layer(&layers, &[vec![("noise.quiet_share".into(), 0.5)]]);
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got[0], ("dnswire.decode_query_ns".to_string(), 0.0));
        assert!(got.contains(&("guardhash.siphash_ns".to_string(), 12.5)));
        assert!(got.contains(&("noise.quiet_share".to_string(), 0.5)));
    }
}
