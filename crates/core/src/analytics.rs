//! Hot-path traffic analytics for the guard's per-datagram pipeline.
//!
//! A guard armed with [`GuardCore::arm_analytics`] holds one
//! [`TrafficAnalytics`], which folds every datagram's source address into
//! an [`obs::sketch::TrafficSketch`] (count-min + space-saving top-K + HLL
//! cardinality + entropy) and republishes the derived population signals
//! at a fixed cadence:
//!
//! * gauges `guard.analytics_distinct`, `guard.analytics_entropy_norm_milli`
//!   and `guard.analytics_top_share_milli` — the inputs the alert engine's
//!   `spoof_flood` / `flash_crowd` discriminator reads;
//! * an `analytics_topk` trace event per refresh, so the trace ring
//!   carries the population history alongside the per-decision events.
//!
//! An unarmed guard (the default) owns no sketch, registers no gauge and
//! pays one branch per UDP datagram. Armed, the per-datagram cost is one
//! SipHash call plus a handful of array writes; estimate *derivation* —
//! HLL harmonic mean, entropy — only runs every [`REFRESH_PERIOD`]
//! datagrams. Everything is deterministic: no clocks (the refresh
//! timestamp is the caller's sim time), no ambient randomness (guardlint
//! L2).
//!
//! [`GuardCore::arm_analytics`]: crate::guard::GuardCore::arm_analytics

use obs::metrics::Gauge;
use obs::sketch::{AnalyticsSnapshot, TrafficSketch};
use obs::trace::{ComponentTracer, Value};
use obs::Obs;
use std::net::Ipv4Addr;

/// Derive estimates and republish once per this many datagrams (power of
/// two): per-datagram work stays O(1) while the gauges lag the stream by
/// at most one period.
pub const REFRESH_PERIOD: u64 = 256;

/// The analytics pipeline of an armed guard; `default()` is unattached
/// (gauges detached, tracing off).
#[derive(Default)]
pub struct TrafficAnalytics {
    sketch: TrafficSketch,
    gauge_distinct: Gauge,
    gauge_entropy_norm_milli: Gauge,
    gauge_top_share_milli: Gauge,
    trace: ComponentTracer,
}

impl TrafficAnalytics {
    /// Adopts the analytics gauges into `obs.registry` (component `guard`)
    /// and wires refresh trace events into component `guard`.
    pub fn adopt_into(&mut self, obs: &Obs) {
        obs.registry
            .adopt_gauge("guard", "analytics_distinct", &[], &self.gauge_distinct);
        obs.registry.adopt_gauge(
            "guard",
            "analytics_entropy_norm_milli",
            &[],
            &self.gauge_entropy_norm_milli,
        );
        obs.registry.adopt_gauge(
            "guard",
            "analytics_top_share_milli",
            &[],
            &self.gauge_top_share_milli,
        );
        self.trace = obs.tracer.component("guard");
    }

    /// Folds one datagram's source into the sketch; every
    /// [`REFRESH_PERIOD`]-th datagram also derives and republishes the
    /// estimates (`now_nanos` stamps the refresh trace event).
    #[inline]
    pub fn observe(&mut self, now_nanos: u64, src: Ipv4Addr) {
        self.sketch.observe(src);
        if self.sketch.total() & (REFRESH_PERIOD - 1) == 0 {
            self.refresh(now_nanos);
        }
    }

    /// Derives the current estimates, updates the gauges and emits one
    /// `analytics_topk` trace event.
    fn refresh(&mut self, now_nanos: u64) {
        let snap = self.sketch.snapshot();
        self.gauge_distinct.set(snap.distinct as u64);
        self.gauge_entropy_norm_milli.set((snap.entropy_norm * 1_000.0) as u64);
        self.gauge_top_share_milli.set((snap.top_share * 1_000.0) as u64);
        let top = snap.top.first();
        self.trace.event(
            now_nanos,
            "analytics_topk",
            &[
                ("total", Value::U64(snap.total)),
                ("distinct", Value::U64(snap.distinct as u64)),
                ("entropy_norm_milli", Value::U64((snap.entropy_norm * 1_000.0) as u64)),
                ("top_share_milli", Value::U64((snap.top_share * 1_000.0) as u64)),
                (
                    "top_src",
                    Value::Ip(Ipv4Addr::from(top.map(|e| e.ip).unwrap_or(0))),
                ),
                ("top_count", Value::U64(top.map(|e| e.count).unwrap_or(0))),
            ],
        );
    }

    /// A freshly derived snapshot of the cumulative sketch.
    pub fn snapshot(&self) -> AnalyticsSnapshot {
        self.sketch.snapshot()
    }

    /// A clone of the cumulative sketch — what a fleet collector merges.
    pub fn sketch(&self) -> TrafficSketch {
        self.sketch.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::Level;

    #[test]
    fn gauges_and_trace_refresh_on_period() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let mut a = TrafficAnalytics::default();
        a.adopt_into(&obs);

        // One refresh period of a single chatty source.
        for i in 0..REFRESH_PERIOD {
            a.observe(i * 1_000, Ipv4Addr::new(10, 0, 0, 1));
        }
        let snap = a.snapshot();
        assert_eq!(snap.total, REFRESH_PERIOD);
        assert_eq!(snap.top[0].ip, u32::from(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(snap.top_share > 0.99, "single source owns the stream");
        // The refresh landed in the registry and the trace ring.
        let samples = obs.registry.snapshot();
        let distinct = samples
            .iter()
            .find(|s| s.name == "analytics_distinct")
            .expect("gauge adopted");
        assert!(matches!(distinct.value, obs::metrics::SampleValue::Gauge(1)));
        let (events, _) = obs.tracer.drain();
        assert_eq!(events.iter().filter(|e| e.kind == "analytics_topk").count(), 1);
    }
}
