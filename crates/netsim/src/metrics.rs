//! Small measurement helpers shared by the experiments: latency recorders
//! and byte meters.

use crate::time::SimTime;
use std::cell::RefCell;

/// Records latency samples and reports their quantiles.
///
/// Quantile reads sort lazily: the first [`LatencyRecorder::quantile`]
/// after a mutation sorts once and caches; further reads are O(1) until
/// the next [`LatencyRecorder::record`].
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<SimTime>,
    sorted: RefCell<Option<Vec<SimTime>>>,
}

impl LatencyRecorder {
    /// New empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, sample: SimTime) {
        self.samples.push(sample);
        self.sorted.get_mut().take();
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<SimTime> {
        if self.samples.is_empty() {
            return None;
        }
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut v = self.samples.clone();
            v.sort_unstable();
            v
        });
        let rank = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[rank])
    }
}

/// Byte counters for traffic-amplification accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficMeter {
    /// Bytes received (requests in).
    pub bytes_in: u64,
    /// Bytes sent (responses out).
    pub bytes_out: u64,
}

impl TrafficMeter {
    /// Records an inbound wire size.
    pub fn rx(&mut self, wire_bytes: usize) {
        self.bytes_in += wire_bytes as u64;
    }

    /// Records an outbound wire size.
    pub fn tx(&mut self, wire_bytes: usize) {
        self.bytes_out += wire_bytes as u64;
    }

    /// Amplification ratio `out/in`. With nothing received, output is
    /// unsolicited: `f64::INFINITY` when any bytes went out, 1.0 (neutral)
    /// only when the meter is completely idle.
    pub fn amplification(&self) -> f64 {
        if self.bytes_in == 0 {
            if self.bytes_out > 0 {
                f64::INFINITY
            } else {
                1.0
            }
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats() {
        let mut r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert!(r.quantile(0.5).is_none());
        for ms in [10u64, 20, 30, 40] {
            r.record(SimTime::from_millis(ms));
        }
        assert_eq!(r.quantile(0.0), Some(SimTime::from_millis(10)));
        assert_eq!(r.quantile(1.0), Some(SimTime::from_millis(40)));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn amplification_ratio() {
        let mut t = TrafficMeter::default();
        assert_eq!(t.amplification(), 1.0, "idle meter is neutral");
        t.rx(50);
        t.tx(74);
        assert!((t.amplification() - 1.48).abs() < 1e-9, "paper: DNS-based ≤ 1.5×");
    }

    #[test]
    fn amplification_unsolicited_output_is_infinite() {
        let mut t = TrafficMeter::default();
        t.tx(100);
        assert_eq!(t.amplification(), f64::INFINITY);
    }

    #[test]
    fn quantile_cache_invalidates_on_mutation() {
        let mut r = LatencyRecorder::new();
        r.record(SimTime::from_millis(10));
        assert_eq!(r.quantile(1.0), Some(SimTime::from_millis(10)));
        // A second read hits the cache; a record invalidates it.
        assert_eq!(r.quantile(0.5), Some(SimTime::from_millis(10)));
        r.record(SimTime::from_millis(5));
        assert_eq!(r.quantile(0.0), Some(SimTime::from_millis(5)));
        assert_eq!(r.quantile(1.0), Some(SimTime::from_millis(10)));
    }
}
