//! Hot-path stage profiling for the guard's per-datagram pipeline.
//!
//! When the `stage-profiling` cargo feature is enabled, [`StageProf`]
//! measures how long each decision stage of `GuardCore::handle_packet`
//! takes — `decode` (wire → message), `verify` (cookie verdicts),
//! `admit` (rate-limiter decisions), `respond` (encode + transmit) — plus
//! the end-to-end `total`, into per-stage log-bucketed histograms
//! (`guard.stage_ns{stage=...}`).
//!
//! Three properties keep this safe on the hot path:
//!
//! * **Compile-out.** Without the feature, [`StageProf`] is a zero-sized
//!   type whose methods are empty `#[inline]` bodies: the call sites in
//!   `guard/core.rs` stay uncluttered and the optimizer erases them entirely.
//! * **Injected clock.** The sim-domain crates forbid wall clocks
//!   (guardlint L2), and sim-time does not advance inside a handler — so
//!   the profiler only measures when a harness injects a clock closure
//!   (the criterion bench injects an `Instant`-based one; deployments can
//!   inject a monotonic OS clock). No clock, no reads, no overhead beyond
//!   one branch.
//! * **Sampling.** Only one in [`SAMPLE_PERIOD`] datagrams is measured
//!   (the rest pay a counter increment and a branch), keeping the mean
//!   per-datagram cost well inside the ≤5 % budget the micro-bench
//!   enforces.

#[cfg(feature = "stage-profiling")]
use obs::metrics::Histogram;
use obs::metrics::Registry;
use std::sync::Arc;

/// A monotonic nanosecond clock injected by the harness.
pub type StageClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Pipeline stages, in histogram-registration order.
pub const STAGE_NAMES: &[&str] = &["decode", "verify", "admit", "respond", "total"];

/// Index into [`STAGE_NAMES`]: wire bytes → parsed message.
pub const STAGE_DECODE: usize = 0;
/// Index into [`STAGE_NAMES`]: cookie verification verdict reached.
pub const STAGE_VERIFY: usize = 1;
/// Index into [`STAGE_NAMES`]: rate-limiter admission decided.
pub const STAGE_ADMIT: usize = 2;
/// Index into [`STAGE_NAMES`]: reply/forward encoded and transmitted
/// (recorded by [`StageProf::finish`] as the tail segment).
pub const STAGE_RESPOND: usize = 3;
/// Index into [`STAGE_NAMES`]: one whole datagram through the pipeline.
pub const STAGE_TOTAL: usize = 4;

/// Measure one datagram out of this many (power of two).
pub const SAMPLE_PERIOD: u64 = 8;

/// The live profiler (feature `stage-profiling` on).
#[cfg(feature = "stage-profiling")]
pub struct StageProf {
    clock: Option<StageClock>,
    /// Datagrams seen; `seen & (SAMPLE_PERIOD-1) == 0` selects the sample.
    seen: u64,
    /// Whether the in-flight datagram is being measured.
    sampling: bool,
    t_start: u64,
    t_last: u64,
    stages: [Histogram; STAGE_NAMES.len()],
}

#[cfg(feature = "stage-profiling")]
impl StageProf {
    /// An unarmed profiler: no clock, records nothing.
    pub fn new() -> StageProf {
        StageProf {
            clock: None,
            seen: 0,
            sampling: false,
            t_start: 0,
            t_last: 0,
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Arms the profiler with a monotonic nanosecond clock.
    pub fn set_clock(&mut self, clock: StageClock) {
        self.clock = Some(clock);
    }

    /// Adopts the per-stage histograms as `guard.stage_ns{stage=...}`.
    pub fn adopt_into(&self, registry: &Registry) {
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            registry.adopt_histogram("guard", "stage_ns", &[("stage", name)], &self.stages[i]);
        }
    }

    /// Marks the start of one datagram; decides whether it is sampled.
    #[inline]
    pub fn begin(&mut self) {
        let Some(clock) = &self.clock else {
            return;
        };
        self.seen = self.seen.wrapping_add(1);
        self.sampling = self.seen & (SAMPLE_PERIOD - 1) == 0;
        if self.sampling {
            let t = clock();
            self.t_start = t;
            self.t_last = t;
        }
    }

    /// Records the time since the previous mark into `stage`'s histogram
    /// and advances the mark. No-op on unsampled datagrams.
    #[inline]
    pub fn lap(&mut self, stage: usize) {
        if !self.sampling {
            return;
        }
        let Some(clock) = &self.clock else {
            return;
        };
        let t = clock();
        self.stages[stage].record(t.saturating_sub(self.t_last));
        self.t_last = t;
    }

    /// Closes the datagram: the tail segment (everything after the last
    /// lap — encode and transmit) lands in `respond`, the full span in
    /// `total`.
    #[inline]
    pub fn finish(&mut self) {
        if !self.sampling {
            return;
        }
        self.sampling = false;
        let Some(clock) = &self.clock else {
            return;
        };
        let t = clock();
        self.stages[STAGE_RESPOND].record(t.saturating_sub(self.t_last));
        self.stages[STAGE_TOTAL].record(t.saturating_sub(self.t_start));
    }

    /// Number of samples recorded for `stage` (tests and benches).
    pub fn stage_count(&self, stage: usize) -> u64 {
        self.stages[stage].count()
    }
}

#[cfg(feature = "stage-profiling")]
impl Default for StageProf {
    fn default() -> Self {
        StageProf::new()
    }
}

/// The compiled-out profiler (feature `stage-profiling` off): a zero-sized
/// type with the same API, every method an empty inline body.
#[cfg(not(feature = "stage-profiling"))]
#[derive(Default)]
pub struct StageProf;

#[cfg(not(feature = "stage-profiling"))]
impl StageProf {
    /// An unarmed profiler (no-op build).
    pub fn new() -> StageProf {
        StageProf
    }

    /// No-op: the clock is dropped, nothing is ever measured.
    pub fn set_clock(&mut self, clock: StageClock) {
        let _ = clock;
    }

    /// No-op: no histograms exist to adopt.
    pub fn adopt_into(&self, registry: &Registry) {
        let _ = registry;
    }

    /// No-op.
    #[inline(always)]
    pub fn begin(&mut self) {}

    /// No-op.
    #[inline(always)]
    pub fn lap(&mut self, stage: usize) {
        let _ = stage;
    }

    /// No-op.
    #[inline(always)]
    pub fn finish(&mut self) {}

    /// Always zero in a no-op build.
    pub fn stage_count(&self, stage: usize) -> u64 {
        let _ = stage;
        0
    }
}

#[cfg(all(test, feature = "stage-profiling"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic clock advancing 100 ns per read.
    fn ticking_clock() -> (StageClock, Arc<AtomicU64>) {
        let t = Arc::new(AtomicU64::new(0));
        let tc = t.clone();
        (
            // lint: relaxed-ok — single monotonic test-clock cell, no
            // cross-cell ordering contract.
            Arc::new(move || tc.fetch_add(100, Ordering::Relaxed)),
            t,
        )
    }

    #[test]
    fn samples_one_in_period_and_stage_laps_sum_to_total() {
        let mut prof = StageProf::new();
        let (clock, _) = ticking_clock();
        prof.set_clock(clock);

        for _ in 0..(SAMPLE_PERIOD * 4) {
            prof.begin();
            prof.lap(STAGE_DECODE);
            prof.lap(STAGE_VERIFY);
            prof.lap(STAGE_ADMIT);
            prof.finish();
        }
        assert_eq!(prof.stage_count(STAGE_TOTAL), 4);
        assert_eq!(prof.stage_count(STAGE_DECODE), 4);
        assert_eq!(prof.stage_count(STAGE_RESPOND), 4);
        // Each clock read advances 100 ns: begin + 3 laps + finish = 5
        // reads, so total spans 400 ns and each segment 100 ns.
        let reg = Registry::new();
        prof.adopt_into(&reg);
        let snapshot = reg.snapshot();
        assert_eq!(snapshot.len(), STAGE_NAMES.len());
        let total = snapshot
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "total"))
            .unwrap();
        match &total.value {
            obs::metrics::SampleValue::Histogram { count, sum, .. } => {
                assert_eq!(*count, 4);
                assert_eq!(*sum, 4 * 400);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn unarmed_profiler_records_nothing() {
        let mut prof = StageProf::new();
        for _ in 0..100 {
            prof.begin();
            prof.lap(STAGE_DECODE);
            prof.finish();
        }
        assert_eq!(prof.stage_count(STAGE_TOTAL), 0);
    }
}
