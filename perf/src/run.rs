//! Running a workload: repeated set-up, rounds until the deadline, each
//! bracketed by host-speed probes, and the reduction of round samples to
//! metrics.

use crate::probe::Probe;
use crate::spans::{SpanId, Spans};
use crate::stats;
use crate::workload::{self, Round, Workload};
use std::time::{Duration, Instant};

/// How many times a workload is set up per run; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Fewest rounds a measurement may rest on, whatever the deadline says.
pub const MIN_ROUNDS: usize = 32;

/// Most rounds the traced pass records spans for.
pub const TRACED_ROUNDS: usize = 16;

/// A workload set up, the last of several instances kept.
pub struct Ready {
    /// The instance to run.
    pub workload: Box<dyn Workload>,
    /// Host-normalised seconds of each set-up (world and ring construction
    /// and warm-up).
    pub setup_s: Vec<f64>,
}

/// Sets `name` up `times` times from `seed`, dropping all but the last.
///
/// # Errors
///
/// See [`workload::build`]; also when the probe's socket fails.
pub fn setup(name: &str, seed: u64, times: usize, probe: &mut Probe) -> Result<Ready, String> {
    let mut setup_s = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take()); // tear the previous instance down outside the timing
        let ((built, secs), scale) = probe
            .around(|| {
                let t0 = Instant::now();
                (workload::build(name, seed), t0.elapsed().as_secs_f64())
            })
            .map_err(|e| format!("host probe: {e}"))?;
        last = Some(built?);
        setup_s.push(secs * scale);
    }
    Ok(Ready {
        workload: last.expect("at least one set-up"),
        setup_s,
    })
}

/// One round and the factor that normalises its times (see [`Probe`]).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What the workload measured, in wall-clock terms.
    pub round: Round,
    /// Multiply a wall time of this round by this to normalise it.
    pub scale: f64,
}

/// The samples of one pass over one workload.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// One entry per round.
    pub rounds: Vec<Sample>,
}

impl Samples {
    fn map(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    /// Host-normalised wall time of each round, ns.
    pub fn round_ns(&self) -> Vec<f64> {
        self.map(|s| s.round.ns * s.scale)
    }

    /// Operations per host-normalised second: the upper quartile of the
    /// per-round rates, i.e. the rate of the lower-quartile round.
    pub fn throughput_per_s(&self) -> f64 {
        stats::p75(&self.map(|s| s.round.ops as f64 / (s.round.ns * s.scale) * 1e9))
    }

    /// The same from wall-clock time alone, for the log.
    pub fn raw_throughput_per_s(&self) -> f64 {
        stats::p75(&self.map(|s| s.round.ops as f64 / s.round.ns * 1e9))
    }

    /// Lower quartile over rounds of the per-round median operation time,
    /// host-normalised µs.
    pub fn op_p50_us(&self) -> f64 {
        stats::p25(&self.map(|s| s.round.p50_us * s.scale))
    }

    /// Lower quartile over rounds of the per-round 99th percentile.
    pub fn op_p99_us(&self) -> f64 {
        stats::p25(&self.map(|s| s.round.p99_us * s.scale))
    }

    /// Host-normalised time per operation in the lower-quartile round, ns.
    pub fn ns_per_op(&self) -> f64 {
        1e9 / self.throughput_per_s()
    }

    /// Median over rounds of probe time over nominal probe time: how slow
    /// the host ran during this pass (1.0 = the quiet reference guest).
    pub fn probe_ratio(&self) -> f64 {
        stats::p50(&self.map(|s| 1.0 / s.scale))
    }
}

/// One probed round; with `trace`, inside a `round` span under the given
/// parent (the probe samples stay outside the span).
fn probed(
    w: &mut dyn Workload,
    probe: &mut Probe,
    trace: Option<(&mut Spans, SpanId)>,
) -> (Sample, Option<SpanId>) {
    let ((round, id), scale) = probe
        .around(|| match trace {
            None => (w.round(None), None),
            Some((spans, parent)) => {
                let id = spans.open("round", w.name(), 0, Some(parent));
                let round = w.round(Some((spans, id)));
                spans.close(id);
                (round, Some(id))
            }
        })
        .expect("the probe's loopback socket worked at set-up");
    (Sample { round, scale }, id)
}

/// One untraced round between two probe samples.
pub fn round(w: &mut dyn Workload, probe: &mut Probe) -> Sample {
    probed(w, probe, None).0
}

/// Runs untraced rounds until `budget` has passed and at least `min_rounds`
/// are in; `max_rounds` stops a smoke run early.
pub fn measure(
    w: &mut dyn Workload,
    probe: &mut Probe,
    budget: Duration,
    min_rounds: usize,
    max_rounds: usize,
) -> Samples {
    let started = Instant::now();
    let mut samples = Samples::default();
    while samples.rounds.len() < max_rounds
        && (samples.rounds.len() < min_rounds || started.elapsed() < budget)
    {
        samples.rounds.push(round(w, probe));
    }
    samples
}

/// The traced pass: alternates untraced and traced rounds (so both sample
/// the same stretch of host time) until `budget` has passed or `rounds`
/// traced rounds are in. Returns `(untraced, traced)` samples and the ids
/// of the traced `round` spans.
pub fn measure_traced(
    w: &mut dyn Workload,
    probe: &mut Probe,
    budget: Duration,
    rounds: usize,
    spans: &mut Spans,
    parent: SpanId,
) -> (Samples, Samples, Vec<SpanId>) {
    let started = Instant::now();
    let (mut plain, mut traced, mut ids) = (Samples::default(), Samples::default(), Vec::new());
    while traced.rounds.len() < rounds && (traced.rounds.len() < 2 || started.elapsed() < budget) {
        plain.rounds.push(round(w, probe));
        let (sample, id) = probed(w, probe, Some((spans, parent)));
        traced.rounds.push(sample);
        ids.extend(id);
    }
    (plain, traced, ids)
}
