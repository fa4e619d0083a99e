//! Structured observability for the DNS Guard reproduction.
//!
//! The paper's entire evaluation is a measurement story: Figure 5 (BIND
//! under attack), Figure 7 (TCP-proxy throughput) and Table II (per-scheme
//! latency) are all time-series or aggregates of counters sampled while a
//! simulated testbed runs. This crate is the substrate those measurements
//! flow through:
//!
//! * [`metrics`] — a registry of typed counters, gauges and log-bucketed
//!   histograms, addressable by `(component, name, labels)`. Handles are
//!   preregistered [`std::sync::Arc`]-shared atomic cells: the record path
//!   is one relaxed atomic op — no locks, no allocation — cheap enough for
//!   the simulator's per-packet hot path and safe for the real-socket
//!   runtime threads.
//! * [`trace`] — a ring-buffered structured event trace. Every guard
//!   decision (cookie grant/verify, rate-limit drop, TC redirect,
//!   fabricated NS, health transition, eviction), netsim fault injection
//!   and TCP-proxy accept/relay can emit an [`trace::Event`] stamped with
//!   sim-time nanoseconds, filtered per component and level.
//! * [`vocab`] — the one table of trace kinds, their fields, field words,
//!   components and alert rules; emitters are asserted against it in debug
//!   builds and every reader and contract derives from it.
//! * [`export`] — the one JSON value, [`export::Json`], that writes and
//!   parses every document: JSON/JSONL exports of both (snapshot plus a
//!   sim-time-cadence [`export::Sampler`] time series), the reader of both
//!   wire formats, and a validator so CI can check emitted telemetry
//!   without external tools.
//! * [`journey`] — query-journey reconstruction: stitches the event ring
//!   back into per-transaction causal timelines across the guard's txid
//!   rewrite, the COOKIE2 redirect and the TC→TCP hop, with latency
//!   attribution (handshake vs guard vs ANS) and chrome-trace export.
//! * [`alert`] — a rule engine over sampled snapshots: spoof surge, rate-
//!   limiter saturation, amplification-bound breach, ANS down/flap, a
//!   handshake storm split into spoof flood or flash crowd by how many
//!   sources proved their address, and trace-ring drops, with an active
//!   set, transition history and alert events/counters.
//! * [`sketch`] — streaming sketches over source IPs (count-min, top-K,
//!   HyperLogLog, entropy). Nothing in the workspace uses them; the module
//!   is kept only for the `perf` harness's `obs.sketch_observe_ns`, until
//!   ROADMAP item 3 drops that metric and this module with it.
//! * [`fleet`] — the fleet observability plane: merges per-node snapshots
//!   (counters sum, gauges max, histograms merge bucket-by-bucket),
//!   stitches per-node traces, stamped on the fleet's one clock, into
//!   cross-node journeys, and evaluates fleet-level rules (global spoof surge,
//!   asymmetric-catchment rate skew, silent nodes) on counter-reset-safe
//!   deltas.
//!
//! The crate has no simulator dependency: time is plain nanoseconds
//! (`u64`), so both `netsim` sim-time and the runtime's wall-clock offsets
//! fit.
//!
//! # Examples
//!
//! ```
//! use obs::Obs;
//! use obs::trace::{Level, Value};
//! use std::net::Ipv4Addr;
//!
//! let obs = Obs::new();
//! obs.tracer.set_default_level(Level::Info);
//!
//! // A component preregisters handles once...
//! let forwarded = obs.registry.counter("guard", "forwarded", &[("scheme", "dns_based")]);
//! let trace = obs.tracer.component("guard");
//!
//! // ...and records on the hot path without locks or allocation.
//! forwarded.inc();
//! trace.event(1_000, "grant", &[("src", Value::Ip(Ipv4Addr::new(10, 0, 0, 2)))]);
//!
//! assert_eq!(obs.registry.snapshot().len(), 1);
//! assert_eq!(obs.tracer.drain().0.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod alert;
pub mod export;
pub mod fleet;
pub mod journey;
pub mod metrics;
pub mod sketch;
pub mod trace;
pub mod vocab;

use std::sync::Arc;

use metrics::Registry;
use trace::Tracer;

/// The observability bundle threaded through a deployment: one shared
/// metrics registry plus one shared event tracer.
///
/// Cloning is cheap (two `Arc` bumps); every component holds its own clone
/// and preregisters handles at attach time.
#[derive(Debug, Clone)]
pub struct Obs {
    /// The metrics registry.
    pub registry: Arc<Registry>,
    /// The structured event tracer.
    pub tracer: Tracer,
}

impl Obs {
    /// A live bundle: empty registry, tracer with the default ring capacity
    /// (131 072 events — sized so an instrumented ~1.5 s guarded run with
    /// journey-correlated forward/relay events keeps its full trace) and
    /// tracing off until a level is set.
    pub fn new() -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            tracer: Tracer::new(131_072),
        }
    }

    /// A bundle whose tracer buffers nothing (capacity 0, level off).
    /// Counters registered against it still work; this is the default for
    /// components constructed without an explicit observer.
    pub fn disabled() -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            tracer: Tracer::disabled(),
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Level, Value};

    #[test]
    fn bundle_clones_share_state() {
        let obs = Obs::new();
        obs.tracer.set_default_level(Level::Info);
        let clone = obs.clone();
        let c = obs.registry.counter("a", "hits", &[]);
        c.inc();
        clone
            .tracer
            .component("a")
            .event(7, "grant", &[("qid", Value::U64(1))]);
        assert_eq!(clone.registry.snapshot().len(), 1);
        assert_eq!(obs.tracer.drain().0.len(), 1);
    }

    #[test]
    fn disabled_bundle_records_no_events() {
        let obs = Obs::disabled();
        let t = obs.tracer.component("x");
        t.event(1, "grant", &[]);
        assert!(obs.tracer.drain().0.is_empty());
    }
}
