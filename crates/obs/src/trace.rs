//! Sim-time structured event tracing.
//!
//! Components obtain a [`ComponentTracer`] and emit [`Event`]s — small
//! fixed-size records stamped with nanosecond time, a component, a kind and
//! up to [`MAX_FIELDS`] typed fields. Events land in a shared bounded ring:
//! when full, the oldest events are dropped (and counted), so a flood can
//! never grow memory without bound.
//!
//! Filtering is per component with a global default: the record path first
//! loads one atomic level (two, when the component inherits the default)
//! and returns immediately when the event's level is not enabled — the
//! disabled cost is a branch, not an allocation or a lock.

use crate::metrics::{lock, Counter, Gauge, Registry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum number of fields carried by one [`Event`]; extras are truncated.
pub const MAX_FIELDS: usize = 6;

/// Sentinel stored in a per-component level cell meaning "inherit the
/// tracer's default level".
const INHERIT: u8 = u8::MAX;

/// Trace verbosity, ordered: `Off < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is recorded.
    Off = 0,
    /// Decision points: grants, verdicts, drops, health transitions.
    Info = 1,
    /// High-volume details: per-forward, per-relay, per-probe records.
    Debug = 2,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// The lowercase name (`"off"`, `"info"`, `"debug"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A typed field value. Allocation-free: strings are static, addresses are
/// stored as [`Ipv4Addr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Static string (scheme names, verdicts, table names).
    Str(&'static str),
    /// An IPv4 address.
    Ip(Ipv4Addr),
    /// A boolean.
    Bool(bool),
}

/// One trace record.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event time in nanoseconds (sim time in the simulator, elapsed wall
    /// time in the runtime).
    pub t_nanos: u64,
    /// Emitting component.
    pub component: &'static str,
    /// Event kind within the component (e.g. `"grant"`, `"rl_drop"`).
    pub kind: &'static str,
    fields: [(&'static str, Value); MAX_FIELDS],
    n_fields: u8,
}

impl Event {
    /// Builds an event directly, outside any tracer — the entry point for
    /// reading an exported trace back ([`crate::export::parse_event`]) and
    /// for test fixtures. Fields beyond [`MAX_FIELDS`] are truncated, matching the
    /// recording path.
    pub fn new(
        t_nanos: u64,
        component: &'static str,
        kind: &'static str,
        fields: &[(&'static str, Value)],
    ) -> Event {
        let mut buf = [("", Value::U64(0)); MAX_FIELDS];
        let n = fields.len().min(MAX_FIELDS);
        buf[..n].copy_from_slice(&fields[..n]);
        Event {
            t_nanos,
            component,
            kind,
            fields: buf,
            n_fields: n as u8,
        }
    }

    /// A copy of this event with its timestamp shifted by `offset_nanos`
    /// (saturating at the u64 bounds) — per-node clock-offset correction
    /// applied by the fleet aggregator before stitching.
    pub fn with_offset(&self, offset_nanos: i64) -> Event {
        let mut e = self.clone();
        e.t_nanos = if offset_nanos >= 0 {
            e.t_nanos.saturating_add(offset_nanos as u64)
        } else {
            e.t_nanos.saturating_sub(offset_nanos.unsigned_abs())
        };
        e
    }

    /// The event's fields.
    pub fn fields(&self) -> &[(&'static str, Value)] {
        &self.fields[..self.n_fields as usize]
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<Value> {
        self.fields().iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<Event>,
    dropped: u64,
}

#[derive(Debug)]
struct TracerShared {
    capacity: usize,
    default_level: AtomicU8,
    components: Mutex<HashMap<&'static str, Arc<AtomicU8>>>,
    ring: Mutex<Ring>,
    /// Buffered-event count, mirrored into a gauge so snapshots can see
    /// ring pressure without draining.
    occupancy: Gauge,
    /// Total events discarded by the ring bound (never reset; `drain`
    /// separately reports the count since the previous drain).
    dropped_total: Counter,
}

/// The shared event trace. Cloning is cheap; all clones feed one ring.
#[derive(Debug, Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl Tracer {
    /// A tracer whose ring holds at most `capacity` events, with the
    /// default level [`Level::Off`] (enable with
    /// [`Tracer::set_default_level`] or per-component levels).
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            shared: Arc::new(TracerShared {
                capacity,
                default_level: AtomicU8::new(Level::Off as u8),
                components: Mutex::new(HashMap::new()),
                ring: Mutex::new(Ring::default()),
                occupancy: Gauge::new(),
                dropped_total: Counter::new(),
            }),
        }
    }

    /// A tracer that can never record (capacity 0, level off).
    pub fn disabled() -> Tracer {
        Tracer::new(0)
    }

    /// Sets the level used by components without an explicit override.
    pub fn set_default_level(&self, level: Level) {
        self.shared.default_level.store(level as u8, Ordering::Relaxed);
    }

    /// Overrides the level for one component (applies retroactively to
    /// already-issued [`ComponentTracer`] handles).
    pub fn set_level(&self, component: &'static str, level: Level) {
        self.level_cell(component).store(level as u8, Ordering::Relaxed);
    }

    fn level_cell(&self, component: &'static str) -> Arc<AtomicU8> {
        lock(&self.shared.components)
            .entry(component)
            .or_insert_with(|| Arc::new(AtomicU8::new(INHERIT)))
            .clone()
    }

    /// Issues the recording handle for one component. Handles are cheap to
    /// clone and share the ring and level cells.
    pub fn component(&self, component: &'static str) -> ComponentTracer {
        ComponentTracer {
            component,
            level: self.level_cell(component),
            shared: self.shared.clone(),
        }
    }

    /// Takes every buffered event (oldest first) and the count of events
    /// dropped by the ring bound since the last drain.
    pub fn drain(&self) -> (Vec<Event>, u64) {
        let mut ring = lock(&self.shared.ring);
        let events = std::mem::take(&mut ring.buf).into();
        self.shared.occupancy.set(0);
        (events, std::mem::take(&mut ring.dropped))
    }

    /// Clones the most recent `n` buffered events (oldest of those first)
    /// without consuming them — the live telemetry endpoint's peek, which
    /// must not steal events from a draining exporter.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let ring = lock(&self.shared.ring);
        let skip = ring.buf.len().saturating_sub(n);
        ring.buf.iter().skip(skip).cloned().collect()
    }

    /// Registers the ring's health metrics — `trace.ring_occupancy`
    /// (gauge, buffered events) and `trace.ring_dropped` (counter, total
    /// events lost to the bound) — into `registry`.
    pub fn adopt_into(&self, registry: &Registry) {
        registry.adopt_gauge("trace", "ring_occupancy", &[], &self.shared.occupancy);
        registry.adopt_counter("trace", "ring_dropped", &[], &self.shared.dropped_total);
    }

    /// Total events discarded by the ring bound over the tracer's lifetime.
    pub fn dropped_total(&self) -> u64 {
        self.shared.dropped_total.get()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        lock(&self.shared.ring).buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        lock(&self.shared.ring).buf.is_empty()
    }
}

/// A component's recording handle.
#[derive(Debug, Clone)]
pub struct ComponentTracer {
    component: &'static str,
    level: Arc<AtomicU8>,
    shared: Arc<TracerShared>,
}

impl Default for ComponentTracer {
    fn default() -> Self {
        ComponentTracer::disabled()
    }
}

impl ComponentTracer {
    /// A handle wired to a [`Tracer::disabled`] tracer — the default for
    /// components constructed without an observer.
    pub fn disabled() -> ComponentTracer {
        Tracer::disabled().component("_detached")
    }

    /// The component name this handle records under.
    pub fn component(&self) -> &'static str {
        self.component
    }

    /// Whether events at `level` would currently be recorded.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        let own = self.level.load(Ordering::Relaxed);
        let effective = if own == INHERIT {
            self.shared.default_level.load(Ordering::Relaxed)
        } else {
            own
        };
        level <= Level::from_u8(effective) && level != Level::Off
    }

    /// Records an [`Level::Info`] event. In a debug build `kind` and
    /// `fields` must be declared in [`crate::vocab`], listening or not.
    #[inline]
    pub fn event(&self, t_nanos: u64, kind: &'static str, fields: &[(&'static str, Value)]) {
        self.record(Level::Info, t_nanos, kind, fields);
    }

    /// Records a [`Level::Debug`] event.
    #[inline]
    pub fn debug(&self, t_nanos: u64, kind: &'static str, fields: &[(&'static str, Value)]) {
        self.record(Level::Debug, t_nanos, kind, fields);
    }

    fn record(&self, level: Level, t_nanos: u64, kind: &'static str, fields: &[(&'static str, Value)]) {
        // A debug assertion, and before the level test: a test that runs an
        // emit site validates it whether or not anything is listening.
        if cfg!(debug_assertions) {
            if let Err(undeclared) = crate::vocab::check(kind, fields) {
                panic!("{undeclared}");
            }
        }
        if !self.enabled(level) {
            return;
        }
        let mut buf = [("", Value::U64(0)); MAX_FIELDS];
        let n = fields.len().min(MAX_FIELDS);
        buf[..n].copy_from_slice(&fields[..n]);
        let event = Event {
            t_nanos,
            component: self.component,
            kind,
            fields: buf,
            n_fields: n as u8,
        };
        let mut ring = lock(&self.shared.ring);
        if self.shared.capacity == 0 {
            ring.dropped += 1;
            self.shared.dropped_total.inc();
            return;
        }
        if ring.buf.len() >= self.shared.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
            self.shared.dropped_total.inc();
        }
        ring.buf.push_back(event);
        self.shared.occupancy.set(ring.buf.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filtering_and_inheritance() {
        let tracer = Tracer::new(16);
        let t = tracer.component("guard");
        assert!(!t.enabled(Level::Info), "default off");
        t.event(1, "grant", &[]);
        assert!(tracer.is_empty());

        tracer.set_default_level(Level::Info);
        assert!(t.enabled(Level::Info));
        assert!(!t.enabled(Level::Debug));
        t.event(2, "grant", &[]);
        t.debug(3, "forward", &[]);
        assert_eq!(tracer.len(), 1, "debug filtered at info");

        tracer.set_level("guard", Level::Debug);
        t.debug(4, "forward", &[]);
        assert_eq!(tracer.len(), 2, "component override applies to live handles");

        tracer.set_level("guard", Level::Off);
        t.event(5, "grant", &[]);
        assert_eq!(tracer.len(), 2, "off overrides the info default");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::new(3);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("c");
        for i in 0..5u64 {
            t.event(i, "grant", &[("qid", Value::U64(i))]);
        }
        let (events, dropped) = tracer.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 2);
        assert_eq!(events[0].field("qid"), Some(Value::U64(2)), "oldest dropped first");
        assert_eq!(events[2].t_nanos, 4);
    }

    #[test]
    fn drain_reports_drops_exactly_when_capacity_exceeded() {
        let tracer = Tracer::new(4);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("c");
        // Exactly at capacity: zero drops.
        for i in 0..4u64 {
            t.event(i, "ans_probe", &[]);
        }
        let (events, dropped) = tracer.drain();
        assert_eq!((events.len(), dropped), (4, 0), "at capacity nothing drops");
        // k over capacity: exactly k drops, k=3.
        for i in 0..7u64 {
            t.event(i, "ans_probe", &[]);
        }
        let (events, dropped) = tracer.drain();
        assert_eq!((events.len(), dropped), (4, 3), "exactly the overflow drops");
        assert_eq!(events[0].t_nanos, 3, "oldest three were the ones lost");
    }

    #[test]
    fn occupancy_gauge_and_dropped_counter_track_ring() {
        let reg = Registry::new();
        let tracer = Tracer::new(3);
        tracer.adopt_into(&reg);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("c");
        t.event(0, "ans_probe", &[]);
        t.event(1, "ans_probe", &[]);
        let occupancy = reg.gauge("trace", "ring_occupancy", &[]);
        let dropped = reg.counter("trace", "ring_dropped", &[]);
        assert_eq!(occupancy.get(), 2);
        assert_eq!(dropped.get(), 0);
        for i in 2..6u64 {
            t.event(i, "ans_probe", &[]);
        }
        assert_eq!(occupancy.get(), 3, "gauge capped at capacity");
        assert_eq!(dropped.get(), 3, "counter saw every discard");
        tracer.drain();
        assert_eq!(occupancy.get(), 0, "drain empties the ring");
        assert_eq!(dropped.get(), 3, "lifetime counter is never reset");
        assert_eq!(tracer.dropped_total(), 3);
    }

    #[test]
    fn tracer_ring() {
        // Two recorders overflow a small ring while the main thread drains
        // it: every event is drained once or counted dropped once.
        const K: u64 = 20_000;
        let reg = Registry::new();
        let tracer = Tracer::new(64);
        tracer.adopt_into(&reg);
        tracer.set_default_level(Level::Info);
        let (mut drained, mut dropped) = (0u64, 0u64);
        let mut take = || {
            let (events, lost) = tracer.drain();
            drained += events.len() as u64;
            dropped += lost;
        };
        std::thread::scope(|s| {
            let recorders = ["guard", "ans"].map(|name| {
                let t = tracer.component(name);
                s.spawn(move || (0..K).for_each(|i| t.event(i, "ans_probe", &[])))
            });
            while !recorders.iter().all(|r| r.is_finished()) {
                take();
            }
        });
        take();
        assert_eq!(drained + dropped, 2 * K, "drained {drained}, dropped {dropped}");
        assert_eq!(dropped, tracer.dropped_total());
        assert_eq!(reg.gauge("trace", "ring_occupancy", &[]).get(), 0);
    }

    #[test]
    fn recent_peeks_without_consuming() {
        let tracer = Tracer::new(8);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("c");
        for i in 0..5u64 {
            t.event(i, "ans_probe", &[]);
        }
        let recent = tracer.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].t_nanos, 2, "last three, oldest first");
        assert_eq!(tracer.len(), 5, "ring untouched");
        assert_eq!(tracer.recent(100).len(), 5, "n past len returns all");
    }

    #[test]
    fn fields_truncate_at_max() {
        let tracer = Tracer::new(4);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("c");
        let fields: Vec<(&'static str, Value)> =
            (0..10).map(|_| ("qid", Value::Bool(true))).collect();
        t.event(0, "grant", &fields);
        let (events, _) = tracer.drain();
        assert_eq!(events[0].fields().len(), MAX_FIELDS);
    }

    #[test]
    fn value_kinds_roundtrip() {
        let tracer = Tracer::new(4);
        tracer.set_default_level(Level::Info);
        let t = tracer.component("c");
        t.event(
            9,
            "verify",
            &[
                ("qid", Value::U64(1)),
                ("scheme", Value::Str("ext")),
                ("src", Value::Ip(Ipv4Addr::new(10, 0, 0, 1))),
            ],
        );
        let (events, _) = tracer.drain();
        let e = &events[0];
        assert_eq!(e.component, "c");
        assert_eq!(e.kind, "verify");
        assert_eq!(e.field("src"), Some(Value::Ip(Ipv4Addr::new(10, 0, 0, 1))));
        assert_eq!(e.field("missing"), None);
    }
}
