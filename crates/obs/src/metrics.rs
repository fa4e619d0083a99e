//! The unified metrics registry: typed counters, gauges and log-bucketed
//! histograms addressable by `(component, name, labels)`.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared atomic
//! cells. They can be created *detached* (not listed anywhere) and adopted
//! into a [`Registry`] later — this lets components allocate their handles
//! at construction with zero observability cost, and register them when an
//! observer attaches. The record path is a single relaxed atomic operation:
//! no locks, no allocation, no branch on registration state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poison: a recorder that panicked while
/// holding the registry or the trace ring must not wedge the telemetry
/// thread that reads them.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of log₂ buckets in a [`Histogram`]: one per power of two, which
/// covers `u64` exactly.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh detached counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one, for the counter's only writer: a load and a store instead
    /// of a locked read-modify-write, which is most of what a counter costs
    /// on a path that does little else (5 of the 35 ns of a rate-limiter
    /// admission). Readers on other threads see every value in order;
    /// increments from two writers at once can be lost, so this is for a
    /// cell that only one `&mut` owner ever increments.
    #[inline]
    pub fn inc_sole_writer(&self) {
        self.0.store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh detached gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> HistogramCells {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram: value `v` lands in bucket
/// `⌈log₂(v+1)⌉`, i.e. bucket 0 holds exactly `0`, bucket `b ≥ 1` holds
/// `[2^(b-1), 2^b)`. Recording is three relaxed atomic adds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// A fresh detached histogram.
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistogramCells::new()))
    }

    /// The bucket index for `v`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The exclusive upper bound of bucket `i` (`None` for the last,
    /// unbounded bucket).
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i >= HISTOGRAM_BUCKETS - 1 {
            None
        } else {
            Some(1u64 << i)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(exclusive_upper_bound, count)`; the unbounded
    /// last bucket reports `u64::MAX` as its bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_bound(i).unwrap_or(u64::MAX), n))
            })
            .collect()
    }

    /// Estimated value of quantile `q` (`0.0..=1.0`), interpolated within
    /// the containing log₂ bucket. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets(), self.count(), q)
    }
}

/// Estimates quantile `q` from `(exclusive_upper_bound, count)` bucket
/// pairs as produced by [`Histogram::buckets`] / exported snapshots.
///
/// The rank `⌈q·count⌉` is located by a cumulative walk; within the bucket
/// the value is linearly interpolated between the bucket's bounds (bucket
/// bound 1 holds exactly 0; the unbounded last bucket reports its lower
/// bound). Returns 0 when `count` is 0.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 || buckets.is_empty() {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for &(bound, n) in buckets {
        if cum + n >= rank {
            // Log₂ buckets: [bound/2, bound), except bound 1 (exactly 0)
            // and the unbounded tail (lower bound 2^63).
            let (lo, hi) = if bound == 1 {
                (0, 0)
            } else if bound == u64::MAX {
                (1u64 << 63, 1u64 << 63)
            } else {
                (bound / 2, bound)
            };
            let into = (rank - cum) as f64 / n as f64;
            return lo + ((hi - lo) as f64 * into) as u64;
        }
        cum += n;
    }
    // Unreachable when count matches the bucket sums; fall back to the
    // last bucket's bound.
    buckets.last().map(|&(b, _)| b).unwrap_or(0)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The shared cell behind one registered metric.
#[derive(Debug, Clone)]
pub(crate) enum Cell {
    /// A counter cell.
    Counter(Counter),
    /// A gauge cell.
    Gauge(Gauge),
    /// A histogram cell.
    Histogram(Histogram),
}

impl Cell {
    /// Scalar reading used by the time-series sampler: counter/gauge value,
    /// histogram sample count.
    pub(crate) fn scalar(&self) -> u64 {
        match self {
            Cell::Counter(c) => c.get(),
            Cell::Gauge(g) => g.get(),
            Cell::Histogram(h) => h.count(),
        }
    }
}

#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) component: &'static str,
    pub(crate) name: &'static str,
    pub(crate) labels: Vec<(&'static str, String)>,
    pub(crate) cell: Cell,
}

/// The flat series key `component.name{k=v,...}` for one metric address.
pub(crate) fn flat_key(component: &str, name: &str, labels: &[(&str, String)]) -> String {
    let mut k = format!("{component}.{name}");
    if !labels.is_empty() {
        k.push('{');
        for (i, (lk, lv)) in labels.iter().enumerate() {
            if i > 0 {
                k.push(',');
            }
            k.push_str(lk);
            k.push('=');
            k.push_str(lv);
        }
        k.push('}');
    }
    k
}

impl Row {
    /// The flat series key: `component.name{k=v,...}`.
    pub(crate) fn key(&self) -> String {
        flat_key(self.component, self.name, &self.labels)
    }
}

/// One metric's exported state, from [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Owning component (e.g. `"guard"`, `"netsim"`).
    pub component: &'static str,
    /// Metric name within the component.
    pub name: &'static str,
    /// Label pairs, e.g. `("scheme", "dns_based")`.
    pub labels: Vec<(&'static str, String)>,
    /// The value at snapshot time.
    pub value: SampleValue,
}

impl MetricSample {
    /// The flat key `component.name{k=v,...}` used by series exports.
    pub fn key(&self) -> String {
        flat_key(self.component, self.name, &self.labels)
    }
}

/// A snapshot value, by metric kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge last value.
    Gauge(u64),
    /// Histogram aggregate.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Non-empty `(exclusive_upper_bound, count)` buckets.
        buckets: Vec<(u64, u64)>,
    },
}

/// The metric registry: a list of `(component, name, labels) → cell`
/// bindings. Registration and snapshotting take a mutex; recording through
/// handles never does.
#[derive(Debug, Default)]
pub struct Registry {
    rows: Mutex<Vec<Row>>,
}

/// Label pairs at registration time: static keys, owned values.
pub type LabelPairs<'a> = &'a [(&'static str, &'a str)];

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn position(
        rows: &[Row],
        component: &str,
        name: &str,
        labels: &[(&'static str, String)],
    ) -> Option<usize> {
        rows.iter()
            .position(|r| r.component == component && r.name == name && r.labels == labels)
    }

    fn own(labels: LabelPairs<'_>) -> Vec<(&'static str, String)> {
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect()
    }

    /// Finds the cell at an address, inserting a fresh one from `make` when
    /// the address is free.
    fn get_or_insert(
        &self,
        component: &'static str,
        name: &'static str,
        labels: LabelPairs<'_>,
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let labels = Self::own(labels);
        let mut rows = lock(&self.rows);
        if let Some(i) = Self::position(&rows, component, name, &labels) {
            return rows[i].cell.clone();
        }
        let cell = make();
        rows.push(Row {
            component,
            name,
            labels,
            cell: cell.clone(),
        });
        cell
    }

    /// Registers (or retrieves) a counter. Registering the same address
    /// twice returns the existing handle, so re-attachment is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound to a different metric kind.
    pub fn counter(&self, component: &'static str, name: &'static str, labels: LabelPairs<'_>) -> Counter {
        match self.get_or_insert(component, name, labels, || Cell::Counter(Counter::new())) {
            Cell::Counter(c) => c,
            _ => panic!("metric {component}.{name} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a gauge (see [`Registry::counter`]).
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound to a different metric kind.
    pub fn gauge(&self, component: &'static str, name: &'static str, labels: LabelPairs<'_>) -> Gauge {
        match self.get_or_insert(component, name, labels, || Cell::Gauge(Gauge::new())) {
            Cell::Gauge(g) => g,
            _ => panic!("metric {component}.{name} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a histogram (see [`Registry::counter`]).
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound to a different metric kind.
    pub fn histogram(
        &self,
        component: &'static str,
        name: &'static str,
        labels: LabelPairs<'_>,
    ) -> Histogram {
        match self.get_or_insert(component, name, labels, || Cell::Histogram(Histogram::new())) {
            Cell::Histogram(h) => h,
            _ => panic!("metric {component}.{name} already registered with a different kind"),
        }
    }

    /// Adopts an existing detached counter under an address, replacing any
    /// previous binding at that address. Components create handles at
    /// construction and adopt them when an observer attaches.
    pub fn adopt_counter(
        &self,
        component: &'static str,
        name: &'static str,
        labels: LabelPairs<'_>,
        counter: &Counter,
    ) {
        self.adopt_replacing(component, name, labels, Cell::Counter(counter.clone()));
    }

    /// Adopts an existing detached gauge (see [`Registry::adopt_counter`]).
    pub fn adopt_gauge(
        &self,
        component: &'static str,
        name: &'static str,
        labels: LabelPairs<'_>,
        gauge: &Gauge,
    ) {
        self.adopt_replacing(component, name, labels, Cell::Gauge(gauge.clone()));
    }

    /// Adopts an existing detached histogram (see
    /// [`Registry::adopt_counter`]).
    pub fn adopt_histogram(
        &self,
        component: &'static str,
        name: &'static str,
        labels: LabelPairs<'_>,
        histogram: &Histogram,
    ) {
        self.adopt_replacing(component, name, labels, Cell::Histogram(histogram.clone()));
    }

    fn adopt_replacing(
        &self,
        component: &'static str,
        name: &'static str,
        labels: LabelPairs<'_>,
        cell: Cell,
    ) {
        let labels = Self::own(labels);
        let mut rows = lock(&self.rows);
        match Self::position(&rows, component, name, &labels) {
            Some(i) => rows[i].cell = cell,
            None => rows.push(Row {
                component,
                name,
                labels,
                cell,
            }),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        lock(&self.rows).len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        lock(&self.rows).is_empty()
    }

    /// Reads every registered metric.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        lock(&self.rows)
            .iter()
            .map(|r| MetricSample {
                component: r.component,
                name: r.name,
                labels: r.labels.clone(),
                value: match &r.cell {
                    Cell::Counter(c) => SampleValue::Counter(c.get()),
                    Cell::Gauge(g) => SampleValue::Gauge(g.get()),
                    Cell::Histogram(h) => SampleValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    },
                },
            })
            .collect()
    }

    /// The flat series keys and cell clones of every registered metric, in
    /// registration order (the sampler snapshots this once).
    pub(crate) fn cells(&self) -> Vec<(String, Cell)> {
        lock(&self.rows)
            .iter()
            .map(|r| (r.key(), r.cell.clone()))
            .collect()
    }
}

/// One row of a component's `METRICS` table: `(component, name, labels)`.
pub type Declared = (&'static str, &'static str, &'static [(&'static str, &'static str)]);

/// Declares a component's counters once. Each row is a field of the `pub`
/// snapshot struct callers read and a live [`Counter`] cell of the second
/// struct; `= "name"` registers the cell under another name than the
/// field's and `{ key = "value", .. }` under labels. The optional `gauges`,
/// `histograms` and `fields` blocks add cells the snapshot does not copy
/// (`fields` are not registered either: a tracer handle, say).
///
/// Generated: both structs (the live one `Default`, and `Clone`: a clone
/// shares every cell with the original), `snapshot()`,
/// `adopt_into(&Registry, instance_labels)`, which registers every cell in
/// declaration order with `instance_labels` appended to its own, and the
/// snapshot struct's `METRICS`, the table of what that registers.
#[macro_export]
macro_rules! counters {
    (
        $(#[$stats_meta:meta])* pub struct $Stats:ident;
        $(#[$cells_meta:meta])* $vis:vis struct $Cells:ident: $component:literal {
            $($(#[$doc:meta])* $field:ident $(= $name:literal)? $({ $($key:ident = $value:literal),+ })?,)*
        }
        $(gauges { $($(#[$gauge_doc:meta])* $gauge:ident,)* })?
        $(histograms { $($(#[$histogram_doc:meta])* $histogram:ident,)* })?
        $(fields { $($(#[$other_doc:meta])* $other:ident: $Other:ty,)* })?
    ) => {
        $(#[$stats_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Stats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $Stats {
            /// Every metric the component registers, in registration order.
            pub const METRICS: &'static [$crate::metrics::Declared] = &[
                $((
                    $component,
                    // The declared name if there is one, the field's otherwise.
                    { let names: &[&str] = &[stringify!($field) $(, $name)?]; names[names.len() - 1] },
                    &[$($((stringify!($key), $value)),+)?],
                ),)*
                $($(($component, stringify!($gauge), &[]),)*)?
                $($(($component, stringify!($histogram), &[]),)*)?
            ];
        }

        $(#[$cells_meta])*
        #[derive(Debug, Default, Clone)]
        $vis struct $Cells {
            $($vis $field: $crate::metrics::Counter,)*
            $($($(#[$gauge_doc])* $vis $gauge: $crate::metrics::Gauge,)*)?
            $($($(#[$histogram_doc])* $vis $histogram: $crate::metrics::Histogram,)*)?
            $($($(#[$other_doc])* $vis $other: $Other,)*)?
        }

        impl $Cells {
            $vis fn snapshot(&self) -> $Stats {
                $Stats { $($field: self.$field.get(),)* }
            }

            $vis fn adopt_into(&self, registry: &$crate::metrics::Registry, instance: $crate::metrics::LabelPairs<'_>) {
                let mut rows = $Stats::METRICS.iter();
                let mut row = || {
                    let &(component, name, labels) = rows.next().expect("one METRICS row per cell");
                    (component, name, [labels, instance].concat())
                };
                $(let (c, n, l) = row(); registry.adopt_counter(c, n, &l, &self.$field);)*
                $($(let (c, n, l) = row(); registry.adopt_gauge(c, n, &l, &self.$gauge);)*)?
                $($(let (c, n, l) = row(); registry.adopt_histogram(c, n, &l, &self.$histogram);)*)?
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    counters! {
        /// What the test component counted.
        pub struct ProbeStats;
        struct ProbeCells: "probe" {
            /// Registered under the field's name.
            plain,
            renamed = "other_name",
            labelled = "verdicts" { scheme = "ext", verdict = "invalid" },
        }
        gauges { level, }
    }

    #[test]
    fn counters_macro_snapshots_adopts_and_lists_what_it_declared() {
        let cells = ProbeCells::default();
        cells.plain.inc();
        cells.labelled.add(3);
        cells.level.set(9);
        assert_eq!(cells.snapshot(), ProbeStats { plain: 1, renamed: 0, labelled: 3 });

        let reg = Registry::new();
        cells.adopt_into(&reg, &[("node", "a")]);
        cells.renamed.inc();
        let got: Vec<(String, SampleValue)> = reg.snapshot().into_iter().map(|s| (s.key(), s.value)).collect();
        assert_eq!(
            got,
            [
                ("probe.plain{node=a}".to_string(), SampleValue::Counter(1)),
                ("probe.other_name{node=a}".to_string(), SampleValue::Counter(1)),
                ("probe.verdicts{scheme=ext,verdict=invalid,node=a}".to_string(), SampleValue::Counter(3)),
                ("probe.level{node=a}".to_string(), SampleValue::Gauge(9)),
            ]
        );
        let declared: &[Declared] = &[
            ("probe", "plain", &[]),
            ("probe", "other_name", &[]),
            ("probe", "verdicts", &[("scheme", "ext"), ("verdict", "invalid")]),
            ("probe", "level", &[]),
        ];
        assert_eq!(ProbeStats::METRICS, declared);
    }

    #[test]
    fn metrics_record_path() {
        // Four threads share one counter and one histogram: every relaxed
        // `fetch_add` lands, so the totals are exact after the join.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 100_000;
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for v in 0..PER_THREAD {
                        c.inc();
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD, "no increment lost");
        assert_eq!(h.count(), THREADS * PER_THREAD, "no sample lost");
        assert_eq!(h.sum(), THREADS * PER_THREAD * (PER_THREAD - 1) / 2);
        let bucketed: u64 = h.buckets().iter().map(|&(_, n)| n).sum();
        assert_eq!(bucketed, h.count(), "the buckets hold every sample");
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("guard", "forwarded", &[("scheme", "dns_based")]);
        c.inc();
        c.add(4);
        c.inc_sole_writer();
        let g = reg.gauge("guard", "table_bytes", &[]);
        g.set(812);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(matches!(snap[0].value, SampleValue::Counter(6)));
        assert!(matches!(snap[1].value, SampleValue::Gauge(812)));
        assert_eq!(snap[0].key(), "guard.forwarded{scheme=dns_based}");
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("c", "n", &[]);
        let b = reg.counter("c", "n", &[]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same cell behind both handles");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_labels_distinct_cells() {
        let reg = Registry::new();
        let a = reg.counter("c", "n", &[("verdict", "valid")]);
        let b = reg.counter("c", "n", &[("verdict", "invalid")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn adoption_links_detached_handle() {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(7);
        reg.adopt_counter("guard", "rl_drop", &[("limiter", "rl1")], &c);
        c.inc();
        let snap = reg.snapshot();
        assert!(matches!(snap[0].value, SampleValue::Counter(8)));
        // Re-adoption replaces (attach to a second observer is a rebind).
        let c2 = Counter::new();
        reg.adopt_counter("guard", "rl_drop", &[("limiter", "rl1")], &c2);
        assert_eq!(reg.len(), 1);
        assert!(matches!(reg.snapshot()[0].value, SampleValue::Counter(0)));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (1024, 1)]);
    }

    #[test]
    fn quantile_estimates_from_log_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 100 samples at ~1000 ns, 10 at ~16_000 ns.
        for _ in 0..100 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(16_000);
        }
        let p50 = h.quantile(0.5);
        assert!((512..1024).contains(&p50), "p50 in the 1000-sample bucket: {p50}");
        let p99 = h.quantile(0.99);
        assert!((8_192..16_384).contains(&p99), "p99 in the tail bucket: {p99}");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.95) >= p50);
        assert!(p99 >= h.quantile(0.95));
    }

    #[test]
    fn quantile_edge_buckets() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), 0, "bucket bound 1 holds exactly 0");
        let tail = Histogram::new();
        tail.record(u64::MAX);
        assert_eq!(tail.quantile(0.5), 1u64 << 63, "unbounded tail reports its floor");
    }
}
