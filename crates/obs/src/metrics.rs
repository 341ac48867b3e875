//! A cross-layer metrics registry: named counters, gauges, and log-scale
//! latency histograms with exact min/max and nearest-rank percentiles.
//!
//! The registry serves the *wire* side of the repository, where wall-clock
//! time is real and the sim's cycle-exact counters do not apply: frame
//! encode/decode times, ACK round trips, retransmit reasons, queue depths,
//! and bytes by frame kind (`shasta-transport`); admit-guard holds and
//! duplicate drops (`shasta-memchan`); per-link simulated latency and
//! bandwidth occupancy (`shasta-cluster`'s `NetProfile`). It follows the
//! same discipline as the event recorder:
//!
//! * **Off by default, free when off.** [`Registry::disabled`] hands out
//!   no-op handles; every record call is a branch on an `Option` that the
//!   optimizer sinks. [`Registry::default`] is disabled.
//! * **Allocation-free on the hot path.** Registration (naming) allocates;
//!   recording never does — counters are a `Cell` add, gauges two `Cell`
//!   stores, histograms bump a fixed `[u64; 65]` bucket in a `RefCell`.
//! * **One thread.** A registry and its handles are `Rc`s: they stay on
//!   the thread of the run they meter, and the compiler rejects a handle
//!   sent to another. Handles all share the registered metric's storage;
//!   [`Histogram::merge`] is associative and commutative by construction,
//!   so separately recorded histograms fold in any order.
//! * **Never an input to simulation.** Nothing in this module feeds back
//!   into simulated time; CI byte-diffs runs with recording off vs on.
//!
//! [`Registry::snapshot`] exports everything as a sorted
//! [`shasta_stats::Snapshot`]: the bench bins and the benchmark harness read
//! its entries, and its `render()` is the deterministic text exposition.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use shasta_stats::{MetricEntry, MetricValue, Snapshot};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket *i* ≥ 1
/// holds values in `[2^(i-1), 2^i - 1]`, and bucket 64 tops out at
/// `u64::MAX`. Fixed so the storage is a flat array and merging is an
/// element-wise add.
pub const HIST_BUCKETS: usize = 65;

/// Index of the bucket that holds `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` — the value a percentile query
/// reports for samples that landed in it.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket log₂-scale histogram of `u64` samples (latencies in
/// nanoseconds, depths, sizes — anything non-negative).
///
/// `count`, `sum`, `min`, and `max` are exact; percentiles are
/// nearest-rank at bucket resolution, clamped to `max` so a one-sample
/// histogram reports that sample exactly. Merging two histograms is an
/// element-wise bucket add plus min/max combine, which makes it
/// associative and commutative — the property a fold of several
/// histograms relies on (and that the proptests in `tests/metrics_props.rs`
/// check).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank percentile at bucket resolution: the reported value is
    /// the upper bound of the bucket containing the sample of rank
    /// `ceil(q/100 · count)` (clamped to `[1, count]`), itself clamped to
    /// the exact `max`. `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Reduces to the snapshot representation used by the exposition
    /// format. All-zero when empty.
    pub fn to_value(&self) -> MetricValue {
        MetricValue::Hist {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.percentile(50.0).unwrap_or(0),
            p95: self.percentile(95.0).unwrap_or(0),
            p99: self.percentile(99.0).unwrap_or(0),
        }
    }
}

#[derive(Debug, Default)]
struct GaugeCore {
    value: Cell<u64>,
    high: Cell<u64>,
}

#[derive(Debug)]
enum Metric {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<GaugeCore>),
    Hist(Rc<RefCell<Histogram>>),
}

/// A monotonically increasing counter handle. No-op when obtained from a
/// disabled registry.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get() + n);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A level gauge handle that also tracks its high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Rc<GaugeCore>>);

impl Gauge {
    /// Sets the current level and folds it into the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.value.set(v);
            g.high.set(g.high.get().max(v));
        }
    }

    /// Current level (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.value.get())
    }

    /// High-water mark (0 for a no-op handle).
    pub fn high(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.high.get())
    }
}

/// A histogram handle; no-op when obtained from a disabled registry.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Option<Rc<RefCell<Histogram>>>);

impl HistogramHandle {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(v);
        }
    }

    /// A copy of the current contents (empty for a no-op handle).
    pub fn load(&self) -> Histogram {
        self.0.as_ref().map_or_else(Histogram::new, |h| h.borrow().clone())
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: RefCell<BTreeMap<String, Metric>>,
}

/// A registry of named metrics. Cloning shares the underlying store;
/// [`Registry::default`] (= [`Registry::disabled`]) hands out no-op
/// handles and snapshots empty, so instrumented code never branches on
/// "is telemetry on" itself.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Rc<RegistryInner>>,
}

impl Registry {
    /// An enabled registry.
    pub fn enabled() -> Registry {
        Registry { inner: Some(Rc::default()) }
    }

    /// A disabled registry: every handle it returns is a no-op.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-attaches to) the counter `name`. Registration
    /// allocates; the returned handle's `add`/`inc` never do.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else { return Counter(None) };
        let mut m = inner.metrics.borrow_mut();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Counter(Rc::default())) {
            Metric::Counter(c) => Counter(Some(Rc::clone(c))),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or re-attaches to) the gauge `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else { return Gauge(None) };
        let mut m = inner.metrics.borrow_mut();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Rc::default())) {
            Metric::Gauge(g) => Gauge(Some(Rc::clone(g))),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or re-attaches to) the histogram `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let Some(inner) = &self.inner else { return HistogramHandle(None) };
        let mut m = inner.metrics.borrow_mut();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Hist(Rc::default())) {
            Metric::Hist(h) => HistogramHandle(Some(Rc::clone(h))),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Exports every registered metric, sorted by name. Empty for a
    /// disabled registry.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let m = inner.metrics.borrow();
        let entries = m
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => {
                        MetricValue::Gauge { value: g.value.get(), high: g.high.get() }
                    }
                    Metric::Hist(h) => h.borrow().to_value(),
                },
            })
            .collect();
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            // The largest value of bucket i is one below the smallest of i+1.
            assert_eq!(bucket_of(bucket_upper(i)), i);
            assert_eq!(bucket_of(bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn one_sample_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.record(37);
        assert_eq!(h.percentile(50.0), Some(37));
        assert_eq!(h.percentile(99.0), Some(37));
        assert_eq!(h.min(), Some(37));
        assert_eq!(h.max(), Some(37));
        assert_eq!(h.sum(), 37);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!(matches!(h.to_value(), MetricValue::Hist { count: 0, .. }));
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let samples_a = [0u64, 1, 5, 1000, 1 << 40];
        let samples_b = [2u64, 2, 7, 123_456];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &samples_a {
            a.record(v);
            both.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.to_value(), both.to_value());
    }

    #[test]
    fn registry_handles_share_storage_and_snapshot_sorts() {
        let r = Registry::enabled();
        let c1 = r.counter("z.count");
        let c2 = r.counter("z.count");
        c1.add(2);
        c2.inc();
        let g = r.gauge("a.depth");
        g.set(5);
        g.set(2);
        let h = r.histogram("m.lat");
        h.record(9);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.depth", "m.lat", "z.count"]);
        assert_eq!(snap.counter("z.count"), 3);
        assert!(matches!(snap.get("a.depth"), Some(MetricValue::Gauge { value: 2, high: 5 })));
        assert!(matches!(snap.get("m.lat"), Some(MetricValue::Hist { count: 1, max: 9, .. })));
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = r.histogram("y");
        h.record(1);
        assert_eq!(h.load().count(), 0);
        assert!(r.snapshot().entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_are_rejected() {
        let r = Registry::enabled();
        let _ = r.counter("dup");
        let _ = r.gauge("dup");
    }
}
