//! The metrics registry: atomic counters, gauges and fixed-bucket
//! histograms behind cloneable handles.
//!
//! Handles are `Arc`-shared atomics, so the hot path never takes the
//! registry lock — registration happens once per stage construction and
//! is idempotent (re-registering a name returns the existing handle, which
//! is how a tenant's next incarnation keeps accumulating into the same
//! counters).
//! Export happens through [`MetricsRegistry::snapshot`], a single pass
//! under one read lock, feeding the [`export`](crate::obs::export)
//! formatters.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not registered anywhere) — useful for tests and
    /// for stages running without observability.
    pub fn detached() -> Self {
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
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in one atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A detached gauge (not registered anywhere).
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default histogram buckets for stage latencies in seconds: 1 µs … 10 s,
/// roughly ×4 per step.
pub const LATENCY_BUCKETS: [f64; 10] = [
    1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 0.25, 10.0,
];

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive, Prometheus `le` semantics), strictly
    /// increasing. Values above the last bound land in the implicit
    /// `+Inf` bucket.
    bounds: Box<[f64]>,
    /// Per-bucket observation counts (NOT cumulative; one slot per bound
    /// plus the final `+Inf` slot).
    buckets: Box<[AtomicU64]>,
    /// Sum of observed values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram. Observation is lock-free: a linear probe over
/// the (small, fixed) bound array plus one relaxed `fetch_add`.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram over the given inclusive upper bounds. Bounds must be
    /// finite and strictly increasing; an implicit `+Inf` bucket is always
    /// appended.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.into(),
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// A detached latency histogram (not registered anywhere).
    pub fn detached() -> Self {
        Histogram::new(&LATENCY_BUCKETS)
    }

    /// Records one observation. `NaN` observations are dropped.
    #[inline]
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let inner = &*self.0;
        let slot = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[slot].fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.0.bounds.to_vec(),
            counts,
            sum: self.sum(),
        }
    }
}

/// One histogram's exported state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (the implicit `+Inf` bucket is `counts`'
    /// extra final entry).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cumulative counts per bound, Prometheus `le` style (the final entry
    /// is the `+Inf` total).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }
}

/// The exported value of one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's buckets and sum.
    Histogram(HistogramSnapshot),
}

/// One metric in a snapshot: family name, optional single label pair, help
/// text and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// The metric family name (e.g. `skynet_ingest_rejected_total`).
    pub name: String,
    /// An optional `(key, value)` label distinguishing series of one
    /// family (e.g. `("reason", "stale-timestamp")`).
    pub label: Option<(String, String)>,
    /// One-line help text.
    pub help: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The full series name, label included, as exporters print it.
    pub fn series(&self) -> String {
        match &self.label {
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name, k, v),
            None => self.name.clone(),
        }
    }
}

/// A one-pass, consistent-ordering snapshot of every registered metric,
/// sorted by family name then label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Every metric, in stable export order.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Looks one series up by family name and optional label value.
    pub fn get(&self, name: &str, label: Option<&str>) -> Option<&MetricSnapshot> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.label.as_ref().map(|(_, v)| v.as_str()) == label)
    }

    /// A counter's value, `0` if absent.
    pub fn counter(&self, name: &str, label: Option<&str>) -> u64 {
        match self.get(name, label).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A gauge's value, `0.0` if absent.
    pub fn gauge(&self, name: &str, label: Option<&str>) -> f64 {
        match self.get(name, label).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Registered {
    help: String,
    metric: Metric,
}

/// Key: `(family, label_value)` — the registry supports at most one label
/// key per family, which covers every SkyNet series and keeps exporters
/// simple.
type SeriesKey = (String, Option<(String, String)>);

/// The registry every pipeline stage registers its metrics into.
///
/// Cloning is cheap (shared state); the pipeline, its shards and worker
/// restarts all feed one registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RwLock<BTreeMap<SeriesKey, Registered>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register_with(&self, key: SeriesKey, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.write();
        inner
            .entry(key)
            .or_insert_with(|| Registered {
                help: help.to_string(),
                metric: make(),
            })
            .metric
            .clone()
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.labeled_counter(name, None, help)
    }

    /// Registers (or retrieves) a counter with one `(key, value)` label.
    pub fn labeled_counter(&self, name: &str, label: Option<(&str, &str)>, help: &str) -> Counter {
        let key = (
            name.to_string(),
            label.map(|(k, v)| (k.to_string(), v.to_string())),
        );
        match self.register_with(key, help, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let key = (name.to_string(), None);
        match self.register_with(key, help, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) a histogram with one `(key, value)` label
    /// and the given bucket bounds.
    pub fn histogram(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        bounds: &[f64],
        help: &str,
    ) -> Histogram {
        let key = (
            name.to_string(),
            label.map(|(k, v)| (k.to_string(), v.to_string())),
        );
        match self.register_with(key, help, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Reads every metric in one pass under one lock, in stable
    /// (family, label) order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.read();
        let metrics = inner
            .iter()
            .map(|((name, label), reg)| MetricSnapshot {
                name: name.clone(),
                label: label.clone(),
                help: reg.help.clone(),
                value: match &reg.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        RegistrySnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("skynet_test_total", "a test counter");
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying series.
        let again = reg.counter("skynet_test_total", "a test counter");
        again.inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("skynet_test_gauge", "a test gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = MetricsRegistry::new();
        let a = reg.labeled_counter("skynet_rej_total", Some(("reason", "stale")), "rejects");
        let b = reg.labeled_counter("skynet_rej_total", Some(("reason", "corrupt")), "rejects");
        a.inc();
        a.inc();
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("skynet_rej_total", Some("stale")), 2);
        assert_eq!(snap.counter("skynet_rej_total", Some("corrupt")), 1);
        assert_eq!(snap.counter("skynet_rej_total", Some("missing")), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Exactly on a bound lands in that bound's bucket (`le` semantics).
        h.observe(1.0);
        h.observe(2.0);
        h.observe(4.0);
        // Strictly between bounds lands in the next bucket up.
        h.observe(1.5);
        // Below the first bound lands in the first bucket.
        h.observe(0.0);
        h.observe(-3.0);
        // Above the last bound lands in the +Inf bucket.
        h.observe(4.000001);
        h.observe(f64::INFINITY);
        // NaN is dropped.
        h.observe(f64::NAN);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![3, 2, 1, 2]);
        assert_eq!(snap.cumulative(), vec![3, 5, 6, 8]);
        assert_eq!(snap.count(), 8);
        assert_eq!(h.count(), 8);
        assert!(h.sum().is_infinite());
    }

    #[test]
    fn histogram_sum_accumulates() {
        let h = Histogram::new(&[10.0]);
        for v in [1.0, 2.5, 3.5] {
            h.observe(v);
        }
        assert_eq!(h.sum(), 7.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("skynet_x", "x");
        let _ = reg.gauge("skynet_x", "x");
    }

    #[test]
    fn snapshot_is_ordered_and_serializable() {
        let reg = MetricsRegistry::new();
        reg.counter("skynet_b_total", "b").inc();
        reg.counter("skynet_a_total", "a").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["skynet_a_total", "skynet_b_total"]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("skynet_par_total", "parallel");
        let h = reg.histogram("skynet_par_seconds", None, &LATENCY_BUCKETS, "parallel");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                        h.observe(1e-5);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert!((h.sum() - 0.4).abs() < 1e-9);
    }
}
