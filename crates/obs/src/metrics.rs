//! The process-wide metrics registry: atomic counters, gauges and
//! fixed-bucket histograms, keyed by static names.
//!
//! Handles are registered on first use and leaked (the metric set of a
//! process is small and bounded by the number of instrumentation
//! sites), so recording through a held handle is a single atomic RMW.
//! The free functions ([`count`], [`gauge_set`], [`observe`]) look the
//! handle up per call behind the global enabled check — convenient for
//! call sites that fire at most a few thousand times per second.
//!
//! Values are plain `u64`/`f64`; span durations are recorded in
//! nanoseconds (see [`crate::span`]), other histograms define their own
//! unit (documented at the instrumentation site).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two histogram buckets: bucket `b` counts values
/// `v` with `64 - v.leading_zeros() == b`, i.e. `v in [2^(b-1), 2^b)`
/// (bucket 0 counts zero). 40 buckets cover up to ~9 minutes in ns.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Counter {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds `n`; no-op while observability is disabled.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub(crate) fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    const fn new() -> Gauge {
        Gauge { bits: AtomicU64::new(0) }
    }

    /// Stores `v`; no-op while observability is disabled.
    #[inline]
    pub(crate) fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 before the first `set`).
    pub(crate) fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket (power-of-two) histogram with count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    const fn new() -> Histogram {
        #[expect(clippy::declare_interior_mutable_const, reason = "ZERO only seeds the array")]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample; no-op while observability is disabled.
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the aggregates.
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Aggregates of a [`Histogram`] at one point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean sample value; 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's value in a [`snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// A histogram's aggregates.
    Histogram(HistSnapshot),
}

#[derive(Clone, Copy)]
enum Entry {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<BTreeMap<&'static str, Entry>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Entry>> {
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The counter registered under `name` (registered on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub(crate) fn counter(name: &'static str) -> &'static Counter {
    match registry().entry(name).or_insert_with(|| Entry::Counter(Box::leak(Box::new(Counter::new())))) {
        Entry::Counter(c) => c,
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// The gauge registered under `name` (registered on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub(crate) fn gauge(name: &'static str) -> &'static Gauge {
    match registry().entry(name).or_insert_with(|| Entry::Gauge(Box::leak(Box::new(Gauge::new())))) {
        Entry::Gauge(g) => g,
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// The histogram registered under `name` (registered on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn histogram(name: &'static str) -> &'static Histogram {
    match registry()
        .entry(name)
        .or_insert_with(|| Entry::Histogram(Box::leak(Box::new(Histogram::new()))))
    {
        Entry::Histogram(h) => h,
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// Adds `n` to the counter `name`; single relaxed-load no-op while
/// observability is disabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if crate::enabled() {
        counter(name).add(n);
    }
}

/// Sets the gauge `name` to `v`; no-op while observability is disabled.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if crate::enabled() {
        gauge(name).set(v);
    }
}

/// Records `v` into the histogram `name`; no-op while observability is
/// disabled.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if crate::enabled() {
        histogram(name).record(v);
    }
}

/// The current value of the counter `name` (0 if never registered).
pub fn counter_value(name: &str) -> u64 {
    match registry().get(name) {
        Some(Entry::Counter(c)) => c.value(),
        _ => 0,
    }
}

/// A point-in-time copy of every registered metric, name-sorted.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    registry()
        .iter()
        .map(|(&name, entry)| {
            let value = match entry {
                Entry::Counter(c) => MetricValue::Counter(c.value()),
                Entry::Gauge(g) => MetricValue::Gauge(g.value()),
                Entry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (name, value)
        })
        .collect()
}

/// The snapshot as a JSON object (used for the trailing trace record
/// and `bench_obs`).
pub(crate) fn snapshot_json() -> serde_json::Value {
    let mut map = serde_json::Map::new();
    for (name, value) in snapshot() {
        let v = match value {
            MetricValue::Counter(c) => serde_json::json!({ "type": "counter", "value": c }),
            MetricValue::Gauge(g) => serde_json::json!({
                "type": "gauge",
                "value": serde_json::Number::from_f64(g)
                    .map(serde_json::Value::Number)
                    .unwrap_or(serde_json::Value::Null),
            }),
            MetricValue::Histogram(h) => serde_json::json!({
                "type": "histogram",
                "count": h.count,
                "sum": h.sum,
                "min": h.min,
                "max": h.max,
                "mean": serde_json::Number::from_f64(h.mean())
                    .map(serde_json::Value::Number)
                    .unwrap_or(serde_json::Value::Null),
            }),
        };
        map.insert(name.to_string(), v);
    }
    serde_json::Value::Object(map)
}

/// Zeroes every registered metric (handles stay registered). Used by
/// benches and tests that measure from a clean slate.
pub(crate) fn reset_values() {
    for entry in registry().values() {
        match entry {
            Entry::Counter(c) => c.reset(),
            Entry::Gauge(g) => g.reset(),
            Entry::Histogram(h) => h.reset(),
        }
    }
}
