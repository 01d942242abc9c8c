//! A process-wide metrics registry: counters, gauges, and log-bucket
//! histograms addressable by name plus label set.
//!
//! Handles are cheap `Arc` clones; fetch them once (e.g. in a `OnceLock`)
//! and update them with single atomic operations on the hot path. The
//! registry itself is a mutex-guarded map touched only at handle-creation
//! time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets between the underflow and
/// overflow buckets: exponents [`MIN_EXP`] ..= [`MAX_EXP`].
const EXP_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Smallest finite bucket holds values in `[2^MIN_EXP, 2^(MIN_EXP+1))`.
const MIN_EXP: i32 = -16;
/// Largest finite bucket holds values in `[2^MAX_EXP, 2^(MAX_EXP+1))`.
const MAX_EXP: i32 = 31;
/// Total bucket count: underflow + exponent buckets + overflow.
pub const BUCKETS: usize = EXP_BUCKETS + 2;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    Key {
        name: name.to_string(),
        labels,
    }
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramInner>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<HashMap<Key, Metric>> {
    static REGISTRY: OnceLock<Mutex<HashMap<Key, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn get_or_insert<T>(
    name: &str,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> Metric,
    extract: impl Fn(&Metric) -> Option<T>,
) -> T {
    let key = key(name, labels);
    // Poison recovery: the map is only inserted into under the lock, so a
    // panicked registrant leaves it structurally intact.
    let mut map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let metric = map.entry(key).or_insert_with(make);
    let extracted = extract(metric);
    let type_name = metric.type_name();
    // Release the lock before panicking so a type-mismatch doesn't poison
    // the whole registry for unrelated threads.
    drop(map);
    extracted.unwrap_or_else(|| panic!("metric '{name}' already registered as a {type_name}"))
}

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (stores an `f64`).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    counts: [AtomicU64; BUCKETS],
    sum_bits: AtomicU64,
}

/// Log-bucket histogram handle: power-of-two buckets spanning
/// `2^-16 ..= 2^32`, plus underflow and overflow buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// The bucket a value lands in: 0 is underflow (everything below
/// `2^-16`, including zero, negatives, and NaN), `BUCKETS - 1` is overflow
/// (`>= 2^32`), and bucket `i` in between holds `[2^(i-1-16), 2^(i-16))`.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < f64::powi(2.0, MIN_EXP) {
        return 0;
    }
    if v >= f64::powi(2.0, MAX_EXP + 1) {
        return BUCKETS - 1;
    }
    // log2(v) in [MIN_EXP, MAX_EXP+1); floor gives the bucket exponent.
    let exp = v.log2().floor() as i32;
    let exp = exp.clamp(MIN_EXP, MAX_EXP);
    (exp - MIN_EXP) as usize + 1
}

/// The half-open value range `[lo, hi)` covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i == 0 {
        return (f64::NEG_INFINITY, f64::powi(2.0, MIN_EXP));
    }
    if i == BUCKETS - 1 {
        return (f64::powi(2.0, MAX_EXP + 1), f64::INFINITY);
    }
    let exp = MIN_EXP + (i as i32 - 1);
    (f64::powi(2.0, exp), f64::powi(2.0, exp + 1))
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: f64) {
        self.0.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// A consistent-enough copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
            counts,
        }
    }
}

/// Point-in-time histogram contents.
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; index with [`bucket_index`].
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: f64,
}

/// The representative value reported for bucket `i`: the midpoint of its
/// bounds, except the underflow bucket (whose lower bound is -inf) reports
/// half its upper bound and the overflow bucket (upper bound +inf) reports
/// its lower bound.
fn bucket_midpoint(i: usize) -> f64 {
    let (lo, hi) = bucket_bounds(i);
    if i == 0 {
        hi / 2.0
    } else if i == BUCKETS - 1 {
        lo
    } else {
        (lo + hi) / 2.0
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// The estimated `q`-quantile (`q` in `[0, 1]`), read from bucket
    /// midpoints: the rank-`ceil(q·n)` observation's bucket reports its
    /// midpoint. Log buckets bound the relative error at ~±33% within a
    /// bucket, which is enough for regression gating. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_midpoint(i);
            }
        }
        bucket_midpoint(BUCKETS - 1)
    }

    /// The (p50, p95, p99) triple reports quote.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
        )
    }
}

/// Fetch (or create) the counter `name{labels}`. Panics if the key is
/// already registered as a different metric type.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    get_or_insert(
        name,
        labels,
        || Metric::Counter(Arc::new(AtomicU64::new(0))),
        |m| match m {
            Metric::Counter(c) => Some(Counter(c.clone())),
            _ => None,
        },
    )
}

/// Fetch (or create) the gauge `name{labels}`. Panics if the key is already
/// registered as a different metric type.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    get_or_insert(
        name,
        labels,
        || Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        |m| match m {
            Metric::Gauge(g) => Some(Gauge(g.clone())),
            _ => None,
        },
    )
}

/// Fetch (or create) the histogram `name{labels}`. Panics if the key is
/// already registered as a different metric type.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Histogram {
    get_or_insert(
        name,
        labels,
        || {
            Metric::Histogram(Arc::new(HistogramInner {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }))
        },
        |m| match m {
            Metric::Histogram(h) => Some(Histogram(h.clone())),
            _ => None,
        },
    )
}

/// One registered metric, sampled: the payload of a `metric` trace event.
pub struct MetricSample {
    /// Metric name with the sorted label set folded in
    /// (`name{k="v",...}`).
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Counter total, gauge value, or histogram mean.
    pub value: f64,
    /// Histogram observation count (`None` for counters/gauges).
    pub count: Option<u64>,
    /// Histogram (p50, p95, p99) estimate (`None` for counters/gauges).
    pub percentiles: Option<(f64, f64, f64)>,
}

fn fold_name(key: &Key) -> String {
    if key.labels.is_empty() {
        key.name.clone()
    } else {
        let inner: Vec<String> = key
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        format!("{}{{{}}}", key.name, inner.join(","))
    }
}

/// Sample every registered metric, sorted by folded name.
pub fn samples() -> Vec<MetricSample> {
    // Poison recovery: sampling reads atomics only, safe after any panic.
    let map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out: Vec<MetricSample> = map
        .iter()
        .map(|(key, metric)| {
            let name = fold_name(key);
            match metric {
                Metric::Counter(c) => MetricSample {
                    name,
                    kind: "counter",
                    value: c.load(Ordering::Relaxed) as f64,
                    count: None,
                    percentiles: None,
                },
                Metric::Gauge(g) => MetricSample {
                    name,
                    kind: "gauge",
                    value: f64::from_bits(g.load(Ordering::Relaxed)),
                    count: None,
                    percentiles: None,
                },
                Metric::Histogram(h) => {
                    let snap = Histogram(h.clone()).snapshot();
                    MetricSample {
                        name,
                        kind: "histogram",
                        value: snap.mean(),
                        count: Some(snap.count()),
                        percentiles: Some(snap.percentiles()),
                    }
                }
            }
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Drop every registered metric (test isolation).
pub fn reset() {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_under_and_overflow() {
        // Exact powers of two start a fresh bucket; just below stays in the
        // previous one.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::powi(2.0, MIN_EXP) / 2.0), 0);
        assert_eq!(bucket_index(f64::powi(2.0, MIN_EXP)), 1);
        assert_eq!(bucket_index(1.0), (0 - MIN_EXP) as usize + 1);
        assert_eq!(bucket_index(1.5), bucket_index(1.0));
        assert_eq!(bucket_index(2.0), bucket_index(1.0) + 1);
        assert_eq!(bucket_index(f64::powi(2.0, MAX_EXP + 1) - 1.0), BUCKETS - 2);
        assert_eq!(bucket_index(f64::powi(2.0, MAX_EXP + 1)), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);

        // Bounds agree with the index function across every bucket.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            if lo.is_finite() {
                assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            }
            if hi.is_finite() {
                assert_eq!(bucket_index(hi), i + 1, "upper bound of bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = histogram("test_hist_records", &[]);
        h.record(1.0);
        h.record(1.9);
        h.record(1e12); // overflow (> 2^32)
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.counts[bucket_index(1.0)], 2);
        assert_eq!(snap.counts[BUCKETS - 1], 1);
        assert!((snap.sum - (1.0 + 1.9 + 1e12)).abs() < 1e-6);
    }

    #[test]
    fn label_identity_and_order_insensitivity() {
        let a = counter("test_label_identity", &[("ds", "rel"), ("rate", "low")]);
        let b = counter("test_label_identity", &[("rate", "low"), ("ds", "rel")]);
        let c = counter("test_label_identity", &[("ds", "semi"), ("rate", "low")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name+labels must share a value");
        assert_eq!(c.get(), 0, "different labels must be distinct");
    }

    #[test]
    fn gauge_set_get() {
        let g = gauge("test_gauge_roundtrip", &[]);
        g.set(-3.75);
        assert_eq!(g.get(), -3.75);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        counter("test_type_mismatch", &[]);
        gauge("test_type_mismatch", &[]);
    }

    #[test]
    fn percentiles_pin_a_known_distribution() {
        // 50 obs in [1,2), 45 in [2,4), 5 in [64,128): with rank = ceil(q·n),
        // p50 lands on the last observation of the first bucket, p95 on the
        // last of the second, p99 in the tail bucket. Midpoints: 1.5, 3, 96.
        let h = histogram("test_hist_percentiles", &[]);
        for _ in 0..50 {
            h.record(1.0);
        }
        for _ in 0..45 {
            h.record(3.0);
        }
        for _ in 0..5 {
            h.record(100.0);
        }
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.50), 1.5);
        assert_eq!(snap.percentile(0.95), 3.0);
        assert_eq!(snap.percentile(0.99), 96.0);
        assert_eq!(snap.percentiles(), (1.5, 3.0, 96.0));
        // q=0 clamps to the first observation, q=1 to the last.
        assert_eq!(snap.percentile(0.0), 1.5);
        assert_eq!(snap.percentile(1.0), 96.0);
    }

    #[test]
    fn percentile_edge_buckets_and_empty() {
        let empty = HistogramSnapshot {
            counts: vec![0; BUCKETS],
            sum: 0.0,
        };
        assert_eq!(empty.percentile(0.5), 0.0);

        // Underflow observations report half the smallest finite bound;
        // overflow observations report the overflow lower bound.
        let h = histogram("test_hist_percentile_edges", &[]);
        h.record(0.0); // underflow
        h.record(1e12); // overflow (>= 2^32)
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.25), f64::powi(2.0, MIN_EXP) / 2.0);
        assert_eq!(snap.percentile(1.0), f64::powi(2.0, MAX_EXP + 1));
    }

    #[test]
    fn samples_fold_labels_and_quote_percentiles() {
        counter("test_samples_counter", &[("b", "2"), ("a", "1")]).add(3);
        let h = histogram("test_samples_hist", &[]);
        h.record(1.0);
        let all = samples();
        let c = all
            .iter()
            .find(|s| s.name == "test_samples_counter{a=\"1\",b=\"2\"}")
            .expect("counter sample missing");
        assert_eq!(c.kind, "counter");
        assert!(c.value >= 3.0);
        assert!(c.percentiles.is_none());
        let hs = all
            .iter()
            .find(|s| s.name == "test_samples_hist")
            .expect("histogram sample missing");
        assert_eq!(hs.kind, "histogram");
        assert!(hs.count.unwrap_or(0) >= 1);
        assert!(hs.percentiles.is_some());
    }
}
