//! Small helpers shared by the workloads: order statistics, the tail
//! percentile rule, metric-name validation, the metric table and its JSON
//! line, the open-loop arrival schedule, and the seeded input generator.

use std::collections::BTreeMap;

/// Linear-interpolated quantile `q` in `[0, 1]` of already sorted values.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorted copy of `values` (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentiles the tail rule may report, in per-mille, highest first.
const TAIL_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 500];

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_PER_MILLE`] that has at least ten
/// samples beyond it; `None` when even the median has fewer than ten.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len() as u64;
    let pm = TAIL_PER_MILLE
        .iter()
        .copied()
        .find(|&pm| n - (n * pm).div_ceil(1000) >= 10)?;
    Some(Tail {
        pct: pm as f64 / 10.0,
        value: quantile_sorted(&sorted(values), pm as f64 / 1000.0),
        samples: values.len(),
    })
}

/// Whether `name` may be printed as a metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Iterate `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    /// Fails on an invalid name or a non-finite value, neither of which
    /// may reach the output.
    pub fn result_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.0.len());
        for (name, value, unit) in self.iter() {
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            body.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        ))
    }
}

/// A fixed-rate arrival schedule: request `i` is due `i / rate` seconds
/// after the phase starts, whether or not earlier requests were answered.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate_hz: f64,
}

impl Schedule {
    /// A schedule of `rate_hz` arrivals per second (must be positive).
    pub fn new(rate_hz: f64) -> Schedule {
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        Schedule { rate_hz }
    }

    /// Requests due within a phase of `secs` seconds.
    pub fn count(&self, secs: f64) -> usize {
        // The epsilon keeps 5.0 s at 200/s at exactly 1000 arrivals.
        (secs * self.rate_hz + 1e-9).floor().max(0.0) as usize
    }

    /// When request `i` is due, in seconds from the phase start.
    pub fn due(&self, i: usize) -> f64 {
        i as f64 / self.rate_hz
    }

    /// How long a sender at `now` still waits for request `i` (0 if late).
    pub fn wait(&self, i: usize, now: f64) -> f64 {
        (self.due(i) - now).max(0.0)
    }

    /// How late a send at `sent` was for request `i` (0 if on time).
    pub fn lag(&self, i: usize, sent: f64) -> f64 {
        (sent - self.due(i)).max(0.0)
    }
}

/// SplitMix64: the seeded generator behind every benchmark input choice.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&v(1000)).unwrap();
        assert_eq!((t.pct, t.samples), (99.0, 1000));
        // 10 000 samples support p99.9.
        assert_eq!(tail(&v(10_000)).unwrap().pct, 99.9);
        // 999 samples: p99 leaves 9 beyond, so p95 it is.
        assert_eq!(tail(&v(999)).unwrap().pct, 95.0);
        assert_eq!(tail(&v(200)).unwrap().pct, 95.0);
        assert_eq!(tail(&v(100)).unwrap().pct, 90.0);
        assert_eq!(tail(&v(20)).unwrap().pct, 50.0);
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_value_is_the_interpolated_percentile() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert!((t.value - 990.01).abs() < 1e-9, "{}", t.value);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "serve.light.p50_ms",
            "nn.matmul.fwd_us",
            "a",
            "9x-y",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "semi;colon",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn result_json_rejects_bad_names_and_non_finite_values() {
        let mut m = Metrics::default();
        m.put("b_s", 1.5, "s");
        m.put("a_ms", 0.25, "ms");
        assert_eq!(
            m.result_json(true, 3, 0).unwrap(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"a_ms\":{\"value\":0.25,\"unit\":\"ms\"},\"b_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        m.put("nan_s", f64::NAN, "s");
        assert!(m.result_json(true, 3, 0).is_err());
        let mut bad = Metrics::default();
        bad.put("bad name", 1.0, "s");
        assert!(bad.result_json(true, 1, 0).is_err());
    }

    #[test]
    fn schedule_arithmetic() {
        let s = Schedule::new(200.0);
        assert_eq!(s.count(5.0), 1000);
        assert_eq!(s.count(0.004), 0);
        assert_eq!(s.count(0.005), 1);
        assert_eq!(s.due(0), 0.0);
        assert!((s.due(200) - 1.0).abs() < 1e-12);
        assert!((s.due(999) - 4.995).abs() < 1e-12);
        // A sender ahead of schedule waits; one behind it waits not at all
        // and the overshoot is its lag.
        assert!((s.wait(10, 0.045) - 0.005).abs() < 1e-12);
        assert_eq!(s.wait(10, 0.06), 0.0);
        assert!((s.lag(10, 0.0512) - 0.0012).abs() < 1e-12);
        assert_eq!(s.lag(10, 0.049), 0.0);
        // The schedule never depends on replies: due times are a pure
        // function of the index.
        let again = Schedule::new(200.0);
        assert!((0..1000).all(|i| s.due(i) == again.due(i)));
    }

    #[test]
    fn splitmix_is_seeded_and_shuffles_a_permutation() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut v: Vec<usize> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..50).collect::<Vec<_>>());
        assert_ne!(v, w);
    }
}
