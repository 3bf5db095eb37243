//! Log-linear histograms with lock-free recording and quantile
//! estimation.
//!
//! Buckets are **log-linear**: the positive axis is cut into powers of
//! two (octaves), and every octave is subdivided into a fixed number of
//! equal-width linear buckets. That bounds the relative quantile error
//! by `1 / subdivisions` per octave while keeping the bucket count small
//! enough to render in a Prometheus exposition (a latency histogram
//! spanning 1 µs … 16 s at 4 subdivisions is ~100 buckets).
//!
//! Recording is an atomic increment on one bucket plus an atomic `f64`
//! sum update — no locks, so job workers can record latencies at full
//! rate. Quantiles are computed from a [`HistogramSnapshot`] using
//! linear interpolation inside the selected bucket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bucket layout of a log-linear histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSpec {
    /// Lowest octave: first finite bucket upper bound is `2^min_exp`.
    pub min_exp: i32,
    /// Highest octave: last finite bucket upper bound is `2^max_exp`.
    pub max_exp: i32,
    /// Linear subdivisions per octave (≥ 1).
    pub subdivisions: u32,
}

impl BucketSpec {
    /// Validates and materializes the finite bucket upper bounds, in
    /// increasing order. Values above the last bound land in the
    /// overflow (`+Inf`) bucket.
    fn bounds(&self) -> Vec<f64> {
        assert!(self.min_exp < self.max_exp, "empty octave range");
        assert!(self.subdivisions >= 1, "need at least one subdivision");
        let mut out = Vec::new();
        // First octave's lower edge: 2^min_exp; everything below it lands
        // in the first bucket.
        for exp in self.min_exp..self.max_exp {
            let lo = 2f64.powi(exp);
            let hi = 2f64.powi(exp + 1);
            let step = (hi - lo) / f64::from(self.subdivisions);
            for i in 1..=self.subdivisions {
                out.push(lo + step * f64::from(i));
            }
        }
        out
    }
}

/// Common bucket layouts.
pub mod unit {
    use super::BucketSpec;

    /// Latency in seconds: ~1 µs to ~16 s, 4 subdivisions per octave.
    pub fn latency_seconds() -> BucketSpec {
        BucketSpec {
            min_exp: -20,
            max_exp: 4,
            subdivisions: 4,
        }
    }
}

#[derive(Debug)]
struct Inner {
    bounds: Vec<f64>,
    /// One counter per finite bucket plus the trailing overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A concurrent log-linear histogram. Cloning shares the same buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Histogram {
    /// Creates a histogram with the given bucket layout.
    pub fn new(spec: BucketSpec) -> Self {
        let bounds = spec.bounds();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(Inner {
                bounds,
                counts,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a latency histogram (seconds, ~1 µs … ~16 s).
    pub fn latency() -> Self {
        Histogram::new(unit::latency_seconds())
    }

    /// Records one observation. Negative or NaN values are clamped to 0
    /// (they would otherwise corrupt the sum).
    pub fn observe(&self, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        let idx = self.inner.bounds.partition_point(|&b| b < v);
        // ORDERING: the three fields below are independent monotone
        // statistics; scrapers tolerate (and the exposition format
        // expects) bucket/count/sum skew of a few in-flight records,
        // so no release pairing is needed between them.
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // Lock-free f64 accumulation (CAS loop, like Gauge::add).
        // ORDERING: relaxed CAS is sound because the loop re-reads the
        // actual value on failure; only atomicity of the f64 add matters.
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                // ORDERING: success/failure both relaxed — the retry
                // re-reads the live value, so atomicity is all we need.
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        // ORDERING: relaxed snapshot of a monotone counter.
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        // ORDERING: relaxed read of an independently-updated cell; the
        // value is complete in one word, so no tearing is possible.
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Consistent-enough point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .counts
                .iter()
                // ORDERING: per-bucket relaxed loads; concurrent observes
                // may land between buckets, which scrape semantics allow.
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time view of a histogram, for quantiles and exposition.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
}

impl HistogramSnapshot {
    /// Finite bucket upper bounds (the exposition's `le` values, minus
    /// the trailing `+Inf`).
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than [`bounds`](Self::bounds) (the
    /// last entry is the overflow bucket).
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of observations in the snapshot.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The observations recorded in `self` but not yet in `prev`:
    /// per-bucket saturating subtraction plus a clamped sum delta.
    ///
    /// This is the windowed view a periodic sampler needs — two
    /// cumulative snapshots of the *same* histogram bracket an interval,
    /// and the delta's [`quantile`](Self::quantile) describes only the
    /// observations that landed inside it. Snapshots with a different
    /// bucket layout (a histogram replaced under the same name) fall
    /// back to `self` unchanged, treating everything as new.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        if self.bounds != prev.bounds || self.counts.len() != prev.counts.len() {
            return self.clone();
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&prev.counts)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            sum: (self.sum - prev.sum).max(0.0),
        }
    }

    /// Quantile estimate (`q` in `0..=1`) by linear interpolation inside
    /// the bucket holding the target rank. Returns 0 on an empty
    /// histogram; the overflow bucket reports its lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Rank of the target observation, 1-based ceiling like Prometheus.
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let Some(&hi) = self.bounds.get(i) else {
                    return lo; // overflow bucket: best effort
                };
                let into = (rank - seen) as f64 / c as f64;
                return lo + (hi - lo) * into;
            }
            seen += c;
        }
        *self.bounds.last().unwrap_or(&0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_increasing_and_log_linear() {
        let spec = BucketSpec {
            min_exp: 0,
            max_exp: 3,
            subdivisions: 2,
        };
        let b = spec.bounds();
        // Octaves [1,2],[2,4],[4,8] at 2 subdivisions each.
        assert_eq!(b, vec![1.5, 2.0, 3.0, 4.0, 6.0, 8.0]);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn observe_places_values_in_right_buckets() {
        let h = Histogram::new(BucketSpec {
            min_exp: 0,
            max_exp: 3,
            subdivisions: 2,
        });
        h.observe(1.2); // -> first bucket (<= 1.5)
        h.observe(5.0); // -> bucket (4,6]
        h.observe(100.0); // -> overflow
        let s = h.snapshot();
        assert_eq!(s.counts()[0], 1);
        assert_eq!(s.counts()[4], 1);
        assert_eq!(*s.counts().last().unwrap(), 1);
        assert_eq!(s.count(), 3);
        assert!((s.sum() - 106.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new(BucketSpec {
            min_exp: -10,
            max_exp: 10,
            subdivisions: 4,
        });
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // uniform on (0, 1]
        }
        let p50 = h.snapshot().quantile(0.50);
        let p95 = h.snapshot().quantile(0.95);
        let p99 = h.snapshot().quantile(0.99);
        assert!((0.4..0.62).contains(&p50), "p50={p50}");
        assert!((0.85..1.1).contains(&p95), "p95={p95}");
        assert!((0.9..1.15).contains(&p99), "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn negative_and_nan_are_clamped() {
        let h = Histogram::latency();
        h.observe(-1.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.snapshot().counts()[0], 2);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::latency();
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
    }

    /// With `s` subdivisions per octave, a bucket spans at most a factor
    /// of `(1 + 1/s)` in value, so a quantile estimate can be off by at
    /// most that relative factor (plus rank granularity on small n).
    fn assert_close(est: f64, truth: f64, subdivisions: u32, what: &str) {
        let rel = 1.0 / f64::from(subdivisions);
        assert!(
            (est - truth).abs() <= rel * truth + f64::EPSILON,
            "{what}: estimate {est} vs truth {truth} (allowed rel {rel})"
        );
    }

    #[test]
    fn quantiles_match_exponential_distribution() {
        // Deterministic exponential stream via the inverse CDF:
        // x_i = -mean * ln(1 - u_i) for u_i uniform on (0, 1).
        let spec = BucketSpec {
            min_exp: -10,
            max_exp: 10,
            subdivisions: 8,
        };
        let h = Histogram::new(spec);
        let mean = 2.0;
        let n = 20_000;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            h.observe(-mean * (1.0 - u).ln());
        }
        let s = h.snapshot();
        // Exponential quantile function: Q(q) = -mean * ln(1 - q).
        for q in [0.5f64, 0.9, 0.95, 0.99] {
            let truth = -mean * (1.0 - q).ln();
            assert_close(s.quantile(q), truth, spec.subdivisions, "exponential");
        }
    }

    #[test]
    fn quantiles_match_deterministic_uniform_stream() {
        let spec = BucketSpec {
            min_exp: -4,
            max_exp: 12,
            subdivisions: 8,
        };
        let h = Histogram::new(spec);
        for i in 1..=10_000 {
            h.observe(i as f64 / 10.0); // uniform on (0, 1000]
        }
        let s = h.snapshot();
        for (q, truth) in [(0.25, 250.0), (0.5, 500.0), (0.75, 750.0), (0.99, 990.0)] {
            assert_close(s.quantile(q), truth, spec.subdivisions, "uniform");
        }
        // Extremes stay inside the observed range.
        assert!(s.quantile(0.0) >= 0.0);
        assert!(s.quantile(1.0) <= 1000.0 * (1.0 + 1.0 / 8.0));
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let spec = BucketSpec {
            min_exp: -10,
            max_exp: 10,
            subdivisions: 8,
        };
        let h = Histogram::new(spec);
        // Phase A: slow observations around 4.0.
        for _ in 0..1000 {
            h.observe(4.0);
        }
        let prev = h.snapshot();
        // Phase B: fast observations around 0.25.
        for _ in 0..1000 {
            h.observe(0.25);
        }
        let delta = h.snapshot().delta_since(&prev);
        assert_eq!(delta.count(), 1000);
        assert!((delta.sum() - 250.0).abs() < 1e-6);
        // The windowed p95 sees only phase B, not the slow history.
        assert_close(delta.quantile(0.95), 0.25, spec.subdivisions, "delta p95");
        // The cumulative snapshot still reflects both phases.
        assert!(h.snapshot().quantile(0.95) > 3.0);
    }

    #[test]
    fn delta_since_empty_window_is_empty() {
        let h = Histogram::latency();
        h.observe(0.5);
        let prev = h.snapshot();
        let delta = h.snapshot().delta_since(&prev);
        assert_eq!(delta.count(), 0);
        assert_eq!(delta.sum(), 0.0);
        assert_eq!(delta.quantile(0.95), 0.0);
    }

    #[test]
    fn delta_since_layout_mismatch_falls_back_to_self() {
        let a = Histogram::new(BucketSpec {
            min_exp: 0,
            max_exp: 3,
            subdivisions: 2,
        });
        let b = Histogram::latency();
        a.observe(1.0);
        a.observe(2.0);
        let delta = a.snapshot().delta_since(&b.snapshot());
        assert_eq!(delta.count(), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new(BucketSpec {
            min_exp: -4,
            max_exp: 8,
            subdivisions: 4,
        });
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.observe(((t * 10_000 + i) % 200) as f64 + 0.5);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), 80_000);
        assert_eq!(h.count(), 80_000);
        // Sum of 400 copies of (0.5 + 1.5 + ... + 199.5).
        let expected = 400.0 * (0..200).map(|v| v as f64 + 0.5).sum::<f64>();
        assert!((s.sum() - expected).abs() < 1e-6 * expected);
        // Quantiles of the uniform 0.5..199.5 distribution survive the
        // concurrent recording: with 4 subdivisions per octave the bucket
        // resolution is ~19%, so allow that much slack around the truth.
        for (q, truth) in [(0.5, 100.0), (0.95, 190.0), (0.99, 198.0)] {
            let est = s.quantile(q);
            assert!(
                (est - truth).abs() <= 0.25 * truth,
                "p{} estimate {est} too far from {truth}",
                q * 100.0
            );
        }
        // Quantiles are monotone in q.
        assert!(s.quantile(0.5) <= s.quantile(0.95));
        assert!(s.quantile(0.95) <= s.quantile(0.99));
    }
}
