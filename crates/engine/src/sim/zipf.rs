//! Deterministic Zipf sampling for skewed access patterns.
//!
//! The paper generates all data uniformly (Section III-B); real workloads
//! skew. A Zipf-distributed group column concentrates hash-table accesses
//! on a hot set much smaller than `groups × entry` — which moves an
//! "oversized" aggregation back into the cache-sensitive regime. The
//! `abl_skew` bench quantifies this with the skewed twin.
//!
//! Sampling uses Hörmann & Derflinger's rejection-inversion method (the
//! algorithm behind `rand_distr::Zipf`): O(1) expected time for any domain
//! size and exponent, no precomputed tables — important because simulated
//! dictionaries have millions of entries.

use super::SimRng;

/// Rejection-inversion Zipf sampler over `1..=n` with exponent `s > 0`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
}

/// `H(x) = ∫ x^-s dx`, the integral of the unnormalized density.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    if (s - 1.0).abs() < 1e-9 {
        log_x
    } else {
        ((1.0 - s) * log_x).exp_m1() / (1.0 - s)
    }
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(y: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-9 {
        y.exp()
    } else {
        let t = (y * (1.0 - s)).max(-1.0 + 1e-15);
        ((1.0 / (1.0 - s)) * t.ln_1p()).exp()
    }
}

/// The unnormalized density `h(x) = x^-s`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

impl ZipfSampler {
    /// Creates a sampler over `1..=n` with exponent `s`.
    ///
    /// # Panics
    /// Panics when `n` is zero or `s` is not positive and finite.
    pub(crate) fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            s > 0.0 && s.is_finite(),
            "Zipf exponent must be positive, got {s}"
        );
        ZipfSampler {
            n,
            s,
            h_x1: h_integral(1.5, s) - 1.0,
            h_n: h_integral(n as f64 + 0.5, s),
        }
    }

    /// Draws one value in `1..=n`; rank 1 is the most frequent.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            // Uniform f64 in [0, 1) from the top 53 bits.
            let u01 = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let u = self.h_n + u01 * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            // Accept if u lies under the density bar at k.
            if u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(n: u64, s: f64, draws: usize) -> Vec<u64> {
        let z = ZipfSampler::new(n, s);
        let mut rng = SimRng::new(42);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            let v = z.sample(&mut rng);
            assert!((1..=n).contains(&v));
            counts[(v - 1) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_domain_and_are_deterministic() {
        let z = ZipfSampler::new(1000, 0.99);
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn frequencies_follow_the_power_law() {
        // s = 1: count(rank 1) / count(rank 10) ≈ 10.
        let counts = histogram(1000, 1.0, 200_000);
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(
            (5.0..20.0).contains(&ratio),
            "rank1/rank10 ratio {ratio}, expected ~10"
        );
        // Monotone non-increasing on average over the head.
        assert!(counts[0] > counts[4] && counts[4] > counts[49]);
    }

    #[test]
    fn low_exponent_is_nearly_uniform() {
        let counts = histogram(100, 0.05, 100_000);
        let (min, max) = counts
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(
            (max as f64) < 3.0 * min as f64,
            "s→0 should be near-uniform, got min {min} max {max}"
        );
    }

    #[test]
    fn high_exponent_concentrates_on_the_head() {
        let counts = histogram(10_000, 1.5, 50_000);
        let head: u64 = counts[..10].iter().sum();
        assert!(
            head as f64 > 0.7 * 50_000.0,
            "s=1.5: top-10 ranks should dominate, got {head}"
        );
    }

    #[test]
    fn huge_domains_sample_in_constant_time() {
        // 100M-entry domain (a 400 MiB dictionary): no tables, no stalls.
        let z = ZipfSampler::new(100_000_000, 0.99);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let v = z.sample(&mut rng);
            assert!((1..=100_000_000).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_domain_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
