//! Deterministic pseudo-randomness for the explorer's randomized mode.
//!
//! SplitMix64 (Steele, Lea, Flood — "Fast splittable pseudorandom number
//! generators", OOPSLA 2014): tiny, full-period over 2^64 seeds, and —
//! unlike anything seeded from time or `RandomState` — bit-for-bit
//! reproducible across runs, which is the whole point of a *replayable*
//! schedule explorer. The vendored `rand` stub is not used here so this
//! crate stays dependency-free.

/// A SplitMix64 generator. Same seed ⇒ same sequence, on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Every seed is valid (including 0).
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`. `n` must be nonzero.
    ///
    /// Plain modulo — the bias for the explorer's tiny `n` (a handful of
    /// runnable actors) is ~2⁻⁶⁰ and irrelevant to schedule coverage.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_stays_in_range_and_hits_all_values() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached: {seen:?}");
    }
}
