//! Seeded data generators reproducing the paper's data sets (Section III-B).
//!
//! All generators take an explicit seed and use `StdRng`, so every
//! experiment is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `n` integers drawn uniformly from `1..=max` — the paper's Query 1 column
/// (`10⁹` values in `1..=10⁶`) and Query 2 columns use this distribution.
pub fn uniform_ints(n: usize, max: i64, seed: u64) -> Vec<i64> {
    let mut out = Vec::new();
    uniform_ints_into(&mut out, n, max, seed);
    out
}

/// [`uniform_ints`] drawn into `out`, replacing its contents, so a caller
/// building several columns draws them all through one row-sized buffer.
pub fn uniform_ints_into(out: &mut Vec<i64>, n: usize, max: i64, seed: u64) -> &[i64] {
    assert!(max >= 1, "max must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    out.clear();
    out.extend((0..n).map(|_| rng.gen_range(1..=max)));
    out
}

/// A shuffled permutation of `1..=n` — the paper's Query 3 primary-key
/// column (distinct keys covering the full range).
pub fn primary_keys(n: usize, seed: u64) -> Vec<i64> {
    let mut keys: Vec<i64> = (1..=n as i64).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(seed));
    keys
}

/// `n` foreign keys referencing a primary-key domain `1..=pk_max` —
/// the paper's Query 3 probe column (`10⁹` keys referencing `P`).
pub fn foreign_keys(n: usize, pk_max: i64, seed: u64) -> Vec<i64> {
    uniform_ints(n, pk_max, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drawing_into_a_used_buffer_replaces_its_contents() {
        let mut buf = vec![-1; 5000];
        assert_eq!(
            uniform_ints_into(&mut buf, 1000, 100, 42),
            uniform_ints(1000, 100, 42)
        );
        assert_eq!(buf.len(), 1000);
    }

    #[test]
    fn uniform_is_seed_deterministic_and_in_range() {
        let a = uniform_ints(1000, 100, 42);
        let b = uniform_ints(1000, 100, 42);
        let c = uniform_ints(1000, 100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (1..=100).contains(&v)));
    }

    #[test]
    fn uniform_covers_domain() {
        let v = uniform_ints(10_000, 10, 7);
        for d in 1..=10i64 {
            assert!(v.contains(&d), "value {d} never drawn");
        }
    }

    #[test]
    fn primary_keys_are_a_permutation() {
        let pk = primary_keys(1000, 1);
        let mut sorted = pk.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=1000).collect::<Vec<i64>>());
        // Shuffled, not identity.
        assert_ne!(pk, sorted);
    }

    #[test]
    fn foreign_keys_reference_domain() {
        let fk = foreign_keys(5000, 100, 3);
        assert!(fk.iter().all(|&v| (1..=100).contains(&v)));
    }
}
