//! Join bit vectors.
//!
//! The OLAP-optimized foreign-key join (paper Section II/III-A, Query 3)
//! maps the primary-key range `1..=N` to a bit vector of `N` bits: bit `i`
//! is set when primary key `i` qualifies. Probing a foreign key is a single
//! random bit test — the data structure whose size relative to the LLC
//! decides whether the join is cache-polluting or cache-sensitive.
//!
//! Both of the join's vectors are filled from sorted input — the build
//! side from the primary-key dictionary, the probe side's code-domain
//! translation from the foreign-key dictionary — so
//! [`BitVec::from_ascending`] is the constructor and
//! [`BitVec::count_set`] the probe: a block of unpacked codes in, the
//! number of set bits among them out.

/// A fixed-size bit vector backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: u64,
}

impl BitVec {
    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: u64) -> Self {
        BitVec {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
        }
    }

    /// Creates a vector of `len` bits with exactly the bits in `bits` set.
    /// `bits` must ascend (repeats allowed), which lets the word under
    /// construction stay in a register: each backing word is stored once,
    /// in address order, however many of its bits are set.
    ///
    /// # Panics
    /// Panics on a bit `>= len` and on a bit smaller than its predecessor.
    pub fn from_ascending(len: u64, bits: impl IntoIterator<Item = u64>) -> Self {
        let mut bv = BitVec::zeros(len);
        let (mut word, mut at, mut prev) = (0u64, 0usize, 0u64);
        for bit in bits {
            assert!(bit < len, "bit {bit} out of range (len {len})");
            assert!(bit >= prev, "bit {bit} after {prev}: input must ascend");
            prev = bit;
            let idx = (bit / 64) as usize;
            if idx != at {
                bv.words[at] = word;
                (word, at) = (0, idx);
            }
            word |= 1u64 << (bit % 64);
        }
        if let Some(slot) = bv.words.get_mut(at) {
            *slot = word;
        }
        bv
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes — 10⁸ primary keys cost 12.5 MB, the paper's
    /// "comparable to the LLC" case.
    pub fn size_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }

    /// [`size_bytes`](Self::size_bytes) of a vector of `len` bits, without
    /// building it — what a footprint estimate needs before the vector
    /// exists.
    pub fn bytes_for(len: u64) -> u64 {
        len.div_ceil(64) * 8
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics on out-of-range `i`.
    #[inline]
    pub fn set(&mut self, i: u64) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics on out-of-range `i`.
    #[inline]
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// How many of `codes` address a set bit — the join probe's block
    /// kernel: one shift-and-mask per code, summed, no branch on the bit.
    ///
    /// # Panics
    /// Panics when a code addresses a word past the end of the vector.
    pub fn count_set(&self, codes: &[u32]) -> u64 {
        let hits: u32 = codes
            .iter()
            .map(|&c| (self.words[(c / 64) as usize] >> (c % 64)) as u32 & 1)
            .sum();
        u64::from(hits)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut b = BitVec::zeros(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
    }

    #[test]
    fn count_ones() {
        let mut b = BitVec::zeros(1000);
        for i in (0..1000).step_by(3) {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 334);
    }

    #[test]
    fn size_matches_paper_cases() {
        // 10^8 keys -> 12.5 MB (paper Section IV-C).
        let b = BitVec::zeros(100_000_000);
        assert_eq!(b.size_bytes(), 12_500_000);
        // 10^6 keys -> 125 KB, "almost fits in the L2 cache".
        let b = BitVec::zeros(1_000_000);
        assert_eq!(b.size_bytes(), 125_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn empty_vector() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.size_bytes(), 0);
    }
}
