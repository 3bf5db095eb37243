//! Join bit vectors.
//!
//! The OLAP-optimized foreign-key join (paper Section II/III-A, Query 3)
//! maps the primary-key range `1..=N` to a bit vector of `N` bits: bit `i`
//! is set when primary key `i` qualifies. Probing a foreign key is a single
//! random bit test — the data structure whose size relative to the LLC
//! decides whether the join is cache-polluting or cache-sensitive.
//!
//! The join's build side is filled from sorted input, the primary-key
//! dictionary, so [`BitVec::from_ascending`] is its constructor. The
//! probe side's code-domain vector is written a word at a time by
//! [`BitVec::held_words`] — 64 foreign keys in, one word of "is it held"
//! lanes out — and assembled by [`BitVec::from_words`]. [`BitVec::count_set`]
//! is the probe: a block of unpacked codes in, the number of set bits among
//! them out.

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

    /// The vector of `len` bits whose backing words are `words`, bit `i`
    /// at bit `i % 64` of word `i / 64` — how a vector written a word at a
    /// time (by [`held_words`](Self::held_words)) is put together.
    ///
    /// # Panics
    /// Panics unless there are exactly `len.div_ceil(64)` words and no bit
    /// at or past `len` is set.
    pub fn from_words(len: u64, words: Vec<u64>) -> Self {
        assert_eq!(words.len() as u64, len.div_ceil(64), "words for {len} bits");
        let spare = match words.last() {
            Some(&w) if !len.is_multiple_of(64) => w >> (len % 64),
            _ => 0,
        };
        assert!(spare == 0, "a bit at or past {len} is set");
        BitVec { words, len }
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

    /// One word per 64 of `keys` (the last one for the rest): lane `j` of
    /// word `w` is set iff the vector holds `keys[64 * w + j]`. A negative
    /// key, or one at or past [`len`](Self::len), is not held. This is the
    /// join's translation kernel: no branch on a key, and each word is
    /// stored once.
    pub fn held_words<'a>(&'a self, keys: &'a [i64]) -> impl Iterator<Item = u64> + 'a {
        // One readable word even when the vector has none, so the clamped
        // index below is always in bounds.
        let words: &[u64] = if self.words.is_empty() {
            &[0]
        } else {
            &self.words
        };
        let last = words.len() - 1;
        keys.chunks(64).map(move |lanes| {
            let mut word = 0u64;
            for (lane, &key) in lanes.iter().enumerate() {
                // A negative key wraps past every `len`. A key at or past
                // `len` reads a clamped word, and `held` clears its lane.
                let key = key as u64;
                let held = u64::from(key < self.len);
                let bits = words[((key / 64) as usize).min(last)];
                word |= ((bits >> (key % 64)) & held) << lane;
            }
            word
        })
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
    #[should_panic(expected = "a bit at or past 70 is set")]
    fn from_words_rejects_a_bit_past_len() {
        BitVec::from_words(70, vec![0, 1 << 6]);
    }

    #[test]
    #[should_panic(expected = "words for 65 bits")]
    fn from_words_rejects_a_short_vector() {
        BitVec::from_words(65, vec![0]);
    }

    #[test]
    fn empty_vector() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.size_bytes(), 0);
    }
}
