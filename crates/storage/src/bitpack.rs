//! Bit-packed code vectors.
//!
//! Dictionary codes are stored in fixed-width bit fields packed back to
//! back into `u64` words (the paper's 10⁹-row column of 10⁶ distinct values
//! packs each 32-bit integer into 20 bits). Every row-sequential consumer
//! — the scan kernel ([`PackedCodeVector::count_in_range`]), aggregation,
//! the join probe, TPC-H Q1/Q6 — reads the column through one block
//! decoder, [`PackedCodeVector::unpack`]: it expands at most
//! [`SCAN_BLOCK`] codes at a time into a stack buffer
//! that stays in L1, so the predicate is evaluated on codes and no
//! *value* is materialized — the scalar analogue of HANA's SIMD scan.
//! [`PackedCodeVector::get`] is for random access only (OLTP point
//! selects, inverted-index postings).
//!
//! Writers mirror the readers: every column is packed through one
//! write path, `PackedCodeVector::extend`, whose aligned middle runs one
//! packing kernel per width — the exact inverse of the decoder's — 64
//! codes at a time.

use std::ops::Range;

/// Codes per aligned group: 64 codes of `BITS` bits fill exactly `BITS`
/// words, so every group starts on a word boundary.
const GROUP: usize = 64;

/// Expands `$body` once per lane of a group with `$i` bound to the
/// constants 0..=63. A `for` over `0..64` is left rolled by the compiler
/// (variable shifts, a straddle branch and a bounds check per code);
/// written out, every shift, mask and word index folds to an immediate.
macro_rules! for_each_lane {
    ($i:ident => $body:block) => {
        for_each_lane!(@ $i $body
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
            16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
            48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63)
    };
    (@ $i:ident $body:block $($lane:literal)*) => {
        $({
            const $i: usize = $lane;
            $body
        })*
    };
}

/// Calls `$kernel::<W>$args` for the width `W` that `$bits` holds, so each
/// width gets its own kernel with every shift folded, chosen once per call.
macro_rules! by_width {
    ($bits:expr, $kernel:ident $args:tt) => {
        by_width!(@ $bits, $kernel $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    };
    (@ $bits:expr, $kernel:ident $args:tt; $($w:literal)*) => {
        match $bits {
            $($w => $kernel::<$w> $args,)*
            _ => unreachable!("width is checked to be 1..=32 at construction"),
        }
    };
}

/// Unpacks whole groups — `out.len() / 64` of them, `BITS` words each.
fn unpack_groups<const BITS: usize>(words: &[u64], out: &mut [u32]) {
    let mask = (1u64 << BITS) - 1;
    for (w, o) in words.chunks_exact(BITS).zip(out.chunks_exact_mut(GROUP)) {
        let w: &[u64; BITS] = w.try_into().expect("chunks_exact yields BITS words");
        let o: &mut [u32; GROUP] = o.try_into().expect("chunks_exact_mut yields 64 codes");
        for_each_lane!(LANE => {
            let (word, off) = (LANE * BITS / 64, LANE * BITS % 64);
            let mut v = w[word] >> off;
            if off + BITS > 64 {
                v |= w[word + 1] << (64 - off);
            }
            o[LANE] = (v & mask) as u32;
        });
    }
}

/// Packs whole groups — `codes.len() / 64` of them into `BITS` words
/// each — the inverse of [`unpack_groups`]. Every word is assigned before
/// it is or-ed into: its first bits come from a lane that starts it or
/// from the spill of the lane that straddles into it, so the kernel never
/// reads what `words` held. Codes must fit in `BITS` bits.
fn pack_groups<const BITS: usize>(codes: &[u32], words: &mut [u64]) {
    for (c, w) in codes.chunks_exact(GROUP).zip(words.chunks_exact_mut(BITS)) {
        let c: &[u32; GROUP] = c.try_into().expect("chunks_exact yields 64 codes");
        let w: &mut [u64; BITS] = w.try_into().expect("chunks_exact_mut yields BITS words");
        for_each_lane!(LANE => {
            let (word, off) = (LANE * BITS / 64, LANE * BITS % 64);
            let v = u64::from(c[LANE]);
            if off == 0 {
                w[word] = v;
            } else {
                w[word] |= v << off;
            }
            if off + BITS > 64 {
                w[word + 1] = v >> (64 - off);
            }
        });
    }
}

/// Rows per decode block, shared by every block-at-a-time consumer: a
/// multiple of 64 (so [`scan_blocks`] yields group-aligned blocks), small
/// enough that two code buffers and one `i64` value buffer (16 KiB
/// together) live on the stack and in L1.
pub const SCAN_BLOCK: usize = 1024;

/// Splits `rows` into consecutive blocks that end on multiples of
/// [`SCAN_BLOCK`] — the loop every block-at-a-time consumer runs around
/// [`PackedCodeVector::unpack`]. Only the first block can start unaligned,
/// whatever row a chunk starts at.
pub fn scan_blocks(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let mut lo = rows.start;
    std::iter::from_fn(move || {
        (lo < rows.end).then(|| {
            let block = lo..((lo / SCAN_BLOCK + 1) * SCAN_BLOCK).min(rows.end);
            lo = block.end;
            block
        })
    })
}

/// A vector of unsigned integers, each `bits` wide, packed into `u64`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCodeVector {
    words: Vec<u64>,
    bits: u32,
    len: usize,
}

impl PackedCodeVector {
    /// Creates an empty vector of `bits`-wide codes.
    ///
    /// # Panics
    /// `bits` must be in `1..=32` (codes are `u32`).
    pub(crate) fn new(bits: u32) -> Self {
        assert!(
            (1..=32).contains(&bits),
            "code width must be 1..=32, got {bits}"
        );
        PackedCodeVector {
            words: Vec::new(),
            bits,
            len: 0,
        }
    }

    /// Creates a vector with capacity for `n` codes.
    pub(crate) fn with_capacity(bits: u32, n: usize) -> Self {
        let mut v = Self::new(bits);
        v.words.reserve((n * bits as usize).div_ceil(64));
        v
    }

    /// Builds directly from a slice of codes.
    ///
    /// # Panics
    /// Panics if any code needs more than `bits` bits.
    pub fn from_codes(bits: u32, codes: &[u32]) -> Self {
        let mut v = Self::with_capacity(bits, codes.len());
        for block in codes.chunks(SCAN_BLOCK) {
            v.extend(block);
        }
        v
    }

    /// The code width and the packed words, for tests that check the
    /// layout against a reference of their own.
    #[cfg(test)]
    pub(crate) fn raw(&self) -> (u32, &[u64]) {
        (self.bits, &self.words)
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packed size in bytes (the size a scan streams from memory).
    pub fn packed_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// Appends `codes` — the one write path. Codes up to the next multiple
    /// of 64 rows and the last `< 64` are pushed one by one; the aligned
    /// middle runs through [`pack_groups`] for the column's width. Writers
    /// call it a [`SCAN_BLOCK`] at a time, so the width check's pass and
    /// the packing pass both read the block from L1.
    ///
    /// # Panics
    /// Panics when a code does not fit in the configured width, naming the
    /// first such code; nothing is appended then.
    pub(crate) fn extend(&mut self, codes: &[u32]) {
        let mask = self.mask();
        if u64::from(codes.iter().fold(0, |acc, &c| acc | c)) > mask {
            let code = codes
                .iter()
                .find(|&&c| u64::from(c) > mask)
                .expect("the or of the codes is wider than the mask");
            panic!("code {code} does not fit in {} bits", self.bits);
        }
        let head = (self.len.next_multiple_of(GROUP) - self.len).min(codes.len());
        let (head, rest) = codes.split_at(head);
        for &c in head {
            self.push(c);
        }
        let groups = rest.len() / GROUP;
        let (body, tail) = rest.split_at(groups * GROUP);
        if groups > 0 {
            // `len` is a multiple of 64 here, so the words end on a group.
            let first = self.words.len();
            self.words.resize(first + groups * self.bits as usize, 0);
            let words = &mut self.words[first..];
            by_width!(self.bits, pack_groups(body, words));
            self.len += body.len();
        }
        for &c in tail {
            self.push(c);
        }
    }

    /// Appends one code that fits the width — [`PackedCodeVector::extend`]'s
    /// step for the rows around its whole groups.
    fn push(&mut self, code: u32) {
        debug_assert!(u64::from(code) <= self.mask(), "checked by extend");
        let bit_pos = self.len * self.bits as usize;
        let word = bit_pos / 64;
        let off = (bit_pos % 64) as u32;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= u64::from(code) << off;
        let spill = off + self.bits;
        if spill > 64 {
            self.words.push(u64::from(code) >> (64 - off));
        }
        self.len += 1;
    }

    /// Reads the code at `idx` — random access; sequential readers use
    /// [`PackedCodeVector::unpack`].
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        self.read(idx)
    }

    /// The code at `idx < self.len`, recomputing word and offset.
    #[inline]
    fn read(&self, idx: usize) -> u32 {
        let bit_pos = idx * self.bits as usize;
        let word = bit_pos / 64;
        let off = (bit_pos % 64) as u32;
        let mut v = self.words[word] >> off;
        let spill = off + self.bits;
        if spill > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        (v & self.mask()) as u32
    }

    /// Iterates over all codes.
    pub fn iter(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The block decoder: unpacks the codes of rows
    /// `[start, start + out.len())` into `out`. Rows up to the next
    /// multiple of 64 and the last `< 64` rows are read one by one; the
    /// aligned middle runs through a kernel specialised for the column's
    /// width, chosen once per call — the scalar skeleton of the SIMD-Scan
    /// technique (Willhalm et al., cited by the paper as the engine's scan
    /// kernel).
    ///
    /// # Panics
    /// Panics when the rows reach past the end of the vector.
    pub fn unpack(&self, start: usize, out: &mut [u32]) {
        assert!(
            start <= self.len && out.len() <= self.len - start,
            "rows {start}..{start}+{} out of bounds (len {})",
            out.len(),
            self.len
        );
        let head = (start.next_multiple_of(GROUP) - start).min(out.len());
        let (head_out, rest) = out.split_at_mut(head);
        for (i, code) in head_out.iter_mut().enumerate() {
            *code = self.read(start + i);
        }
        let aligned = start + head;
        let groups = rest.len() / GROUP;
        let (body, tail) = rest.split_at_mut(groups * GROUP);
        if groups > 0 {
            let bits = self.bits as usize;
            let first = aligned / GROUP * bits;
            let words = &self.words[first..first + groups * bits];
            by_width!(bits, unpack_groups(words, body));
        }
        let tail_start = aligned + groups * GROUP;
        for (i, code) in tail.iter_mut().enumerate() {
            *code = self.read(tail_start + i);
        }
    }

    /// Counts codes in the half-open range `[lo, hi)` — the compressed-scan
    /// kernel behind the paper's Query 1 (`WHERE A.X > ?` after the
    /// predicate constant has been dictionary-encoded).
    pub fn count_in_range(&self, range: Range<u32>) -> u64 {
        self.count_in_range_rows(range, 0..self.len)
    }

    /// Like [`PackedCodeVector::count_in_range`] but restricted to the rows
    /// `[rows.start, rows.end)` (clamped to the vector) — lets callers
    /// process the column in chunks. Per block: unpack, then one
    /// branch-free `code - lo < hi - lo` per code, which the compiler
    /// vectorizes.
    pub fn count_in_range_rows(&self, range: Range<u32>, rows: Range<usize>) -> u64 {
        let span = range.end.saturating_sub(range.start);
        let mut buf = [0u32; SCAN_BLOCK];
        let mut count = 0u64;
        for block in scan_blocks(rows.start..rows.end.min(self.len)) {
            let codes = &mut buf[..block.len()];
            self.unpack(block.start, codes);
            let hits: u32 = codes
                .iter()
                .map(|c| u32::from(c.wrapping_sub(range.start) < span))
                .sum();
            count += u64::from(hits);
        }
        count
    }

    /// Collects the row ids whose code lies in `[lo, hi)` — the
    /// materializing variant of the scan, used for selective predicates.
    pub fn matching_rows(&self, range: Range<u32>) -> Vec<u32> {
        let span = range.end.saturating_sub(range.start);
        let mut buf = [0u32; SCAN_BLOCK];
        let mut out = Vec::new();
        for block in scan_blocks(0..self.len) {
            let codes = &mut buf[..block.len()];
            self.unpack(block.start, codes);
            for (row, c) in block.zip(codes.iter()) {
                if c.wrapping_sub(range.start) < span {
                    out.push(row as u32);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let codes: Vec<u32> = (0..100).collect();
        let v = PackedCodeVector::from_codes(7, &codes);
        assert_eq!(v.len(), 100);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(v.get(i), c);
        }
    }

    #[test]
    fn roundtrip_word_straddling_widths() {
        // Widths that do not divide 64 force codes to straddle words.
        for bits in [3u32, 5, 7, 11, 13, 17, 20, 23, 29, 31] {
            let max = (1u64 << bits) - 1;
            let codes: Vec<u32> = (0..1000u64)
                .map(|i| ((i * 2_654_435_761) % (max + 1)) as u32)
                .collect();
            let v = PackedCodeVector::from_codes(bits, &codes);
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(v.get(i), c, "width {bits}, index {i}");
            }
        }
    }

    #[test]
    fn width_32_works() {
        let codes = vec![u32::MAX, 0, 123_456_789];
        let v = PackedCodeVector::from_codes(32, &codes);
        assert_eq!(v.iter().collect::<Vec<_>>(), codes);
    }

    #[test]
    fn packed_bytes_matches_compression() {
        // 1,000 codes at 20 bits = 20,000 bits = 2,500 bytes -> 313 words.
        let v = PackedCodeVector::from_codes(20, &vec![0u32; 1000]);
        assert_eq!(v.packed_bytes(), 2504); // 313 u64 words
    }

    #[test]
    fn count_in_range_counts() {
        let codes: Vec<u32> = (0..1000).collect();
        let v = PackedCodeVector::from_codes(10, &codes);
        assert_eq!(v.count_in_range(0..1000), 1000);
        assert_eq!(v.count_in_range(500..1000), 500);
        assert_eq!(v.count_in_range(0..0), 0);
        assert_eq!(v.count_in_range(999..1000), 1);
    }

    #[test]
    fn count_in_range_rows_chunks() {
        let codes: Vec<u32> = (0..100).collect();
        let v = PackedCodeVector::from_codes(7, &codes);
        let total: u64 = (0..10)
            .map(|c| v.count_in_range_rows(50..100, c * 10..(c + 1) * 10))
            .sum();
        assert_eq!(total, v.count_in_range(50..100));
        // Out-of-bounds chunk end is clamped.
        assert_eq!(v.count_in_range_rows(0..100, 90..1000), 10);
    }

    #[test]
    fn unpack_matches_get() {
        let codes: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % (1 << 17))
            .collect();
        let v = PackedCodeVector::from_codes(17, &codes);
        for range in [0..100usize, 4090..4200, 9_990..10_000, 0..10_000, 5..5] {
            let mut block = vec![u32::MAX; range.len()];
            v.unpack(range.start, &mut block);
            assert_eq!(block, &codes[range]);
        }
        v.unpack(10_000, &mut []);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_rejects_rows_past_the_end() {
        let v = PackedCodeVector::from_codes(4, &[1, 2, 3]);
        v.unpack(2, &mut [0; 2]);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // an inverted range is an input under test
    fn scan_blocks_cover_the_range_once() {
        const B: usize = SCAN_BLOCK;
        assert_eq!(scan_blocks(0..0).count(), 0);
        assert_eq!(scan_blocks(7..3).count(), 0);
        let blocks: Vec<_> = scan_blocks(5..2 * B + 9).collect();
        assert_eq!(blocks, [5..B, B..2 * B, 2 * B..2 * B + 9]);
        let mut one = scan_blocks(B..B + 1);
        assert_eq!((one.next(), one.next()), (Some(B..B + 1), None));
    }

    #[test]
    fn matching_rows_collects_selected_ids() {
        let codes: Vec<u32> = (0..1000).map(|i| i % 10).collect();
        let v = PackedCodeVector::from_codes(4, &codes);
        let rows = v.matching_rows(7..9); // codes 7 and 8
        assert_eq!(rows.len(), 200);
        for &r in &rows {
            let c = v.get(r as usize);
            assert!((7..9).contains(&c));
        }
        // Sorted ascending by construction.
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
    }

    /// `n` codes of `bits` bits, every bit pattern possible.
    fn codes(bits: u32, n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 32) as u32 >> (32 - bits)
            })
            .collect()
    }

    proptest! {
        /// `extend` lays codes out as pushing them one at a time does, from
        /// any starting length, at every width, in one call or in pieces.
        #[test]
        fn extend_matches_pushing_one_code_at_a_time(
            start in 0usize..=127,
            n in 0usize..=300,
            cuts in proptest::collection::vec(0usize..=300, 0..4),
            seed in 0u64..u64::MAX,
        ) {
            for bits in 1..=32u32 {
                let all = codes(bits, start + n, seed);
                let (prefix, codes) = all.split_at(start);
                let mut want = PackedCodeVector::new(bits);
                for &c in &all {
                    want.push(c);
                }
                let mut one = PackedCodeVector::new(bits);
                let mut pieces = PackedCodeVector::new(bits);
                for &c in prefix {
                    one.push(c);
                    pieces.push(c);
                }
                one.extend(codes);
                let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
                cuts.sort_unstable();
                let mut lo = 0;
                for hi in cuts.into_iter().chain([n]) {
                    pieces.extend(&codes[lo..hi]);
                    lo = hi;
                }
                prop_assert_eq!(&one, &want, "width {}", bits);
                prop_assert_eq!(&pieces, &want, "width {}", bits);
                for (row, &c) in all.iter().enumerate() {
                    prop_assert_eq!(one.get(row), c, "width {}, row {}", bits, row);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "code 16 does not fit in 4 bits")]
    fn extend_rejects_oversized_code() {
        let mut v = PackedCodeVector::new(4);
        v.extend(&[16]);
    }

    #[test]
    #[should_panic(expected = "code 17 does not fit in 4 bits")]
    fn extend_rejects_oversized_code_inside_a_whole_group() {
        // Rows 64..128 form the one whole group; 17 sits in it, before
        // another oversized code, and is the one named.
        let mut codes = vec![3u32; 200];
        codes[100] = 17;
        codes[150] = 99;
        let mut v = PackedCodeVector::new(4);
        v.extend(&codes[..64]);
        v.extend(&codes[64..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_bounds() {
        let v = PackedCodeVector::from_codes(4, &[1, 2, 3]);
        v.get(3);
    }

    #[test]
    #[should_panic(expected = "code width")]
    fn rejects_zero_width() {
        let _ = PackedCodeVector::new(0);
    }
}
