//! Order-preserving dictionary encoding.
//!
//! The dictionary maps the sorted domain of a column to a dense range of
//! integer codes `0..n`. Because the mapping is monotone, a range predicate
//! on *values* translates to a range predicate on *codes*, so scans never
//! need to decompress (paper Section IV-A) — while operators that
//! materialize values (aggregation output, projections) perform random
//! lookups into the dictionary, which is exactly the cache-sensitive access
//! pattern the paper analyzes.

use std::ops::Bound;

/// A sorted, deduplicated value domain with O(log n) encode and O(1) decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary<T: Ord> {
    values: Vec<T>,
}

impl<T: Ord + Clone> Dictionary<T> {
    /// Builds a dictionary from an arbitrary (unsorted, possibly repeating)
    /// collection of values.
    pub fn build(mut values: Vec<T>) -> Self {
        values.sort_unstable();
        values.dedup();
        // The input is usually a whole column: keep the distinct values,
        // not a row-sized allocation.
        values.shrink_to_fit();
        Dictionary { values }
    }

    /// Builds from values already sorted and deduplicated.
    ///
    /// # Panics
    /// Debug-asserts sortedness; building from unsorted data is a caller
    /// bug.
    pub fn from_sorted(values: Vec<T>) -> Self {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "values must be sorted+unique"
        );
        Dictionary { values }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Code of `value`, if present.
    pub fn encode(&self, value: &T) -> Option<u32> {
        self.values.binary_search(value).ok().map(|i| i as u32)
    }

    /// Value of `code`.
    ///
    /// # Panics
    /// Panics when `code` is out of range — codes come from this
    /// dictionary, so that is a logic error.
    pub fn decode(&self, code: u32) -> &T {
        &self.values[code as usize]
    }

    /// Translates a value range into the equivalent *code* range
    /// `[lo, hi)`, exploiting order preservation. Returns an empty range
    /// when no stored value falls inside.
    pub fn code_range(&self, lo: Bound<&T>, hi: Bound<&T>) -> std::ops::Range<u32> {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.values.partition_point(|x| x < v),
            Bound::Excluded(v) => self.values.partition_point(|x| x <= v),
        } as u32;
        let end = match hi {
            Bound::Unbounded => self.values.len(),
            Bound::Included(v) => self.values.partition_point(|x| x <= v),
            Bound::Excluded(v) => self.values.partition_point(|x| x < v),
        } as u32;
        start..end.max(start)
    }

    /// Bits needed to store one code: ⌈log₂ n⌉, minimum 1.
    pub fn code_bits(&self) -> u32 {
        let n = self.values.len().max(2) as u64;
        64 - (n - 1).leading_zeros()
    }

    /// Iterates over the sorted values.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.values.iter()
    }
}

impl<T: Ord + Copy> Dictionary<T> {
    /// Decodes `codes[i]` into `out[i]` — the block-at-a-time form of
    /// [`Dictionary::decode`] for operators that materialize values.
    ///
    /// # Panics
    /// Panics when the slices differ in length or a code is out of range.
    pub fn decode_into(&self, codes: &[u32], out: &mut [T]) {
        assert_eq!(codes.len(), out.len(), "one output slot per code");
        for (value, &code) in out.iter_mut().zip(codes) {
            *value = self.values[code as usize];
        }
    }
}

impl<T: Ord + Clone> Dictionary<T>
where
    T: DictEntrySize,
{
    /// Estimated in-memory size of the dictionary in bytes — what the
    /// paper's experiments vary between 4 MiB and 400 MiB.
    pub fn size_bytes(&self) -> u64 {
        self.values.iter().map(|v| v.entry_bytes()).sum()
    }
}

/// Per-entry memory footprint used for dictionary sizing.
pub trait DictEntrySize {
    /// Bytes this entry occupies in the dictionary storage.
    fn entry_bytes(&self) -> u64;
}

impl DictEntrySize for i64 {
    fn entry_bytes(&self) -> u64 {
        std::mem::size_of::<i64>() as u64
    }
}

impl DictEntrySize for i32 {
    fn entry_bytes(&self) -> u64 {
        std::mem::size_of::<i32>() as u64
    }
}

impl DictEntrySize for String {
    fn entry_bytes(&self) -> u64 {
        // String payload plus the Vec<String> slot (ptr/len/cap), matching
        // how a real engine would account variable-size dictionary entries.
        self.len() as u64 + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Dictionary<i64> {
        Dictionary::build(vec![30, 10, 20, 10, 40, 30])
    }

    #[test]
    fn build_sorts_and_dedups() {
        let d = dict();
        assert_eq!(d.len(), 4);
        let values: Vec<i64> = d.iter().copied().collect();
        assert_eq!(values, vec![10, 20, 30, 40]);
    }

    #[test]
    fn build_keeps_no_row_sized_allocation() {
        let d = Dictionary::build((0..100_000i64).map(|i| i % 64).collect());
        assert_eq!(d.len(), 64);
        assert_eq!(d.values.capacity(), 64);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = dict();
        for (i, v) in [(0u32, 10i64), (1, 20), (2, 30), (3, 40)] {
            assert_eq!(d.encode(&v), Some(i));
            assert_eq!(*d.decode(i), v);
        }
        assert_eq!(d.encode(&25), None);
    }

    #[test]
    fn decode_into_matches_decode() {
        let d = dict();
        let codes = [3u32, 0, 0, 2, 1];
        let mut out = [0i64; 5];
        d.decode_into(&codes, &mut out);
        assert_eq!(out, [40, 10, 10, 30, 20]);
        d.decode_into(&[], &mut []);
    }

    #[test]
    fn encoding_preserves_order() {
        let d = Dictionary::build((0..1000).map(|i| i * 7 % 997).collect());
        let mut prev = None;
        for v in d.iter() {
            let c = d.encode(v).unwrap();
            if let Some(p) = prev {
                assert!(c > p);
            }
            prev = Some(c);
        }
    }

    #[test]
    fn code_range_translates_predicates() {
        let d = dict(); // values 10,20,30,40 -> codes 0..4
                        // value > 20  <=>  code in [2, 4)
        assert_eq!(d.code_range(Bound::Excluded(&20), Bound::Unbounded), 2..4);
        // value >= 20 <=> code in [1, 4)
        assert_eq!(d.code_range(Bound::Included(&20), Bound::Unbounded), 1..4);
        // value < 15  <=> code in [0, 1)
        assert_eq!(d.code_range(Bound::Unbounded, Bound::Excluded(&15)), 0..1);
        // 20 <= value <= 30 <=> [1, 3)
        assert_eq!(
            d.code_range(Bound::Included(&20), Bound::Included(&30)),
            1..3
        );
        // Empty range for out-of-domain predicates.
        assert!(d
            .code_range(Bound::Excluded(&40), Bound::Unbounded)
            .is_empty());
    }

    #[test]
    fn code_bits_matches_paper_example() {
        // 10^6 distinct values need 20 bits (paper Section III-B).
        let d = Dictionary::from_sorted((0..1_000_000i64).collect());
        assert_eq!(d.code_bits(), 20);
        let d = Dictionary::from_sorted(vec![1i64]);
        assert_eq!(d.code_bits(), 1);
        let d = Dictionary::from_sorted((0..256i64).collect());
        assert_eq!(d.code_bits(), 8);
        let d = Dictionary::from_sorted((0..257i64).collect());
        assert_eq!(d.code_bits(), 9);
    }

    #[test]
    fn size_bytes_for_ints_and_strings() {
        let d = Dictionary::from_sorted((0..1000i64).collect());
        assert_eq!(d.size_bytes(), 8000);
        let s = Dictionary::build(vec!["alpha".to_string(), "be".to_string()]);
        assert_eq!(s.size_bytes(), 5 + 24 + 2 + 24);
    }

    #[test]
    fn empty_dictionary() {
        let d: Dictionary<i64> = Dictionary::build(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.encode(&1), None);
        assert!(d.code_range(Bound::Unbounded, Bound::Unbounded).is_empty());
    }
}
