//! Order-preserving dictionary encoding.
//!
//! The dictionary maps the sorted domain of a column to a dense range of
//! integer codes `0..n`. Because the mapping is monotone, a range predicate
//! on *values* translates to a range predicate on *codes*, so scans never
//! need to decompress (paper Section IV-A) — while operators that
//! materialize values (aggregation output, projections) perform random
//! lookups into the dictionary, which is exactly the cache-sensitive access
//! pattern the paper analyzes.
//!
//! A column is encoded by its element type's [`DictValue::encode_column`].
//! The provided encoder sorts a copy of the rows and binary-searches each
//! row. `i64` reads each row's code from a rank table indexed by
//! `value - min` instead, whenever the domain spans at most `2 × rows`
//! values (where the table is no larger than the sorted copy); both
//! encoders build the same column, bit for bit.

use crate::bitpack::PackedCodeVector;
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
    pub(crate) fn from_sorted(values: Vec<T>) -> Self {
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
    pub(crate) fn code_bits(&self) -> u32 {
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

/// A type a column can hold: how a column of it is encoded.
pub trait DictValue: Ord + Clone {
    /// Encodes `values` into their sorted distinct values and one code per
    /// row. Provided: sort and deduplicate a copy of the rows into a
    /// [`Dictionary`], then binary-search it once per row.
    fn encode_column(values: &[Self]) -> (Dictionary<Self>, PackedCodeVector) {
        encode_by_search(values)
    }
}

/// The encoder for any domain: sorts and deduplicates a row-sized copy of
/// `values` into a [`Dictionary`], then binary-searches it once per row.
fn encode_by_search<T: Ord + Clone>(values: &[T]) -> (Dictionary<T>, PackedCodeVector) {
    let dict = Dictionary::build(values.to_vec());
    let mut codes = PackedCodeVector::with_capacity(dict.code_bits(), values.len());
    for v in values {
        let code = dict
            .encode(v)
            .expect("dictionary was built from these values");
        codes.push(code);
    }
    (dict, codes)
}

/// The encoder for a dense integer domain: a value's code is its rank
/// among the column's distinct values, read from a table indexed by
/// `value - min` instead of searched for. `None` when `values` is empty or
/// spans more than `2 × rows` values. The table costs 4 B per domain
/// value and [`encode_by_search`] a copy of 8 B per row, so `2 × rows` is
/// exactly where the table stops being the smaller of the two.
fn encode_by_rank(values: &[i64]) -> Option<(Dictionary<i64>, PackedCodeVector)> {
    let (&first, rest) = values.split_first()?;
    let (min, max) = rest
        .iter()
        .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = u128::from(max.abs_diff(min)) + 1;
    if span > 2 * values.len() as u128 {
        return None;
    }
    // Mark the values present, then turn the marks into ranks in one
    // ascending pass that also collects the sorted distinct values.
    let mut table = vec![0u32; span as usize];
    let mut distinct = 0;
    for &v in values {
        let slot = &mut table[v.abs_diff(min) as usize];
        distinct += usize::from(*slot == 0);
        *slot = 1;
    }
    let mut sorted = Vec::with_capacity(distinct);
    for (offset, slot) in table.iter_mut().enumerate() {
        if *slot != 0 {
            *slot = sorted.len() as u32;
            sorted.push(min + offset as i64);
        }
    }
    let dict = Dictionary::from_sorted(sorted);
    let mut codes = PackedCodeVector::with_capacity(dict.code_bits(), values.len());
    for &v in values {
        codes.push(table[v.abs_diff(min) as usize]);
    }
    Some((dict, codes))
}

impl DictValue for i64 {
    /// Through a rank table over a dense domain, by search over a sparse
    /// one; both give the same column.
    fn encode_column(values: &[i64]) -> (Dictionary<i64>, PackedCodeVector) {
        encode_by_rank(values).unwrap_or_else(|| encode_by_search(values))
    }
}

impl DictValue for i32 {}

impl DictValue for String {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The reference column: `Dictionary::build`, then `encode` per row.
    fn reference(values: &[i64]) -> (Dictionary<i64>, PackedCodeVector) {
        let dict = Dictionary::build(values.to_vec());
        let codes: Vec<u32> = values.iter().map(|v| dict.encode(v).unwrap()).collect();
        let codes = PackedCodeVector::from_codes(dict.code_bits(), &codes);
        (dict, codes)
    }

    /// Asserts the `i64` encoder builds the reference column bit for bit;
    /// returns whether it took the rank table.
    fn assert_matches_reference(values: &[i64]) -> bool {
        let by_rank = encode_by_rank(values).is_some();
        let (dict, codes) = i64::encode_column(values);
        let (ref_dict, ref_codes) = reference(values);
        assert_eq!(dict.values, ref_dict.values, "{values:?}");
        assert_eq!(dict.values.capacity(), dict.len(), "{values:?}");
        assert_eq!(codes.len(), values.len());
        assert_eq!(codes, ref_codes, "{values:?}");
        by_rank
    }

    proptest::proptest! {
        #[test]
        fn i64_encoder_matches_reference(values in prop_oneof![
            // Dense, negative and positive.
            proptest::collection::vec(-40i64..40, 0..300),
            // Dense near an arbitrary base, extremes included.
            (i64::MIN..=i64::MAX, proptest::collection::vec(0i64..64, 0..200))
                .prop_map(|(base, offsets)| offsets
                    .into_iter()
                    .map(|o| base.saturating_add(o))
                    .collect()),
            // Sparse: the whole i64 range.
            proptest::collection::vec(i64::MIN..=i64::MAX, 0..100),
            // Both extremes beside small values: the span overflows i64.
            proptest::collection::vec(
                prop_oneof![Just(i64::MIN), Just(i64::MAX), -3i64..3],
                0..50,
            ),
            // All rows equal.
            (i64::MIN..=i64::MAX, 1usize..100).prop_map(|(v, n)| vec![v; n]),
        ]) {
            assert_matches_reference(&values);
        }
    }

    #[test]
    fn i64_encoder_takes_the_table_only_on_a_dense_domain() {
        assert!(!assert_matches_reference(&[]));
        assert!(assert_matches_reference(&[i64::MIN]));
        assert!(assert_matches_reference(&[i64::MAX; 5]));
        assert!(assert_matches_reference(&[-5, -1, -5, -3]));
        assert!(!assert_matches_reference(&[i64::MIN, i64::MAX, 0]));
        // The table may span at most 2 × rows values.
        assert!(assert_matches_reference(&[0, 5, 2]));
        assert!(!assert_matches_reference(&[0, 6, 2]));
        assert!(!assert_matches_reference(&[-1_000_000, 1_000_000]));
    }

    #[test]
    fn server_shaped_column_takes_the_table() {
        let values = crate::gen::uniform_ints(2_000_000, 1_000_000, 32);
        let (dict, codes) = encode_by_rank(&values).expect("a dense domain");
        assert!(dict.len() <= 1_000_000);
        assert_eq!(codes.len(), values.len());
    }

    #[test]
    fn empty_dictionary() {
        let d: Dictionary<i64> = Dictionary::build(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.encode(&1), None);
        assert!(d.code_range(Bound::Unbounded, Bound::Unbounded).is_empty());
    }
}
