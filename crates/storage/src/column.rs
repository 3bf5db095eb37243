//! Dictionary-encoded columns.
//!
//! A [`DictColumn`] is the unit of storage: an order-preserving
//! [`Dictionary`] plus a [`PackedCodeVector`] of per-row codes. Range scans
//! run on the packed codes without decompression; materializing operators
//! decode through the dictionary.
//!
//! [`DictColumn::build`] is the only constructor. It encodes through the
//! element type's [`DictValue`] encoder — a rank table for dense `i64`
//! domains, a binary search per row otherwise — and every encoder
//! yields the same dictionary and packed words for the same rows.

use crate::bitpack::PackedCodeVector;
use crate::dict::{DictValue, Dictionary};
use std::ops::Bound;

/// One dictionary-encoded column.
#[derive(Debug, Clone)]
pub struct DictColumn<T: Ord> {
    dict: Dictionary<T>,
    codes: PackedCodeVector,
}

impl<T: Ord + Clone> DictColumn<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &Dictionary<T> {
        &self.dict
    }

    /// The packed code vector.
    pub fn codes(&self) -> &PackedCodeVector {
        &self.codes
    }

    /// Dictionary code of row `idx`.
    pub fn code_at(&self, idx: usize) -> u32 {
        self.codes.get(idx)
    }

    /// Decoded value of row `idx`.
    pub fn value_at(&self, idx: usize) -> &T {
        self.dict.decode(self.codes.get(idx))
    }

    /// Counts rows whose value lies in the given bounds, operating entirely
    /// on compressed data (the paper's Query 1 kernel).
    pub fn count_range(&self, lo: Bound<&T>, hi: Bound<&T>) -> u64 {
        let code_range = self.dict.code_range(lo, hi);
        self.codes.count_in_range(code_range)
    }
}

impl<T: DictValue> DictColumn<T> {
    /// Encodes `values` into a fresh column through `T`'s encoder
    /// (`DictValue::encode_column`).
    pub fn build(values: &[T]) -> Self {
        let (dict, codes) = T::encode_column(values);
        DictColumn { dict, codes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_roundtrip() {
        let values = vec![5i64, 3, 9, 3, 5, 1];
        let col = DictColumn::build(&values);
        assert_eq!(col.len(), 6);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(col.value_at(i), v);
        }
    }

    #[test]
    fn count_range_on_compressed_data() {
        let values: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let col = DictColumn::build(&values);
        // value > 49  -> 50 distinct values x 10 rows each.
        assert_eq!(col.count_range(Bound::Excluded(&49), Bound::Unbounded), 500);
        // 10 <= value < 20 -> 100 rows.
        assert_eq!(
            col.count_range(Bound::Included(&10), Bound::Excluded(&20)),
            100
        );
        // Out-of-domain predicate.
        assert_eq!(col.count_range(Bound::Excluded(&99), Bound::Unbounded), 0);
    }

    #[test]
    fn compression_uses_code_bits() {
        // 100 distinct values -> 7 bits/code; 1000 rows ~ 875 bytes,
        // far below the 8000 bytes of raw i64 storage.
        let values: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let col = DictColumn::build(&values);
        assert_eq!(col.dict().code_bits(), 7);
        assert!(col.codes().packed_bytes() < 1000);
    }

    #[test]
    fn code_at_matches_dictionary_order() {
        let col = DictColumn::build(&[30i64, 10, 20]);
        assert_eq!(col.code_at(0), 2);
        assert_eq!(col.code_at(1), 0);
        assert_eq!(col.code_at(2), 1);
    }

    #[test]
    fn string_columns_work() {
        let values: Vec<String> = ["cherry", "apple", "banana", "apple"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let col = DictColumn::build(&values);
        assert_eq!(col.value_at(1), "apple");
        assert_eq!(
            col.count_range(
                Bound::Included(&"apple".to_string()),
                Bound::Excluded(&"c".to_string())
            ),
            3
        );
    }
}
