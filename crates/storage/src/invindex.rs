//! Inverted indexes: dictionary code → posting list of row ids.
//!
//! The paper's S/4HANA OLTP query locates rows through the inverted indexes
//! of five primary-key columns before projecting (Section VI-E). Lookups
//! random-access the postings directory, making the index part of the OLTP
//! query's cache working set.

/// An inverted index over one dictionary-encoded column.
///
/// Layout is CSR-like: `offsets[code]..offsets[code+1]` delimits the slice
/// of `postings` holding the row ids whose column value has `code`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvertedIndex {
    offsets: Vec<u64>,
    postings: Vec<u32>,
}

impl InvertedIndex {
    /// Builds the index from a column of codes with `dict_len` distinct
    /// values (codes must be `< dict_len`).
    ///
    /// # Panics
    /// Panics when a code is out of range, or when there are more rows
    /// than `u32` row ids (2³²).
    pub fn build(codes: impl Iterator<Item = u32> + Clone, dict_len: usize) -> Self {
        let mut counts = vec![0u64; dict_len + 1];
        let mut n_rows = 0u64;
        for c in codes.clone() {
            assert!(
                (c as usize) < dict_len,
                "code {c} out of dictionary range {dict_len}"
            );
            counts[c as usize + 1] += 1;
            n_rows += 1;
        }
        assert!(
            n_rows <= u64::from(u32::MAX) + 1,
            "{n_rows} rows do not fit in u32 row ids"
        );
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut postings = vec![0u32; n_rows as usize];
        for (row, c) in codes.enumerate() {
            let slot = cursor[c as usize];
            postings[slot as usize] = row as u32;
            cursor[c as usize] += 1;
        }
        InvertedIndex { offsets, postings }
    }

    /// Row ids whose value has dictionary code `code`.
    ///
    /// # Panics
    /// Panics when `code` exceeds the dictionary length.
    pub fn lookup(&self, code: u32) -> &[u32] {
        let lo = self.offsets[code as usize] as usize;
        let hi = self.offsets[code as usize + 1] as usize;
        &self.postings[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        // codes: rows 0..6 with values a,b,a,c,b,a (a=0,b=1,c=2)
        let codes = [0u32, 1, 0, 2, 1, 0];
        let idx = InvertedIndex::build(codes.iter().copied(), 3);
        assert_eq!(idx.lookup(0), &[0, 2, 5]);
        assert_eq!(idx.lookup(1), &[1, 4]);
        assert_eq!(idx.lookup(2), &[3]);
    }

    #[test]
    fn postings_are_sorted_by_row() {
        let codes: Vec<u32> = (0..1000).map(|i| i % 7).collect();
        let idx = InvertedIndex::build(codes.iter().copied(), 7);
        for c in 0..7 {
            let p = idx.lookup(c);
            assert!(
                p.windows(2).all(|w| w[0] < w[1]),
                "postings of {c} must ascend"
            );
            assert_eq!(p.len(), if c < 6 { 143 } else { 142 });
        }
    }

    #[test]
    fn codes_with_no_rows_have_empty_postings() {
        let idx = InvertedIndex::build([5u32].iter().copied(), 10);
        assert_eq!(idx.lookup(0), &[] as &[u32]);
        assert_eq!(idx.lookup(5), &[0]);
        assert_eq!(idx.lookup(9), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of dictionary range")]
    fn rejects_out_of_range_codes() {
        let _ = InvertedIndex::build([3u32].iter().copied(), 3);
    }
}
