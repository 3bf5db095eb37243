//! Native OLTP point select (the S/4HANA-style query of Section VI-E).
//!
//! Locates rows through the inverted index of a key column, then reads a
//! payload column through its dictionary. The paper runs such queries in
//! a dedicated thread pool that always keeps the full cache, so the
//! operator is [`CacheUsageClass::Sensitive`](crate::job::CacheUsageClass::Sensitive).
//! The served statement, [`point_select_sum`], runs on the calling thread:
//! a connection thread never binds, so it already has the full cache.

use ccp_storage::{DictColumn, InvertedIndex};

/// The served OLTP statement: finds the rows whose `keys` value is `key`
/// through `index` (built over `keys`' codes) and sums their `amounts`.
/// Returns `(rows, sum)`; an absent key is `(0, 0)`.
///
/// Runs inline on the caller's thread under an `op` span named
/// `point_select`, so a traced query shows its operator.
pub fn point_select_sum(
    keys: &DictColumn<i64>,
    index: &InvertedIndex,
    amounts: &DictColumn<i64>,
    key: i64,
) -> (u64, i64) {
    let _span = super::op_span("point_select");
    let Some(code) = keys.dict().encode(&key) else {
        return (0, 0);
    };
    let rows = index.lookup(code);
    let sum = rows
        .iter()
        .map(|&row| *amounts.value_at(row as usize))
        .sum();
    (rows.len() as u64, sum)
}
