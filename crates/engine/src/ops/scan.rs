//! Native column scan (paper Query 1).
//!
//! Evaluates `COUNT(*) WHERE X > threshold` entirely on compressed data:
//! the predicate constant is dictionary-encoded once, then the packed code
//! vector is scanned in parallel chunks. The scan is annotated
//! [`CacheUsageClass::Polluting`] — it streams without re-use, the paper's
//! canonical cache polluter.

use crate::executor::JobExecutor;
use crate::job::CacheUsageClass;
use ccp_storage::DictColumn;
use std::ops::Bound;
use std::sync::Arc;

/// Runs Query 1: `SELECT COUNT(*) FROM col WHERE col > threshold`.
///
/// The column is shared read-only across jobs; each job counts its row
/// range on the packed codes.
pub fn column_scan(ex: &JobExecutor, col: &Arc<DictColumn<i64>>, threshold: i64) -> u64 {
    let _span = super::op_span("column_scan");
    let code_range = col
        .dict()
        .code_range(Bound::Excluded(&threshold), Bound::Unbounded);
    let n = col.len();
    let chunks = n.div_ceil(super::CHUNK_ROWS).max(1);
    let col = col.clone();
    ex.parallel_sum(
        "column_scan",
        CacheUsageClass::Polluting,
        n,
        chunks,
        move |rows| col.codes().count_in_range_rows(code_range.clone(), rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{NoopAllocator, RecordingAllocator};
    use crate::partition::PartitionPolicy;
    use ccp_cachesim::HierarchyConfig;
    use ccp_storage::gen;

    fn executor(alloc: Arc<dyn crate::alloc::CacheAllocator>) -> JobExecutor {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        JobExecutor::new(
            4,
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            alloc,
        )
    }

    #[test]
    fn counts_match_naive_scan() {
        let values = gen::uniform_ints(200_000, 1_000_000, 11);
        let col = Arc::new(DictColumn::build(&values));
        let ex = executor(Arc::new(NoopAllocator));
        for threshold in [0i64, 250_000, 500_000, 999_999, 1_000_000] {
            let expected = values.iter().filter(|&&v| v > threshold).count() as u64;
            assert_eq!(
                column_scan(&ex, &col, threshold),
                expected,
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn scan_jobs_are_polluting_class() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = executor(rec.clone());
        let col = Arc::new(DictColumn::build(&gen::uniform_ints(1000, 100, 1)));
        column_scan(&ex, &col, 50);
        assert!(!rec.calls().is_empty());
        assert!(rec.calls().iter().all(|(_, m)| m.bits() == 0x3));
    }

    #[test]
    fn empty_and_full_selectivity() {
        let values: Vec<i64> = (1..=1000).collect();
        let col = Arc::new(DictColumn::build(&values));
        let ex = executor(Arc::new(NoopAllocator));
        assert_eq!(column_scan(&ex, &col, 1000), 0);
        assert_eq!(column_scan(&ex, &col, 0), 1000);
    }
}
