//! Native grouped aggregation (paper Query 2), in the code domain.
//!
//! The paper's Section III-A aggregation pre-aggregates into a hash table
//! per worker and merges the tables. Here the grouping column's dictionary
//! codes are a dense `0..dict.len()`, so the dictionary already is the
//! perfect hash: each worker folds its chunks into a
//! [`CodeAccumulator`] — one cell per group code, no probing — and the at
//! most `workers` accumulators are merged cell by cell. The fold stays on
//! codes wherever order preservation allows: `Max`/`Min` fold the value
//! *codes* and decode one value per group after the merge, `Count` never
//! reads the value column, and only `Sum` gathers every row's value from
//! the value dictionary — the random dictionary accesses the paper
//! highlights. The result is handed out as an [`AggHashTable`].
//! Annotated [`CacheUsageClass::Sensitive`]: the paper gives aggregations
//! the whole cache. The regime where the hash table itself outgrows the
//! cache is modelled by the simulated operator, not by this one.

use crate::executor::JobExecutor;
use crate::job::CacheUsageClass;
use ccp_reuse::{Artifact, ReuseHandle, ReuseStatus};
use ccp_storage::bitpack::{scan_blocks, SCAN_BLOCK};
use ccp_storage::{AggHashTable, Aggregate, CodeAccumulator, DictColumn};
use std::ops::Range;
use std::sync::Arc;

/// Runs Query 2: `SELECT agg(v), g FROM t GROUP BY g`.
///
/// Returns the merged global hash table keyed by the *dictionary codes* of
/// the grouping column (decode through `g_col.dict()` for values).
///
/// # Panics
/// Panics when the two columns have different lengths.
pub fn grouped_aggregate(
    ex: &JobExecutor,
    v_col: &Arc<DictColumn<i64>>,
    g_col: &Arc<DictColumn<i64>>,
    agg: Aggregate,
) -> AggHashTable {
    assert_eq!(
        v_col.len(),
        g_col.len(),
        "aggregate inputs must have equal row counts"
    );
    let _span = super::op_span("grouped_aggregate");
    let n = v_col.len();
    let groups = g_col.dict().len();
    let (v, g) = (v_col.clone(), g_col.clone());
    let partials = ex.parallel_fold(
        "agg",
        CacheUsageClass::Sensitive,
        n,
        n.div_ceil(super::CHUNK_ROWS),
        move || CodeAccumulator::new(agg, groups),
        move |acc, rows| fold_rows(agg, acc, &v, &g, rows),
    );
    let _merge_span = super::op_span("agg_merge");
    let mut table = AggHashTable::new(agg, groups);
    let Some(total) = CodeAccumulator::merged(partials) else {
        return table;
    };
    for (group, acc, count) in total.groups() {
        let acc = match agg {
            // The dictionary is monotone: the extreme code is the code of
            // the extreme value.
            Aggregate::Max | Aggregate::Min => *v_col.dict().decode(acc as u32),
            Aggregate::Sum | Aggregate::Count => acc,
        };
        table.merge_one(group, acc, count);
    }
    table
}

/// Folds `rows` of the two columns into `acc`, an accumulator of `agg`, a
/// block of codes at a time.
fn fold_rows(
    agg: Aggregate,
    acc: &mut CodeAccumulator,
    v_col: &DictColumn<i64>,
    g_col: &DictColumn<i64>,
    rows: Range<usize>,
) {
    let mut g_codes = [0u32; SCAN_BLOCK];
    let mut v_codes = [0u32; SCAN_BLOCK];
    let mut values = [0i64; SCAN_BLOCK];
    for block in scan_blocks(rows) {
        let n = block.len();
        let (g_codes, v_codes) = (&mut g_codes[..n], &mut v_codes[..n]);
        g_col.codes().unpack(block.start, g_codes);
        // A count reads no value at all, a maximum or minimum only the
        // value codes.
        if agg != Aggregate::Count {
            v_col.codes().unpack(block.start, v_codes);
        }
        if agg == Aggregate::Sum {
            // A sum needs the values themselves: one dictionary access
            // per row.
            v_col.dict().decode_into(v_codes, &mut values[..n]);
            acc.fold(g_codes, &values[..n]);
        } else {
            acc.fold(g_codes, v_codes);
        }
    }
}

/// [`grouped_aggregate`] with optional artifact reuse: when `reuse` is
/// bound and the merged hash table for this key is already resident, the
/// whole two-phase aggregation collapses into a lookup. On a miss the
/// table is built normally and published with its measured build cost
/// (the denominator of the cache's `bytes / rebuild_cost` eviction
/// score). Concurrent identical queries coalesce onto one builder.
pub fn grouped_aggregate_cached(
    ex: &JobExecutor,
    v_col: &Arc<DictColumn<i64>>,
    g_col: &Arc<DictColumn<i64>>,
    agg: Aggregate,
    reuse: Option<&ReuseHandle>,
) -> (Arc<AggHashTable>, ReuseStatus) {
    let build = || Arc::new(grouped_aggregate(ex, v_col, g_col, agg));
    match reuse {
        Some(handle) => handle.get_or_build(Artifact::agg_table, build, |table| {
            Artifact::AggTable(Arc::clone(table))
        }),
        None => (build(), ReuseStatus::Bypass),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::NoopAllocator;
    use crate::partition::PartitionPolicy;
    use ccp_cachesim::HierarchyConfig;
    use ccp_storage::gen;
    use std::collections::BTreeMap;

    fn executor() -> JobExecutor {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        JobExecutor::new(
            4,
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            Arc::new(NoopAllocator),
        )
    }

    #[test]
    fn max_per_group_matches_reference() {
        let v = gen::uniform_ints(150_000, 10_000, 21);
        let g = gen::uniform_ints(150_000, 100, 22);
        let v_col = Arc::new(DictColumn::build(&v));
        let g_col = Arc::new(DictColumn::build(&g));
        let ex = executor();
        let result = grouped_aggregate(&ex, &v_col, &g_col, Aggregate::Max);

        let mut reference: BTreeMap<i64, i64> = BTreeMap::new();
        for (vi, gi) in v.iter().zip(&g) {
            reference
                .entry(*gi)
                .and_modify(|m| *m = (*m).max(*vi))
                .or_insert(*vi);
        }
        assert_eq!(result.len(), reference.len());
        for (gv, max) in &reference {
            let code = g_col.dict().encode(gv).unwrap();
            assert_eq!(result.get(code), Some(*max), "group {gv}");
        }
    }

    #[test]
    fn count_star_per_group() {
        let v = vec![0i64; 1000];
        let g: Vec<i64> = (0..1000).map(|i| i % 10).collect();
        let v_col = Arc::new(DictColumn::build(&v));
        let g_col = Arc::new(DictColumn::build(&g));
        let ex = executor();
        let result = grouped_aggregate(&ex, &v_col, &g_col, Aggregate::Count);
        for code in 0..10u32 {
            assert_eq!(result.get(code), Some(100));
        }
    }

    #[test]
    fn single_group_sum() {
        let v: Vec<i64> = (1..=100).collect();
        let g = vec![7i64; 100];
        let ex = executor();
        let result = grouped_aggregate(
            &ex,
            &Arc::new(DictColumn::build(&v)),
            &Arc::new(DictColumn::build(&g)),
            Aggregate::Sum,
        );
        assert_eq!(result.len(), 1);
        assert_eq!(result.get(0), Some(5050));
    }

    /// A table's `(group, aggregate, count)` cells in group order.
    fn cells(table: &AggHashTable) -> Vec<(u32, i64, u64)> {
        let mut cells: Vec<_> = table.iter().collect();
        cells.sort_unstable();
        cells
    }

    /// `grouped_aggregate_cached` == `grouped_aggregate` for every
    /// aggregate across miss -> hit -> epoch bump -> miss: the hit hands
    /// back the miss's table and publishes nothing, and the miss after
    /// the bump builds a new table with the same contents.
    #[test]
    fn cached_aggregate_hits_on_repeat_and_matches_uncached() {
        let v = gen::uniform_ints(100_000, 5_000, 31);
        let g = gen::uniform_ints(100_000, 64, 32);
        let v_col = Arc::new(DictColumn::build(&v));
        let g_col = Arc::new(DictColumn::build(&g));
        let ex = executor();
        let cache = ccp_reuse::ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(1 << 20));

        for agg in [
            Aggregate::Max,
            Aggregate::Min,
            Aggregate::Sum,
            Aggregate::Count,
        ] {
            let uncached = cells(&grouped_aggregate(&ex, &v_col, &g_col, agg));
            let predicate = format!("agg={agg:?}");
            let run = || {
                let handle = ReuseHandle::new(cache.clone(), cache.key("q2", &predicate));
                grouped_aggregate_cached(&ex, &v_col, &g_col, agg, Some(&handle))
            };

            let inserts = cache.stats().inserts;
            let (first, status) = run();
            assert_eq!(status, ReuseStatus::Miss, "{agg:?}");
            assert_eq!(cells(&first), uncached, "{agg:?} miss");
            assert_eq!(cache.stats().inserts, inserts + 1, "{agg:?} miss publishes");

            let (hit, status) = run();
            assert_eq!(status, ReuseStatus::Hit, "{agg:?}");
            assert!(
                Arc::ptr_eq(&first, &hit),
                "{agg:?}: hit returns the cached table"
            );
            assert_eq!(cells(&hit), uncached, "{agg:?} hit");
            assert_eq!(
                cache.stats().inserts,
                inserts + 1,
                "{agg:?}: a hit builds and publishes nothing"
            );

            cache.bump_version();
            let (rebuilt, status) = run();
            assert_eq!(status, ReuseStatus::Miss, "{agg:?} after the bump");
            assert!(
                !Arc::ptr_eq(&first, &rebuilt),
                "{agg:?}: the bump forces a rebuild"
            );
            assert_eq!(cells(&rebuilt), uncached, "{agg:?} after the bump");
            assert_eq!(
                cache.stats().inserts,
                inserts + 2,
                "{agg:?} rebuild publishes"
            );
        }

        let (_, bypass) = grouped_aggregate_cached(&ex, &v_col, &g_col, Aggregate::Sum, None);
        assert_eq!(bypass, ReuseStatus::Bypass);
    }

    #[test]
    #[should_panic(expected = "equal row counts")]
    fn mismatched_inputs_rejected() {
        let ex = executor();
        grouped_aggregate(
            &ex,
            &Arc::new(DictColumn::build(&[1i64])),
            &Arc::new(DictColumn::build(&[1i64, 2])),
            Aggregate::Max,
        );
    }
}
