//! Native execution of representative TPC-H queries over the sample
//! tables — the end-to-end demonstration that the engine's operators
//! compose into real queries (the simulated Figure 11 harness uses the
//! profile models in `queries` instead).
//!
//! Implemented natively: **Q1** (pricing summary — the paper's flagship
//! cache-sensitive TPC-H query) and **Q6** (forecasting revenue change —
//! the scan-dominated one).

use crate::gen;
use crate::queries::{profile, query_ids};
use ccp_engine::job::CacheUsageClass;
use ccp_engine::{JobExecutor, Phase, Plan};
use ccp_storage::bitpack::{scan_blocks, SCAN_BLOCK};
use ccp_storage::{Aggregate, CodeAccumulator, Column, Table};
use std::ops::Bound;
use std::sync::Arc;

/// One result row of the native Q1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q1Row {
    /// `L_RETURNFLAG` value.
    pub returnflag: i64,
    /// `L_LINESTATUS` value.
    pub linestatus: i64,
    /// `SUM(L_EXTENDEDPRICE)`.
    pub sum_extendedprice: i64,
    /// `COUNT(*)`.
    pub count: u64,
}

fn int_column<'t>(t: &'t Table, name: &str) -> &'t ccp_storage::DictColumn<i64> {
    match t.column(name) {
        Some(Column::Int(c)) => c,
        _ => panic!("lineitem sample always has integer column {name:?}"),
    }
}

/// Native TPC-H Q1 (simplified to the columns the sample carries):
/// `SELECT l_returnflag, l_linestatus, SUM(l_extendedprice), COUNT(*)
///  FROM lineitem GROUP BY l_returnflag, l_linestatus`.
///
/// Runs as cache-sensitive jobs (the paper's class *ii*): the two group
/// columns' codes combine into one dense key `flag × |status| + status`,
/// which indexes a [`CodeAccumulator`] per worker directly; the
/// accumulators then merge cell by cell. Results are sorted by
/// `(returnflag, linestatus)`.
pub fn q1_pricing_summary(ex: &JobExecutor, lineitem: &Arc<Table>) -> Vec<Q1Row> {
    let n = lineitem.row_count();
    let flag_dict = int_column(lineitem, "L_RETURNFLAG").dict();
    let status_dict = int_column(lineitem, "L_LINESTATUS").dict();
    let status_card = status_dict.len() as u32;
    let keys = flag_dict.len() * status_dict.len();
    const CHUNK: usize = 32 * 1024;
    let t = lineitem.clone();
    let partials = ex.parallel_fold(
        "q1",
        CacheUsageClass::Sensitive,
        n,
        n.div_ceil(CHUNK),
        move || CodeAccumulator::new(Aggregate::Sum, keys),
        move |acc, rows| {
            let flag = int_column(&t, "L_RETURNFLAG");
            let status = int_column(&t, "L_LINESTATUS");
            let price = int_column(&t, "L_EXTENDEDPRICE");
            let mut keys = [0u32; SCAN_BLOCK];
            let mut codes = [0u32; SCAN_BLOCK];
            let mut prices = [0i64; SCAN_BLOCK];
            for block in scan_blocks(rows) {
                let (keys, codes) = (&mut keys[..block.len()], &mut codes[..block.len()]);
                flag.codes().unpack(block.start, keys);
                status.codes().unpack(block.start, codes);
                for (key, status_code) in keys.iter_mut().zip(codes.iter()) {
                    *key = *key * status_card + status_code;
                }
                // Decode through the (29 MiB at SF 100) price dictionary —
                // the access pattern that makes Q1 cache-sensitive.
                let prices = &mut prices[..block.len()];
                price.codes().unpack(block.start, codes);
                price.dict().decode_into(codes, prices);
                acc.fold(keys, prices);
            }
        },
    );
    let total = CodeAccumulator::merged(partials);
    let mut rows: Vec<Q1Row> = total
        .iter()
        .flat_map(CodeAccumulator::groups)
        .map(|(key, sum, count)| Q1Row {
            returnflag: *flag_dict.decode(key / status_card),
            linestatus: *status_dict.decode(key % status_card),
            sum_extendedprice: sum,
            count,
        })
        .collect();
    rows.sort_by_key(|r| (r.returnflag, r.linestatus));
    rows
}

/// The plan of [`q1_pricing_summary`] over `lineitem`: one aggregation of
/// every row through the price dictionary into `|flag| × |status|` groups.
fn q1_plan(lineitem: &Table) -> Plan {
    let dict_len = |name| int_column(lineitem, name).dict().len() as u64;
    Plan {
        phases: vec![Phase::Aggregate {
            rows: lineitem.row_count() as u64,
            dict_bytes: dict_len("L_EXTENDEDPRICE") * size_of::<i64>() as u64,
            groups: dict_len("L_RETURNFLAG") * dict_len("L_LINESTATUS"),
        }],
    }
}

/// Native TPC-H Q6 (adapted to integer columns):
/// `SELECT SUM(l_extendedprice * l_discount) FROM lineitem
///  WHERE l_quantity < max_quantity AND l_discount BETWEEN lo AND hi`.
///
/// The quantity predicate runs on compressed codes (the scan kernel); only
/// qualifying rows decode price and discount. Runs as polluting jobs — Q6
/// is the scan-dominated query.
pub fn q6_forecast_revenue(
    ex: &JobExecutor,
    lineitem: &Arc<Table>,
    max_quantity: i64,
    discount: std::ops::RangeInclusive<i64>,
) -> i64 {
    let n = lineitem.row_count();
    let qty_range = int_column(lineitem, "L_QUANTITY")
        .dict()
        .code_range(Bound::Unbounded, Bound::Excluded(&max_quantity));
    let disc_range = int_column(lineitem, "L_DISCOUNT").dict().code_range(
        Bound::Included(discount.start()),
        Bound::Included(discount.end()),
    );
    const CHUNK: usize = 32 * 1024;
    let chunks = n.div_ceil(CHUNK).max(1);
    let t = lineitem.clone();
    ex.parallel_sum("q6", CacheUsageClass::Polluting, n, chunks, move |rows| {
        let qty = int_column(&t, "L_QUANTITY");
        let disc = int_column(&t, "L_DISCOUNT");
        let price = int_column(&t, "L_EXTENDEDPRICE");
        let mut qty_codes = [0u32; SCAN_BLOCK];
        let mut disc_codes = [0u32; SCAN_BLOCK];
        let mut price_codes = [0u32; SCAN_BLOCK];
        let mut revenue = 0i64;
        for block in scan_blocks(rows) {
            let n = block.len();
            qty.codes().unpack(block.start, &mut qty_codes[..n]);
            disc.codes().unpack(block.start, &mut disc_codes[..n]);
            price.codes().unpack(block.start, &mut price_codes[..n]);
            for ((&qc, &dc), &pc) in qty_codes[..n].iter().zip(&disc_codes).zip(&price_codes) {
                // Both predicates on codes; only qualifying rows decode.
                if qty_range.contains(&qc) && disc_range.contains(&dc) {
                    revenue += *price.dict().decode(pc) * *disc.dict().decode(dc);
                }
            }
        }
        revenue as u64
    }) as i64
}

/// The plan of [`q6_forecast_revenue`] over `lineitem`: one scan of the
/// three columns it unpacks (the revenue sum is folded inside the scan's
/// jobs).
fn q6_plan(lineitem: &Table) -> Plan {
    let rows = lineitem.row_count() as u64;
    let packed: u64 = ["L_QUANTITY", "L_DISCOUNT", "L_EXTENDEDPRICE"]
        .into_iter()
        .map(|name| int_column(lineitem, name).codes().packed_bytes())
        .sum();
    Plan {
        phases: vec![Phase::Scan {
            rows,
            bytes_per_row: (packed / rows.max(1)).max(1),
        }],
    }
}

/// The plan of every TPC-H query, at index `id - 1`, when queries 1 and 6
/// run natively over `lineitem` ([`q1_pricing_summary`],
/// [`q6_forecast_revenue`]) and the rest play their SF 100 profiles back:
/// the native plans come from `lineitem`'s columns.
pub fn plans(lineitem: &Table) -> Vec<Plan> {
    query_ids()
        .map(|id| match id {
            1 => q1_plan(lineitem),
            6 => q6_plan(lineitem),
            _ => profile(id),
        })
        .collect()
}

/// Builds the sample database (`lineitem` + `orders`) used by the native
/// queries and examples.
pub fn sample_database(lineitem_rows: usize, orders: usize, seed: u64) -> (Arc<Table>, Arc<Table>) {
    (
        Arc::new(gen::lineitem_sample(
            lineitem_rows,
            orders,
            seed,
            &mut Vec::new(),
        )),
        Arc::new(gen::orders_sample(orders, seed ^ 0xbeef)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;
    use ccp_engine::alloc::{NoopAllocator, RecordingAllocator};
    use ccp_engine::partition::PartitionPolicy;

    fn executor(alloc: Arc<dyn ccp_engine::alloc::CacheAllocator>) -> JobExecutor {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        JobExecutor::new(
            4,
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            alloc,
        )
    }

    /// Q1 one row at a time over decoded values.
    fn q1_by_row(lineitem: &Table) -> Vec<Q1Row> {
        let flag = int_column(lineitem, "L_RETURNFLAG");
        let status = int_column(lineitem, "L_LINESTATUS");
        let price = int_column(lineitem, "L_EXTENDEDPRICE");
        let mut groups = std::collections::BTreeMap::<(i64, i64), (i64, u64)>::new();
        for row in 0..lineitem.row_count() {
            let e = groups
                .entry((*flag.value_at(row), *status.value_at(row)))
                .or_insert((0, 0));
            e.0 += *price.value_at(row);
            e.1 += 1;
        }
        groups
            .into_iter()
            .map(
                |((returnflag, linestatus), (sum_extendedprice, count))| Q1Row {
                    returnflag,
                    linestatus,
                    sum_extendedprice,
                    count,
                },
            )
            .collect()
    }

    /// Q6 one row at a time over decoded values.
    fn q6_by_row(
        lineitem: &Table,
        max_quantity: i64,
        discount: std::ops::RangeInclusive<i64>,
    ) -> i64 {
        let qty = int_column(lineitem, "L_QUANTITY");
        let disc = int_column(lineitem, "L_DISCOUNT");
        let price = int_column(lineitem, "L_EXTENDEDPRICE");
        (0..lineitem.row_count())
            .filter(|&row| {
                *qty.value_at(row) < max_quantity && discount.contains(disc.value_at(row))
            })
            .map(|row| *price.value_at(row) * *disc.value_at(row))
            .sum()
    }

    #[test]
    fn q1_matches_naive_reference() {
        let (lineitem, _) = sample_database(60_000, 5_000, 99);
        let ex = executor(Arc::new(NoopAllocator));
        let rows = q1_pricing_summary(&ex, &lineitem);
        // 3 flags x 2 statuses = 6 groups on any non-trivial sample.
        assert_eq!(rows.len(), 6);
        assert_eq!(rows, q1_by_row(&lineitem));
        let total: u64 = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, 60_000);
    }

    #[test]
    fn q6_matches_naive_reference() {
        let (lineitem, _) = sample_database(40_000, 3_000, 7);
        let ex = executor(Arc::new(NoopAllocator));
        let revenue = q6_forecast_revenue(&ex, &lineitem, 24, 5..=7);
        assert_eq!(revenue, q6_by_row(&lineitem, 24, 5..=7));
        assert!(revenue > 0);
    }

    proptest::proptest! {
        /// Q1 and Q6 against the row-at-a-time references at row counts
        /// that are not multiples of the 32 Ki-row chunk or the decode
        /// block, over arbitrary predicate constants.
        #[test]
        fn q1_q6_match_row_reference(
            rows in proptest::prop_oneof![1usize..2_500, 32_700usize..32_900, 66_000usize..66_100],
            max_quantity in 0i64..55,
            lo in 0i64..12,
            width in 0i64..6,
            seed in 0u64..10_000,
        ) {
            let (lineitem, _) = sample_database(rows, rows / 8 + 1, seed);
            let ex = executor(Arc::new(NoopAllocator));
            proptest::prop_assert_eq!(q1_pricing_summary(&ex, &lineitem), q1_by_row(&lineitem));
            let discount = lo..=lo + width;
            proptest::prop_assert_eq!(
                q6_forecast_revenue(&ex, &lineitem, max_quantity, discount.clone()),
                q6_by_row(&lineitem, max_quantity, discount)
            );
        }
    }

    #[test]
    fn q1_runs_sensitive_and_q6_runs_polluting() {
        let (lineitem, _) = sample_database(10_000, 1_000, 1);
        let rec = Arc::new(RecordingAllocator::new());
        let ex = executor(rec.clone());
        q1_pricing_summary(&ex, &lineitem);
        assert!(rec.calls().iter().all(|(_, m)| m.bits() == 0xfffff));
        q6_forecast_revenue(&ex, &lineitem, 24, 5..=7);
        assert!(rec.calls().iter().any(|(_, m)| m.bits() == 0x3));
    }

    #[test]
    fn empty_selectivity_yields_zero_revenue() {
        let (lineitem, _) = sample_database(1_000, 100, 2);
        let ex = executor(Arc::new(NoopAllocator));
        // No discount above 10 exists.
        assert_eq!(q6_forecast_revenue(&ex, &lineitem, 24, 11..=15), 0);
        // No quantity below 1 exists.
        assert_eq!(q6_forecast_revenue(&ex, &lineitem, 1, 5..=7), 0);
    }
}
