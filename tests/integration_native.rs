//! Cross-crate integration: native operators through the partitioned
//! executor, verified against naive reference computations, with the
//! allocator call stream checked end-to-end.

use cache_partitioning::prelude::*;
use ccp_engine::alloc::RecordingAllocator;
use ccp_engine::ops::{aggregate, join, oltp, scan};
use ccp_storage::{gen, Aggregate, Column, DictColumn, Table};
use std::collections::BTreeMap;
use std::sync::Arc;

fn executor_with(alloc: Arc<dyn CacheAllocator>) -> JobExecutor {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    JobExecutor::new(
        4,
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
        alloc,
    )
}

#[test]
fn full_query_mix_produces_correct_results_and_masks() {
    let rec = Arc::new(RecordingAllocator::new());
    let ex = executor_with(rec.clone());

    const ROWS: usize = 120_000;
    let amounts_raw = gen::uniform_ints(ROWS, 50_000, 11);
    let regions_raw = gen::uniform_ints(ROWS, 64, 12);
    let amounts = Arc::new(DictColumn::build(&amounts_raw));
    let regions = Arc::new(DictColumn::build(&regions_raw));

    // Q1: scan.
    let threshold = 25_000;
    let scan_count = scan::column_scan(&ex, &amounts, threshold);
    let expected = amounts_raw.iter().filter(|&&v| v > threshold).count() as u64;
    assert_eq!(scan_count, expected);

    // Q2: aggregation, checked against a BTreeMap reference.
    let agg = aggregate::grouped_aggregate(&ex, &amounts, &regions, Aggregate::Max);
    let mut reference: BTreeMap<i64, i64> = BTreeMap::new();
    for (a, g) in amounts_raw.iter().zip(&regions_raw) {
        reference
            .entry(*g)
            .and_modify(|m| *m = (*m).max(*a))
            .or_insert(*a);
    }
    assert_eq!(agg.len(), reference.len());
    for (g, m) in &reference {
        let code = regions.dict().encode(g).expect("group exists");
        assert_eq!(agg.get(code), Some(*m));
    }

    // Q3: join — every FK matches because FKs reference the PK domain.
    let pk = Arc::new(DictColumn::build(&gen::primary_keys(30_000, 13)));
    let fk = Arc::new(DictColumn::build(&gen::foreign_keys(90_000, 30_000, 14)));
    assert_eq!(join::fk_join_count(&ex, &pk, &fk), 90_000);

    // The allocator saw all three mask classes: 0x3 for the scan and the
    // small-bitvec join, 0xfffff for the aggregation.
    let masks: std::collections::HashSet<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
    assert!(masks.contains(&0x3), "polluter mask must appear");
    assert!(masks.contains(&0xfffff), "sensitive mask must appear");
}

#[test]
fn oltp_point_select_over_generated_table() {
    let mut t = Table::new("customers");
    let ids = gen::primary_keys(5_000, 21);
    t.add_column("ID", Column::Int(DictColumn::build(&ids)));
    t.add_column(
        "NAME",
        Column::Str(DictColumn::build(&gen::string_values(5_000, 500, 16, 22))),
    );
    let q = oltp::PointSelect::prepare(&t, "ID", &["NAME"]);
    // Every primary key is present exactly once.
    for key in [1i64, 777, 5_000] {
        let rows = q.execute_int(key);
        assert_eq!(rows.len(), 1, "key {key}");
        assert_eq!(rows[0][0].0, "NAME");
    }
    assert!(q.execute_int(5_001).is_empty());
}

#[test]
fn executor_respects_partitioning_toggle_mid_stream() {
    let rec = Arc::new(RecordingAllocator::new());
    let ex = executor_with(rec.clone());
    let col = Arc::new(DictColumn::build(&gen::uniform_ints(10_000, 100, 31)));

    scan::column_scan(&ex, &col, 50);
    ex.set_partitioning(false);
    scan::column_scan(&ex, &col, 50);

    let masks: Vec<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
    assert!(
        masks.contains(&0x3),
        "partitioned phase uses the polluter mask"
    );
    assert!(
        masks.contains(&0xfffff),
        "unpartitioned phase re-binds to the full mask"
    );
}

#[test]
fn join_cuid_switches_with_pk_cardinality() {
    // The join's hot set is the vector its probe reads per row: one bit per
    // distinct foreign key, so it grows with the cardinality of the key
    // domain the foreign keys cover. Small domain -> polluter mask;
    // LLC-comparable -> 60% mask. The cache is scaled down (4 KiB L2,
    // 64 KiB LLC) so that "LLC-comparable" is 300 k keys, not 10^8.
    let rec = Arc::new(RecordingAllocator::new());
    let mut cfg = HierarchyConfig::broadwell_e5_2699_v4();
    cfg.llc.size_bytes = 64 << 10;
    let ex = JobExecutor::new(
        4,
        PartitionPolicy::paper_default(cfg.llc, 4 << 10),
        rec.clone(),
    );

    let small_pk = Arc::new(DictColumn::build(&gen::primary_keys(1_000, 41)));
    let fk = Arc::new(DictColumn::build(&gen::foreign_keys(5_000, 1_000, 42)));
    join::fk_join_count(&ex, &small_pk, &fk);
    assert!(rec.calls().iter().all(|(_, m)| m.bits() == 0x3));
    let small_calls = rec.calls().len();

    // 300 k distinct keys on both sides: a 37.5 KB code-domain vector.
    let wide_pk = Arc::new(DictColumn::build(&gen::primary_keys(300_000, 43)));
    let fk2 = Arc::new(DictColumn::build(&gen::primary_keys(300_000, 44)));
    assert_eq!(join::fk_join_count(&ex, &wide_pk, &fk2), 300_000);
    let wide_masks: Vec<u32> = rec.calls()[small_calls..]
        .iter()
        .map(|(_, m)| m.bits())
        .collect();
    assert!(
        !wide_masks.is_empty() && wide_masks.iter().all(|&m| m == 0xfff),
        "LLC-comparable bit vector gets the 60% mask, got {wide_masks:x?}"
    );

    // A wide key domain probed by one distinct foreign key is one hot bit:
    // the probe streams, like a scan.
    let sparse: Vec<i64> = (0..2_000).map(|i| i * 50_000 + 1).collect();
    let sparse_pk = Arc::new(DictColumn::build(&sparse));
    let fk3 = Arc::new(DictColumn::build(&vec![1i64; 5_000]));
    let wide_calls = rec.calls().len();
    assert_eq!(join::fk_join_count(&ex, &sparse_pk, &fk3), 5_000);
    assert!(rec.calls()[wide_calls..]
        .iter()
        .all(|(_, m)| m.bits() == 0x3));
}
