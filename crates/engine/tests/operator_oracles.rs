//! Differential oracles for the native operators: each block-at-a-time
//! operator against a row-at-a-time reference over the raw values, at row
//! counts that are not multiples of the 64 Ki-row chunk, the decode block
//! or the 64-code group.

use ccp_cachesim::HierarchyConfig;
use ccp_engine::ops::{aggregate, join, oltp, scan};
use ccp_engine::{JobExecutor, NoopAllocator, PartitionPolicy};
use ccp_obs::Registry;
use ccp_reuse::{Begin, ReuseCache, ReuseConfig, ReuseHandle, ReuseStatus};
use ccp_storage::{gen, Aggregate, DictColumn, InvertedIndex};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn executor() -> JobExecutor {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    JobExecutor::new(
        3,
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
        Arc::new(NoopAllocator),
    )
}

/// Row counts below one block, around one chunk and around two chunks.
fn arb_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..3_000,
        65_400usize..65_700,
        66_500usize..66_700,
        131_000usize..131_200,
    ]
}

const AGGREGATES: [Aggregate; 4] = [
    Aggregate::Max,
    Aggregate::Min,
    Aggregate::Sum,
    Aggregate::Count,
];

/// `(aggregate, row count)` per group value, folded one row at a time over
/// the raw values.
fn aggregate_by_row(v: &[i64], g: &[i64], agg: Aggregate) -> BTreeMap<i64, (i64, u64)> {
    let mut reference: BTreeMap<i64, (i64, u64)> = BTreeMap::new();
    for (&value, &group) in v.iter().zip(g) {
        let first = if agg == Aggregate::Count { 1 } else { value };
        reference
            .entry(group)
            .and_modify(|(acc, count)| {
                *acc = match agg {
                    Aggregate::Max => (*acc).max(value),
                    Aggregate::Min => (*acc).min(value),
                    Aggregate::Sum => *acc + value,
                    Aggregate::Count => *acc + 1,
                };
                *count += 1;
            })
            .or_insert((first, 1));
    }
    reference
}

/// `grouped_aggregate` over the encoded columns as the same map: every
/// `(key, acc, count)` triple of the result, keys decoded.
fn aggregate_by_operator(
    ex: &JobExecutor,
    v: &[i64],
    g: &[i64],
    agg: Aggregate,
) -> BTreeMap<i64, (i64, u64)> {
    let v_col = Arc::new(DictColumn::build(v));
    let g_col = Arc::new(DictColumn::build(g));
    let table = aggregate::grouped_aggregate(ex, &v_col, &g_col, agg);
    let got: BTreeMap<i64, (i64, u64)> = table
        .iter()
        .map(|(code, acc, count)| (*g_col.dict().decode(code), (acc, count)))
        .collect();
    assert_eq!(got.len(), table.len(), "a group code appeared twice");
    got
}

/// All four aggregates over group domains of 1, 2, 64, 65 537 (more groups
/// than one chunk has rows) and one group per row, with negative values
/// and with the `i64` extremes in the value dictionary (no sum over those:
/// it overflows by construction), at row counts that are multiples of
/// neither the decode block nor the chunk.
#[test]
fn grouped_aggregate_matches_row_reference_across_domains_and_extremes() {
    const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let ex = executor();
    for (domain, rows) in [
        (1usize, 777usize),
        (1, 70_001),
        (2, 1_025),
        (2, 131_073),
        (64, 777),
        (64, 140_001),
        (65_537, 140_001),
        (70_001, 70_001),
    ] {
        // A multiplier coprime to every domain above walks all of it.
        let g: Vec<i64> = (0..rows)
            .map(|i| ((i * 7_919) % domain) as i64 - 3)
            .collect();
        let signed: Vec<i64> = (0..rows as i64)
            .map(|i| (i * 104_729) % 20_011 - 10_005)
            .collect();
        let extreme: Vec<i64> = (0..rows).map(|i| EXTREMES[(i * 31 + i / 7) % 7]).collect();
        for agg in AGGREGATES {
            assert_eq!(
                aggregate_by_operator(&ex, &signed, &g, agg),
                aggregate_by_row(&signed, &g, agg),
                "{agg:?}, {domain} groups, {rows} rows, signed values"
            );
            if agg != Aggregate::Sum {
                assert_eq!(
                    aggregate_by_operator(&ex, &extreme, &g, agg),
                    aggregate_by_row(&extreme, &g, agg),
                    "{agg:?}, {domain} groups, {rows} rows, extreme values"
                );
            }
        }
    }
}

proptest! {
    /// `grouped_aggregate` == a map folded row by row, all four aggregates.
    #[test]
    fn grouped_aggregate_matches_row_reference(
        n in arb_rows(),
        groups in 1i64..300,
        distinct in 1i64..5_000,
        seed in 0u64..10_000,
    ) {
        let v = gen::uniform_ints(n, distinct, seed);
        let g = gen::uniform_ints(n, groups, seed + 1);
        let ex = executor();
        for agg in AGGREGATES {
            prop_assert_eq!(
                aggregate_by_operator(&ex, &v, &g, agg),
                aggregate_by_row(&v, &g, agg),
                "{:?} over {} rows", agg, n
            );
        }
    }

    /// `fk_join_count` == counting foreign keys found in the key set, with
    /// gaps in the key domain, foreign keys at and below zero and beyond
    /// the domain, an empty foreign-key column (`n` = 0), an empty
    /// primary-key column (`modulus` = 1 drops every key) and a foreign-key
    /// column with one distinct value per row.
    #[test]
    fn fk_join_count_matches_row_reference(
        n in prop_oneof![Just(0usize), arb_rows()],
        keys in 1usize..4_000,
        modulus in 1i64..9,
        shift in 0i64..60,
        distinct_per_row in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let pks: Vec<i64> = gen::primary_keys(keys, seed)
            .into_iter()
            .filter(|k| k % modulus != 0)
            .collect();
        let key_set: BTreeSet<i64> = pks.iter().copied().collect();
        let drawn = match distinct_per_row {
            0 => gen::foreign_keys(n, keys as i64 + 50, seed + 1),
            _ => gen::primary_keys(n, seed + 1),
        };
        let fks: Vec<i64> = drawn.into_iter().map(|k| k - shift).collect();
        let reference = fks.iter().filter(|&fk| key_set.contains(fk)).count() as u64;
        let pk = Arc::new(DictColumn::build(&pks));
        let fk = Arc::new(DictColumn::build(&fks));
        prop_assert_eq!(join::fk_join_count(&executor(), &pk, &fk), reference);
    }

    /// `column_scan` == a filter over the raw values.
    #[test]
    fn column_scan_matches_row_reference(
        n in arb_rows(),
        distinct in 1i64..100_000,
        threshold in -5i64..100_005,
        seed in 0u64..10_000,
    ) {
        let values = gen::uniform_ints(n, distinct, seed);
        let col = Arc::new(DictColumn::build(&values));
        let reference = values.iter().filter(|&&v| v > threshold).count() as u64;
        prop_assert_eq!(scan::column_scan(&executor(), &col, threshold), reference);
    }
}

/// `point_select_sum` == a row-at-a-time scan of the key and amount
/// columns, over the server's OLTP data shape at a small scale: every key
/// of the domain, and the absent keys just outside it.
#[test]
fn point_select_sum_matches_row_reference() {
    const ROWS: usize = 4_096;
    let domain = (ROWS / 8) as i64;
    let keys = gen::uniform_ints(ROWS, domain, 31);
    let amounts = gen::uniform_ints(ROWS, 1_000_000, 32);
    let key_col = DictColumn::build(&keys);
    let index = InvertedIndex::build(key_col.codes().iter(), key_col.dict().len());
    let amount_col = DictColumn::build(&amounts);
    for key in (1..=domain).chain([0, -1, domain + 1]) {
        let (rows, sum) = keys
            .iter()
            .zip(&amounts)
            .filter(|&(&k, _)| k == key)
            .fold((0u64, 0i64), |(rows, sum), (_, &a)| (rows + 1, sum + a));
        assert_eq!(
            oltp::point_select_sum(&key_col, &index, &amount_col, key),
            (rows, sum),
            "key {key}"
        );
    }
}

/// `fk_join_count_cached` == `fk_join_count` across miss -> hit -> epoch
/// bump -> miss, and the hit runs neither the build nor the translation:
/// nothing is published and the vector it probes is the one the miss made.
#[test]
fn cached_join_equals_uncached_across_an_epoch_bump() {
    let pks: Vec<i64> = (1..=3_000).filter(|k| k % 3 != 0).collect();
    let fks: Vec<i64> = gen::foreign_keys(70_000, 3_100, 5)
        .into_iter()
        .map(|k| k - 40)
        .collect();
    let pk = Arc::new(DictColumn::build(&pks));
    let fk = Arc::new(DictColumn::build(&fks));
    let ex = executor();
    let uncached = join::fk_join_count(&ex, &pk, &fk);

    let cache = ReuseCache::new(ReuseConfig::with_budget(1 << 20));
    let registry = Registry::new();
    cache.register_into(&registry);
    let inserts = registry.counter("ccp_reuse_inserts_total", "");
    let run = || {
        let handle = ReuseHandle::new(cache.clone(), cache.key("q3", ""));
        join::fk_join_count_cached(&ex, &pk, &fk, Some(&handle))
    };
    let published = || match cache.begin(&cache.key("q3", "")) {
        Begin::Hit(artifact) => artifact.join_bits().expect("bit-vector artifact"),
        Begin::Build(_) => panic!("the miss must have published"),
    };

    assert_eq!(run(), (uncached, ReuseStatus::Miss));
    assert_eq!(inserts.get(), 1);
    let first = published();
    assert_eq!(first.len(), fk.dict().len() as u64, "code-domain vector");

    assert_eq!(run(), (uncached, ReuseStatus::Hit));
    assert_eq!(inserts.get(), 1, "a hit builds and publishes nothing");
    assert!(Arc::ptr_eq(&first, &published()));

    cache.bump_version();
    assert_eq!(run(), (uncached, ReuseStatus::Miss));
    assert_eq!(inserts.get(), 2);
    assert!(!Arc::ptr_eq(&first, &published()));
    assert_eq!(*first, *published());
}
