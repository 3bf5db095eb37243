//! Native foreign-key join (paper Query 3).
//!
//! The OLAP-optimized join of Section III-A: build a bit vector over the
//! primary-key domain, then probe it once per foreign key, counting
//! matches. The join's CUID is [`CacheUsageClass::Mixed`] with the bit
//! vector's size as the hot-structure hint — the partition policy decides
//! at runtime whether this join is a polluter (tiny or huge bit vector) or
//! cache-sensitive (bit vector comparable to the LLC).

use crate::executor::JobExecutor;
use crate::job::CacheUsageClass;
use ccp_reuse::{Artifact, ReuseHandle, ReuseStatus};
use ccp_storage::bitpack::{scan_blocks, SCAN_BLOCK};
use ccp_storage::{BitVec, DictColumn};
use std::sync::Arc;

/// Build phase of Query 3: the bit vector over the primary-key domain.
/// The dictionary of a primary-key column is the sorted key set itself, so
/// the build walks the dictionary — ascending bit sets, no code unpacked —
/// and its last entry bounds the bit-vector length. Valid because
/// [`DictColumn::build`] is the only constructor: every dictionary value
/// occurs in the column, none is stale. This is the artifact the reuse
/// cache memoizes.
///
/// # Panics
/// Panics when a primary key is non-positive (the paper's keys are
/// `1..=N`).
pub fn fk_bit_vector(pk_col: &Arc<DictColumn<i64>>) -> BitVec {
    let _span = super::op_span("join_build");
    let keys = pk_col.dict();
    let max_key = keys.iter().next_back().copied().unwrap_or(0);
    assert!(max_key >= 0, "primary keys must be positive");
    let mut bv = BitVec::zeros(max_key as u64 + 1);
    for &key in keys.iter() {
        assert!(key >= 1, "primary keys must be positive, got {key}");
        bv.set(key as u64);
    }
    bv
}

/// Probe phase of Query 3: one bit test per foreign key, parallel over
/// chunks, each chunk unpacked block by block. The CUID is derived from
/// the bit vector's size, exactly as when the vector was freshly built — a
/// reused vector pollutes (or doesn't) the same way.
pub fn fk_probe_count(ex: &JobExecutor, bv: Arc<BitVec>, fk_col: &Arc<DictColumn<i64>>) -> u64 {
    let cuid = CacheUsageClass::Mixed {
        hot_bytes: bv.size_bytes(),
    };
    let n = fk_col.len();
    let chunks = n.div_ceil(super::CHUNK_ROWS).max(1);
    let fk_col = fk_col.clone();
    ex.parallel_sum("fk_join_probe", cuid, n, chunks, move |rows| {
        let dict = fk_col.dict();
        let mut buf = [0u32; SCAN_BLOCK];
        let mut matches = 0u64;
        for block in scan_blocks(rows) {
            let codes = &mut buf[..block.len()];
            fk_col.codes().unpack(block.start, codes);
            let hits = codes.iter().filter(|&&code| {
                let key = *dict.decode(code);
                key >= 0 && (key as u64) < bv.len() && bv.get(key as u64)
            });
            matches += hits.count() as u64;
        }
        matches
    })
}

/// Runs Query 3: `SELECT COUNT(*) FROM R, S WHERE R.P = S.F`.
///
/// `pk_col` holds the distinct primary keys (values ≥ 1), `fk_col` the
/// foreign keys referencing them. Returns the number of matching S rows.
///
/// # Panics
/// Panics when a primary key is non-positive (the paper's keys are
/// `1..=N`).
pub fn fk_join_count(
    ex: &JobExecutor,
    pk_col: &Arc<DictColumn<i64>>,
    fk_col: &Arc<DictColumn<i64>>,
) -> u64 {
    let _span = super::op_span("fk_join");
    let bv = Arc::new(fk_bit_vector(pk_col));
    fk_probe_count(ex, bv, fk_col)
}

/// [`fk_join_count`] with optional build-side reuse: a hit skips the
/// bit-vector construction pass and probes the cached vector (the probe
/// itself always runs — its result depends on `fk_col`). A miss builds
/// and publishes the vector with its measured build cost.
pub fn fk_join_count_cached(
    ex: &JobExecutor,
    pk_col: &Arc<DictColumn<i64>>,
    fk_col: &Arc<DictColumn<i64>>,
    reuse: Option<&ReuseHandle>,
) -> (u64, ReuseStatus) {
    let Some(handle) = reuse else {
        return (fk_join_count(ex, pk_col, fk_col), ReuseStatus::Bypass);
    };
    let _span = super::op_span("fk_join");
    let (bv, status) = handle.get_or_build(
        Artifact::join_bits,
        || Arc::new(fk_bit_vector(pk_col)),
        |bv| Artifact::JoinBits(Arc::clone(bv)),
    );
    (fk_probe_count(ex, bv, fk_col), status)
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
    fn every_fk_matches_when_domain_covered() {
        // FKs drawn from the full PK domain: every probe matches.
        let pk = Arc::new(DictColumn::build(&gen::primary_keys(10_000, 1)));
        let fk = Arc::new(DictColumn::build(&gen::foreign_keys(50_000, 10_000, 2)));
        let ex = executor(Arc::new(NoopAllocator));
        assert_eq!(fk_join_count(&ex, &pk, &fk), 50_000);
    }

    #[test]
    fn partial_match_counted_exactly() {
        // PKs are the even numbers; FKs cover everything.
        let pks: Vec<i64> = (1..=1000).filter(|k| k % 2 == 0).collect();
        let fks: Vec<i64> = (1..=1000).collect();
        let pk = Arc::new(DictColumn::build(&pks));
        let fk = Arc::new(DictColumn::build(&fks));
        let ex = executor(Arc::new(NoopAllocator));
        assert_eq!(fk_join_count(&ex, &pk, &fk), 500);
    }

    #[test]
    fn join_cuid_depends_on_bitvec_size() {
        // Small PK domain -> small bit vector -> polluter mask 0x3.
        let rec = Arc::new(RecordingAllocator::new());
        let ex = executor(rec.clone());
        let pk = Arc::new(DictColumn::build(&gen::primary_keys(1000, 3)));
        let fk = Arc::new(DictColumn::build(&gen::foreign_keys(5000, 1000, 4)));
        fk_join_count(&ex, &pk, &fk);
        assert!(rec.calls().iter().all(|(_, m)| m.bits() == 0x3));
    }

    #[test]
    fn cached_join_reuses_build_side_but_still_probes() {
        let pks: Vec<i64> = (1..=1000).filter(|k| k % 2 == 0).collect();
        let pk = Arc::new(DictColumn::build(&pks));
        let fk_a = Arc::new(DictColumn::build(&(1..=1000).collect::<Vec<i64>>()));
        let fk_b = Arc::new(DictColumn::build(&(1..=500).collect::<Vec<i64>>()));
        let ex = executor(Arc::new(NoopAllocator));
        let cache = ccp_reuse::ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(1 << 20));
        let handle = ReuseHandle::new(cache.clone(), cache.key("q3", ""));

        let (count, st) = fk_join_count_cached(&ex, &pk, &fk_a, Some(&handle));
        assert_eq!((count, st), (500, ReuseStatus::Miss));
        // Same build side, different probe side: hit, fresh probe result.
        let (count, st) = fk_join_count_cached(&ex, &pk, &fk_b, Some(&handle));
        assert_eq!((count, st), (250, ReuseStatus::Hit));
        assert_eq!(cache.stats().hits, 1);

        let (count, st) = fk_join_count_cached(&ex, &pk, &fk_a, None);
        assert_eq!((count, st), (500, ReuseStatus::Bypass));
    }

    #[test]
    fn bit_vector_from_dictionary_equals_row_walk() {
        // Shuffled, gappy keys: the dictionary walk must set exactly the
        // bits a walk over the rows sets.
        let keys: Vec<i64> = gen::primary_keys(5_000, 9)
            .into_iter()
            .filter(|k| k % 7 != 0)
            .collect();
        let pk = Arc::new(DictColumn::build(&keys));
        let mut by_row = BitVec::zeros(*keys.iter().max().unwrap() as u64 + 1);
        for row in 0..pk.len() {
            by_row.set(*pk.value_at(row) as u64);
        }
        assert_eq!(fk_bit_vector(&pk), by_row);
        assert_eq!(
            fk_bit_vector(&Arc::new(DictColumn::build(&[]))),
            BitVec::zeros(1)
        );
    }

    #[test]
    #[should_panic(expected = "primary keys must be positive, got 0")]
    fn zero_primary_key_rejected() {
        fk_bit_vector(&Arc::new(DictColumn::build(&[0i64, 4])));
    }

    #[test]
    #[should_panic(expected = "primary keys must be positive")]
    fn all_negative_primary_keys_rejected() {
        fk_bit_vector(&Arc::new(DictColumn::build(&[-3i64, -1])));
    }

    #[test]
    fn duplicate_fks_all_counted() {
        let pk = Arc::new(DictColumn::build(&[5i64]));
        let fk = Arc::new(DictColumn::build(&[5i64, 5, 5, 7, 7]));
        let ex = executor(Arc::new(NoopAllocator));
        assert_eq!(fk_join_count(&ex, &pk, &fk), 3);
    }
}
