//! Native foreign-key join (paper Query 3).
//!
//! The OLAP-optimized join of Section III-A: build a bit vector over the
//! primary-key domain, then probe it once per foreign key, counting
//! matches — in the *code domain*. The foreign-key column is dictionary
//! encoded, so "is this row's key set?" has one answer per distinct value:
//! [`fk_probe_count`] walks the sorted dictionary once and writes a bit
//! vector indexed by foreign-key *code*, and the per-row loop is unpack a
//! block, one bit test per code, sum ([`BitVec::count_set`]) — the paper's
//! "stream the foreign-key column, test one bit per row", with no
//! dictionary access and no key value in it. `dict.len() <= rows` by
//! construction, so the translation never costs more than the per-row
//! lookups it replaces.
//!
//! Both the translation (`join_translate`, 64 dictionary keys per output
//! word) and the probe (`fk_join_probe`) run as pool jobs under the join's
//! CUID, so every phase but the build reads the cache through the join's
//! mask (paper Fig. 8). The build stays on the caller: run as one more
//! pool job it measured slower end to end (DESIGN.md, "Join in the code
//! domain").
//!
//! The join's CUID is
//! [`CacheUsageClass::Mixed`](crate::CacheUsageClass::Mixed) with the
//! size of the vector the probe reads per row — the code-domain one,
//! [`phase`]'s [`Phase::cuid`] — as the hot-structure hint: the
//! partition policy decides at runtime whether this join is a polluter
//! (tiny or huge bit vector) or cache-sensitive (bit vector comparable to
//! the LLC).

use crate::executor::JobExecutor;
use crate::Phase;
use ccp_reuse::{Artifact, ReuseHandle, ReuseStatus};
use ccp_storage::bitpack::{scan_blocks, SCAN_BLOCK};
use ccp_storage::{BitVec, DictColumn};
use std::sync::Arc;

/// Build phase of Query 3: the bit vector over the primary-key domain.
/// The dictionary of a primary-key column is the sorted key set itself, so
/// the build walks the dictionary — ascending bit sets, no code unpacked —
/// and its last entry bounds the bit-vector length. Valid because
/// [`DictColumn::build`] is the only constructor: every dictionary value
/// occurs in the column, none is stale. The dictionary strictly ascends,
/// so its first key is its smallest: the positivity check is made there,
/// once, and the loop over the keys carries none.
///
/// # Panics
/// Panics when a primary key is non-positive (the paper's keys are
/// `1..=N`).
pub fn fk_bit_vector(pk_col: &Arc<DictColumn<i64>>) -> BitVec {
    let _span = super::op_span("join_build");
    let keys = pk_col.dict().iter().as_slice();
    if let Some(&first) = keys.first() {
        assert!(first >= 1, "primary keys must be positive, got {first}");
    }
    let max_key = keys.last().copied().unwrap_or(0);
    BitVec::from_ascending(max_key as u64 + 1, keys.iter().map(|&key| key as u64))
}

/// Translates the key-domain vector `bv` through `fk_col`'s dictionary,
/// as the join's first pool phase: bit `c` of the result is set iff
/// dictionary value `c` is a key `bv` holds (non-negative, inside `bv`,
/// set there). Each job covers a range of whole 64-code words and runs
/// [`BitVec::held_words`] over it, under the join's CUID — the mask its
/// probe jobs run under. This is the vector the probe reads, and the
/// artifact the reuse cache memoizes.
fn code_domain_bits(ex: &JobExecutor, bv: Arc<BitVec>, fk_col: &Arc<DictColumn<i64>>) -> BitVec {
    let n = fk_col.dict().len();
    let chunks = n.div_ceil(super::CHUNK_ROWS).max(1);
    let cuid = phase(fk_col).cuid();
    let fk = fk_col.clone();
    let parts = ex.parallel_map(
        "join_translate",
        cuid,
        n.div_ceil(64),
        chunks,
        move |words| {
            let keys = fk.dict().iter().as_slice();
            let codes = words.start * 64..(words.end * 64).min(keys.len());
            bv.held_words(&keys[codes]).collect::<Vec<u64>>()
        },
    );
    BitVec::from_words(n as u64, parts.concat())
}

/// The join of `fk_col` as a plan phase: its probe reads a code-domain
/// vector of one bit per distinct foreign key, once per row. Admission
/// classifies with its [`Phase::cuid`] before any vector exists and the
/// probe jobs carry the same CUID, so a join is admitted and bound under
/// the same mask.
pub fn phase(fk_col: &DictColumn<i64>) -> Phase {
    Phase::Join {
        build_keys: fk_col.dict().len() as u64,
        probe_rows: fk_col.len() as u64,
    }
}

/// The per-row loop: one bit test per foreign-key code, parallel over
/// chunks, each chunk unpacked block by block. `bits` is indexed by
/// `fk_col`'s codes.
fn probe_codes(ex: &JobExecutor, bits: Arc<BitVec>, fk_col: &Arc<DictColumn<i64>>) -> u64 {
    assert_eq!(
        bits.len(),
        fk_col.dict().len() as u64,
        "code-domain vector built for another foreign-key column"
    );
    let cuid = phase(fk_col).cuid();
    let n = fk_col.len();
    let chunks = n.div_ceil(super::CHUNK_ROWS).max(1);
    let fk_col = fk_col.clone();
    ex.parallel_sum("fk_join_probe", cuid, n, chunks, move |rows| {
        let mut buf = [0u32; SCAN_BLOCK];
        let mut matches = 0u64;
        for block in scan_blocks(rows) {
            let codes = &mut buf[..block.len()];
            fk_col.codes().unpack(block.start, codes);
            matches += bits.count_set(codes);
        }
        matches
    })
}

/// Probe phase of Query 3 against the key-domain vector `bv`: translate it
/// through the foreign-key dictionary once, then one bit test per row on
/// codes.
pub fn fk_probe_count(ex: &JobExecutor, bv: Arc<BitVec>, fk_col: &Arc<DictColumn<i64>>) -> u64 {
    let bits = Arc::new(code_domain_bits(ex, bv, fk_col));
    probe_codes(ex, bits, fk_col)
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

/// [`fk_join_count`] with optional reuse of the vector the probe reads: a
/// hit skips both the build over the primary keys and the translation
/// through the foreign-key dictionary (the probe itself always runs). A
/// miss does both and publishes the code-domain vector with their measured
/// cost. The vector is indexed by `fk_col`'s codes, so `reuse`'s key must
/// name the pair of columns, not the build side alone.
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
    let (bits, status) = handle.get_or_build(
        Artifact::join_bits,
        || {
            Arc::new(code_domain_bits(
                ex,
                Arc::new(fk_bit_vector(pk_col)),
                fk_col,
            ))
        },
        |bits| Artifact::JoinBits(Arc::clone(bits)),
    );
    (probe_codes(ex, bits, fk_col), status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{NoopAllocator, RecordingAllocator};
    use crate::job::CacheUsageClass;
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
    fn cached_join_reuses_the_probed_vector() {
        let pks: Vec<i64> = (1..=1000).filter(|k| k % 2 == 0).collect();
        let pk = Arc::new(DictColumn::build(&pks));
        let fk = Arc::new(DictColumn::build(&(1..=1000).collect::<Vec<i64>>()));
        let ex = executor(Arc::new(NoopAllocator));
        let cache = ccp_reuse::ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(1 << 20));
        let handle = ReuseHandle::new(cache.clone(), cache.key("q3", ""));
        let registry = ccp_obs::Registry::new();
        cache.register_into(&registry);

        let (count, st) = fk_join_count_cached(&ex, &pk, &fk, Some(&handle));
        assert_eq!((count, st), (500, ReuseStatus::Miss));
        // The hit probes the memoized code-domain vector: fresh count.
        let (count, st) = fk_join_count_cached(&ex, &pk, &fk, Some(&handle));
        assert_eq!((count, st), (500, ReuseStatus::Hit));
        assert_eq!(registry.counter("ccp_reuse_hits_total", "").get(), 1);

        let (count, st) = fk_join_count_cached(&ex, &pk, &fk, None);
        assert_eq!((count, st), (500, ReuseStatus::Bypass));
    }

    #[test]
    #[should_panic(expected = "built for another foreign-key column")]
    fn cached_vector_of_another_fk_column_rejected() {
        let pk = Arc::new(DictColumn::build(&[2i64, 4]));
        let fk_a = Arc::new(DictColumn::build(&[1i64, 2, 3, 4]));
        let fk_b = Arc::new(DictColumn::build(&[2i64, 4]));
        let ex = executor(Arc::new(NoopAllocator));
        let cache = ccp_reuse::ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(1 << 20));
        let handle = ReuseHandle::new(cache.clone(), cache.key("q3", ""));
        fk_join_count_cached(&ex, &pk, &fk_a, Some(&handle));
        fk_join_count_cached(&ex, &pk, &fk_b, Some(&handle));
    }

    #[test]
    fn code_domain_bits_mark_the_held_dictionary_values() {
        // Keys 2 and 4 of a 5-bit domain; the FK dictionary reaches below
        // zero, into the gaps and past the end of the key domain.
        let bv = Arc::new(BitVec::from_ascending(5, [2, 4]));
        let fk = Arc::new(DictColumn::build(&[-7i64, 0, 2, 3, 4, 5, 900, 2, 4]));
        let bits = code_domain_bits(&executor(Arc::new(NoopAllocator)), bv, &fk);
        assert_eq!(bits, BitVec::from_ascending(7, [2, 4]));
        assert_eq!(
            phase(&fk).cuid(),
            CacheUsageClass::Mixed {
                hot_bytes: bits.size_bytes()
            }
        );
    }

    #[test]
    fn admission_and_probe_jobs_see_one_cuid() {
        // Small, LLC-comparable and oversize code domains against a
        // scaled-down cache (4 KiB L2, 64 KiB LLC): what a caller
        // classifies with `phase` before the join runs is what
        // every probe job is bound under.
        let mut cfg = HierarchyConfig::broadwell_e5_2699_v4();
        cfg.llc.size_bytes = 64 << 10;
        let policy = PartitionPolicy::paper_default(cfg.llc, 4 << 10);
        //
        // Every job of the join — translation and probe — runs on the
        // pool: a worker first bound to another class's mask must rebind
        // to the join's, and nothing binds anything else after it.
        let warm = CacheUsageClass::Sensitive;
        for (distinct, mask, jobs) in [
            (1_000, 0x3, 1 + 1),
            (300_000, 0xfff, 5 + 5),
            (2_000_000, 0x3, 31 + 31),
        ] {
            let rec = Arc::new(RecordingAllocator::new());
            let ex = JobExecutor::new(2, policy, rec.clone());
            ex.submit_batch(vec![crate::Job::new("warm", warm, || {})])
                .wait();
            let pk = Arc::new(DictColumn::build(&[1i64, 2, 3]));
            let fk = Arc::new(DictColumn::build(&(1..=distinct).collect::<Vec<i64>>()));
            let classified = phase(&fk).cuid();
            assert_eq!(policy.mask_for(classified).bits(), mask, "{distinct}");
            assert_ne!(policy.mask_for(warm).bits(), mask);
            assert_eq!(fk_join_count(&ex, &pk, &fk), 3);
            assert_eq!(ex.metrics().jobs_executed(), 1 + jobs, "{distinct}");
            let bound = rec.calls();
            assert_eq!(bound[0].1, policy.mask_for(warm));
            assert!(bound.len() >= 2, "{distinct}");
            assert!(
                bound[1..].iter().all(|(_, m)| m.bits() == mask),
                "{distinct}"
            );
        }
    }

    #[test]
    fn pooled_translation_equals_the_serial_reference() {
        // Every third key of a gappy primary-key domain: FK dictionaries
        // of one word, around a word and around a job boundary, and the
        // served one — reaching below zero and past the key domain.
        let keys: Vec<i64> = (1..=400_000).filter(|k| k % 5 != 0).collect();
        let bv = Arc::new(fk_bit_vector(&Arc::new(DictColumn::build(&keys))));
        let ex = executor(Arc::new(NoopAllocator));
        let chunk = super::super::CHUNK_ROWS as i64;
        for distinct in [1, 63, 64, 65, chunk - 1, chunk + 1, 490_808] {
            let fks: Vec<i64> = (0..distinct).map(|i| i * 3 - 40).collect();
            let fk = Arc::new(DictColumn::build(&fks));
            let mut serial = BitVec::zeros(distinct as u64);
            for (code, &key) in fks.iter().enumerate() {
                if key >= 0 && (key as u64) < bv.len() && bv.get(key as u64) {
                    serial.set(code as u64);
                }
            }
            let pooled = code_domain_bits(&ex, bv.clone(), &fk);
            assert_eq!(pooled, serial, "{distinct} keys");
        }
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
