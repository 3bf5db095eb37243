//! Differential tests for the block-at-a-time kernels: the block decoder
//! against `get`, the scan kernels against a naive filter, the code-domain
//! accumulator against the per-row table update. The decode and scan
//! properties walk all 32 widths.

use ccp_storage::bitpack::{scan_blocks, SCAN_BLOCK as BLOCK};
use ccp_storage::{AggHashTable, Aggregate, CodeAccumulator, PackedCodeVector};
use proptest::prelude::*;

fn max_code(bits: u32) -> u32 {
    u32::MAX >> (32 - bits)
}

/// `n` deterministic codes of `bits` bits.
fn codes(bits: u32, n: usize, seed: u64) -> Vec<u32> {
    let mut x = seed ^ u64::from(bits) << 32;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 32) as u32 & max_code(bits)
        })
        .collect()
}

/// Lengths around every boundary the decoder has: empty, shorter than a
/// 64-code group, not a multiple of 64, longer than a block.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..64,
        64usize..600,
        BLOCK - 70..BLOCK + 70,
        2 * BLOCK..2 * BLOCK + 200,
    ]
}

/// Code ranges as the scans may meet them: empty, inverted, ordinary,
/// reaching past the width, and the whole `u32` domain.
fn code_ranges(bits: u32, lo: u32, hi: u32) -> Vec<std::ops::Range<u32>> {
    let max = max_code(bits);
    let (lo, hi) = (lo & max, hi & max);
    vec![
        0..0,
        lo..lo,
        lo..hi,
        hi..lo,
        lo.min(hi)..lo.max(hi).saturating_add(1),
        0..max,
        lo..u32::MAX,
        0..u32::MAX,
    ]
}

const AGGREGATES: [Aggregate; 4] = [
    Aggregate::Max,
    Aggregate::Min,
    Aggregate::Sum,
    Aggregate::Count,
];

fn sorted_groups(t: &AggHashTable) -> Vec<(u32, i64, u64)> {
    let mut groups: Vec<_> = t.iter().collect();
    groups.sort_unstable();
    groups
}

proptest! {
    /// Block unpack == `get`, for every width and any unaligned sub-range.
    #[test]
    fn unpack_matches_get(n in arb_len(), a in 0usize..10_000, b in 0usize..10_000, seed in 0u64..1_000_000) {
        for bits in 1..=32u32 {
            let v = PackedCodeVector::from_codes(bits, &codes(bits, n, seed));
            let start = a % (n + 1);
            let len = b % (n - start + 1);
            let mut out = vec![u32::MAX; len];
            v.unpack(start, &mut out);
            for (i, &code) in out.iter().enumerate() {
                prop_assert_eq!(code, v.get(start + i), "width {}, row {}", bits, start + i);
            }
        }
    }

    /// Walking a range block by block decodes every row exactly once.
    #[test]
    fn scan_blocks_decode_every_row(n in arb_len(), a in 0usize..10_000, b in 0usize..10_000, seed in 0u64..1_000_000) {
        let (lo, hi) = (a % (n + 1), b % (n + 1));
        for bits in [1u32, 6, 16, 19, 32] {
            let all = codes(bits, n, seed);
            let v = PackedCodeVector::from_codes(bits, &all);
            let mut buf = [0u32; BLOCK];
            let mut walked = Vec::new();
            for block in scan_blocks(lo..hi) {
                prop_assert!(block.len() <= BLOCK);
                v.unpack(block.start, &mut buf[..block.len()]);
                walked.extend_from_slice(&buf[..block.len()]);
            }
            prop_assert_eq!(&walked[..], all.get(lo..hi).unwrap_or(&[]));
        }
    }

    /// `count_in_range_rows` and `matching_rows` == a naive filter, for
    /// every width, odd code ranges and row ranges past the end.
    #[test]
    fn scans_match_naive_filter(
        n in arb_len(),
        lo in 0u32..=u32::MAX,
        hi in 0u32..=u32::MAX,
        a in 0usize..10_000,
        b in 0usize..10_000,
        seed in 0u64..1_000_000,
    ) {
        for bits in 1..=32u32 {
            let all = codes(bits, n, seed);
            let v = PackedCodeVector::from_codes(bits, &all);
            let start = a % (n + 1);
            // Up to 50 rows past the end: the kernel clamps.
            let end = start + b % (n - start + 51);
            for range in code_ranges(bits, lo, hi) {
                let naive: Vec<u32> = (0..n as u32)
                    .filter(|&row| range.contains(&all[row as usize]))
                    .collect();
                prop_assert_eq!(v.matching_rows(range.clone()), naive.clone(), "width {}, codes {:?}", bits, range);
                prop_assert_eq!(v.count_in_range(range.clone()), naive.len() as u64);
                let in_rows = naive
                    .iter()
                    .filter(|&&row| (start..end).contains(&(row as usize)))
                    .count();
                prop_assert_eq!(
                    v.count_in_range_rows(range.clone(), start..end),
                    in_rows as u64,
                    "width {}, codes {:?}, rows {}..{}", bits, range, start, end
                );
            }
        }
    }

    /// Chunked folds into a `CodeAccumulator`, entered into a table with
    /// `merge_one`, == per-row `update` for all four aggregates, with the
    /// table (8 expected groups, up to 200 met) growing as groups arrive.
    #[test]
    fn accumulator_into_table_matches_update(
        pairs in proptest::collection::vec((0u32..200, -1_000i64..1_000), 0..700),
        cut in 1usize..300,
    ) {
        let (keys, values): (Vec<u32>, Vec<i64>) = pairs.iter().copied().unzip();
        for agg in AGGREGATES {
            let mut by_row = AggHashTable::new(agg, 8);
            for &(k, v) in &pairs {
                by_row.update(k, v);
            }
            let mut acc = CodeAccumulator::new(agg, 200);
            for (k, v) in keys.chunks(cut).zip(values.chunks(cut)) {
                acc.fold(k, v);
            }
            let mut by_code = AggHashTable::new(agg, 8);
            for (key, partial, count) in acc.groups() {
                by_code.merge_one(key, partial, count);
            }
            prop_assert_eq!(sorted_groups(&by_code), sorted_groups(&by_row), "{:?}", agg);
            prop_assert_eq!(by_code.len(), by_row.len());
        }
    }
}

/// The 32-bit corner the wrapping compare must get right: `0..u32::MAX`
/// selects everything but `u32::MAX` itself.
#[test]
#[allow(clippy::reversed_empty_ranges)] // inverted ranges are inputs under test
fn full_domain_range_at_32_bits() {
    let all = [0, 1, u32::MAX - 1, u32::MAX, 7, u32::MAX];
    let v = PackedCodeVector::from_codes(32, &all);
    assert_eq!(v.count_in_range(0..u32::MAX), 4);
    assert_eq!(v.matching_rows(0..u32::MAX), [0, 1, 2, 4]);
    assert_eq!(v.count_in_range(u32::MAX..0), 0);
    assert_eq!(v.count_in_range(u32::MAX - 1..u32::MAX), 1);
    assert_eq!(v.count_in_range_rows(0..u32::MAX, 3..1_000), 1);
    assert_eq!(v.count_in_range_rows(0..u32::MAX, 9..3), 0);
}
