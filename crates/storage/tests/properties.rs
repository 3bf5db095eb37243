//! Property-based tests for the column-store substrate.

use ccp_storage::{
    AggHashTable, Aggregate, BitVec, DictColumn, Dictionary, InvertedIndex, PackedCodeVector,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

proptest! {
    /// Dictionary encode/decode is a bijection over the distinct inputs.
    #[test]
    fn dict_bijection(values in proptest::collection::vec(-1000i64..1000, 1..300)) {
        let d = Dictionary::build(values.clone());
        for v in &values {
            let code = d.encode(v).expect("input value must be encodable");
            prop_assert_eq!(d.decode(code), v);
        }
        // Codes are dense 0..len.
        let codes: BTreeSet<u32> = values.iter().map(|v| d.encode(v).unwrap()).collect();
        prop_assert!(codes.iter().all(|&c| (c as usize) < d.len()));
    }

    /// Order preservation: v1 < v2 ⟹ code(v1) < code(v2).
    #[test]
    fn dict_order_preserving(values in proptest::collection::btree_set(-5000i64..5000, 2..200)) {
        let vals: Vec<i64> = values.into_iter().collect();
        let d = Dictionary::build(vals.clone());
        for w in vals.windows(2) {
            prop_assert!(d.encode(&w[0]).unwrap() < d.encode(&w[1]).unwrap());
        }
    }

    /// count_range on compressed data agrees with a naive scan of raw data.
    #[test]
    fn scan_matches_naive(
        values in proptest::collection::vec(0i64..500, 1..400),
        threshold in -10i64..510,
    ) {
        let col = DictColumn::build(&values);
        let naive = values.iter().filter(|&&v| v > threshold).count() as u64;
        let fast = col.count_range(Bound::Excluded(&threshold), Bound::Unbounded);
        prop_assert_eq!(fast, naive);
    }

    /// Bit-packing round-trips any width/values combination.
    #[test]
    fn bitpack_roundtrip(bits in 1u32..=32, n in 1usize..500, seed in 0u64..1000) {
        let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let mut x = seed;
        let codes: Vec<u32> = (0..n).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 32) as u32) & max
        }).collect();
        let v = PackedCodeVector::from_codes(bits, &codes);
        prop_assert_eq!(v.iter().collect::<Vec<u32>>(), codes);
    }

    /// Hash-table aggregation agrees with a BTreeMap reference.
    #[test]
    fn hashtable_matches_reference(pairs in proptest::collection::vec((0u32..200, -100i64..100), 1..500)) {
        let mut t = AggHashTable::new(Aggregate::Max, 16);
        let mut reference: BTreeMap<u32, i64> = BTreeMap::new();
        for &(k, v) in &pairs {
            t.update(k, v);
            reference.entry(k).and_modify(|a| *a = (*a).max(v)).or_insert(v);
        }
        prop_assert_eq!(t.len(), reference.len());
        for (&k, &v) in &reference {
            prop_assert_eq!(t.get(k), Some(v));
        }
    }

    /// Split-merge equivalence: aggregating a split input through local
    /// tables then merging equals aggregating everything in one table —
    /// the correctness property of the paper's two-phase aggregation.
    #[test]
    fn hashtable_merge_equivalence(
        pairs in proptest::collection::vec((0u32..100, -50i64..50), 1..300),
        split in 0usize..300,
    ) {
        let split = split.min(pairs.len());
        let mut single = AggHashTable::new(Aggregate::Sum, 16);
        for &(k, v) in &pairs {
            single.update(k, v);
        }
        let mut a = AggHashTable::new(Aggregate::Sum, 16);
        let mut b = AggHashTable::new(Aggregate::Sum, 16);
        for &(k, v) in &pairs[..split] {
            a.update(k, v);
        }
        for &(k, v) in &pairs[split..] {
            b.update(k, v);
        }
        for (k, acc, count) in b.iter() {
            a.merge_one(k, acc, count);
        }
        prop_assert_eq!(a.len(), single.len());
        for (k, acc, count) in single.iter() {
            let (_, acc2, count2) = a.iter().find(|(k2, _, _)| *k2 == k).expect("group present");
            prop_assert_eq!(acc, acc2);
            prop_assert_eq!(count, count2);
        }
    }

    /// BitVec set/get agrees with a BTreeSet reference.
    #[test]
    fn bitvec_matches_reference(bits in proptest::collection::btree_set(0u64..2000, 0..200)) {
        let mut bv = BitVec::zeros(2000);
        for &b in &bits {
            bv.set(b);
        }
        for i in 0..2000 {
            prop_assert_eq!(bv.get(i), bits.contains(&i));
        }
        prop_assert_eq!(bv.count_ones(), bits.len() as u64);
    }

    /// `from_ascending` builds the vector `zeros` + `set` builds, for every
    /// length around a word boundary, with repeated bits; `bytes_for`
    /// predicts its size and `count_set` counts what `get` reports.
    #[test]
    fn bitvec_from_ascending_matches_set(
        len in prop_oneof![Just(0u64), Just(1), Just(63), Just(64), Just(65), Just(4096 + 1)],
        picks in proptest::collection::vec((0u64..u64::MAX, 1usize..4), 0..300),
    ) {
        let mut bits: Vec<u64> = match len {
            0 => Vec::new(),
            _ => picks.iter().flat_map(|&(b, reps)| vec![b % len; reps]).collect(),
        };
        bits.sort_unstable();
        let mut by_set = BitVec::zeros(len);
        for &b in &bits {
            by_set.set(b);
        }
        let built = BitVec::from_ascending(len, bits.iter().copied());
        prop_assert_eq!(&built, &by_set);
        prop_assert_eq!(built.size_bytes(), BitVec::bytes_for(len));
        let codes: Vec<u32> = (0..len as u32).collect();
        prop_assert_eq!(built.count_set(&codes), by_set.count_ones());
    }

    /// `held_words`, the join's translation kernel, agrees with a per-key
    /// `get`: lane `j` of word `w` is set iff the vector holds
    /// `keys[64 * w + j]`, a negative key or one at or past `len` is not
    /// held, and no lane past the last key is set — so `from_words` takes
    /// the words back as a vector of one bit per key.
    #[test]
    fn bitvec_held_words_match_get(
        len in prop_oneof![Just(0u64), Just(1), Just(63), Just(64), Just(65), Just(1000)],
        set in proptest::collection::btree_set(0u64..1000, 0..300),
        keys in proptest::collection::btree_set(
            prop_oneof![-200i64..1200, Just(i64::MIN), Just(i64::MAX)],
            0..300,
        ),
    ) {
        let bv = BitVec::from_ascending(len, set.iter().copied().filter(|&b| b < len));
        let keys: Vec<i64> = keys.into_iter().collect();
        let words: Vec<u64> = bv.held_words(&keys).collect();
        prop_assert_eq!(words.len(), keys.len().div_ceil(64));
        let mut held = 0;
        for (i, &key) in keys.iter().enumerate() {
            let want = key >= 0 && (key as u64) < len && bv.get(key as u64);
            prop_assert_eq!((words[i / 64] >> (i % 64)) & 1 == 1, want, "key {}", key);
            held += u64::from(want);
        }
        let lanes = BitVec::from_words(keys.len() as u64, words);
        prop_assert_eq!(lanes.count_ones(), held);
    }

    /// Inverted index partitions the row ids: every row appears in exactly
    /// one posting list, the one of its code.
    #[test]
    fn invindex_partitions_rows(codes in proptest::collection::vec(0u32..50, 1..400)) {
        let idx = InvertedIndex::build(codes.iter().copied(), 50);
        let mut seen = vec![false; codes.len()];
        for c in 0..50u32 {
            for &row in idx.lookup(c) {
                prop_assert_eq!(codes[row as usize], c);
                prop_assert!(!seen[row as usize], "row listed twice");
                seen[row as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// A foreign-key join via bit vector equals a naive nested validation:
    /// every probe of a key in the PK set hits, others miss.
    #[test]
    fn bitvec_join_semantics(
        pks in proptest::collection::btree_set(1u64..1000, 1..100),
        probes in proptest::collection::vec(1u64..1000, 1..200),
    ) {
        let mut bv = BitVec::zeros(1001);
        for &p in &pks {
            bv.set(p);
        }
        let matches = probes.iter().filter(|p| bv.get(**p)).count();
        let naive = probes.iter().filter(|p| pks.contains(p)).count();
        prop_assert_eq!(matches, naive);
    }
}

#[test]
#[should_panic(expected = "bit 64 out of range (len 64)")]
fn bitvec_from_ascending_rejects_out_of_range() {
    BitVec::from_ascending(64, [3, 64]);
}

#[test]
#[should_panic(expected = "bit 9 after 70: input must ascend")]
fn bitvec_from_ascending_rejects_descending() {
    BitVec::from_ascending(128, [5, 70, 9]);
}
