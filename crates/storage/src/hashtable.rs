//! Open-addressing aggregation hash table.
//!
//! The paper's *aggregation with grouping* keeps one such table per worker
//! thread for local pre-aggregation plus a global table for the merge
//! (Section II, Section III-A Query 2). Keys are dictionary codes of the
//! grouping column; each slot carries the running aggregate. Linear probing
//! over a power-of-two table keeps the probe sequence short and the memory
//! layout flat, so the table's cache footprint is simply
//! `capacity × slot size` — the quantity the paper relates to the LLC size.
//!
//! The native operators fold rows into a
//! [`CodeAccumulator`](crate::CodeAccumulator) and enter the merged groups
//! here with [`AggHashTable::merge_one`]; the per-row
//! [`AggHashTable::update`] remains the paper's probe-per-row structure,
//! timed by the storage microbenchmarks.

/// Aggregate functions supported by the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Running maximum (the paper's Query 2 uses `MAX(B.V)`).
    Max,
    /// Running minimum.
    Min,
    /// Sum of values.
    Sum,
    /// Row count per group.
    Count,
}

impl Aggregate {
    /// Combines two partial aggregates over disjoint sets of rows.
    #[inline(always)]
    pub(crate) fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            Aggregate::Max => a.max(b),
            Aggregate::Min => a.min(b),
            Aggregate::Sum | Aggregate::Count => a + b,
        }
    }
}

/// One slot: group key (dictionary code), aggregate accumulator, row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: u32,
    acc: i64,
    count: u64,
}

const EMPTY_KEY: u32 = u32::MAX;

/// Open-addressing (linear probing) hash table keyed by `u32` group codes.
#[derive(Debug, Clone)]
pub struct AggHashTable {
    slots: Vec<Slot>,
    mask: usize,
    len: usize,
    agg: Aggregate,
}

/// Fibonacci hashing: cheap, good spread for dense dictionary codes.
#[inline]
fn hash(key: u32) -> u64 {
    u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl AggHashTable {
    /// Creates a table able to hold `expected_groups` without resizing
    /// (capacity = next power of two ≥ 2 × expected, for ≤ 50 % load).
    pub fn new(agg: Aggregate, expected_groups: usize) -> Self {
        let cap = (expected_groups.max(8) * 2).next_power_of_two();
        AggHashTable {
            slots: vec![
                Slot {
                    key: EMPTY_KEY,
                    acc: 0,
                    count: 0
                };
                cap
            ],
            mask: cap - 1,
            len: 0,
            agg,
        }
    }

    /// Number of distinct groups present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no group has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Table footprint in bytes — what competes for the LLC.
    pub fn size_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Slot>()) as u64
    }

    /// The slot index `key` hashes to (before probing). Exposed so the
    /// simulated operator can model the table's access pattern faithfully.
    #[inline]
    pub(crate) fn home_slot(&self, key: u32) -> usize {
        (hash(key) as usize) & self.mask
    }

    /// Folds `value` into group `key`, inserting the group if new.
    pub fn update(&mut self, key: u32, value: i64) {
        let agg = self.agg;
        self.upsert(
            key,
            |slot| {
                slot.acc = Self::fold(agg, slot.acc, value);
                slot.count += 1;
            },
            || Slot {
                key,
                acc: Self::init(agg, value),
                count: 1,
            },
        );
    }

    #[inline(always)]
    fn init(agg: Aggregate, value: i64) -> i64 {
        match agg {
            Aggregate::Max | Aggregate::Min | Aggregate::Sum => value,
            Aggregate::Count => 1,
        }
    }

    #[inline(always)]
    fn fold(agg: Aggregate, acc: i64, value: i64) -> i64 {
        match agg {
            Aggregate::Max => acc.max(value),
            Aggregate::Min => acc.min(value),
            Aggregate::Sum => acc + value,
            Aggregate::Count => acc + 1,
        }
    }

    /// The one probe loop: runs `hit` on the slot holding `key`, or claims
    /// the first empty slot of its probe sequence for `new()`. Only the
    /// insert path looks at the load factor, so a table at its
    /// `expected_groups` never grows on a hit; it doubles when a new group
    /// would push the load above 50 %.
    #[inline(always)]
    fn upsert(&mut self, key: u32, hit: impl FnOnce(&mut Slot), new: impl FnOnce() -> Slot) {
        debug_assert!(key != EMPTY_KEY, "key {EMPTY_KEY:#x} is reserved");
        let capacity = self.slots.len();
        let mut idx = self.home_slot(key);
        loop {
            let slot = &mut self.slots[idx];
            if slot.key == key {
                return hit(slot);
            }
            if slot.key == EMPTY_KEY {
                if (self.len + 1) * 2 > capacity {
                    break;
                }
                *slot = new();
                self.len += 1;
                return;
            }
            idx = (idx + 1) & self.mask;
        }
        // The new group would push the load above 50 %: double the table,
        // then claim the first empty slot of the key's new probe sequence.
        self.grow();
        idx = self.home_slot(key);
        while self.slots[idx].key != EMPTY_KEY {
            idx = (idx + 1) & self.mask;
        }
        self.slots[idx] = new();
        self.len += 1;
    }

    /// Looks up the aggregate of group `key`.
    pub fn get(&self, key: u32) -> Option<i64> {
        let mut idx = self.home_slot(key);
        loop {
            let slot = &self.slots[idx];
            if slot.key == key {
                return Some(slot.acc);
            }
            if slot.key == EMPTY_KEY {
                return None;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Iterates over `(group key, aggregate, count)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, i64, u64)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.key != EMPTY_KEY)
            .map(|s| (s.key, s.acc, s.count))
    }

    /// Inserts the partial aggregate `acc` over `count` rows of group
    /// `key`, combining it with what the group already holds — how a
    /// result computed elsewhere (another table, a
    /// [`CodeAccumulator`](crate::CodeAccumulator)) enters this one.
    pub fn merge_one(&mut self, key: u32, acc: i64, count: u64) {
        let agg = self.agg;
        self.upsert(
            key,
            |slot| {
                slot.acc = agg.combine(slot.acc, acc);
                slot.count += count;
            },
            || Slot { key, acc, count },
        );
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    key: EMPTY_KEY,
                    acc: 0,
                    count: 0
                };
                new_cap
            ],
        );
        self.mask = self.slots.len() - 1;
        self.len = 0;
        for s in old {
            if s.key != EMPTY_KEY {
                self.merge_one(s.key, s.acc, s.count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enters every group of `from` into `into`.
    fn merge_all(into: &mut AggHashTable, from: &AggHashTable) {
        for (key, acc, count) in from.iter() {
            into.merge_one(key, acc, count);
        }
    }

    #[test]
    fn max_aggregation() {
        let mut t = AggHashTable::new(Aggregate::Max, 4);
        t.update(1, 10);
        t.update(1, 30);
        t.update(1, 20);
        t.update(2, -5);
        assert_eq!(t.get(1), Some(30));
        assert_eq!(t.get(2), Some(-5));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sum_min_count() {
        let mut sum = AggHashTable::new(Aggregate::Sum, 4);
        let mut min = AggHashTable::new(Aggregate::Min, 4);
        let mut cnt = AggHashTable::new(Aggregate::Count, 4);
        for v in [5i64, -3, 8] {
            sum.update(0, v);
            min.update(0, v);
            cnt.update(0, v);
        }
        assert_eq!(sum.get(0), Some(10));
        assert_eq!(min.get(0), Some(-3));
        assert_eq!(cnt.get(0), Some(3));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = AggHashTable::new(Aggregate::Sum, 8);
        let initial_cap = t.slots.len();
        for k in 0..10_000u32 {
            t.update(k, 1);
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.slots.len() > initial_cap);
        // Every group is still reachable after growth rehashing.
        for k in (0..10_000).step_by(97) {
            assert_eq!(t.get(k), Some(1), "group {k} lost in rehash");
        }
    }

    #[test]
    fn holds_expected_groups_without_resizing() {
        // 64 expected groups -> 128 slots; at 64 groups the load is exactly
        // 50 % and neither hits nor merges of known groups may grow it.
        let mut t = AggHashTable::new(Aggregate::Sum, 64);
        let cap = t.slots.len();
        assert_eq!(cap, 128);
        for k in 0..64u32 {
            t.update(k, 1);
        }
        for k in 0..64u32 {
            t.update(k, 1);
        }
        for k in [5, 63, 0] {
            t.update(k, 1);
        }
        assert_eq!(t.slots.len(), cap, "a hit must not grow the table");
        let mut global = AggHashTable::new(Aggregate::Sum, 64);
        merge_all(&mut global, &t);
        merge_all(&mut global, &t);
        assert_eq!(
            global.slots.len(),
            cap,
            "merging known groups must not grow"
        );
        // The 65th group is the first to push the load past 50 %.
        t.update(64, 1);
        assert_eq!(t.slots.len(), 2 * cap);
        assert_eq!(t.get(5), Some(3));
        assert_eq!(t.len(), 65);
    }

    #[test]
    fn merge_one_combines_partial_tables() {
        let mut global = AggHashTable::new(Aggregate::Max, 16);
        let mut local_a = AggHashTable::new(Aggregate::Max, 16);
        let mut local_b = AggHashTable::new(Aggregate::Max, 16);
        local_a.update(1, 10);
        local_a.update(2, 20);
        local_b.update(2, 25);
        local_b.update(3, 30);
        merge_all(&mut global, &local_a);
        merge_all(&mut global, &local_b);
        assert_eq!(global.get(1), Some(10));
        assert_eq!(global.get(2), Some(25));
        assert_eq!(global.get(3), Some(30));
        assert_eq!(global.len(), 3);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = AggHashTable::new(Aggregate::Sum, 4);
        let mut b = AggHashTable::new(Aggregate::Sum, 4);
        a.update(7, 1);
        a.update(7, 1);
        b.update(7, 3);
        merge_all(&mut a, &b);
        let (_, acc, count) = a.iter().find(|(k, _, _)| *k == 7).unwrap();
        assert_eq!(acc, 5);
        assert_eq!(count, 3);
    }

    #[test]
    fn footprint_scales_with_capacity() {
        // The paper's rule of thumb: footprint ∝ number of groups.
        let small = AggHashTable::new(Aggregate::Max, 100);
        let large = AggHashTable::new(Aggregate::Max, 100_000);
        assert!(large.size_bytes() > 500 * small.size_bytes());
    }

    #[test]
    fn iter_yields_all_groups() {
        let mut t = AggHashTable::new(Aggregate::Count, 4);
        for k in 0..100u32 {
            t.update(k, 0);
        }
        let mut keys: Vec<u32> = t.iter().map(|(k, _, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }
}
