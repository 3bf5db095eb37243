//! A single set-associative cache level with CAT-style masked allocation.
//!
//! The cache stores only line *tags* (no data — the simulator cares about
//! hit/miss behaviour, not values) with true-LRU replacement. Allocation is
//! restricted by a [`WayMask`]: hits are honoured in any way, but a fill may
//! only victimize ways the accessing stream's mask allows. This mirrors what
//! Intel CAT does in hardware and what the paper exploits.

use crate::mask::WayMask;
use serde::{Deserialize, Serialize};

/// Sentinel for an invalid (empty) way.
const INVALID: u64 = u64::MAX;

/// Replacement policy of a cache level.
///
/// The paper's Broadwell LLC is not strictly LRU — Intel server parts use
/// adaptive RRIP-family policies that resist streaming pollution, which is
/// one reason the paper's *unpartitioned* co-run numbers degrade less than
/// a strict-LRU model predicts. The simulator supports all three so the
/// `abl_replacement` ablation can quantify that divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// True least-recently-used (per-way timestamps).
    #[default]
    Lru,
    /// Static RRIP with 2-bit re-reference prediction values: lines are
    /// inserted "distant" (RRPV 2), promoted to 0 on hit, victims are
    /// RRPV 3 lines. Streaming lines age out before re-used lines.
    Srrip,
    /// Deterministic pseudo-random victim among the allowed ways.
    Random,
}

/// Maximum RRPV for the 2-bit SRRIP policy.
const RRPV_MAX: u64 = 3;
/// Insertion RRPV ("long re-reference interval").
const RRPV_INSERT: u64 = 2;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; `evicted` is the line that was displaced, if the
    /// chosen victim way held a valid line. The hierarchy uses it to
    /// back-invalidate inner caches (the modeled LLC is inclusive).
    Miss { evicted: Option<u64> },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    #[inline]
    pub(crate) fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative, tag-only cache with a configurable replacement
/// policy (default: true LRU).
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    sets: u64,
    ways: u32,
    /// `sets * ways` tags, row-major by set. `INVALID` marks an empty way.
    tags: Vec<u64>,
    /// Per-way replacement metadata parallel to `tags`: LRU timestamps or
    /// SRRIP re-reference prediction values, depending on the policy.
    stamps: Vec<u64>,
    tick: u64,
    policy: ReplacementPolicy,
    /// xorshift state for `ReplacementPolicy::Random` (deterministic).
    rng: u64,
}

impl SetAssociativeCache {
    /// Creates an empty LRU cache of `size_bytes` with `ways` ways.
    ///
    /// # Panics
    /// Panics if the geometry yields zero sets or `ways` is 0 or > 32 —
    /// these are programming errors in configuration code, not runtime
    /// conditions.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        Self::with_policy(size_bytes, ways, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache with an explicit replacement policy.
    ///
    /// # Panics
    /// See [`SetAssociativeCache::new`].
    pub(crate) fn with_policy(size_bytes: u64, ways: u32, policy: ReplacementPolicy) -> Self {
        assert!(
            (1..=32).contains(&ways),
            "associativity must be in 1..=32, got {ways}"
        );
        let sets = size_bytes / (u64::from(ways) * crate::LINE_BYTES);
        assert!(
            sets > 0,
            "cache of {size_bytes} B with {ways} ways has no sets"
        );
        let slots = (sets * u64::from(ways)) as usize;
        SetAssociativeCache {
            sets,
            ways,
            tags: vec![INVALID; slots],
            stamps: vec![0; slots],
            tick: 0,
            policy,
            rng: 0x853c_49e6_748f_ea9b,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize * self.ways as usize
    }

    /// Accesses `line` under allocation mask `mask`.
    ///
    /// A hit promotes the line (LRU stamp / RRPV 0) regardless of the
    /// mask. A miss fills a victim way *among the ways `mask` allows*,
    /// returning the displaced line if one was valid.
    pub fn access(&mut self, line: u64, mask: WayMask) -> AccessOutcome {
        let base = self.set_of(line);
        self.tick += 1;
        // Hit path: CAT does not restrict lookups.
        for w in 0..self.ways as usize {
            if self.tags[base + w] == line {
                self.stamps[base + w] = match self.policy {
                    ReplacementPolicy::Lru | ReplacementPolicy::Random => self.tick,
                    ReplacementPolicy::Srrip => 0, // "near-immediate re-reference"
                };
                return AccessOutcome::Hit;
            }
        }
        // Miss: victimize only within the mask; invalid ways always first.
        let victim = match self.find_invalid_way(base, mask) {
            Some(idx) => idx,
            None => match self.policy {
                ReplacementPolicy::Lru => self.lru_victim(base, mask),
                ReplacementPolicy::Srrip => self.srrip_victim(base, mask),
                ReplacementPolicy::Random => self.random_victim(base, mask),
            },
        };
        let evicted = match self.tags[victim] {
            INVALID => None,
            old => Some(old),
        };
        self.tags[victim] = line;
        self.stamps[victim] = match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Random => self.tick,
            ReplacementPolicy::Srrip => RRPV_INSERT,
        };
        AccessOutcome::Miss { evicted }
    }

    #[inline]
    fn find_invalid_way(&self, base: usize, mask: WayMask) -> Option<usize> {
        (0..self.ways)
            .filter(|&w| mask.allows(w))
            .map(|w| base + w as usize)
            .find(|&idx| self.tags[idx] == INVALID)
    }

    fn lru_victim(&self, base: usize, mask: WayMask) -> usize {
        let mut victim = usize::MAX;
        let mut victim_stamp = u64::MAX;
        for w in 0..self.ways {
            if !mask.allows(w) {
                continue;
            }
            let idx = base + w as usize;
            if self.stamps[idx] < victim_stamp {
                victim_stamp = self.stamps[idx];
                victim = idx;
            }
        }
        debug_assert!(
            victim != usize::MAX,
            "non-empty mask always yields a victim"
        );
        victim
    }

    fn srrip_victim(&mut self, base: usize, mask: WayMask) -> usize {
        // Find an allowed way at RRPV_MAX; if none, age all allowed ways
        // and retry — the standard SRRIP search, bounded by RRPV_MAX
        // rounds.
        loop {
            for w in 0..self.ways {
                if !mask.allows(w) {
                    continue;
                }
                let idx = base + w as usize;
                if self.stamps[idx] >= RRPV_MAX {
                    return idx;
                }
            }
            for w in 0..self.ways {
                if mask.allows(w) {
                    let idx = base + w as usize;
                    self.stamps[idx] += 1;
                }
            }
        }
    }

    fn random_victim(&mut self, base: usize, mask: WayMask) -> usize {
        // xorshift64*; pick the n-th allowed way.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let allowed = mask.way_count();
        let pick = (self.rng % u64::from(allowed)) as u32;
        let mut seen = 0;
        for w in 0..self.ways {
            if mask.allows(w) {
                if seen == pick {
                    return base + w as usize;
                }
                seen += 1;
            }
        }
        unreachable!("mask has {allowed} allowed ways, pick {pick} must exist")
    }

    /// Checks presence without touching LRU state.
    pub fn probe(&self, line: u64) -> bool {
        let base = self.set_of(line);
        (0..self.ways as usize).any(|w| self.tags[base + w] == line)
    }

    /// Removes `line` if present; returns whether it was present. Used for
    /// inclusive back-invalidation.
    pub(crate) fn invalidate(&mut self, line: u64) -> bool {
        let base = self.set_of(line);
        for w in 0..self.ways as usize {
            if self.tags[base + w] == line {
                self.tags[base + w] = INVALID;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != INVALID).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full8() -> WayMask {
        WayMask::from_ways(8).unwrap()
    }

    /// 8 sets x 8 ways cache for testing (4 KiB).
    fn small() -> SetAssociativeCache {
        SetAssociativeCache::new(4096, 8)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.sets, 8);
        assert_eq!(c.ways, 8);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(matches!(
            c.access(42, full8()),
            AccessOutcome::Miss { evicted: None }
        ));
        assert!(c.access(42, full8()).is_hit());
        assert!(c.probe(42));
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = small();
        // Lines 0, 8, 16, ... all map to set 0 (8 sets). Fill all 8 ways.
        for i in 0..8 {
            c.access(i * 8, full8());
        }
        // Touch line 0 so it is most recently used.
        c.access(0, full8());
        // Next fill in set 0 must evict line 8 (the LRU one), not line 0.
        let out = c.access(64, full8());
        assert_eq!(out, AccessOutcome::Miss { evicted: Some(8) });
        assert!(c.probe(0));
        assert!(!c.probe(8));
    }

    #[test]
    fn masked_fill_only_victimizes_allowed_ways() {
        let mut c = small();
        let full = full8();
        let low2 = WayMask::from_ways(2).unwrap();
        // Fill set 0 completely with a full mask.
        for i in 0..8 {
            c.access(i * 8, full);
        }
        // A stream restricted to 2 ways churns through set 0: it may evict
        // at most the lines in ways 0 and 1, leaving 6 resident lines
        // untouched no matter how many lines it streams.
        for i in 100..200 {
            c.access(i * 8, low2);
        }
        let survivors = (0..8).filter(|i| c.probe(i * 8)).count();
        assert_eq!(
            survivors, 6,
            "masked stream must not evict beyond its 2 ways"
        );
    }

    #[test]
    fn masked_stream_hits_outside_its_ways() {
        let mut c = small();
        let full = full8();
        let low2 = WayMask::from_ways(2).unwrap();
        // Owner fills way 2.. with line 7*8 somewhere beyond the low ways.
        for i in 0..8 {
            c.access(i * 8, full);
        }
        // The restricted stream still *hits* on any resident line: CAT
        // restricts allocation, not lookup.
        assert!(c.access(7 * 8, low2).is_hit());
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(5, full8());
        assert!(c.invalidate(5));
        assert!(!c.probe(5));
        assert!(!c.invalidate(5));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        for i in 0..10 {
            c.access(i, full8());
        }
        assert_eq!(c.occupancy(), 10);
    }

    #[test]
    fn single_way_mask_thrashes_itself() {
        let mut c = small();
        let one = WayMask::from_ways(1).unwrap();
        // Two alternating lines in the same set with a 1-way mask never hit.
        let mut hits = 0;
        for _ in 0..10 {
            if c.access(0, one).is_hit() {
                hits += 1;
            }
            if c.access(8, one).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_zero_ways() {
        let _ = SetAssociativeCache::new(4096, 0);
    }

    #[test]
    fn srrip_protects_reused_lines_from_streaming() {
        let mut c = SetAssociativeCache::with_policy(4096, 8, ReplacementPolicy::Srrip);
        let full = full8();
        // Establish a hot line in set 0 (insert + hit -> RRPV 0), re-used
        // every few accesses, while 32 distinct streaming lines pass
        // through the set (RRPV 2 inserts, never re-used).
        c.access(0, full);
        c.access(0, full);
        for i in 1..=32u64 {
            c.access(i * 8, full);
            if i % 4 == 0 {
                c.access(0, full); // periodic re-use
            }
        }
        assert!(c.probe(0), "SRRIP must keep the re-used line resident");
    }

    #[test]
    fn lru_evicts_reused_line_under_the_same_stream() {
        // Scan resistance: a line re-used every 12 streaming fills. Under
        // 8-way LRU the 12 intervening fills always push it out; under
        // 2-bit SRRIP a hit resets its RRPV to 0 and ~3 aging passes
        // (~21 fills) must elapse before it becomes a victim, so it
        // survives between re-uses.
        let mut c = SetAssociativeCache::with_policy(4096, 8, ReplacementPolicy::Lru);
        let mut s = SetAssociativeCache::with_policy(4096, 8, ReplacementPolicy::Srrip);
        let full = full8();
        // Establish the hot line: insert, then hit (SRRIP RRPV -> 0).
        c.access(0, full);
        c.access(0, full);
        s.access(0, full);
        s.access(0, full);
        let mut lru_misses_on_hot = 0;
        let mut srrip_misses_on_hot = 0;
        for i in 1..=120u64 {
            c.access(i * 8, full);
            s.access(i * 8, full);
            if i % 12 == 0 {
                if !c.access(0, full).is_hit() {
                    lru_misses_on_hot += 1;
                }
                if !s.access(0, full).is_hit() {
                    srrip_misses_on_hot += 1;
                }
            }
        }
        assert!(
            srrip_misses_on_hot < lru_misses_on_hot,
            "SRRIP ({srrip_misses_on_hot}) must miss the hot line less than LRU ({lru_misses_on_hot})"
        );
    }

    #[test]
    fn srrip_respects_way_masks() {
        let mut c = SetAssociativeCache::with_policy(4096, 8, ReplacementPolicy::Srrip);
        let full = full8();
        let low2 = WayMask::from_ways(2).unwrap();
        for i in 0..8 {
            c.access(i * 8, full);
        }
        for i in 100..200 {
            c.access(i * 8, low2);
        }
        let survivors = (0..8).filter(|i| c.probe(i * 8)).count();
        assert!(
            survivors >= 6,
            "masked SRRIP stream evicted beyond its ways: {survivors}"
        );
    }

    #[test]
    fn random_policy_is_deterministic_and_masked() {
        let run = || {
            let mut c = SetAssociativeCache::with_policy(4096, 8, ReplacementPolicy::Random);
            let low2 = WayMask::from_ways(2).unwrap();
            let full = full8();
            for i in 0..8 {
                c.access(i * 8, full);
            }
            for i in 100..300u64 {
                c.access(i * 8, low2);
            }
            (0..8).filter(|i| c.probe(i * 8)).count()
        };
        let survivors = run();
        assert_eq!(survivors, run(), "random policy must be deterministic");
        assert!(
            survivors >= 6,
            "masked random stream evicted beyond its ways"
        );
    }

    #[test]
    fn all_policies_install_the_accessed_line() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Srrip,
            ReplacementPolicy::Random,
        ] {
            let mut c = SetAssociativeCache::with_policy(4096, 4, policy);
            let mask = WayMask::from_ways(4).unwrap();
            for line in [0u64, 1, 77, 1000, 0, 77] {
                c.access(line, mask);
                assert!(c.probe(line), "{policy:?} lost line {line}");
            }
        }
    }
}
