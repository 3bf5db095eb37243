//! Configuration of the simulated memory system.
//!
//! The default preset, [`HierarchyConfig::broadwell_e5_2699_v4`], matches the
//! paper's testbed (Section III-C): an Intel Xeon E5-2699 v4 with a 55 MiB
//! 20-way inclusive LLC, 256 KiB 8-way private L2s, 64 GB/s DRAM read
//! bandwidth and 80 ns DRAM latency at a 2.2 GHz core clock.

use crate::cache::ReplacementPolicy;
use crate::mask::{MaskError, WayMask};
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways). Must be in `1..=32`.
    pub ways: u32,
}

impl CacheLevelConfig {
    /// Capacity of a single way in bytes.
    pub fn way_bytes(&self) -> u64 {
        self.size_bytes / u64::from(self.ways)
    }

    /// A full-cache way mask for this level.
    ///
    /// # Errors
    /// Fails when `ways` is out of the supported range.
    pub(crate) fn full_mask(&self) -> Result<WayMask, MaskError> {
        WayMask::full(self.ways)
    }
}

/// Timing and bandwidth of the DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Idle (unloaded) access latency in core cycles.
    pub latency_cycles: u64,
    /// Cycles the channel is occupied per 64-byte line transfer. At 2.2 GHz
    /// and 64 GB/s this is `64 B / (64 GB/s) * 2.2 GHz ≈ 2.2` cycles; we use
    /// fixed-point hundredths to stay integer-deterministic.
    pub occupancy_centi_cycles: u64,
}

/// Latency cost model, in core cycles, for the hierarchy.
///
/// The model charges each access the latency of the level it hits in,
/// divided by the requesting stream's memory-level parallelism (a simulated
/// stream stands for a whole multi-threaded query, so tens of accesses are
/// in flight at once — see `ccp-engine`'s operator models).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cycles for an L2 hit (the model folds L1 into the base op cost).
    pub l2_hit_cycles: u64,
    /// Cycles for an LLC hit.
    pub llc_hit_cycles: u64,
    /// Extra stall cycles charged on a demand miss whose line was covered by
    /// a prefetch in flight (prefetch hides most, not all, of the latency).
    pub prefetched_hit_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Broadwell-class latencies: L2 ~12 cy, LLC ~40-50 cy.
        CostModel {
            l2_hit_cycles: 12,
            llc_hit_cycles: 44,
            prefetched_hit_cycles: 4,
        }
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Private per-stream L2.
    pub l2: CacheLevelConfig,
    /// Shared, inclusive, way-partitionable LLC.
    pub llc: CacheLevelConfig,
    /// DRAM channel behind the LLC.
    pub dram: DramConfig,
    /// Hit/miss latency model.
    pub cost: CostModel,
    /// Lines fetched ahead by the stream prefetcher on a detected
    /// sequential stream. 0 disables prefetching.
    pub prefetch_depth: u32,
    /// Replacement policy of the shared LLC (the private L2 stays LRU).
    pub llc_policy: ReplacementPolicy,
}

impl HierarchyConfig {
    /// The paper's testbed: Intel Xeon E5-2699 v4 ("Broadwell-EP").
    ///
    /// * LLC: 55 MiB, 20 ways, inclusive — one way = 2.75 MiB, so the
    ///   paper's 10 % mask `0x3` grants 5.5 MiB.
    /// * L2: 256 KiB, 8 ways, private per core.
    /// * DRAM: 64 GB/s read bandwidth, 80 ns latency (≈ 176 cycles at
    ///   2.2 GHz), measured by the authors with Intel MLC.
    pub fn broadwell_e5_2699_v4() -> Self {
        HierarchyConfig {
            l2: CacheLevelConfig {
                size_bytes: 256 * 1024,
                ways: 8,
            },
            llc: CacheLevelConfig {
                size_bytes: 55 * 1024 * 1024,
                ways: 20,
            },
            dram: DramConfig {
                latency_cycles: 176,
                occupancy_centi_cycles: 220,
            },
            cost: CostModel::default(),
            prefetch_depth: 64,
            llc_policy: ReplacementPolicy::Lru,
        }
    }

    /// A small hierarchy for fast unit tests: 4 KiB 4-way L2, 64 KiB 8-way
    /// LLC, cheap DRAM. Geometry is valid but tiny so tests can force
    /// evictions with few accesses.
    pub fn tiny_for_tests() -> Self {
        HierarchyConfig {
            l2: CacheLevelConfig {
                size_bytes: 4 * 1024,
                ways: 4,
            },
            llc: CacheLevelConfig {
                size_bytes: 64 * 1024,
                ways: 8,
            },
            dram: DramConfig {
                latency_cycles: 100,
                occupancy_centi_cycles: 200,
            },
            cost: CostModel::default(),
            prefetch_depth: 0,
            llc_policy: ReplacementPolicy::Lru,
        }
    }

    /// Returns a copy with the LLC restricted to `size_bytes` (rounded to a
    /// whole number of ways). Used by the micro-benchmarks that sweep the
    /// LLC size (Figures 4-6): the paper implements the sweep with CAT
    /// masks, we implement it by masking too — this helper only computes
    /// the equivalent mask.
    ///
    /// # Errors
    /// Fails when the rounded way count is zero or exceeds the LLC's ways.
    pub fn llc_mask_for_bytes(&self, size_bytes: u64) -> Result<WayMask, MaskError> {
        let way = self.llc.way_bytes();
        let ways = (size_bytes / way).max(1);
        WayMask::from_ways(ways.min(u64::from(self.llc.ways)) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_geometry_matches_paper() {
        let c = HierarchyConfig::broadwell_e5_2699_v4();
        assert_eq!(c.llc.size_bytes, 55 * 1024 * 1024);
        assert_eq!(c.llc.ways, 20);
        // One way is 2.75 MiB (paper section V-A).
        assert_eq!(c.llc.way_bytes(), 2_883_584);
        // 45,056 sets: 55 MiB / (20 ways * 64 B).
        let sets = |l: CacheLevelConfig| l.size_bytes / (u64::from(l.ways) * crate::LINE_BYTES);
        assert_eq!(sets(c.llc), 45_056);
        assert_eq!(sets(c.l2), 512);
    }

    #[test]
    fn llc_mask_for_bytes_rounds_to_ways() {
        let c = HierarchyConfig::broadwell_e5_2699_v4();
        // 5.5 MiB -> exactly 2 ways.
        let m = c.llc_mask_for_bytes(c.llc.way_bytes() * 2).unwrap();
        assert_eq!(m.way_count(), 2);
        // Asking for less than a way still grants one way.
        assert_eq!(c.llc_mask_for_bytes(1).unwrap().way_count(), 1);
        // Asking for more than the cache grants everything.
        assert_eq!(c.llc_mask_for_bytes(u64::MAX).unwrap().way_count(), 20);
    }

    #[test]
    fn full_mask_covers_all_ways() {
        let c = HierarchyConfig::broadwell_e5_2699_v4();
        assert_eq!(c.llc.full_mask().unwrap().bits(), 0xfffff);
        assert_eq!(c.l2.full_mask().unwrap().bits(), 0xff);
    }
}
