//! The cache partitioning policy derived from the paper's micro-benchmark
//! analysis (Section V-B).
//!
//! * Polluting operators get 10 % of the LLC — mask `0x3` on the 20-way
//!   Broadwell LLC. The paper found `0x1` (one way) degrades even scans
//!   (way contention), so the minimum is two ways.
//! * Sensitive operators keep the full cache.
//! * Mixed operators (the FK join) are classified at runtime by the size of
//!   their hot structure: if the bit vector is *comparable to the LLC* the
//!   join is cache-sensitive and gets the 60 % mask `0xfff`; if it is small
//!   (L2-resident) or far larger than the LLC, the join acts like a scan
//!   and is confined to `0x3`.

use crate::job::CacheUsageClass;
use ccp_cachesim::{CacheLevelConfig, WayMask};
use ccp_resctrl::{Class, PerClass};
use serde::{Deserialize, Serialize};

/// The paper's mask for cache-polluting operators: 2/20 ways = 10 %.
pub const PAPER_POLLUTER_MASK: u32 = 0x3;

/// Maps cache usage classes to LLC way masks for a particular cache
/// geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionPolicy {
    /// LLC geometry the masks are computed for.
    pub llc: CacheLevelConfig,
    /// Private L2 size; structures below `l2_slack × l2_bytes` are
    /// considered L2-resident (the operator then pollutes, like a scan).
    pub l2_bytes: u64,
    /// Fraction of the LLC granted to polluting operators (paper: 10 %).
    pub polluter_percent: u32,
    /// Fraction granted to mixed operators in their cache-sensitive regime
    /// (paper: 60 %).
    pub mixed_percent: u32,
    /// A mixed operator whose hot structure exceeds this multiple of the
    /// LLC cannot be cached anyway and is treated as polluting.
    pub oversize_factor: u64,
}

impl PartitionPolicy {
    /// The paper's policy on the paper's machine (Section V-B).
    pub fn paper_default(llc: CacheLevelConfig, l2_bytes: u64) -> Self {
        PartitionPolicy {
            llc,
            l2_bytes,
            polluter_percent: 10,
            mixed_percent: 60,
            oversize_factor: 2,
        }
    }

    /// Mask for the given cache usage identifier.
    pub fn mask_for(&self, cuid: CacheUsageClass) -> WayMask {
        self.class_mask(self.regime(cuid))
    }

    /// The class whose mask `cuid` runs under: its own, except that a
    /// mixed operator whose hot structure is not LLC-comparable acts
    /// like a scan and is confined with the polluters.
    pub fn regime(&self, cuid: CacheUsageClass) -> Class {
        match cuid {
            CacheUsageClass::Mixed { hot_bytes } if !self.is_llc_comparable(hot_bytes) => {
                Class::Polluting
            }
            _ => cuid.class(),
        }
    }

    /// The static three-mask plan of Section V-B — what the live mask
    /// table starts on and the adaptive controller reverts to. The mixed
    /// entry is the mask of the class's cache-sensitive regime.
    pub fn static_plan(&self) -> PerClass<WayMask> {
        PerClass::from_fn(|class| self.class_mask(class))
    }

    fn class_mask(&self, class: Class) -> WayMask {
        match class {
            Class::Polluting => self.polluter_mask(),
            Class::Mixed => {
                WayMask::percent(self.mixed_percent, self.llc.ways).expect("valid percent/ways")
            }
            Class::Sensitive => {
                WayMask::full(self.llc.ways).expect("LLC way count validated by config")
            }
        }
    }

    /// The polluter mask (never below 2 ways — the paper observed that one
    /// way causes contention and degrades even scans).
    pub fn polluter_mask(&self) -> WayMask {
        let m = WayMask::percent(self.polluter_percent, self.llc.ways).expect("valid percent");
        if m.way_count() < 2 && self.llc.ways >= 2 {
            WayMask::from_ways(2).expect("2 <= 32")
        } else {
            m
        }
    }

    /// The paper's simple heuristic: a structure is "comparable to the LLC"
    /// when it clearly exceeds the private L2 but is not hopelessly larger
    /// than the LLC.
    pub fn is_llc_comparable(&self, hot_bytes: u64) -> bool {
        hot_bytes > self.l2_bytes * 4 && hot_bytes <= self.llc.size_bytes * self.oversize_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;

    fn paper_policy() -> PartitionPolicy {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
    }

    #[test]
    fn paper_masks_reproduced() {
        let p = paper_policy();
        assert_eq!(
            p.mask_for(CacheUsageClass::Polluting).bits(),
            PAPER_POLLUTER_MASK
        );
        assert_eq!(p.mask_for(CacheUsageClass::Sensitive).bits(), 0xfffff);
    }

    #[test]
    fn mixed_small_bitvec_is_confined() {
        let p = paper_policy();
        // 10^6 primary keys -> 125 KB bit vector: L2-resident, join acts
        // like a scan (paper Section V-B / VI-C).
        let m = p.mask_for(CacheUsageClass::Mixed { hot_bytes: 125_000 });
        assert_eq!(m.bits(), PAPER_POLLUTER_MASK);
    }

    #[test]
    fn mixed_llc_sized_bitvec_gets_60_percent() {
        let p = paper_policy();
        // 10^8 primary keys -> 12.5 MB bit vector: comparable to the LLC.
        let m = p.mask_for(CacheUsageClass::Mixed {
            hot_bytes: 12_500_000,
        });
        assert_eq!(m.bits(), 0xfff); // 12/20 ways = 60 %
    }

    #[test]
    fn mixed_oversized_bitvec_is_confined() {
        let p = paper_policy();
        // 10^9 primary keys -> 125 MB: cannot be cached, treat as polluter.
        let m = p.mask_for(CacheUsageClass::Mixed {
            hot_bytes: 125_000_000,
        });
        assert_eq!(m.bits(), PAPER_POLLUTER_MASK);
    }

    #[test]
    fn polluter_mask_never_single_way() {
        // Even with 1% requested, at least two ways are granted: the paper
        // observed severe degradation with 0x1.
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let p = PartitionPolicy {
            polluter_percent: 1,
            ..PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
        };
        assert_eq!(p.polluter_mask().way_count(), 2);
    }

    #[test]
    fn comparable_band_boundaries() {
        let p = paper_policy();
        assert!(!p.is_llc_comparable(256 * 1024)); // L2-sized
        assert!(!p.is_llc_comparable(1024 * 1024)); // 4x L2 boundary
        assert!(p.is_llc_comparable(12_500_000)); // paper's 10^8 case
        assert!(p.is_llc_comparable(55 * 1024 * 1024)); // exactly LLC
        assert!(!p.is_llc_comparable(125_000_000)); // paper's 10^9 case
    }
}
