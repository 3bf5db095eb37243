//! Per-stream and aggregate cache statistics.
//!
//! The paper reports *LLC hit ratio* and *LLC misses per instruction* from
//! Intel PCM alongside every throughput number; these structs carry the
//! simulator's equivalents so the experiment harness can print the same
//! columns.

use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache level as seen by one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another counter set into this one.
    pub(crate) fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Everything the hierarchy tracks for one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Private L2 counters.
    pub l2: CacheStats,
    /// Shared LLC counters (only accesses that missed L2 reach the LLC).
    pub llc: CacheStats,
    /// Demand accesses that were satisfied early because a prefetch already
    /// brought the line in (counted inside `llc.hits` as well).
    pub prefetch_covered: u64,
    /// Prefetch requests issued on behalf of this stream.
    pub prefetches_issued: u64,
    /// Total memory-access cycles charged to this stream.
    pub cycles: u64,
    /// Instructions retired, reported by the operator models; used for the
    /// paper's "LLC misses per instruction" metric.
    pub instructions: u64,
    /// Centi-cycles spent on DRAM demand misses.
    pub stall_dram_centi: u64,
    /// Centi-cycles spent on LLC hits.
    pub stall_llc_centi: u64,
    /// Centi-cycles spent on L2 hits.
    pub stall_l2_centi: u64,
    /// Centi-cycles spent waiting for prefetch arrivals.
    pub stall_inflight_centi: u64,
}

impl StreamStats {
    /// LLC misses per instruction (the paper's MPI metric, as Intel PCM
    /// counts it: all lines fetched from DRAM, whether by demand miss or
    /// prefetch, per retired instruction). 0 when no instructions were
    /// recorded.
    pub fn llc_mpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.llc.misses + self.prefetches_issued) as f64 / self.instructions as f64
        }
    }

    /// Re-use-based LLC hit ratio, PCM-like: a demand access that only
    /// "hits" because a prefetch just staged the line is not a re-use, so
    /// prefetch-covered hits count toward the denominator but not the
    /// numerator. This is the number comparable to the paper's "LLC hit
    /// ratio below 0.08" for scans.
    pub fn llc_effective_hit_ratio(&self) -> f64 {
        let denom = self.llc.accesses() + self.prefetches_issued;
        if denom == 0 {
            0.0
        } else {
            self.llc.hits.saturating_sub(self.prefetch_covered) as f64 / denom as f64
        }
    }

    /// Merges another stream's counters into this one (for whole-workload
    /// reporting, like the paper's system-wide PCM numbers).
    pub(crate) fn merge(&mut self, other: &StreamStats) {
        self.l2.merge(&other.l2);
        self.llc.merge(&other.llc);
        self.prefetch_covered += other.prefetch_covered;
        self.prefetches_issued += other.prefetches_issued;
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.stall_dram_centi += other.stall_dram_centi;
        self.stall_llc_centi += other.stall_llc_centi;
        self.stall_l2_centi += other.stall_l2_centi;
        self.stall_inflight_centi += other.stall_inflight_centi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_basic() {
        let s = CacheStats { hits: 9, misses: 1 };
        assert_eq!(s.accesses(), 10);
        assert!((s.hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_empty_is_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        assert_eq!(StreamStats::default().llc_mpi(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats { hits: 1, misses: 2 };
        a.merge(&CacheStats {
            hits: 10,
            misses: 20,
        });
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                misses: 22
            }
        );
    }

    #[test]
    fn mpi_uses_instructions() {
        let s = StreamStats {
            llc: CacheStats {
                hits: 0,
                misses: 50,
            },
            instructions: 1000,
            ..Default::default()
        };
        assert!((s.llc_mpi() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn stream_merge_accumulates_all_fields() {
        let mut a = StreamStats {
            l2: CacheStats { hits: 1, misses: 1 },
            llc: CacheStats { hits: 2, misses: 2 },
            prefetch_covered: 3,
            prefetches_issued: 4,
            cycles: 5,
            instructions: 6,
            stall_dram_centi: 7,
            stall_llc_centi: 8,
            stall_l2_centi: 9,
            stall_inflight_centi: 10,
        };
        a.merge(&a.clone());
        assert_eq!(a.l2.hits, 2);
        assert_eq!(a.llc.misses, 4);
        assert_eq!(a.prefetch_covered, 6);
        assert_eq!(a.prefetches_issued, 8);
        assert_eq!(a.cycles, 10);
        assert_eq!(a.instructions, 12);
        assert_eq!(a.stall_dram_centi, 14);
        assert_eq!(a.stall_llc_centi, 16);
        assert_eq!(a.stall_l2_centi, 18);
        assert_eq!(a.stall_inflight_centi, 20);
    }
}
