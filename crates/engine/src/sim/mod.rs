//! Simulated operator twins.
//!
//! Each native operator has a *twin* here that replays the operator's
//! memory-access pattern — derived from the paper's Sections II–IV — against
//! the `ccp-cachesim` hierarchy. Twins process work in small batches under a
//! virtual-time scheduler (`driver`), which is how the harness reproduces
//! the paper's isolated LLC sweeps (Figures 4–6) and concurrent workloads
//! (Figures 1, 9–12) without CAT hardware.
//!
//! ## Scaling
//!
//! Data-structure *sizes* (dictionaries, hash tables, bit vectors, index
//! directories) are kept at paper scale, because their ratio to the 55 MiB
//! LLC is what produces every effect in the paper. Row *counts* are scaled
//! down: steady-state hit ratios converge once the caches are warm, so the
//! normalized-throughput curves keep their shape while each experiment run
//! stays in the millions (not billions) of simulated accesses. The warm-up
//! phase of the driver guarantees measurements happen at steady state.
//!
//! ## Cost constants
//!
//! A simulated stream stands for one whole multi-threaded query (the paper
//! executes each query on all 22 cores / 44 threads). Per-row CPU costs are
//! therefore *aggregate* costs (cycles divided by the effective thread
//! count), and each operator declares a memory-level parallelism that
//! divides observed latencies. The constants are documented at each
//! operator and validated by the shape tests in `tests/`.

mod aggregate;
mod classify;
mod composite;
mod driver;
mod join;
mod oltp;
mod scan;
mod zipf;

pub use aggregate::AggregationSim;
pub use classify::{classify_operator, ClassificationReport};
pub use composite::{CompositeSim, Phase};
pub use driver::{
    run_concurrent, run_isolated, RunOutcome, SimWorkload, StreamOutcome, DEFAULT_MEASURE_CYCLES,
    DEFAULT_WARM_CYCLES,
};
pub use join::FkJoinSim;
pub use oltp::OltpSim;
pub use scan::ColumnScanSim;

use crate::job::CacheUsageClass;
use ccp_cachesim::{MemoryHierarchy, StreamId};

/// Hash-table bytes per group, aggregated across the paper's 44 worker
/// threads (~12.5 B per thread-local entry × 44): with this constant,
/// 10⁵ groups occupy ≈ 55 MB — "the hash table occupies all of the LLC"
/// (Section IV-B), which anchors every aggregation curve.
pub const HT_BYTES_PER_GROUP: u64 = 550;

/// A database operator expressed as a generator of memory accesses.
pub trait SimOperator: Send {
    /// Operator label for reports.
    fn name(&self) -> String;

    /// The operator's cache usage identifier (drives partition masks).
    fn cuid(&self) -> CacheUsageClass;

    /// Memory-level parallelism of the stream (latency divisor).
    fn parallelism(&self) -> u32;

    /// Processes one batch on `stream`, issuing its accesses against `mem`
    /// and advancing the stream's virtual clock. Returns the work units
    /// (rows or queries) completed. Operators are cyclic: they restart
    /// their input when exhausted, like the paper's repeat-for-90-seconds
    /// driver.
    fn batch(&mut self, mem: &mut MemoryHierarchy, stream: StreamId) -> u64;

    /// The unit `batch` counts ("rows" or "queries").
    fn work_unit(&self) -> &'static str {
        "rows"
    }
}

/// Deterministic 64-bit generator (SplitMix64) used by every simulated
/// operator — no global RNG state, every run replayable.
#[derive(Debug, Clone)]
pub(crate) struct SimRng(u64);

impl SimRng {
    /// Seeds the generator.
    pub(crate) fn new(seed: u64) -> Self {
        SimRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    /// Panics when `n` is zero.
    #[inline]
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift bounded generation (Lemire) — unbiased enough for
        // cache modeling and branch-free.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound_and_spreads() {
        let mut r = SimRng::new(42);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            let v = r.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        // Roughly uniform: every bucket within 3x of the mean.
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 300 && b < 3000, "bucket {i} has {b}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ht_constant_anchors_paper_sizes() {
        // 10^5 groups ≈ the 55 MiB LLC; 10^6 groups far exceed it.
        assert_eq!(100_000 * HT_BYTES_PER_GROUP, 55_000_000);
        const { assert!(1_000_000 * HT_BYTES_PER_GROUP > 8 * 55 * 1024 * 1024) };
        // 10^4 groups per thread (~125 KiB) fit the 256 KiB L2.
        const { assert!(10_000 * HT_BYTES_PER_GROUP / 44 < 256 * 1024) };
    }
}
