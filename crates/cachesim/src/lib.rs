//! # ccp-cachesim
//!
//! A deterministic set-associative cache-hierarchy simulator with Intel
//! CAT-style *way-mask* allocation control.
//!
//! The simulator models the memory system of the paper's testbed (an Intel
//! Xeon E5-2699 v4): private L2 caches, a shared inclusive last-level cache
//! (LLC) partitionable by way masks, a stream prefetcher, and a DRAM channel
//! with finite bandwidth and queuing. It is the substrate on which the
//! simulated database operators of `ccp-engine` replay their memory-access
//! patterns, which is what lets this repository regenerate every figure of
//! the paper on hardware without Cache Allocation Technology.
//!
//! ## CAT semantics
//!
//! Intel CAT restricts *allocation*, not *lookup*: a core whose class of
//! service has way mask `m` may hit on a line cached in **any** way, but when
//! it misses, the victim line is chosen only among the ways set in `m`.
//! [`SetAssociativeCache::access`] implements exactly this.
//!
//! ## Determinism
//!
//! There is no wall-clock time and no hidden randomness anywhere in this
//! crate: the same access sequence always produces the same hit/miss
//! sequence, cycle counts and statistics. This is what makes the experiment
//! harness reproducible.
//!
//! ## Quick example
//!
//! ```
//! use ccp_cachesim::{HierarchyConfig, MemoryHierarchy, WayMask, AccessKind};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::broadwell_e5_2699_v4(), 2);
//! // Restrict stream 1 to 10% of the LLC (2 of 20 ways), like the paper's
//! // polluting column scan.
//! mem.set_mask(1, WayMask::from_ways(2).unwrap());
//! let cost = mem.access(0, 0x1000, AccessKind::Read);
//! assert!(cost > 0);
//! ```

mod addr;
mod cache;
mod config;
mod dram;
mod hierarchy;
mod mask;
mod prefetch;
mod stats;

pub use addr::{AddrSpace, Region};
pub use cache::{AccessOutcome, ReplacementPolicy, SetAssociativeCache};
pub use config::{CacheLevelConfig, CostModel, DramConfig, HierarchyConfig};
pub use dram::DramChannel;
pub use hierarchy::{AccessKind, MemoryHierarchy, StreamId};
pub use mask::{MaskError, WayMask, MAX_WAYS};
pub use stats::{CacheStats, StreamStats};

/// Size of a cache line in bytes. Fixed at 64 across all modeled levels,
/// matching every Intel server microarchitecture since Nehalem.
pub const LINE_BYTES: u64 = 64;

/// Returns the cache-line index of a byte address.
#[inline]
pub(crate) fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}
