//! # cache-partitioning
//!
//! A from-scratch reproduction of **“Accelerating Concurrent Workloads with
//! CPU Cache Partitioning”** (Noll, Teubner, May, Böhm — ICDE 2018) as a
//! Rust workspace: an in-memory column-store execution engine whose job
//! scheduler drives Intel **Cache Allocation Technology** (CAT) so that
//! cache-polluting operators (column scans) cannot evict the working sets
//! of cache-sensitive ones (hash aggregations), plus everything needed to
//! regenerate every figure of the paper on hardware *without* CAT.
//!
//! ## The idea in one paragraph
//!
//! All cores of a socket share the last-level cache (LLC). A column scan
//! streams gigabytes through it without ever re-using a line, evicting the
//! hash tables and dictionaries a concurrently running aggregation depends
//! on — the aggregation can lose more than half of its throughput. CAT
//! partitions the LLC by *ways*: confine the scan to 2 of 20 ways (10 %)
//! and it runs exactly as fast (scans don't need cache), while the
//! aggregation gets its working set back. The paper integrates this into
//! the engine by tagging every job with a **cache usage identifier**
//! (CUID) and binding worker threads to resctrl classes before a job runs.
//!
//! ## Crate map
//!
//! This package is re-exports, a prelude and the `ccp` binary. It
//! re-exports the eight crates a library user programs against;
//! the other eight (`ccp-control`, `-reuse`, `-trace`, `-flight`, `-fault`,
//! `-verify`, `-bench`, `xtask`) sit behind `ccp serve` or the test suite —
//! DESIGN.md §2 has the full 16-crate map.
//!
//! | crate | contents |
//! |---|---|
//! | [`cachesim`] | deterministic cache-hierarchy simulator with CAT way-masking |
//! | [`resctrl`] | typed driver for Linux `/sys/fs/resctrl` (real CAT hardware); the `Class` / `PerClass` vocabulary |
//! | [`storage`] | column-store substrate: dictionaries, bit-packing, hash tables, bit vectors, inverted indexes |
//! | [`engine`] | jobs + CUIDs, worker pool, allocator backends, native operators and their simulated twins |
//! | [`workloads`] | the paper's workloads (Q1/Q2/Q3, S/4HANA OLTP) and measurement protocol |
//! | [`tpch`] | TPC-H SF 100 cache profiles for all 22 queries |
//! | [`obs`] | dependency-free metrics: counters, gauges, histograms, Prometheus exposition |
//! | [`server`] | std-only HTTP service: query admission front end + Prometheus scrape endpoint |
//!
//! ## Quickstart
//!
//! Reproduce the paper's headline effect (Figure 1) in a few lines:
//!
//! ```
//! use cache_partitioning::prelude::*;
//!
//! // A fast experiment configuration (short virtual-time windows).
//! let e = Experiment { warm_cycles: 1_000_000, measure_cycles: 2_000_000, ..Default::default() };
//!
//! // An aggregation whose hash table is LLC-sized, co-running with a scan.
//! let specs = vec![
//!     QuerySpec::new("aggregation", MaskChoice::Full, |s| {
//!         paper::q2_aggregation(s, paper::DICT_4MIB, 100_000)
//!     }),
//!     // `Policy` applies the paper's heuristic: scans are polluters -> 0x3.
//!     QuerySpec::new("scan", MaskChoice::Policy, paper::q1_scan),
//! ];
//! let outcomes = e.run_concurrent_normalized(&specs);
//! assert!(outcomes[0].normalized > 0.5, "partitioned aggregation keeps most of its throughput");
//! ```
//!
//! On a machine with CAT and a mounted resctrl filesystem, the same policy
//! drives real hardware through [`engine::JobExecutor`] with
//! [`engine::ResctrlAllocator`]; see `examples/htap_mixed.rs`. The served
//! engine — admission, both worker pools, `/metrics` and `/stats` — is
//! [`server::Server`], which the `ccp serve` binary starts.

pub use ccp_cachesim as cachesim;
pub use ccp_engine as engine;
pub use ccp_obs as obs;
pub use ccp_resctrl as resctrl;
pub use ccp_server as server;
pub use ccp_storage as storage;
pub use ccp_tpch as tpch;
pub use ccp_workloads as workloads;

/// The most common imports for working with the library.
pub mod prelude {
    pub use ccp_cachesim::{AddrSpace, HierarchyConfig, MemoryHierarchy, WayMask};
    pub use ccp_engine::alloc::{host_allocator, CacheAllocator, NoopAllocator, ResctrlAllocator};
    pub use ccp_engine::job::{CacheUsageClass, Job};
    pub use ccp_engine::partition::PartitionPolicy;
    pub use ccp_engine::sim::{run_concurrent, run_isolated, SimWorkload};
    pub use ccp_engine::JobExecutor;
    pub use ccp_resctrl::{detect, CacheController, CatSupport};
    pub use ccp_server::{Server, ServerConfig};
    pub use ccp_workloads::paper;
    pub use ccp_workloads::{Experiment, MaskChoice, NormalizedOutcome, QuerySpec};
}
