//! # ccp-reuse — footprint-aware intermediate/result reuse cache
//!
//! The paper's whole premise is that a query's cache footprint (its
//! CUID) decides how it should be scheduled and partitioned. A reuse
//! hit is the one event that *changes* a query's footprint at runtime:
//! an expensive aggregation whose hash table is already resident
//! becomes a near-free lookup, and the polluting scan whose result
//! count is memoized stops streaming gigabytes through the LLC
//! altogether. This crate supplies the cache; the server consults it
//! *before* CUID classification so a predicted hit is admitted under
//! the non-polluting class, and the adaptive controller then sees the
//! shifted CUID mix through the existing occupancy loop.
//!
//! ## Design
//!
//! * **Canonical keys.** Entries are keyed on a
//!   `(query_id, predicate, data_version)` triple ([`ReuseKey`]);
//!   predicates are canonicalized (whitespace squashed, conjuncts
//!   sorted) so `"b = 2 AND a < 1"` and `"a<1 and b=2"` share one
//!   entry.
//! * **Exactly our modeled artifacts.** [`Artifact`] stores what the
//!   engine's operators already build: aggregation hash tables
//!   ([`ccp_storage::AggHashTable`]), join bit vectors
//!   ([`ccp_storage::BitVec`]) and full result sets ([`ResultSet`]).
//! * **Byte-budgeted, cost-aware eviction.** Every entry carries its
//!   measured footprint and rebuild cost. When an install would
//!   overflow the budget, victims are chosen by *highest*
//!   `bytes / rebuild_cost` — the big-but-cheap entries go first, never
//!   plain LRU. `ccp_reuse_bytes` never exceeds the budget, and an
//!   entry whose artifact is currently borrowed by a reader is never
//!   evicted.
//! * **Single-flight get-or-compute.** Concurrent identical queries
//!   coalesce onto one builder: the first `begin()` returns a
//!   [`BuildGuard`], later ones block until the guard publishes (a
//!   coalesced hit) or is abandoned (the next waiter becomes the
//!   builder). A non-blocking [`ReuseCache::try_begin`] twin exists so
//!   the `ccp-verify` interleaving explorer can model-check the
//!   protocol step by step.
//! * **Epoch invalidation.** [`ReuseCache::bump_version`] advances a
//!   data-version epoch and sweeps every entry built under the old one
//!   in the same critical section, counting each as an invalidation, so
//!   a dead entry never holds budget a live one needs.
//! * **One lock.** The slot map, the byte count, the epoch and the
//!   recency tick sit behind one `Mutex`, with one `Condvar` for
//!   single-flight waiters.
//!
//! Counters (`ccp_reuse_{hits,misses,inserts,evictions,invalidations,
//! coalesced,mispredictions}_total`) plus the `ccp_reuse_bytes` gauge
//! attach to any [`ccp_obs::Registry`] via
//! [`ReuseCache::register_into`], and every hit/miss/install/evict
//! drops a [`ccp_trace`] instant under the `reuse` category.
//!
//! ## Example
//!
//! ```
//! use ccp_reuse::{Artifact, Begin, ResultSet, ReuseCache, ReuseConfig};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let cache = ReuseCache::new(ReuseConfig::with_budget(1 << 20));
//! let key = cache.key("q1", "threshold < 100");
//! // First execution: build and publish.
//! match cache.begin(&key) {
//!     Begin::Build(guard) => {
//!         let rs = Arc::new(ResultSet { rows: 60_000, result: 119 });
//!         guard.publish(Artifact::ResultSet(rs), Duration::from_millis(3));
//!     }
//!     Begin::Hit(_) => unreachable!("cache starts empty"),
//! }
//! // Second execution: near-free lookup.
//! assert!(matches!(cache.begin(&key), Begin::Hit(_)));
//! // A data change sweeps the old entries; new keys carry the new version.
//! cache.bump_version();
//! assert!(!cache.predict(&cache.key("q1", "threshold < 100")));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod cache;
mod key;

pub use cache::{
    Artifact, Begin, BuildGuard, ResultSet, ReuseCache, ReuseConfig, ReuseHandle, ReuseStats,
    TryBegin,
};
pub use key::{canonicalize_predicate, ReuseKey};

/// Failpoint name: the exec-time artifact lookup. Arming it (e.g.
/// `reuse.lookup=err@1`) makes [`ReuseCache::begin`]/`try_begin` treat a
/// published entry as vanished — the misprediction path a server hits
/// when an entry is evicted between admission and execution.
pub(crate) const FAULT_REUSE_LOOKUP: &str = "reuse.lookup";

/// Failpoint name: an artifact install. Arming it (e.g.
/// `reuse.install=err@every2`) makes [`BuildGuard::publish`] drop the
/// freshly built artifact instead of installing it; the builder's own
/// result is unaffected, waiters fall through to building themselves.
pub(crate) const FAULT_REUSE_INSTALL: &str = "reuse.install";

/// How a query interacted with the reuse cache, rendered into `/query`
/// responses so load generators can split hit-path and miss-path
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseStatus {
    /// Served from a cached artifact.
    Hit,
    /// Built (and, fault plans permitting, installed) the artifact.
    Miss,
    /// The workload is not cacheable (or reuse is disabled).
    Bypass,
}

impl ReuseStatus {
    /// Stable lowercase label (`hit`/`miss`/`bypass`).
    pub fn label(self) -> &'static str {
        match self {
            ReuseStatus::Hit => "hit",
            ReuseStatus::Miss => "miss",
            ReuseStatus::Bypass => "bypass",
        }
    }
}
