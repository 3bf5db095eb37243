//! Jobs and cache usage identifiers.
//!
//! A job is the engine's unit of scheduling: one operator, or one slice of
//! a parallelized operator. The **cache usage identifier** (CUID) is the
//! paper's taxonomy of operators by cache behaviour (Section V-C); the
//! executor turns it into a CAT way mask before the job runs.
//!
//! A query is a [`Plan`]: the [`Phase`]s it runs, each an operator with
//! the sizes its footprint comes from. [`Phase::cuid`] is the CUID a
//! phase's jobs carry and [`Plan::class`] the one the query is admitted
//! and replies under; the served queries, the TPC-H profiles and the
//! simulated composites all classify through these two rules.

use ccp_resctrl::Class;
use ccp_storage::BitVec;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cache usage identifier: one of the paper's three classes plus, for
/// the mixed class, the size hint the partition policy resolves it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CacheUsageClass {
    /// Class (*i*): not cache-sensitive, pollutes the cache by streaming —
    /// e.g. the column scan. Restricted to a small LLC slice.
    Polluting,
    /// Class (*ii*): cache-sensitive, profits from the entire cache — e.g.
    /// grouped aggregation. **The default**, so unknown operators are never
    /// penalized (the paper's no-regression guarantee).
    #[default]
    Sensitive,
    /// Class (*iii*): either polluting or sensitive depending on data —
    /// e.g. the FK join, decided by its bit-vector size at runtime.
    Mixed {
        /// Bytes of the operator's frequently re-used structure (the join's
        /// bit vector); the partition policy compares this against cache
        /// geometry to pick a mask.
        hot_bytes: u64,
    },
}

impl CacheUsageClass {
    /// The class this identifier belongs to — the only CUID → class
    /// mapping in the tree.
    pub fn class(self) -> Class {
        match self {
            CacheUsageClass::Polluting => Class::Polluting,
            CacheUsageClass::Sensitive => Class::Sensitive,
            CacheUsageClass::Mixed { .. } => Class::Mixed,
        }
    }
}

/// One phase of a query. Sizes are those of the data the plan describes:
/// SF 100 rows for a TPC-H profile, resident rows for a served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Sequential scan of `rows` rows at `bytes_per_row` packed bytes.
    Scan {
        /// Rows scanned.
        rows: u64,
        /// Packed bytes per row (all scanned columns combined).
        bytes_per_row: u64,
    },
    /// Bit-vector foreign-key join: build over `build_keys` keys, probe
    /// with `probe_rows` rows.
    Join {
        /// Keys the probed bit vector holds one bit for.
        build_keys: u64,
        /// Probe-side rows.
        probe_rows: u64,
    },
    /// Hash aggregation of `rows` input rows, decompressing through a
    /// dictionary of `dict_bytes`, producing `groups` groups.
    Aggregate {
        /// Input rows.
        rows: u64,
        /// Dominant decompressed dictionary size in bytes.
        dict_bytes: u64,
        /// Result group count.
        groups: u64,
    },
}

impl Phase {
    /// The CUID this phase's jobs carry: a scan streams without reuse
    /// (class *i*), an aggregation wants the whole cache (class *ii*),
    /// and a join is mixed (class *iii*) with its bit vector as the hot
    /// set — `BitVec::bytes_for`, the size the probe really reads.
    pub fn cuid(self) -> CacheUsageClass {
        match self {
            Phase::Scan { .. } => CacheUsageClass::Polluting,
            Phase::Join { build_keys, .. } => CacheUsageClass::Mixed {
                hot_bytes: BitVec::bytes_for(build_keys),
            },
            Phase::Aggregate { .. } => CacheUsageClass::Sensitive,
        }
    }

    /// Rows the phase processes (a join's probe side).
    fn rows(self) -> u64 {
        match self {
            Phase::Scan { rows, .. } | Phase::Aggregate { rows, .. } => rows,
            Phase::Join { probe_rows, .. } => probe_rows,
        }
    }
}

/// A query as the phases it runs, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    /// The phases, in execution order.
    pub phases: Vec<Phase>,
}

impl Plan {
    /// The query's CUID: that of the phase processing the most rows (the
    /// first of equals), which shapes its cache behaviour — a
    /// scan-dominated query pollutes even when a small sum rides along
    /// (TPC-H 6). A plan without phases (an OLTP point select) keeps the
    /// default, [`CacheUsageClass::Sensitive`].
    pub fn class(&self) -> CacheUsageClass {
        self.phases
            .iter()
            .copied()
            .reduce(|best, phase| {
                if phase.rows() > best.rows() {
                    phase
                } else {
                    best
                }
            })
            .map_or_else(CacheUsageClass::default, Phase::cuid)
    }
}

/// Per-query execution context propagated from the thread that plans a
/// query onto every job the query submits.
///
/// The serving layer needs to answer "how much of query #N's latency was
/// resctrl mask-binding?" — but binds happen on executor workers, several
/// jobs deep. A `QueryCtx` travels with each [`Job`] (captured from the
/// submitting thread's [`with_query_ctx`] scope), and workers accumulate
/// their bind time into it; the query's trace spans carry the same `id`.
#[derive(Debug)]
pub struct QueryCtx {
    /// Correlation id (the server's query ticket); tags trace spans.
    pub id: u64,
    bind_ns: AtomicU64,
}

impl QueryCtx {
    /// Creates a context for query `id`.
    pub fn new(id: u64) -> Arc<QueryCtx> {
        Arc::new(QueryCtx {
            id,
            bind_ns: AtomicU64::new(0),
        })
    }

    /// Adds `ns` nanoseconds of mask-bind work attributed to this query.
    pub(crate) fn add_bind_ns(&self, ns: u64) {
        // ORDERING: monotone statistics counter; readers only want an
        // eventually-consistent total, never cross-field consistency.
        self.bind_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total mask-bind nanoseconds accumulated so far.
    pub fn bind_ns(&self) -> u64 {
        // ORDERING: relaxed snapshot of a monotone counter.
        self.bind_ns.load(Ordering::Relaxed)
    }
}

thread_local! {
    static CURRENT_QUERY: RefCell<Option<Arc<QueryCtx>>> = const { RefCell::new(None) };
}

/// Runs `f` with `ctx` installed as the thread's current query context:
/// every [`Job`] created inside (directly or via `parallel_sum`) carries
/// it. The previous context is restored on exit, panics included.
pub fn with_query_ctx<R>(ctx: Arc<QueryCtx>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<QueryCtx>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_QUERY.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT_QUERY.with(|c| c.borrow_mut().replace(ctx)));
    f()
}

/// The thread's current query context, if inside a [`with_query_ctx`]
/// scope.
pub(crate) fn current_query_ctx() -> Option<Arc<QueryCtx>> {
    CURRENT_QUERY.with(|c| c.borrow().clone())
}

/// A unit of work for the executor: a closure tagged with its CUID.
pub struct Job {
    /// Human-readable label for diagnostics; a literal costs no
    /// allocation, which is what per-chunk and per-statement jobs pass.
    pub name: Cow<'static, str>,
    /// Cache usage identifier.
    pub cuid: CacheUsageClass,
    /// The work itself.
    pub run: Box<dyn FnOnce() + Send + 'static>,
    /// Query this job belongs to, captured from the submitting thread's
    /// [`with_query_ctx`] scope (`None` outside one).
    pub ctx: Option<Arc<QueryCtx>>,
}

impl Job {
    /// Creates a job with an explicit CUID. The current thread's query
    /// context, if any, is attached automatically.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        cuid: CacheUsageClass,
        run: impl FnOnce() + Send + 'static,
    ) -> Self {
        Job {
            name: name.into(),
            cuid,
            run: Box::new(run),
            ctx: current_query_ctx(),
        }
    }

    /// Creates a job with the default (sensitive) CUID — what operators
    /// without annotations get, guaranteeing they keep the whole cache.
    pub fn unannotated(
        name: impl Into<Cow<'static, str>>,
        run: impl FnOnce() + Send + 'static,
    ) -> Self {
        Job::new(name, CacheUsageClass::default(), run)
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("cuid", &self.cuid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCAN: Phase = Phase::Scan {
        rows: 100,
        bytes_per_row: 8,
    };
    const AGG: Phase = Phase::Aggregate {
        rows: 100,
        dict_bytes: 64,
        groups: 4,
    };

    #[test]
    fn each_phase_kind_has_its_paper_class() {
        assert_eq!(SCAN.cuid(), CacheUsageClass::Polluting);
        assert_eq!(AGG.cuid(), CacheUsageClass::Sensitive);
        let join = Phase::Join {
            build_keys: 1_000_001,
            probe_rows: 10,
        };
        // One bit per key, in whole 64-bit words.
        assert_eq!(
            join.cuid(),
            CacheUsageClass::Mixed {
                hot_bytes: BitVec::bytes_for(1_000_001)
            }
        );
        assert_eq!(BitVec::bytes_for(1_000_001), 125_008);
    }

    #[test]
    fn the_phase_with_the_most_rows_classifies_the_plan() {
        let plan = |phases: &[Phase]| Plan {
            phases: phases.to_vec(),
        };
        let big_agg = Phase::Aggregate {
            rows: 101,
            dict_bytes: 64,
            groups: 4,
        };
        assert_eq!(plan(&[SCAN, big_agg]).class(), CacheUsageClass::Sensitive);
        // A tie goes to the first phase.
        assert_eq!(plan(&[SCAN, AGG]).class(), CacheUsageClass::Polluting);
        assert_eq!(plan(&[AGG, SCAN]).class(), CacheUsageClass::Sensitive);
        assert_eq!(Plan::default().class(), CacheUsageClass::Sensitive);
    }

    #[test]
    fn default_cuid_is_sensitive() {
        assert_eq!(CacheUsageClass::default(), CacheUsageClass::Sensitive);
        let j = Job::unannotated("q", || {});
        assert_eq!(j.cuid, CacheUsageClass::Sensitive);
    }

    #[test]
    fn job_runs_its_closure() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let j = Job::new("set-flag", CacheUsageClass::Polluting, move || {
            f2.store(true, Ordering::SeqCst);
        });
        (j.run)();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn jobs_capture_and_scope_query_context() {
        assert!(current_query_ctx().is_none());
        let outside = Job::unannotated("outside", || {});
        assert!(outside.ctx.is_none());
        let ctx = QueryCtx::new(42);
        let job = with_query_ctx(ctx.clone(), || {
            // Nested scopes shadow and restore.
            let inner_ctx = QueryCtx::new(43);
            let inner = with_query_ctx(inner_ctx, || Job::unannotated("inner", || {}));
            assert_eq!(inner.ctx.as_ref().unwrap().id, 43);
            Job::unannotated("outer", || {})
        });
        assert_eq!(job.ctx.as_ref().unwrap().id, 42);
        assert!(current_query_ctx().is_none());
        ctx.add_bind_ns(120);
        ctx.add_bind_ns(80);
        assert_eq!(ctx.bind_ns(), 200);
    }

    #[test]
    fn mixed_carries_hot_bytes() {
        let c = CacheUsageClass::Mixed {
            hot_bytes: 12_500_000,
        };
        match c {
            CacheUsageClass::Mixed { hot_bytes } => assert_eq!(hot_bytes, 12_500_000),
            _ => unreachable!(),
        }
    }
}
