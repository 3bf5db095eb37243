//! Dual thread-pool engine front end (paper Section V-C).
//!
//! SAP HANA handles short-running OLTP statements in a **dedicated thread
//! pool** that always keeps the full cache — so the per-job mask binding
//! (with its potential kernel round-trip) only ever happens on the OLAP
//! side, and OLTP latency never pays for partitioning:
//!
//! > "If at all, only short-running OLTP queries might see a small
//! > performance penalty due to the interaction with the kernel. However,
//! > SAP HANA handles such queries in a dedicated thread pool anyway. That
//! > thread pool always has access to the entire cache."
//!
//! [`DualPoolExecutor`] packages that arrangement: an OLAP pool with
//! partitioning enabled and an OLTP pool that pins every worker to the
//! full mask once at startup and never re-binds.

use crate::alloc::CacheAllocator;
use crate::executor::JobExecutor;
use crate::job::Job;
use crate::partition::PartitionPolicy;
use std::sync::Arc;
use std::time::Duration;

/// How long an OLAP worker busy-polls its empty queue before it parks.
///
/// It has to outlast the turn-around of a closed-loop client (reply, next
/// request, parse, admit, submit: 100-250 us on the benchmark host), so
/// that a stream of back-to-back analytic queries never lets the workers
/// sleep. Measured on `oltp_scan`/`reuse_churn` (EXPERIMENTS.md): with
/// sub-millisecond scans and no linger the foreground streams lose half
/// their throughput and their p95 grows fivefold; from 100 us up they keep
/// both, and 1 ms sits well inside that plateau. The price is at most this
/// much CPU per worker after a batch on an otherwise idle server.
///
/// The OLTP pool does not linger: its requests arrive faster than any
/// useful linger, so its worker would spin for good and compete with the
/// OLAP workers as a third CPU-bound thread (measured: OLTP p95 0.09 ->
/// 0.68 ms).
const OLAP_LINGER: Duration = Duration::from_millis(1);

/// Two-pool engine front end: partitioned OLAP workers, full-cache OLTP
/// workers.
pub struct DualPoolExecutor {
    olap: JobExecutor,
    oltp: JobExecutor,
}

impl DualPoolExecutor {
    /// Builds both pools against the same allocator.
    ///
    /// # Panics
    /// Panics when either worker count is zero.
    pub fn new(
        olap_workers: usize,
        oltp_workers: usize,
        policy: PartitionPolicy,
        allocator: Arc<dyn CacheAllocator>,
    ) -> Self {
        let olap = JobExecutor::with_pool_name(
            olap_workers,
            policy,
            allocator.clone(),
            "olap",
            OLAP_LINGER,
        );
        let oltp =
            JobExecutor::with_pool_name(oltp_workers, policy, allocator, "oltp", Duration::ZERO);
        // The OLTP pool never partitions: with partitioning disabled, every
        // job binds the full mask, and the per-worker fast path makes that
        // a one-time cost per worker thread.
        oltp.set_partitioning(false);
        DualPoolExecutor { olap, oltp }
    }

    /// The OLAP pool (CUID-partitioned).
    pub fn olap(&self) -> &JobExecutor {
        &self.olap
    }

    /// The OLTP pool (always full cache).
    pub fn oltp(&self) -> &JobExecutor {
        &self.oltp
    }

    /// Submits an analytical job: its CUID decides its mask.
    pub fn submit_olap(&self, job: Job) {
        self.olap.submit(job);
    }

    /// Submits a transactional job: runs with the full cache, regardless
    /// of its CUID.
    pub fn submit_oltp(&self, job: Job) {
        self.oltp.submit(job);
    }

    /// The OLAP pool's live mask table — the handle adaptive control
    /// publishes repartitions through. The OLTP pool has no table to
    /// speak of: it binds the full mask regardless.
    pub fn live_masks(&self) -> Arc<crate::masks::LiveMasks> {
        self.olap.live_masks()
    }

    /// Enables/disables partitioning on the OLAP side only (the paper's
    /// evaluation toggle); the OLTP pool is unaffected by design.
    pub fn set_partitioning(&self, on: bool) {
        self.olap.set_partitioning(on);
    }

    /// Waits until both pools are idle.
    pub fn wait_idle(&self) {
        self.olap.wait_idle();
        self.oltp.wait_idle();
    }

    /// Total mask switches across both pools — the OLTP pool's share stays
    /// at one per worker (its startup bind), which is the §V-C guarantee.
    pub fn mask_switches(&self) -> (u64, u64) {
        (self.olap.mask_switches(), self.oltp.mask_switches())
    }

    /// Attaches both pools' live instruments to `registry`, labeled
    /// `pool="olap"` / `pool="oltp"` — one scrape then shows the §V-C
    /// asymmetry directly (OLTP mask switches stay at one per worker
    /// while OLAP switches track the CUID mix).
    pub fn register_metrics(&self, registry: &ccp_obs::Registry) {
        self.olap.metrics().register_into(registry, "olap");
        self.oltp.metrics().register_into(registry, "oltp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::RecordingAllocator;
    use crate::job::CacheUsageClass;
    use ccp_cachesim::HierarchyConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn dual(olap: usize, oltp: usize) -> (Arc<RecordingAllocator>, DualPoolExecutor) {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let rec = Arc::new(RecordingAllocator::new());
        let ex = DualPoolExecutor::new(
            olap,
            oltp,
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            rec.clone(),
        );
        (rec, ex)
    }

    #[test]
    fn oltp_jobs_always_get_the_full_cache() {
        let (rec, ex) = dual(1, 1);
        // Even a job annotated as polluting runs unconfined on the OLTP
        // side (the CUID is advisory; the pool guarantees full cache).
        for i in 0..5 {
            ex.submit_oltp(Job::new(format!("t{i}"), CacheUsageClass::Polluting, || {}));
        }
        ex.wait_idle();
        assert!(rec.calls().iter().all(|(_, m)| m.bits() == 0xfffff));
    }

    #[test]
    fn oltp_pool_binds_once_per_worker() {
        let (_, ex) = dual(1, 2);
        for i in 0..20 {
            ex.submit_oltp(Job::unannotated(format!("t{i}"), || {}));
        }
        ex.wait_idle();
        let (_, oltp_switches) = ex.mask_switches();
        assert!(
            oltp_switches <= 2,
            "OLTP pool must bind at most once per worker"
        );
    }

    #[test]
    fn olap_jobs_are_partitioned_oltp_untouched_by_toggle() {
        let (rec, ex) = dual(1, 1);
        ex.submit_olap(Job::new("scan", CacheUsageClass::Polluting, || {}));
        ex.wait_idle();
        assert_eq!(rec.calls().last().map(|(_, m)| m.bits()), Some(0x3));

        ex.set_partitioning(false);
        ex.submit_olap(Job::new("scan2", CacheUsageClass::Polluting, || {}));
        ex.submit_oltp(Job::unannotated("t", || {}));
        ex.wait_idle();
        // After the toggle the OLAP scan binds the full mask too.
        assert!(rec
            .calls()
            .iter()
            .rev()
            .take(2)
            .all(|(_, m)| m.bits() == 0xfffff));
    }

    #[test]
    fn pools_run_concurrently() {
        let (_, ex) = dual(2, 2);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..8 {
            let d = done.clone();
            let job = Job::unannotated(format!("j{i}"), move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
            if i % 2 == 0 {
                ex.submit_olap(job);
            } else {
                ex.submit_oltp(job);
            }
        }
        ex.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert_eq!(ex.olap().jobs_executed(), 4);
        assert_eq!(ex.oltp().jobs_executed(), 4);
    }

    #[test]
    fn register_metrics_exposes_both_pools() {
        let (_, ex) = dual(1, 1);
        ex.submit_olap(Job::new("scan", CacheUsageClass::Polluting, || {}));
        ex.submit_oltp(Job::unannotated("txn", || {}));
        ex.wait_idle();
        let registry = ccp_obs::Registry::new();
        ex.register_metrics(&registry);
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_executor_jobs_total{class=\"polluting\",pool=\"olap\"} 1"));
        // Job::unannotated defaults to the sensitive class.
        assert!(text.contains("ccp_executor_jobs_total{class=\"sensitive\",pool=\"oltp\"} 1"));
        assert!(text.contains("ccp_executor_mask_switches_total{pool=\"oltp\"} 1"));
    }
}
