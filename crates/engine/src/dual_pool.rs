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
//! full mask on its first job and never re-binds.
//!
//! `ccp serve` gets the same guarantee without the second pool: it runs
//! an OLTP statement inline on the connection thread, which never binds
//! and so runs in the resctrl root class, with the full cache — no pool
//! round trip, no bind. The OLTP pool is still built, and gets no served
//! work, only because the benchmark harness links
//! [`DualPoolExecutor::new`] and [`DualPoolExecutor::register_metrics`];
//! deleting it waits for the harness owner's sign-off (ROADMAP N(2)).

use crate::alloc::CacheAllocator;
use crate::executor::JobExecutor;
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
    use crate::job::{CacheUsageClass, Job};
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
        let jobs = (0..5)
            .map(|i| Job::new(format!("t{i}"), CacheUsageClass::Polluting, || {}))
            .collect();
        ex.oltp().submit_batch(jobs).wait();
        assert!(rec.calls().iter().all(|(_, m)| m.bits() == 0xfffff));
    }

    #[test]
    fn oltp_pool_binds_once_per_worker() {
        let (_, ex) = dual(1, 2);
        let jobs = (0..20)
            .map(|i| Job::unannotated(format!("t{i}"), || {}))
            .collect();
        ex.oltp().submit_batch(jobs).wait();
        assert!(
            ex.oltp().metrics().mask_switches() <= 2,
            "OLTP pool must bind at most once per worker"
        );
    }

    #[test]
    fn olap_jobs_are_partitioned_oltp_untouched_by_toggle() {
        let (rec, ex) = dual(1, 1);
        let scan = |name| Job::new(name, CacheUsageClass::Polluting, || {});
        ex.olap().submit_batch(vec![scan("scan")]).wait();
        assert_eq!(rec.calls().last().map(|(_, m)| m.bits()), Some(0x3));

        ex.set_partitioning(false);
        let olap = ex.olap().submit_batch(vec![scan("scan2")]);
        let oltp = ex.oltp().submit_batch(vec![Job::unannotated("t", || {})]);
        olap.wait();
        oltp.wait();
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
        let jobs = || {
            (0..4)
                .map(|i| {
                    let d = done.clone();
                    Job::unannotated(format!("j{i}"), move || {
                        d.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect()
        };
        let olap = ex.olap().submit_batch(jobs());
        let oltp = ex.oltp().submit_batch(jobs());
        olap.wait();
        oltp.wait();
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert_eq!(ex.olap().metrics().jobs_executed(), 4);
        assert_eq!(ex.oltp().metrics().jobs_executed(), 4);
    }

    #[test]
    fn register_metrics_exposes_both_pools() {
        let (_, ex) = dual(1, 1);
        let olap =
            ex.olap()
                .submit_batch(vec![Job::new("scan", CacheUsageClass::Polluting, || {})]);
        let oltp = ex.oltp().submit_batch(vec![Job::unannotated("txn", || {})]);
        olap.wait();
        oltp.wait();
        let registry = ccp_obs::Registry::new();
        ex.register_metrics(&registry);
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_executor_jobs_total{class=\"polluting\",pool=\"olap\"} 1"));
        // Job::unannotated defaults to the sensitive class.
        assert!(text.contains("ccp_executor_jobs_total{class=\"sensitive\",pool=\"oltp\"} 1"));
        assert!(text.contains("ccp_executor_mask_switches_total{pool=\"oltp\"} 1"));
    }
}
