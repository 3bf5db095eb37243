//! The job executor: a pool of worker threads with per-job cache
//! partitioning.
//!
//! Mirrors the integration sketched in the paper's Figure 8: the engine
//! annotates each job with a CUID; when a worker picks a job up, the
//! executor maps the CUID to a way mask through the [`PartitionPolicy`]
//! and — only if it differs from the mask the worker currently has, or the
//! live table has been republished since — binds the worker thread via the
//! configured [`CacheAllocator`]. Short-running jobs therefore pay nothing
//! when consecutive jobs share a class, which is the paper's
//! measured-sub-100 µs fast path.

use crate::alloc::{current_tid, CacheAllocator};
use crate::job::Job;
use crate::masks::LiveMasks;
use crate::metrics::ExecutorMetrics;
use crate::partition::PartitionPolicy;
use ccp_cachesim::WayMask;
use ccp_trace::TraceCat;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct BatchInner {
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Completion handle for one group of jobs submitted together via
/// [`JobExecutor::submit_batch`] — the executor's only way to wait.
///
/// A batch completes as soon as its own jobs have finished, no matter what
/// else the pool is running, which is what lets a serving front end admit
/// many simultaneous queries through one executor and still report
/// accurate per-query latencies. A job counts as finished once the pool
/// has recorded it, so a completed batch is already in the pool's
/// [`metrics`](JobExecutor::metrics).
#[derive(Clone)]
pub struct BatchHandle {
    inner: Arc<BatchInner>,
}

impl BatchHandle {
    fn new(count: usize) -> Self {
        BatchHandle {
            inner: Arc::new(BatchInner {
                remaining: Mutex::new(count),
                done: Condvar::new(),
            }),
        }
    }

    /// Completion guard queued beside each job; decrements on drop, which
    /// the worker does after recording the job — panicking or not.
    fn guard(&self) -> BatchGuard {
        BatchGuard {
            inner: self.inner.clone(),
        }
    }

    /// Blocks until every job of the batch has finished.
    pub fn wait(&self) {
        let mut remaining = self.inner.remaining.lock();
        while *remaining > 0 {
            self.inner.done.wait(&mut remaining);
        }
    }
}

struct BatchGuard {
    inner: Arc<BatchInner>,
}

impl Drop for BatchGuard {
    fn drop(&mut self) {
        let mut remaining = self.inner.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.inner.done.notify_all();
        }
    }
}

/// A job on its way to a worker: the work, when it was queued, and the
/// batch it completes.
struct Queued {
    job: Job,
    submitted: Instant,
    batch: BatchGuard,
}

struct Shared {
    policy: PartitionPolicy,
    allocator: Arc<dyn CacheAllocator>,
    live: Arc<LiveMasks>,
    metrics: ExecutorMetrics,
}

/// Lowers the calling thread's scheduling priority to `nice`.
///
/// On Linux `setpriority(PRIO_PROCESS, 0, ..)` acts on the calling thread
/// only, needs no privilege when it lowers priority, and touches nothing
/// outside the process. Best effort: on failure the thread keeps nice 0.
#[cfg(target_os = "linux")]
fn set_own_nice(nice: i32) {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: `setpriority(2)` takes plain integers, reads and writes no
    // memory of ours, and with `who = 0` changes only this thread's nice.
    unsafe {
        setpriority(PRIO_PROCESS, 0, nice);
    }
}

#[cfg(not(target_os = "linux"))]
fn set_own_nice(_nice: i32) {}

/// `0..n` cut into at most `chunks` (at least one) equal ranges, the last
/// one shorter; no empty range is produced.
fn chunk_ranges(n: usize, chunks: usize) -> impl Iterator<Item = Range<usize>> {
    let step = n.div_ceil(chunks.max(1)).max(1);
    (0..n).step_by(step).map(move |lo| lo..(lo + step).min(n))
}

/// A pool of job workers with integrated cache partitioning.
pub struct JobExecutor {
    tx: Option<Sender<Queued>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl JobExecutor {
    /// Spawns `n_workers` job workers.
    ///
    /// # Panics
    /// Panics when `n_workers` is zero.
    pub fn new(
        n_workers: usize,
        policy: PartitionPolicy,
        allocator: Arc<dyn CacheAllocator>,
    ) -> Self {
        Self::with_pool_name(n_workers, policy, allocator, "job", 0)
    }

    /// Spawns `n_workers` job workers with threads named
    /// `{pool}-worker-{i}`, so thread listings and external profilers are
    /// keyed by pool (`olap-worker-3`, `oltp-worker-0`). Each worker
    /// lowers its own priority to `nice` as it starts (0 leaves it as is),
    /// and blocks on the queue whenever it is empty.
    ///
    /// # Panics
    /// Panics when `n_workers` is zero.
    pub(crate) fn with_pool_name(
        n_workers: usize,
        policy: PartitionPolicy,
        allocator: Arc<dyn CacheAllocator>,
        pool: &str,
        nice: i32,
    ) -> Self {
        assert!(n_workers > 0, "executor needs at least one worker");
        let (tx, rx) = unbounded::<Queued>();
        let live = Arc::new(LiveMasks::from_policy(&policy));
        let shared = Arc::new(Shared {
            policy,
            allocator,
            live,
            metrics: ExecutorMetrics::new(),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let rx = rx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("{pool}-worker-{i}"))
                    .spawn(move || {
                        if nice != 0 {
                            set_own_nice(nice);
                        }
                        let tid = current_tid();
                        let full =
                            WayMask::full(shared.policy.llc.ways).expect("validated LLC way count");
                        // Mask last bound, live-table generation then.
                        let mut current: Option<(WayMask, u64)> = None;
                        while let Ok(Queued {
                            job,
                            submitted,
                            batch,
                        }) = rx.recv()
                        {
                            let queue_wait = submitted.elapsed().as_secs_f64();
                            let cuid = job.cuid;
                            let query_id = job.ctx.as_ref().map_or(0, |c| c.id);
                            // The live table (seeded from the policy,
                            // rewritten by adaptive control) is read once
                            // per job: repartitions take effect on the
                            // next bind, never mid-query.
                            let class = shared.policy.regime(cuid);
                            let (want, generation) = shared.live.bind_target(class, full);
                            // Fast path: skip the allocator when the worker
                            // already carries the right mask and no publish
                            // since can have retired that mask's group.
                            if current != Some((want, generation)) {
                                let bind_started = Instant::now();
                                let bind_span =
                                    ccp_trace::span_id(TraceCat::Bind, "mask_bind", query_id);
                                let bound = if ccp_fault::should_fail(crate::alloc::FAULT_BIND) {
                                    Err(crate::alloc::AllocError::Resctrl(
                                        "injected bind fault (engine.bind)".into(),
                                    ))
                                } else {
                                    shared.allocator.bind(tid, want)
                                };
                                match bound {
                                    Ok(()) => {
                                        shared.metrics.record_mask_switch();
                                        current = Some((want, generation));
                                    }
                                    Err(_) => {
                                        shared.metrics.record_bind_failure();
                                        // Run the job anyway: partitioning is
                                        // an optimization, never a gate.
                                    }
                                }
                                drop(bind_span);
                                if let Some(ctx) = &job.ctx {
                                    ctx.add_bind_ns(bind_started.elapsed().as_nanos() as u64);
                                }
                            }
                            // A panicking job must not kill the worker or
                            // leave its batch waiting forever; unwind
                            // safety is fine because the closure is
                            // consumed either way.
                            let started = Instant::now();
                            let job_span = ccp_trace::span_id(TraceCat::Op, &job.name, query_id);
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.run));
                            drop(job_span);
                            shared.metrics.record_job(
                                cuid,
                                queue_wait,
                                started.elapsed().as_secs_f64(),
                                outcome.is_err(),
                            );
                            // Counted first, completed second: a waiter
                            // woken here finds the job in the metrics.
                            drop(batch);
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        JobExecutor {
            tx: Some(tx),
            workers,
            shared,
        }
    }

    /// Enables or disables partitioning at runtime (the paper's evaluation
    /// toggles exactly this). Already-bound workers are rebound lazily on
    /// their next job.
    pub fn set_partitioning(&self, on: bool) {
        self.shared.live.set_partitioning(on);
    }

    /// The live CUID→mask table this pool binds from. Adaptive control
    /// publishes repartitions through this handle; workers pick them up
    /// on their next bind.
    pub(crate) fn live_masks(&self) -> Arc<LiveMasks> {
        self.shared.live.clone()
    }

    /// Whether partitioning is currently enabled.
    pub fn partitioning(&self) -> bool {
        self.shared.live.partitioning()
    }

    /// Submits `jobs` as one tracked batch and returns a handle that
    /// completes when exactly these jobs have finished — independent of
    /// whatever else the pool is running. The handle is panic-safe: a
    /// panicking job still counts as finished.
    pub fn submit_batch(&self, jobs: Vec<Job>) -> BatchHandle {
        let batch = BatchHandle::new(jobs.len());
        let tx = self.tx.as_ref().expect("executor not shut down");
        for job in jobs {
            let queued = Queued {
                job,
                submitted: Instant::now(),
                batch: batch.guard(),
            };
            if tx.send(queued).is_err() {
                panic!("executor workers gone");
            }
        }
        batch
    }

    /// Data-parallel map: splits `0..n` into `chunks` ranges, runs `f` on
    /// each as a job of class `cuid`, and returns the results in range
    /// order, whatever order the jobs finished in. Every job carries `name`
    /// as it is.
    ///
    /// # Panics
    /// Panics when a job panicked: its range has no result.
    pub fn parallel_map<T, F>(
        &self,
        name: &'static str,
        cuid: crate::job::CacheUsageClass,
        n: usize,
        chunks: usize,
        f: F,
    ) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Range<usize>) -> T + Send + Sync + 'static,
    {
        let ranges: Vec<_> = chunk_ranges(n, chunks).collect();
        let shared = Arc::new((f, Mutex::new((0..ranges.len()).map(|_| None).collect())));
        let jobs = ranges
            .into_iter()
            .enumerate()
            .map(|(slot, range)| {
                let shared = shared.clone();
                Job::new(name, cuid, move || {
                    let (f, results): &(F, Mutex<Vec<Option<T>>>) = &shared;
                    let out = f(range);
                    results.lock()[slot] = Some(out);
                })
            })
            .collect();
        // Wait on the batch, not the pool: concurrent operators sharing
        // this executor must not serialize on each other's jobs.
        self.submit_batch(jobs).wait();
        let results = std::mem::take(&mut *shared.1.lock());
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| panic!("a {name} job panicked")))
            .collect()
    }

    /// Data-parallel sum: [`parallel_map`](Self::parallel_map) with the
    /// results added up.
    pub fn parallel_sum<F>(
        &self,
        name: &'static str,
        cuid: crate::job::CacheUsageClass,
        n: usize,
        chunks: usize,
        f: F,
    ) -> u64
    where
        F: Fn(Range<usize>) -> u64 + Send + Sync + 'static,
    {
        self.parallel_map(name, cuid, n, chunks, f)
            .into_iter()
            .sum()
    }

    /// Data-parallel fold: splits `0..n` into `chunks` ranges like
    /// [`parallel_map`](Self::parallel_map) and runs `fold` on each as a
    /// job of class `cuid`, over an accumulator checked out for the length
    /// of the job: a free one if an earlier job has handed one back, a new
    /// one from `init` otherwise. No more accumulators exist than jobs ran
    /// at the same time — at most one per worker, however many chunks —
    /// and all of them are returned for the caller to merge. Every job
    /// carries `name` as it is.
    pub fn parallel_fold<A, I, F>(
        &self,
        name: &'static str,
        cuid: crate::job::CacheUsageClass,
        n: usize,
        chunks: usize,
        init: I,
        fold: F,
    ) -> Vec<A>
    where
        A: Send + 'static,
        I: Fn() -> A + Send + Sync + 'static,
        F: Fn(&mut A, Range<usize>) + Send + Sync + 'static,
    {
        let shared = Arc::new((init, fold, Mutex::new(Vec::new())));
        let jobs = chunk_ranges(n, chunks)
            .map(|rows| {
                let shared = shared.clone();
                Job::new(name, cuid, move || {
                    let (init, fold, free) = &*shared;
                    let checked_out = free.lock().pop();
                    let mut acc = checked_out.unwrap_or_else(init);
                    fold(&mut acc, rows);
                    free.lock().push(acc);
                })
            })
            .collect();
        self.submit_batch(jobs).wait();
        let mut free = shared.2.lock();
        std::mem::take(&mut *free)
    }

    /// This pool's instruments (queue-wait and run-latency histograms
    /// per CUID class, mask-switch accounting). The returned handle
    /// shares state with the pool; attach it to a registry with
    /// `ExecutorMetrics::register_into` to expose it.
    pub fn metrics(&self) -> ExecutorMetrics {
        self.shared.metrics.clone()
    }
}

impl Drop for JobExecutor {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{NoopAllocator, RecordingAllocator};
    use crate::job::CacheUsageClass;
    use ccp_cachesim::HierarchyConfig;
    use ccp_resctrl::{Class, PerClass};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn policy() -> PartitionPolicy {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
    }

    #[test]
    fn executes_all_jobs() {
        let ex = JobExecutor::new(4, policy(), Arc::new(NoopAllocator));
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..100)
            .map(|i| {
                let c = counter.clone();
                Job::unannotated(format!("j{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        ex.submit_batch(jobs).wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(ex.metrics().jobs_executed(), 100);
    }

    #[test]
    fn parallel_sum_covers_every_index() {
        let ex = JobExecutor::new(4, policy(), Arc::new(NoopAllocator));
        // Sum 0..1000 across 7 chunks.
        let total = ex.parallel_sum("sum", CacheUsageClass::Polluting, 1000, 7, |r| {
            r.map(|i| i as u64).sum()
        });
        assert_eq!(total, 499_500);
    }

    #[test]
    fn parallel_map_returns_results_in_range_order() {
        // The first range finishes last; its result still comes first.
        let ex = JobExecutor::new(4, policy(), Arc::new(NoopAllocator));
        let ranges = ex.parallel_map("map", CacheUsageClass::Polluting, 10, 4, |r| {
            if r.start == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            r
        });
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert!(ex
            .parallel_map("map", CacheUsageClass::Polluting, 0, 4, |r| r)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "a map job panicked")]
    fn parallel_map_fails_when_a_range_has_no_result() {
        let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
        ex.parallel_map("map", CacheUsageClass::Polluting, 10, 2, |r| {
            assert!(r.start != 5, "boom");
            r.len()
        });
    }

    #[test]
    fn parallel_fold_covers_every_index_with_at_most_one_accumulator_per_worker() {
        let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
        let made = Arc::new(AtomicU64::new(0));
        let made_in_init = made.clone();
        // 1000 indices in 31 chunks on 2 workers.
        let parts = ex.parallel_fold(
            "fold",
            CacheUsageClass::Sensitive,
            1000,
            31,
            move || {
                made_in_init.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |seen: &mut Vec<usize>, rows| seen.extend(rows),
        );
        assert!((1..=2).contains(&parts.len()), "{} parts", parts.len());
        assert_eq!(made.load(Ordering::Relaxed), parts.len() as u64);
        let mut seen: Vec<usize> = parts.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        // Nothing to fold: no job, no accumulator.
        let none = ex.parallel_fold("fold", CacheUsageClass::Sensitive, 0, 4, || 0u8, |_, _| {});
        assert!(none.is_empty());
    }

    #[test]
    fn polluting_jobs_get_the_paper_mask() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        ex.submit_batch(vec![Job::new("scan", CacheUsageClass::Polluting, || {})])
            .wait();
        let calls = rec.calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].1.bits(), 0x3);
    }

    #[test]
    fn fast_path_skips_repeat_masks() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        // 10 consecutive polluting jobs on one worker: a single bind.
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job::new(format!("s{i}"), CacheUsageClass::Polluting, || {}))
            .collect();
        ex.submit_batch(jobs).wait();
        assert_eq!(rec.calls().len(), 1);
        assert_eq!(ex.metrics().mask_switches(), 1);
    }

    #[test]
    fn same_mask_after_a_republish_reaches_the_allocator_once() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        let scans = || {
            (0..5)
                .map(|i| Job::new(format!("s{i}"), CacheUsageClass::Polluting, || {}))
                .collect()
        };
        ex.submit_batch(scans()).wait();
        // The plan came back — a revert, or B → A after A → B: the mask is
        // the one the worker carries, its group may be a new one.
        ex.live_masks().publish(&policy().static_plan());
        ex.submit_batch(scans()).wait();
        let masks: Vec<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
        assert_eq!(masks, vec![0x3, 0x3]);
    }

    #[test]
    fn alternating_classes_switch_masks() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        let mut jobs = Vec::new();
        for i in 0..4 {
            let cuid = if i % 2 == 0 {
                CacheUsageClass::Polluting
            } else {
                CacheUsageClass::Sensitive
            };
            jobs.push(Job::new(format!("j{i}"), cuid, || {}));
        }
        ex.submit_batch(jobs).wait();
        assert_eq!(rec.calls().len(), 4);
        let masks: Vec<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
        assert_eq!(masks, vec![0x3, 0xfffff, 0x3, 0xfffff]);
    }

    #[test]
    fn disabling_partitioning_binds_full_mask() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        ex.set_partitioning(false);
        assert!(!ex.partitioning());
        ex.submit_batch(vec![Job::new("scan", CacheUsageClass::Polluting, || {})])
            .wait();
        assert_eq!(rec.calls()[0].1.bits(), 0xfffff);
    }

    #[test]
    fn mixed_class_resolved_through_policy() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        ex.submit_batch(vec![
            Job::new(
                "join-small",
                CacheUsageClass::Mixed { hot_bytes: 125_000 },
                || {},
            ),
            Job::new(
                "join-big",
                CacheUsageClass::Mixed {
                    hot_bytes: 12_500_000,
                },
                || {},
            ),
        ])
        .wait();
        let masks: Vec<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
        assert_eq!(masks, vec![0x3, 0xfff]);
    }

    #[test]
    fn live_mask_updates_apply_on_the_next_bind() {
        let rec = Arc::new(RecordingAllocator::new());
        let ex = JobExecutor::new(1, policy(), rec.clone());
        ex.submit_batch(vec![Job::new("agg0", CacheUsageClass::Sensitive, || {})])
            .wait();
        // An adaptive repartition shrinks the sensitive class to the top
        // four ways; the already-idle worker rebinds on its next job.
        let live = ex.live_masks();
        live.publish(&PerClass::new(
            WayMask::new(0x3).unwrap(),
            WayMask::range(16, 4).unwrap(),
            WayMask::range(16, 4).unwrap(),
        ));
        ex.submit_batch(vec![Job::new("agg1", CacheUsageClass::Sensitive, || {})])
            .wait();
        let masks: Vec<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
        assert_eq!(masks, vec![0xfffff, 0xf0000]);
    }

    #[test]
    fn workers_run_concurrently() {
        use std::time::{Duration, Instant};
        let ex = JobExecutor::new(4, policy(), Arc::new(NoopAllocator));
        let start = Instant::now();
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                Job::unannotated(format!("sleep{i}"), || {
                    std::thread::sleep(Duration::from_millis(100));
                })
            })
            .collect();
        ex.submit_batch(jobs).wait();
        // Serial execution would take >= 400 ms.
        assert!(
            start.elapsed() < Duration::from_millis(350),
            "jobs did not run in parallel"
        );
    }

    #[test]
    fn panicking_job_does_not_hang_or_kill_the_worker() {
        let ex = JobExecutor::new(1, policy(), Arc::new(NoopAllocator));
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        ex.submit_batch(vec![
            Job::unannotated("boom", || panic!("deliberate test panic")),
            Job::unannotated("after", move || {
                d.fetch_add(1, Ordering::Relaxed);
            }),
        ])
        .wait();
        // The batch completed (no hang), the next job still ran on the same
        // single worker, and the panic was counted.
        assert_eq!(done.load(Ordering::Relaxed), 1);
        assert_eq!(ex.metrics().jobs_panicked(), 1);
        assert_eq!(ex.metrics().jobs_executed(), 2);
    }

    #[test]
    fn metrics_expose_latency_distributions_per_class() {
        let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
        let jobs: Vec<Job> = (0..10)
            .map(|i| {
                Job::new(format!("s{i}"), CacheUsageClass::Polluting, || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                })
            })
            .collect();
        ex.submit_batch(jobs).wait();
        let m = ex.metrics();
        assert_eq!(m.jobs.get(Class::Polluting).get(), 10);
        assert_eq!(m.jobs.get(Class::Sensitive).get(), 0);
        let lat = m.job_latency.get(Class::Polluting);
        assert_eq!(lat.count(), 10);
        assert!(lat.sum() >= 0.010, "10 x 1 ms of sleep, got {}", lat.sum());
        assert_eq!(m.queue_wait.get(Class::Polluting).count(), 10);
    }

    #[test]
    fn metrics_register_renders_executor_families() {
        let ex = JobExecutor::new(1, policy(), Arc::new(NoopAllocator));
        ex.submit_batch(vec![Job::new("agg", CacheUsageClass::Sensitive, || {})])
            .wait();
        let registry = ccp_obs::Registry::new();
        ex.metrics().register_into(&registry, "test");
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_executor_jobs_total{class=\"sensitive\",pool=\"test\"} 1"));
        assert!(text.contains(
            "ccp_executor_queue_wait_seconds_count{class=\"sensitive\",pool=\"test\"} 1"
        ));
    }

    /// Waits for `batch` on a helper thread; the receiver yields once
    /// `wait()` has returned.
    fn wait_in_background(batch: BatchHandle) -> std::sync::mpsc::Receiver<()> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            batch.wait();
            let _ = tx.send(());
        });
        rx
    }

    /// A job that spins until `gate` is set.
    fn gated_job(gate: &Arc<AtomicU64>) -> Job {
        let g = gate.clone();
        Job::unannotated("slow", move || {
            while g.load(Ordering::Relaxed) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    }

    #[test]
    fn batch_completes_independently_of_other_submissions() {
        let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
        // A long-running foreign job occupies one worker the whole time.
        let gate = Arc::new(AtomicU64::new(0));
        let slow = ex.submit_batch(vec![gated_job(&gate)]);
        // The batch must finish on the free worker without waiting for
        // the foreign job.
        let ran = Arc::new(AtomicU64::new(0));
        let jobs = ["a", "b"]
            .map(|name| {
                let r = ran.clone();
                Job::unannotated(name, move || {
                    r.fetch_add(1, Ordering::Relaxed);
                })
            })
            .into();
        let done = wait_in_background(ex.submit_batch(jobs));
        let finished = done.recv_timeout(Duration::from_secs(5)).is_ok();
        gate.store(1, Ordering::Relaxed);
        slow.wait();
        assert!(finished, "batch blocked on an unrelated job");
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn batch_wait_survives_panicking_jobs() {
        let ex = JobExecutor::new(1, policy(), Arc::new(NoopAllocator));
        let batch = ex.submit_batch(vec![
            Job::unannotated("boom", || panic!("deliberate test panic")),
            Job::unannotated("ok", || {}),
        ]);
        batch.wait(); // must not hang
        assert_eq!(ex.metrics().jobs_panicked(), 1);
    }

    #[test]
    fn batch_wait_blocks_until_its_job_finishes() {
        let ex = JobExecutor::new(1, policy(), Arc::new(NoopAllocator));
        let gate = Arc::new(AtomicU64::new(0));
        let done = wait_in_background(ex.submit_batch(vec![gated_job(&gate)]));
        let early = done.recv_timeout(Duration::from_millis(20)).is_ok();
        gate.store(1, Ordering::Relaxed);
        assert!(!early, "wait() returned while the job was still running");
        assert!(done.recv_timeout(Duration::from_secs(5)).is_ok());
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
        ex.submit_batch(vec![Job::unannotated("x", || {})]).wait();
        drop(ex); // must not hang or panic
    }

    #[test]
    fn queued_jobs_run_before_a_dropped_pool_joins() {
        let ex = JobExecutor::new(1, policy(), Arc::new(NoopAllocator));
        let counter = Arc::new(AtomicU64::new(0));
        let jobs = (0..8)
            .map(|i| {
                let c = counter.clone();
                Job::unannotated(format!("j{i}"), move || {
                    std::thread::sleep(Duration::from_millis(1));
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let batch = ex.submit_batch(jobs);
        // Dropping the pool drops the sender while most of the batch is
        // still queued: the worker drains it, then sees the disconnection
        // and is joined.
        drop(ex);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        batch.wait();
    }

    #[test]
    fn niced_pool_runs_back_to_back_batches_and_shuts_down() {
        let ex = JobExecutor::with_pool_name(
            2,
            policy(),
            Arc::new(NoopAllocator),
            "nice",
            crate::OLAP_NICE,
        );
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let jobs = (0..8)
                .map(|i| {
                    let c = counter.clone();
                    Job::unannotated(format!("j{i}"), move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            ex.submit_batch(jobs).wait();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16);
        assert_eq!(ex.metrics().jobs_executed(), 16);
        drop(ex); // workers see the disconnection and are joined
    }

    #[test]
    fn a_finished_batch_is_already_counted() {
        let ex = JobExecutor::new(1, policy(), Arc::new(NoopAllocator));
        let metrics = ex.metrics();
        let mut panicked = 0;
        for i in 1..=1_000u64 {
            let job = if i % 100 == 0 {
                panicked += 1;
                Job::unannotated("boom", || panic!("deliberate test panic"))
            } else {
                Job::unannotated("ok", || {})
            };
            ex.submit_batch(vec![job]).wait();
            // No settling: the worker records a job before it completes
            // the job's batch.
            assert_eq!(metrics.jobs_executed(), i, "batch {i} done but not counted");
            assert_eq!(metrics.jobs_panicked(), panicked, "batch {i}");
        }
    }
}
