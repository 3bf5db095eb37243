//! Model checks for the dual-pool handoff ([`ccp_engine::DualPoolExecutor`]):
//! jobs land in the pool they were submitted to, nothing is lost or run
//! twice, and the §V-C guarantee — the OLTP pool binds the full cache
//! mask exactly once per worker, never a partition — holds under every
//! interleaving of OLAP and OLTP submissions.
//!
//! The pools use real worker threads, so the explorer controls the
//! *submission* interleaving and the invariants are checked after every
//! submitted batch has completed — the handoff (which queue a job enters,
//! which mask its pool binds) is exactly the part schedule order could
//! plausibly break.

use ccp_engine::{
    BatchHandle, CacheUsageClass, DualPoolExecutor, Job, PartitionPolicy, RecordingAllocator,
};
use ccp_verify::{explore, Access, Actor, Mode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PER_POOL: u64 = 4;
const FULL_MASK: u32 = 0xfffff;
const POLLUTER_MASK: u32 = 0x3;

struct PoolModel {
    rec: Arc<RecordingAllocator>,
    ex: DualPoolExecutor,
    done: Arc<AtomicU64>,
    /// One single-job batch per OLAP submission.
    olap_batches: Vec<BatchHandle>,
    /// One single-job batch per OLTP submission.
    oltp_batches: Vec<BatchHandle>,
}

impl PoolModel {
    fn new(ex: DualPoolExecutor, rec: Arc<RecordingAllocator>) -> Self {
        PoolModel {
            rec,
            ex,
            done: Arc::new(AtomicU64::new(0)),
            olap_batches: Vec::new(),
            oltp_batches: Vec::new(),
        }
    }

    /// Waits for every submitted batch; returns `(olap, oltp)` jobs
    /// submitted.
    fn settle(&self) -> (u64, u64) {
        for batch in self.olap_batches.iter().chain(&self.oltp_batches) {
            batch.wait();
        }
        (
            self.olap_batches.len() as u64,
            self.oltp_batches.len() as u64,
        )
    }

    /// The OLTP pool's mask switches.
    fn oltp_switches(&self) -> u64 {
        self.ex.oltp().metrics().mask_switches()
    }
}

#[test]
fn handoff_preserves_jobs_and_oltp_full_cache_under_all_submission_orders() {
    let build = || {
        let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
        let rec = Arc::new(RecordingAllocator::new());
        let ex = DualPoolExecutor::new(
            1,
            1,
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            rec.clone(),
        );
        let state = PoolModel::new(ex, rec);
        // The two submitters touch disjoint queues, and every check runs
        // after every batch completed — so the submission orders are
        // genuinely independent and DPOR collapses the space to one trace.
        let mut olap = Actor::new("olap-submitter");
        for i in 0..PER_POOL {
            olap = olap.then_accessing(
                move |s: &mut PoolModel| {
                    let d = s.done.clone();
                    let batch = s.ex.olap().submit_batch(vec![Job::new(
                        format!("scan-{i}"),
                        CacheUsageClass::Polluting,
                        move || {
                            d.fetch_add(1, Ordering::Relaxed);
                        },
                    )]);
                    s.olap_batches.push(batch);
                },
                &[Access::Write("olap-q")],
            );
        }
        let mut oltp = Actor::new("oltp-submitter");
        for i in 0..PER_POOL {
            oltp = oltp.then_accessing(
                move |s: &mut PoolModel| {
                    let d = s.done.clone();
                    let batch = s.ex.oltp().submit_batch(vec![Job::new(
                        format!("txn-{i}"),
                        CacheUsageClass::Polluting, // CUID is advisory on OLTP
                        move || {
                            d.fetch_add(1, Ordering::Relaxed);
                        },
                    )]);
                    s.oltp_batches.push(batch);
                },
                &[Access::Write("oltp-q")],
            );
        }
        (state, vec![olap, oltp])
    };
    let check_final = |s: &mut PoolModel| {
        let (submitted_olap, submitted_oltp) = s.settle();
        // Conservation: every submitted job ran exactly once, in the pool
        // it was handed to.
        let ran = s.done.load(Ordering::Relaxed);
        if ran != submitted_olap + submitted_oltp {
            return Err(format!(
                "{ran} jobs ran, {submitted_olap} + {submitted_oltp} were submitted"
            ));
        }
        let olap_ran = s.ex.olap().metrics().jobs_executed();
        if olap_ran != submitted_olap {
            return Err(format!(
                "OLAP pool ran {olap_ran} of {submitted_olap} OLAP jobs"
            ));
        }
        let oltp_ran = s.ex.oltp().metrics().jobs_executed();
        if oltp_ran != submitted_oltp {
            return Err(format!(
                "OLTP pool ran {oltp_ran} of {submitted_oltp} OLTP jobs"
            ));
        }
        // §V-C: the OLTP pool binds once per worker (1 here), and only
        // ever the full mask; polluting OLAP jobs bind their partition.
        let oltp_switches = s.oltp_switches();
        if oltp_switches > 1 {
            return Err(format!(
                "OLTP pool re-bound {oltp_switches} times; must bind once per worker"
            ));
        }
        let masks: Vec<u32> = s.rec.calls().iter().map(|(_, m)| m.bits()).collect();
        if !masks.iter().all(|&m| m == FULL_MASK || m == POLLUTER_MASK) {
            return Err(format!("unexpected mask among binds: {masks:x?}"));
        }
        if !masks.contains(&FULL_MASK) {
            return Err("OLTP worker never bound the full mask".into());
        }
        if !masks.contains(&POLLUTER_MASK) {
            return Err("polluting OLAP jobs never bound their partition".into());
        }
        Ok(())
    };
    let start = Instant::now();
    let report = explore(
        Mode::Dpor {
            max_schedules: 1_000,
        },
        build,
        |_| Ok(()),
        check_final,
    )
    .expect("dual-pool handoff must be order-independent");
    assert!(report.exhausted);
    // Two 4-step submitters into disjoint pools: C(8,4) = 70
    // interleavings, all Mazurkiewicz-equivalent — one representative run.
    assert_eq!(report.interleavings, 70);
    assert_eq!(report.traces_explored, 1);
    ccp_verify::emit_stats("dual_pool/handoff", "dpor", &report, start.elapsed());
}

/// Randomized sweep at a larger scale than the exhaustive harness can
/// afford: 6 jobs per pool, 40 seeded schedules.
#[test]
fn handoff_survives_randomized_submission_orders() {
    let build = || {
        let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
        let rec = Arc::new(RecordingAllocator::new());
        let ex = DualPoolExecutor::new(
            2,
            2,
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            rec.clone(),
        );
        let state = PoolModel::new(ex, rec);
        let mut olap = Actor::new("olap-submitter");
        let mut oltp = Actor::new("oltp-submitter");
        for _ in 0..6 {
            olap = olap.then_accessing(
                |s: &mut PoolModel| {
                    let d = s.done.clone();
                    let batch = s.ex.olap().submit_batch(vec![Job::new(
                        "scan",
                        CacheUsageClass::Polluting,
                        move || {
                            d.fetch_add(1, Ordering::Relaxed);
                        },
                    )]);
                    s.olap_batches.push(batch);
                },
                &[Access::Write("olap-q")],
            );
            oltp = oltp.then_accessing(
                |s: &mut PoolModel| {
                    let d = s.done.clone();
                    let batch =
                        s.ex.oltp()
                            .submit_batch(vec![Job::unannotated("txn", move || {
                                d.fetch_add(1, Ordering::Relaxed);
                            })]);
                    s.oltp_batches.push(batch);
                },
                &[Access::Write("oltp-q")],
            );
        }
        (state, vec![olap, oltp])
    };
    let report = explore(
        Mode::Random {
            seed: 0xcc9,
            schedules: 40,
        },
        build,
        |_| Ok(()),
        |s: &mut PoolModel| {
            s.settle();
            let ran = s.done.load(Ordering::Relaxed);
            if ran != 12 {
                return Err(format!("{ran} of 12 jobs ran"));
            }
            let oltp_switches = s.oltp_switches();
            if oltp_switches > 2 {
                return Err(format!("OLTP re-bound {oltp_switches} times for 2 workers"));
            }
            Ok(())
        },
    )
    .expect("randomized submission orders must all conserve jobs");
    assert_eq!(report.schedules, 40);
}
