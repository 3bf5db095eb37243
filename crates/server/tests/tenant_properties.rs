//! Property tests for the tenant admission layer: quotas are arrival
//! gates that in-flight work can never exceed, and grants go to the first
//! admissible waiter in arrival order whatever the tenants.

use ccp_cachesim::HierarchyConfig;
use ccp_engine::{
    Admission, CacheAwareScheduler, CacheUsageClass, PartitionPolicy, SchedulerMetrics,
};
use ccp_obs::Registry;
use ccp_server::{AdmissionError, AdmissionQueue, RunPermit, ServerMetrics, TenantLimits};
use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Fixed tenant universe — names are irrelevant to the properties, the
/// indices into this table are what the strategies generate.
const TENANTS: [&str; 3] = ["apex", "blue", "coral"];

fn queue_with(limits: TenantLimits) -> Arc<AdmissionQueue> {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    // Slots and capacity far above any generated stream so tenant
    // quotas are the only binding constraint.
    let scheduler = CacheAwareScheduler::new(policy, 128);
    let registry = Registry::new();
    Arc::new(
        AdmissionQueue::new(
            scheduler,
            128,
            SchedulerMetrics::new(),
            ServerMetrics::new(&registry),
        )
        .with_tenant_limits(limits),
    )
}

/// One step of an arrival stream: a tenant arrives wanting a permit, or
/// one of its in-flight permits completes.
#[derive(Clone, Copy, Debug)]
enum Op {
    Arrive(usize),
    Depart(usize),
}

fn op_strategy() -> BoxedStrategy<Op> {
    (0usize..TENANTS.len(), 0u32..2)
        .prop_map(|(t, arrive)| {
            if arrive == 1 {
                Op::Arrive(t)
            } else {
                Op::Depart(t)
            }
        })
        .boxed()
}

/// Per-tenant quota strategy: `0..=4` is a real quota, `5` means the
/// tenant runs unlimited (the vendored proptest has no `option::of`).
fn quota_of(raw: usize) -> Option<usize> {
    (raw < 5).then_some(raw)
}

proptest! {
    /// Grants never exceed quota: for every prefix of an arbitrary
    /// arrival/departure stream, each tenant's in-flight permit count
    /// stays at or under its quota, and an arrival is rejected with
    /// `QuotaExceeded` exactly when the tenant is at quota.
    #[test]
    fn quota_bounds_in_flight_under_arbitrary_streams(
        raw_quotas in proptest::collection::vec(0usize..6, 3..4),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let quotas: Vec<Option<usize>> = raw_quotas.iter().map(|&q| quota_of(q)).collect();
        let mut limits = TenantLimits::new();
        for (i, q) in quotas.iter().enumerate() {
            if let Some(q) = q {
                limits = limits.with_quota(TENANTS[i], *q);
            }
        }
        let queue = queue_with(limits);
        let mut held: Vec<Vec<RunPermit>> = vec![Vec::new(), Vec::new(), Vec::new()];

        for op in ops {
            match op {
                Op::Arrive(t) => {
                    let at_quota = quotas[t].is_some_and(|q| held[t].len() >= q);
                    // Polluting is always co-runnable, so with slots
                    // free the only thing that can say no is the quota.
                    let got = queue.acquire_tenant(
                        CacheUsageClass::Polluting,
                        TENANTS[t],
                        Some(Duration::ZERO),
                    );
                    match got {
                        Ok(permit) => {
                            prop_assert!(
                                !at_quota,
                                "{} admitted at quota {:?} with {} in flight",
                                TENANTS[t], quotas[t], held[t].len()
                            );
                            prop_assert_eq!(permit.tenant(), TENANTS[t]);
                            held[t].push(permit);
                        }
                        Err(AdmissionError::QuotaExceeded) => {
                            prop_assert!(
                                at_quota,
                                "{} rejected below quota {:?} with {} in flight",
                                TENANTS[t], quotas[t], held[t].len()
                            );
                        }
                        Err(e) => prop_assert!(false, "unexpected admission error: {e}"),
                    }
                }
                Op::Depart(t) => {
                    held[t].pop();
                }
            }
            // The queue's own ledger agrees with the model and never
            // shows a tenant above quota.
            for (i, permits) in held.iter().enumerate() {
                let running = queue
                    .running_by_tenant()
                    .into_iter()
                    .find(|(t, _)| t == TENANTS[i])
                    .map_or(0, |(_, n)| n);
                prop_assert_eq!(running, permits.len());
                if let Some(q) = quotas[i] {
                    prop_assert!(running <= q, "{} over quota {}", TENANTS[i], q);
                }
            }
        }
    }

    /// One grant rule whatever the tenant: across arbitrary multi-tenant
    /// arrival and departure streams over two slots and mixed classes,
    /// every grant goes to the first admissible waiter in ticket order.
    /// A model queue applies that rule with the scheduler's own `admit`
    /// after every step, and the real queue must grant exactly the
    /// waiters the model does.
    #[test]
    fn every_grant_goes_to_the_first_admissible_waiter(
        ops in proptest::collection::vec(order_op_strategy(), 1..40),
    ) {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        let scheduler = CacheAwareScheduler::new(policy, 2);
        let queue = Arc::new(AdmissionQueue::new(
            scheduler,
            128,
            SchedulerMetrics::new(),
            ServerMetrics::new(&Registry::new()),
        ));
        // Wakes every still-blocked waiter thread, also when an assert
        // below fails.
        let shutdown = ShutdownOnDrop(Arc::clone(&queue));
        let (tx, rx) = mpsc::channel::<(usize, RunPermit)>();
        // The model: arrivals not yet granted, in ticket order, and the
        // granted ones with their permits.
        let mut waiting: Vec<(usize, CacheUsageClass)> = Vec::new();
        let mut running: Vec<(usize, CacheUsageClass, RunPermit)> = Vec::new();
        let mut arrivals = 0usize;
        let mut threads = Vec::new();

        for op in ops {
            match op {
                OrderOp::Arrive(t, c) => {
                    let (id, cuid) = (arrivals, CLASSES[c]);
                    arrivals += 1;
                    let (queue2, tx) = (Arc::clone(&queue), tx.clone());
                    threads.push(std::thread::spawn(move || {
                        if let Ok(permit) = queue2.acquire_tenant(cuid, TENANTS[t], None) {
                            let _ = tx.send((id, permit));
                        }
                    }));
                    waiting.push((id, cuid));
                    // Queued or granted, the arrival holds its ticket
                    // before the next one is made.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    loop {
                        let (w, r) = queue.occupancy();
                        if w + r == waiting.len() + running.len() {
                            break;
                        }
                        prop_assert!(Instant::now() < deadline, "arrival {} never showed", id);
                        std::thread::yield_now();
                    }
                }
                OrderOp::Depart(k) => {
                    if !running.is_empty() {
                        let at = k % running.len();
                        running.remove(at);
                    }
                }
            }
            // Grant as the rule says, one waiter at a time, and take each
            // grant from the real queue in the same order.
            loop {
                let cuids: Vec<CacheUsageClass> = running.iter().map(|r| r.1).collect();
                let Some(i) = waiting
                    .iter()
                    .position(|&(_, c)| scheduler.admit(&cuids, c) == Admission::RunNow)
                else {
                    break;
                };
                let (want, cuid) = waiting.remove(i);
                let (got, permit) = rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|e| panic!("no grant for arrival {want}: {e}"));
                prop_assert_eq!(got, want, "granted out of order");
                running.push((got, cuid, permit));
            }
            // Nothing else was granted.
            prop_assert_eq!(queue.occupancy(), (waiting.len(), running.len()));
            prop_assert!(rx.try_recv().is_err(), "a grant the model did not make");
        }
        drop(shutdown);
        for t in threads {
            t.join().expect("waiter thread");
        }
    }
}

/// Shuts the queue down when dropped.
struct ShutdownOnDrop(Arc<AdmissionQueue>);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Classes the order property mixes: a polluter may overtake a deferred
/// sensitive waiter, so grant order is not plain arrival order.
const CLASSES: [CacheUsageClass; 2] = [CacheUsageClass::Polluting, CacheUsageClass::Sensitive];

/// One step of the order property's stream: tenant `t` arrives with a
/// query of class `CLASSES[c]`, or the `k`-th held permit (mod the
/// number held) completes.
#[derive(Clone, Copy, Debug)]
enum OrderOp {
    Arrive(usize, usize),
    Depart(usize),
}

fn order_op_strategy() -> BoxedStrategy<OrderOp> {
    (
        0usize..TENANTS.len(),
        0usize..CLASSES.len(),
        0usize..8,
        0u32..2,
    )
        .prop_map(|(t, c, k, arrive)| {
            if arrive == 1 {
                OrderOp::Arrive(t, c)
            } else {
                OrderOp::Depart(k)
            }
        })
        .boxed()
}
