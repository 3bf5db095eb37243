//! Model checks for the server's scheduler-gated admission queue
//! ([`ccp_server::AdmissionQueue`]): ticket conservation, co-run
//! exclusivity, queue-full accounting and drain-to-empty, under every
//! interleaving of acquire and release operations.
//!
//! The harness stays single-threaded by using
//! `acquire_tenant(cuid, DEFAULT_TENANT, Some(Duration::ZERO))`: admissibility is
//! checked before the deadline, so a zero deadline is a non-blocking
//! try-acquire — admitted immediately or `TimedOut` with the waiter
//! dequeued, never parked.

use ccp_engine::{CacheAwareScheduler, CacheUsageClass, PartitionPolicy, SchedulerMetrics};
use ccp_obs::Registry;
use ccp_resctrl::DEFAULT_TENANT;
use ccp_server::{AdmissionError, AdmissionQueue, RunPermit, ServerMetrics};
use ccp_verify::{explore, Access, Actor, Mode};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODE: Mode = Mode::Exhaustive {
    max_schedules: 200_000,
};

fn queue(slots: usize, capacity: usize) -> Arc<AdmissionQueue> {
    let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    let registry = Registry::new();
    Arc::new(AdmissionQueue::new(
        CacheAwareScheduler::new(policy, slots),
        capacity,
        SchedulerMetrics::new(),
        ServerMetrics::new(&registry),
    ))
}

struct QueueModel {
    queue: Arc<AdmissionQueue>,
    held: Vec<RunPermit>,
    granted_tickets: Vec<u64>,
    attempts: u64,
    timed_out: u64,
    queue_full: u64,
}

impl QueueModel {
    fn try_acquire(&mut self, cuid: CacheUsageClass) {
        self.attempts += 1;
        match self
            .queue
            .acquire_tenant(cuid, DEFAULT_TENANT, Some(Duration::ZERO))
        {
            Ok(permit) => {
                self.granted_tickets.push(permit.ticket());
                self.held.push(permit);
            }
            Err(AdmissionError::TimedOut) => self.timed_out += 1,
            Err(AdmissionError::QueueFull) => self.queue_full += 1,
            Err(AdmissionError::ShuttingDown | AdmissionError::QuotaExceeded) => {
                unreachable!("queue is never shut down or quota'd in this harness")
            }
        }
    }

    fn sensitive_running(&self) -> usize {
        self.held
            .iter()
            .filter(|p| p.cuid() == CacheUsageClass::Sensitive)
            .count()
    }
}

fn step_invariants(slots: usize) -> impl Fn(&QueueModel) -> Result<(), String> {
    move |s: &QueueModel| {
        let (waiting, running) = s.queue.occupancy();
        if running != s.held.len() {
            return Err(format!(
                "queue reports {running} running but the harness holds {} permits",
                s.held.len()
            ));
        }
        if waiting != 0 {
            return Err(format!(
                "zero-deadline acquires must never leave waiters behind, found {waiting}"
            ));
        }
        if running > slots {
            return Err(format!("{running} running exceeds {slots} slots"));
        }
        if s.sensitive_running() > 1 {
            return Err(format!(
                "{} cache-sensitive queries co-running — the scheduler must never allow two",
                s.sensitive_running()
            ));
        }
        Ok(())
    }
}

fn final_invariants(s: &mut QueueModel) -> Result<(), String> {
    // Ticket conservation: every attempt that enqueued (everything but
    // QueueFull) consumed exactly one ticket; with immediate grants the
    // granted tickets must be unique and strictly increasing.
    let enqueued = s.attempts - s.queue_full;
    if s.granted_tickets.len() as u64 + s.timed_out != enqueued {
        return Err(format!(
            "{} grants + {} timeouts != {enqueued} enqueued attempts",
            s.granted_tickets.len(),
            s.timed_out
        ));
    }
    if s.granted_tickets.windows(2).any(|w| w[1] <= w[0]) {
        return Err(format!(
            "granted tickets not strictly increasing: {:?}",
            s.granted_tickets
        ));
    }
    // Dropping every permit must leave the queue empty and drainable.
    s.held.clear();
    if s.queue.occupancy() != (0, 0) {
        return Err(format!(
            "queue not empty after all permits dropped: {:?}",
            s.queue.occupancy()
        ));
    }
    if !s.queue.drain(Duration::from_secs(1)) {
        return Err("drain timed out on an empty queue".into());
    }
    Ok(())
}

/// Two sensitive queries, one polluter, one mixed-class FK join, two
/// releases — every order (360 interleavings). The scheduler must
/// serialize the sensitive pair, the polluter and the mixed query may
/// co-run with either, and ticket/occupancy accounting must balance.
///
/// Every step is an RMW on the one shared queue (annotated as such):
/// there is no independence to reduce, and the per-step checks read the
/// queue's global occupancy — the omniscient-observer shape that needs
/// [`Mode::Exhaustive`], per DESIGN.md §8.
#[test]
fn tickets_conserved_and_sensitives_serialized_under_all_interleavings() {
    const SLOTS: usize = 2;
    let build = || {
        let state = QueueModel {
            queue: queue(SLOTS, 8),
            held: Vec::new(),
            granted_tickets: Vec::new(),
            attempts: 0,
            timed_out: 0,
            queue_full: 0,
        };
        let classes = [
            CacheUsageClass::Sensitive,
            CacheUsageClass::Sensitive,
            CacheUsageClass::Polluting,
            // The paper's third class: an FK join whose bit vector is
            // big enough to matter but not to classify as sensitive.
            CacheUsageClass::Mixed { hot_bytes: 1 << 20 },
        ];
        let mut actors: Vec<Actor<QueueModel>> = classes
            .iter()
            .enumerate()
            .map(|(i, &cuid)| {
                Actor::new(format!("query-{i}")).then_accessing(
                    move |s: &mut QueueModel| {
                        s.try_acquire(cuid);
                    },
                    &[Access::AcqRel("queue")],
                )
            })
            .collect();
        // Two releases of the oldest held permit, schedulable anywhere —
        // including before anything was granted (then they no-op).
        let mut releaser = Actor::new("releaser");
        for _ in 0..2 {
            releaser = releaser.then_accessing(
                |s: &mut QueueModel| {
                    if !s.held.is_empty() {
                        s.held.remove(0);
                    }
                },
                &[Access::Write("queue")],
            );
        }
        actors.push(releaser);
        (state, actors)
    };
    let start = Instant::now();
    let report = explore(MODE, build, step_invariants(SLOTS), final_invariants)
        .expect("admission invariants must hold on every schedule");
    ccp_verify::emit_stats(
        "admission/four_classes",
        "exhaustive",
        &report,
        start.elapsed(),
    );
    assert!(report.exhausted, "6-step space must be fully covered");
    // 4 single-step queries + 2 releaser steps: 6!/2! = 360.
    assert_eq!(report.schedules, 360);
}

/// With zero waiting capacity every acquire that cannot run immediately
/// fails `QueueFull` *before* consuming a ticket — the conservation
/// equation must still balance.
#[test]
fn zero_capacity_queue_rejects_without_consuming_tickets() {
    const SLOTS: usize = 1;
    let build = || {
        let state = QueueModel {
            queue: queue(SLOTS, 0),
            held: Vec::new(),
            granted_tickets: Vec::new(),
            attempts: 0,
            timed_out: 0,
            queue_full: 0,
        };
        let mut actors: Vec<Actor<QueueModel>> = (0..3)
            .map(|i| {
                Actor::new(format!("query-{i}")).then_accessing(
                    |s: &mut QueueModel| {
                        s.try_acquire(CacheUsageClass::Polluting);
                    },
                    &[Access::AcqRel("queue")],
                )
            })
            .collect();
        actors.push(Actor::new("releaser").then_accessing(
            |s: &mut QueueModel| {
                if !s.held.is_empty() {
                    s.held.remove(0);
                }
            },
            &[Access::Write("queue")],
        ));
        (state, actors)
    };
    let report = explore(MODE, build, step_invariants(SLOTS), |s: &mut QueueModel| {
        if s.queue_full == 0 {
            return Err("capacity-0 queue never reported QueueFull".into());
        }
        final_invariants(s)
    })
    .expect("queue-full accounting must balance");
    assert!(report.exhausted);
}

/// After shutdown every acquire fails fast with `ShuttingDown`, running
/// permits stay valid until dropped, and the queue still drains.
#[test]
fn shutdown_fails_new_arrivals_but_honors_held_permits() {
    let q = queue(2, 8);
    let permit = q
        .acquire_tenant(
            CacheUsageClass::Polluting,
            DEFAULT_TENANT,
            Some(Duration::ZERO),
        )
        .expect("empty queue admits immediately");
    q.shutdown();
    assert!(matches!(
        q.acquire_tenant(
            CacheUsageClass::Polluting,
            DEFAULT_TENANT,
            Some(Duration::ZERO)
        ),
        Err(AdmissionError::ShuttingDown)
    ));
    assert_eq!(q.occupancy(), (0, 1), "held permit survives shutdown");
    drop(permit);
    assert!(q.drain(Duration::from_secs(1)));
}
