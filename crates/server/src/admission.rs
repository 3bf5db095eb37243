//! Bounded, scheduler-gated query admission.
//!
//! Every `/query` request takes a [`RunPermit`] from an [`AdmissionQueue`]
//! before it touches the executor. The engine's [`CacheAwareScheduler`]
//! decides who may co-run: at most `slots` queries at once, never two
//! cache-sensitive ones together. Waiters are served FIFO *with bypass*:
//! a grant goes to the first admissible waiter in arrival order, so a
//! polluter may overtake a deferred sensitive query — the packing rule
//! [`plan_waves`](ccp_engine::CacheAwareScheduler::plan_waves) applies
//! offline. At most `capacity` queries may wait; past that an arrival
//! fails at once with [`AdmissionError::QueueFull`] (HTTP `429`), as does
//! a tenant at its in-flight quota (`QuotaExceeded`): tenants meet
//! admission only there, as booked handles compared by pointer, and once
//! queued a waiter's tenant plays no part in grant order. A waiter past
//! its deadline is dequeued with [`AdmissionError::TimedOut`] (HTTP `503`
//! + `Retry-After`).
//!
//! **Granting is a hand-off.** One grant pass (`grant_ready`) decides
//! every grant to a queued waiter: it walks the queue once in arrival
//! order and grants each waiter the scheduler admits beside what runs.
//! `admit` is monotone (a longer running set never turns a deferral into
//! an admission), so the pass equals "grant the first admissible waiter,
//! repeat", and after it no queued waiter is admissible. Only a release
//! can change that, so only a release runs the pass; it wakes exactly the
//! waiters it granted, each on a condvar of its own, and the slot is
//! theirs before the releaser returns. A timeout or shutdown removes a
//! waiter that was not admissible: no grant, no other wake-up. By the
//! same invariant an arrival is the first admissible waiter exactly when
//! the scheduler admits it now, and then it never queues. A woken waiter
//! looks only for its own grant; a grant wins any race with its deadline
//! or shutdown, so no slot is lost.
//!
//! [`RunPermit::schedule_us`] is the scheduler's time deciding for the
//! query: its arrival check, timed on its own thread, plus its share of
//! every grant pass that walked it (one clock pair per pass, split evenly
//! over the waiters walked). [`RunPermit::queue_us`] is the rest of the
//! wait. Every admission is traced ([`ccp_trace`]) on the query's own
//! thread: an `admission_wait` span covers enqueue→grant, with `enqueue` /
//! `dequeue` / `bypass` (it overtook a waiter) / `timeout` instants tagged
//! with the admission ticket, the id its operator spans carry downstream.

use crate::metrics::ServerMetrics;
use crate::tenant::Tenant;
use ccp_engine::{Admission, CacheAwareScheduler, CacheUsageClass, SchedulerMetrics};
use ccp_resctrl::PerClass;
use ccp_resctrl::DEFAULT_TENANT;
use ccp_trace::TraceCat;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Failpoint name (see `ccp-fault`): when armed, admission rejects the
/// arrival with [`AdmissionError::QueueFull`] before touching the queue.
pub(crate) const FAULT_ADMISSION: &str = "server.admission";

/// Why a query was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded waiting queue is full — retry later (HTTP 429).
    QueueFull,
    /// The query's tenant is at its in-flight quota — retry later
    /// (HTTP 429, counted per tenant).
    QuotaExceeded,
    /// The server is draining — no new work (HTTP 503).
    ShuttingDown,
    /// The query waited past its deadline and was dequeued — retry
    /// later (HTTP 503 with `Retry-After`).
    TimedOut,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull => write!(f, "admission queue full"),
            AdmissionError::QuotaExceeded => write!(f, "tenant admission quota exhausted"),
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
            AdmissionError::TimedOut => write!(f, "timed out waiting for an admission slot"),
        }
    }
}

/// One waiting query: `wake` is signalled for it alone (its grant or
/// shutdown), and `sched_ns` is the scheduler time spent on it so far.
struct Waiter {
    ticket: u64,
    cuid: CacheUsageClass,
    tenant: Arc<Tenant>,
    wake: Arc<Condvar>,
    sched_ns: u64,
}

struct State {
    /// CUIDs of queries currently holding a permit.
    running: Vec<CacheUsageClass>,
    /// Tenants of the running queries (parallel to `running`, so the
    /// scheduler's `&[CacheUsageClass]` view stays a plain slice).
    running_tenants: Vec<Arc<Tenant>>,
    /// Waiting queries in arrival order. No waiter in it is admissible
    /// beside `running` (see the module doc).
    waiting: Vec<Waiter>,
    /// `(ticket, sched_ns, bypassed)` of grants (counted in `running`) not
    /// yet collected by their waiters; `bypassed` if the grantee overtook one.
    granted: Vec<(u64, u64, bool)>,
    next_ticket: u64,
    shutdown: bool,
}

/// Bounded admission queue in front of the dual-pool executor.
pub struct AdmissionQueue {
    scheduler: CacheAwareScheduler,
    sched_metrics: SchedulerMetrics,
    server_metrics: ServerMetrics,
    capacity: usize,
    state: Mutex<State>,
    /// Signalled when nothing runs or waits any more ([`drain`](Self::drain)).
    drained: Condvar,
}

impl AdmissionQueue {
    /// Creates a queue holding at most `capacity` waiting queries.
    ///
    /// Admission decisions are recorded in `sched_metrics` (register it
    /// into the scrape registry to see them); occupancy and rejections go
    /// to `server_metrics`.
    pub fn new(
        scheduler: CacheAwareScheduler,
        capacity: usize,
        sched_metrics: SchedulerMetrics,
        server_metrics: ServerMetrics,
    ) -> Self {
        AdmissionQueue {
            scheduler,
            sched_metrics,
            server_metrics,
            capacity,
            state: Mutex::new(State {
                running: Vec::new(),
                running_tenants: Vec::new(),
                waiting: Vec::new(),
                granted: Vec::new(),
                next_ticket: 0,
                shutdown: false,
            }),
            drained: Condvar::new(),
        }
    }

    /// Caps each named tenant at `quota` queries in flight (waiting +
    /// running); the arrival past it gets an immediate `429`. The last
    /// setting for a name wins, and a named tenant keeps its own label set
    /// however many others show up. Call before the queue is shared.
    pub fn with_tenant_quotas<'a>(
        self,
        quotas: impl IntoIterator<Item = (&'a str, usize)>,
    ) -> Self {
        self.server_metrics.tenants().configure(quotas);
        self
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the occupancy; wakes [`drain`](Self::drain) once nothing runs or waits.
    fn publish(&self, st: &State) {
        self.server_metrics
            .set_admission_occupancy(st.waiting.len(), st.running.len());
        if st.running.is_empty() && st.waiting.is_empty() {
            self.drained.notify_all();
        }
    }

    /// Blocks until `cuid` may run, then returns a permit; the permit
    /// releases its slot on drop.
    ///
    /// Fails fast (without blocking) when the waiting queue is at
    /// capacity or the queue has been shut down.
    pub fn acquire(self: &Arc<Self>, cuid: CacheUsageClass) -> Result<RunPermit, AdmissionError> {
        self.acquire_tenant(cuid, DEFAULT_TENANT, None)
    }

    /// Like [`acquire`](Self::acquire), but on behalf of `tenant` and
    /// with a `deadline`: the arrival is refused with
    /// [`AdmissionError::QuotaExceeded`] when the tenant is at its
    /// in-flight quota, and gives up with [`AdmissionError::TimedOut`]
    /// (dequeuing the waiter) when no permit was granted within
    /// `deadline`. `None` waits indefinitely.
    ///
    /// `tenant` is booked, not validated, in the server's tenant table: past
    /// the cap on distinct unconfigured names the rest queue and run as the
    /// one tenant `other`, while configured tenants and the default tenant
    /// keep their own name and quota.
    pub fn acquire_tenant(
        self: &Arc<Self>,
        cuid: CacheUsageClass,
        tenant: &str,
        deadline: Option<Duration>,
    ) -> Result<RunPermit, AdmissionError> {
        let tenant = self.server_metrics.tenants().book(tenant);
        self.acquire_as(cuid, tenant, deadline)
    }

    /// [`acquire_tenant`](Self::acquire_tenant) for a booked tenant.
    pub(crate) fn acquire_as(
        self: &Arc<Self>,
        cuid: CacheUsageClass,
        tenant: Arc<Tenant>,
        deadline: Option<Duration>,
    ) -> Result<RunPermit, AdmissionError> {
        if ccp_fault::should_fail(FAULT_ADMISSION) {
            self.server_metrics.record_admission_rejection();
            return Err(AdmissionError::QueueFull);
        }
        let enqueued = Instant::now();
        let mut st = self.lock();
        if st.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        if st.waiting.len() >= self.capacity {
            self.server_metrics.record_admission_rejection();
            return Err(AdmissionError::QueueFull);
        }
        // The tenant quota bounds *in-flight* queries (waiting + running)
        // — this arrival has not enqueued yet, so a quota of N admits at
        // most N simultaneous queries of the tenant.
        if let Some(quota) = tenant.quota {
            let mine = |t: &Arc<Tenant>| Arc::ptr_eq(t, &tenant);
            let in_flight = st.waiting.iter().filter(|w| mine(&w.tenant)).count()
                + st.running_tenants.iter().filter(|t| mine(t)).count();
            if in_flight >= quota {
                self.server_metrics.record_tenant_rejection(&tenant);
                return Err(AdmissionError::QuotaExceeded);
            }
        }
        // No queued waiter is admissible, so the arrival is the first
        // admissible one exactly when the scheduler admits it now.
        let decide_started = Instant::now();
        let decision = self
            .scheduler
            .admit_observed(&st.running, cuid, &self.sched_metrics);
        let sched_ns = decide_started.elapsed().as_nanos() as u64;
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let wait_span = ccp_trace::span_id(TraceCat::Admission, "admission_wait", ticket);
        ccp_trace::instant_id(TraceCat::Admission, "enqueue", ticket);
        let (_, sched_ns, bypassed) = if decision == Admission::RunNow {
            st.running.push(cuid);
            st.running_tenants.push(Arc::clone(&tenant));
            self.publish(&st);
            (ticket, sched_ns, !st.waiting.is_empty())
        } else {
            let wake = Arc::new(Condvar::new());
            st.waiting.push(Waiter {
                ticket,
                cuid,
                tenant: Arc::clone(&tenant),
                wake: Arc::clone(&wake),
                sched_ns,
            });
            self.publish(&st);
            // Parked until granted, timed out or shut down; a grant wins.
            loop {
                if let Some(i) = st.granted.iter().position(|g| g.0 == ticket) {
                    break st.granted.swap_remove(i);
                }
                let remaining = deadline.map(|d| d.saturating_sub(enqueued.elapsed()));
                if st.shutdown || remaining.is_some_and(|left| left.is_zero()) {
                    // Not admissible, so leaving changes no one's admissibility.
                    st.waiting.retain(|w| w.ticket != ticket);
                    self.publish(&st);
                    if st.shutdown {
                        return Err(AdmissionError::ShuttingDown);
                    }
                    self.server_metrics.record_admission_timeout();
                    ccp_trace::instant_id(TraceCat::Admission, "timeout", ticket);
                    return Err(AdmissionError::TimedOut);
                }
                let left = remaining.unwrap_or(Duration::MAX);
                st = wake
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        if bypassed {
            ccp_trace::instant_id(TraceCat::Admission, "bypass", ticket);
        }
        ccp_trace::instant_id(TraceCat::Admission, "dequeue", ticket);
        drop(wait_span);
        let schedule_us = sched_ns / 1_000;
        let queue_us = (enqueued.elapsed().as_micros() as u64).saturating_sub(schedule_us);
        Ok(RunPermit {
            queue: Arc::clone(self),
            cuid,
            tenant,
            ticket,
            queue_us,
            schedule_us,
        })
    }

    /// The one grant decision: walks `waiting` once in arrival order and
    /// grants every waiter the scheduler admits beside what runs (plus
    /// what this pass granted), waking each grantee alone. The pass's
    /// scheduler time is split evenly over the waiters it walked.
    fn grant_ready(&self, st: &mut State) {
        let walked = st.waiting.len() as u64;
        if walked == 0 || st.shutdown {
            return;
        }
        let started = Instant::now();
        let first_grant = st.granted.len();
        let mut i = 0;
        while i < st.waiting.len() {
            if self.scheduler.admit(&st.running, st.waiting[i].cuid) != Admission::RunNow {
                i += 1;
                continue;
            }
            let w = st.waiting.remove(i);
            st.running.push(w.cuid);
            st.running_tenants.push(w.tenant);
            st.granted.push((w.ticket, w.sched_ns, i > 0));
            w.wake.notify_one();
        }
        let share = started.elapsed().as_nanos() as u64 / walked;
        st.granted[first_grant..]
            .iter_mut()
            .map(|(_, ns, _)| ns)
            .chain(st.waiting.iter_mut().map(|w| &mut w.sched_ns))
            .for_each(|ns| *ns += share);
    }

    fn release(&self, cuid: CacheUsageClass, tenant: &Arc<Tenant>) {
        let mut st = self.lock();
        if let Some(i) = st
            .running
            .iter()
            .zip(st.running_tenants.iter())
            .position(|(&c, t)| c == cuid && Arc::ptr_eq(t, tenant))
        {
            st.running.remove(i);
            st.running_tenants.remove(i);
        }
        self.grant_ready(&mut st);
        self.publish(&st);
    }

    /// Marks the queue as draining: waiters wake with
    /// [`AdmissionError::ShuttingDown`], new arrivals fail fast. Already
    /// running queries keep their permits.
    pub fn shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        for w in &st.waiting {
            w.wake.notify_one();
        }
        self.publish(&st);
    }

    /// Waits until nothing runs or waits any more, up to `timeout`.
    /// Returns `true` when the queue drained completely.
    pub fn drain(&self, timeout: Duration) -> bool {
        let busy = |st: &mut State| !st.running.is_empty() || !st.waiting.is_empty();
        let (mut st, _) = self
            .drained
            .wait_timeout_while(self.lock(), timeout, busy)
            .unwrap_or_else(PoisonError::into_inner);
        !busy(&mut st)
    }

    /// Current `(waiting, running)` occupancy.
    pub fn occupancy(&self) -> (usize, usize) {
        let st = self.lock();
        (st.waiting.len(), st.running.len())
    }

    /// Count of currently *running* queries per class. This is the load
    /// signal the occupancy sampler's simulated probe feeds on when no
    /// CMT hardware is present.
    pub(crate) fn running_by_class(&self) -> PerClass<usize> {
        let mut counts = PerClass::default();
        for class in self.lock().running.iter().map(|c| c.class()) {
            counts.set(class, counts.get(class) + 1);
        }
        counts
    }

    /// Count of currently *running* queries per tenant, in first-seen order.
    pub fn running_by_tenant(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(&Arc<Tenant>, usize)> = Vec::new();
        let st = self.lock();
        for tenant in &st.running_tenants {
            match counts.iter_mut().find(|(t, _)| Arc::ptr_eq(t, tenant)) {
                Some((_, n)) => *n += 1,
                None => counts.push((tenant, 1)),
            }
        }
        counts
            .into_iter()
            .map(|(t, n)| (t.name.to_string(), n))
            .collect()
    }
}

/// Permission for one query to run; releases its concurrency slot on drop
/// (also when the query panics).
pub struct RunPermit {
    queue: Arc<AdmissionQueue>,
    cuid: CacheUsageClass,
    tenant: Arc<Tenant>,
    ticket: u64,
    queue_us: u64,
    schedule_us: u64,
}

impl std::fmt::Debug for RunPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPermit")
            .field("cuid", &self.cuid)
            .field("tenant", &self.tenant.name)
            .field("ticket", &self.ticket)
            .finish()
    }
}

impl RunPermit {
    /// The CUID this permit was granted for.
    pub fn cuid(&self) -> CacheUsageClass {
        self.cuid
    }

    /// The tenant this permit was granted to.
    pub fn tenant(&self) -> &str {
        &self.tenant.name
    }

    /// The admission ticket — unique per queue, used as the query id on
    /// trace spans so queue, scheduler and operator events correlate.
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// Microseconds spent waiting in the admission queue (wall time from
    /// enqueue to grant, minus scheduler decision time).
    pub fn queue_us(&self) -> u64 {
        self.queue_us
    }

    /// Microseconds the scheduler spent deciding for this query: its
    /// arrival check plus its share of every grant pass that considered it.
    pub fn schedule_us(&self) -> u64 {
        self.schedule_us
    }
}

impl Drop for RunPermit {
    fn drop(&mut self) {
        self.queue.release(self.cuid, &self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;
    use ccp_engine::PartitionPolicy;
    use ccp_obs::Registry;
    use std::sync::mpsc;
    use std::thread;

    fn queue(slots: usize, capacity: usize) -> Arc<AdmissionQueue> {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        let scheduler = CacheAwareScheduler::new(policy, slots);
        let registry = Registry::new();
        Arc::new(AdmissionQueue::new(
            scheduler,
            capacity,
            SchedulerMetrics::new(),
            ServerMetrics::new(&registry),
        ))
    }

    #[test]
    fn grants_up_to_slots_then_defers() {
        let q = queue(2, 8);
        let a = q.acquire(CacheUsageClass::Polluting).unwrap();
        let b = q.acquire(CacheUsageClass::Polluting).unwrap();
        assert_eq!(q.occupancy(), (0, 2));
        // Third must wait until a permit drops.
        let q2 = Arc::clone(&q);
        let (tx, rx) = mpsc::channel();
        let t = thread::spawn(move || {
            let p = q2.acquire(CacheUsageClass::Polluting).unwrap();
            tx.send(()).unwrap();
            drop(p);
        });
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(a);
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        t.join().unwrap();
        drop(b);
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn never_two_sensitive_queries_at_once() {
        let q = queue(4, 8);
        let s1 = q.acquire(CacheUsageClass::Sensitive).unwrap();
        // A polluter bypasses the deferred second sensitive query.
        let q2 = Arc::clone(&q);
        let sensitive = thread::spawn(move || {
            let p = q2.acquire(CacheUsageClass::Sensitive).unwrap();
            drop(p);
        });
        // Give the sensitive waiter time to enqueue ahead of us.
        while q.occupancy().0 < 1 {
            thread::yield_now();
        }
        let p = q.acquire(CacheUsageClass::Polluting).unwrap();
        assert_eq!(
            q.occupancy(),
            (1, 2),
            "polluter bypassed the sensitive waiter"
        );
        drop(p);
        drop(s1);
        sensitive.join().unwrap();
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn overflow_is_rejected_not_blocked() {
        let q = queue(1, 1);
        let held = q.acquire(CacheUsageClass::Sensitive).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || q2.acquire(CacheUsageClass::Sensitive).map(drop));
        while q.occupancy().0 < 1 {
            thread::yield_now();
        }
        // Queue (capacity 1) is now full: immediate rejection.
        let err = q.acquire(CacheUsageClass::Polluting).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull);
        drop(held);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_wakes_waiters_and_rejects_new_arrivals() {
        let q = queue(1, 4);
        let held = q.acquire(CacheUsageClass::Polluting).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || q2.acquire(CacheUsageClass::Polluting));
        while q.occupancy().0 < 1 {
            thread::yield_now();
        }
        q.shutdown();
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            AdmissionError::ShuttingDown
        );
        assert_eq!(
            q.acquire(CacheUsageClass::Polluting).unwrap_err(),
            AdmissionError::ShuttingDown
        );
        drop(held);
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn deadline_expiry_dequeues_and_reports_timeout() {
        let q = queue(1, 4);
        let held = q.acquire(CacheUsageClass::Polluting).unwrap();
        let err = q
            .acquire_tenant(
                CacheUsageClass::Polluting,
                DEFAULT_TENANT,
                Some(Duration::from_millis(30)),
            )
            .unwrap_err();
        assert_eq!(err, AdmissionError::TimedOut);
        // The expired waiter left the queue: nothing waits any more.
        assert_eq!(q.occupancy(), (0, 1));
        drop(held);
        // Zero deadline with a free slot still admits immediately (the
        // admissibility check runs before the deadline check).
        let p = q
            .acquire_tenant(
                CacheUsageClass::Polluting,
                DEFAULT_TENANT,
                Some(Duration::ZERO),
            )
            .unwrap();
        assert!(p.ticket() > 0);
        drop(p);
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn tenant_quota_caps_in_flight_not_just_waiting() {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        let registry = Registry::new();
        let q = Arc::new(
            AdmissionQueue::new(
                CacheAwareScheduler::new(policy, 4),
                8,
                SchedulerMetrics::new(),
                ServerMetrics::new(&registry),
            )
            .with_tenant_quotas([("acme", 1)]),
        );
        // One running query of the tenant consumes the whole quota.
        let held = q
            .acquire_tenant(CacheUsageClass::Polluting, "acme", None)
            .unwrap();
        assert_eq!(held.tenant(), "acme");
        let err = q
            .acquire_tenant(CacheUsageClass::Polluting, "acme", None)
            .unwrap_err();
        assert_eq!(err, AdmissionError::QuotaExceeded);
        assert!(registry
            .render_prometheus()
            .contains("ccp_server_tenant_rejections_total{tenant=\"acme\"} 1"));
        // Other tenants (and the default tenant) are untouched.
        let other = q
            .acquire_tenant(CacheUsageClass::Polluting, "globex", None)
            .unwrap();
        let dflt = q.acquire(CacheUsageClass::Polluting).unwrap();
        drop(dflt);
        drop(other);
        drop(held);
        // Quota freed with the permit.
        let again = q
            .acquire_tenant(CacheUsageClass::Polluting, "acme", None)
            .unwrap();
        drop(again);
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn tenant_quota_zero_rejects_every_arrival() {
        let q = queue(2, 8);
        // Rebuild with limits (queue() has none): simplest to make one.
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        let registry = Registry::new();
        let limited = Arc::new(
            AdmissionQueue::new(
                CacheAwareScheduler::new(policy, 2),
                8,
                SchedulerMetrics::new(),
                ServerMetrics::new(&registry),
            )
            .with_tenant_quotas([("banned", 0)]),
        );
        assert_eq!(
            limited
                .acquire_tenant(CacheUsageClass::Mixed { hot_bytes: 1_000 }, "banned", None)
                .unwrap_err(),
            AdmissionError::QuotaExceeded
        );
        drop(q);
    }

    #[test]
    fn running_queries_are_counted_by_tenant() {
        let q = queue(2, 8);
        let a = q
            .acquire_tenant(CacheUsageClass::Polluting, "alpha", None)
            .unwrap();
        let b = q
            .acquire_tenant(CacheUsageClass::Mixed { hot_bytes: 1_000 }, "beta", None)
            .unwrap();
        // Both slots are taken: the next alpha arrival waits.
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || {
            q2.acquire_tenant(CacheUsageClass::Polluting, "alpha", None)
                .map(drop)
        });
        while q.occupancy().0 < 1 {
            thread::yield_now();
        }
        let mut running = q.running_by_tenant();
        running.sort();
        assert_eq!(
            running,
            vec![("alpha".to_string(), 1), ("beta".to_string(), 1)]
        );
        drop((a, b));
        waiter.join().unwrap().unwrap();
        assert!(q.drain(Duration::from_secs(1)));
        assert!(q.running_by_tenant().is_empty());
    }

    #[test]
    fn cycling_tenant_ids_share_one_name_past_the_cap_and_keep_configured_quotas() {
        let q = Arc::new(
            Arc::into_inner(queue(4, 8))
                .expect("sole owner")
                .with_tenant_quotas([("acme", 1)]),
        );
        for i in 0..200 {
            let id = format!("t{i}");
            let permit = q
                .acquire_tenant(CacheUsageClass::Polluting, &id, None)
                .unwrap();
            assert_eq!(permit.tenant(), if i < 64 { id.as_str() } else { "other" });
        }
        // Two ids past the cap run side by side as one tenant.
        let x = q
            .acquire_tenant(CacheUsageClass::Polluting, "t200", None)
            .unwrap();
        let y = q
            .acquire_tenant(CacheUsageClass::Polluting, "t201", None)
            .unwrap();
        assert_eq!(q.running_by_tenant(), vec![("other".to_string(), 2)]);
        drop((x, y));
        // However many ids went by, the default and the configured tenant
        // keep their own names, and acme's quota of 1 still bites.
        assert_eq!(
            q.acquire(CacheUsageClass::Polluting).unwrap().tenant(),
            "default"
        );
        let held = q
            .acquire_tenant(CacheUsageClass::Polluting, "acme", None)
            .unwrap();
        assert_eq!(held.tenant(), "acme");
        assert_eq!(
            q.acquire_tenant(CacheUsageClass::Polluting, "acme", None)
                .unwrap_err(),
            AdmissionError::QuotaExceeded
        );
        drop(held);
        assert!(q.running_by_tenant().is_empty());
    }

    #[test]
    fn a_tenant_with_earlier_grants_is_not_starved_by_a_newcomer() {
        let q = queue(1, 8);
        for _ in 0..1_000 {
            drop(
                q.acquire_tenant(CacheUsageClass::Polluting, "alpha", None)
                    .unwrap(),
            );
        }
        let held = q.acquire(CacheUsageClass::Polluting).unwrap();
        // alpha queues first, then three beta waiters; each arrival is
        // seen waiting before the next one starts, so tickets follow the
        // order below. With one slot, a waiter reports its grant while it
        // still holds the slot, so the channel sees grants in order.
        let (tx, rx) = mpsc::channel();
        let mut waiters = Vec::new();
        for (n, tenant) in ["alpha", "beta", "beta", "beta"].into_iter().enumerate() {
            let q2 = Arc::clone(&q);
            let tx = tx.clone();
            waiters.push(thread::spawn(move || {
                let permit = q2
                    .acquire_tenant(CacheUsageClass::Polluting, tenant, None)
                    .unwrap();
                tx.send(tenant).unwrap();
                drop(permit);
            }));
            while q.occupancy().0 < n + 1 {
                thread::yield_now();
            }
        }
        drop(held);
        let order: Vec<&str> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(order, ["alpha", "beta", "beta", "beta"]);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn a_release_grants_before_it_returns() {
        let q = queue(4, 16);
        let held = q.acquire(CacheUsageClass::Sensitive).unwrap();
        // Each grantee hands its permit to this thread, so only the
        // release under test can have changed the occupancy.
        let (tx, rx) = mpsc::channel();
        let waiters: Vec<_> = (0..8)
            .map(|_| {
                let (q2, tx) = (Arc::clone(&q), tx.clone());
                thread::spawn(move || tx.send(q2.acquire(CacheUsageClass::Sensitive).unwrap()))
            })
            .collect();
        while q.occupancy().0 < 8 {
            thread::yield_now();
        }
        drop(held);
        // The releaser granted the head sensitive waiter itself; the other
        // seven stay deferred beside it.
        assert_eq!(q.occupancy(), (7, 1));
        for _ in 0..8 {
            drop(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        for w in waiters {
            w.join().unwrap().unwrap();
        }
        assert!(q.drain(Duration::from_secs(1)));
    }

    #[test]
    fn a_timeout_racing_a_grant_loses_no_slot() {
        let q = queue(2, 4);
        for round in 0..200u64 {
            let held = q.acquire(CacheUsageClass::Sensitive).unwrap();
            let q2 = Arc::clone(&q);
            let waiter = thread::spawn(move || {
                q2.acquire_tenant(
                    CacheUsageClass::Sensitive,
                    DEFAULT_TENANT,
                    Some(Duration::from_micros(500)),
                )
                .map(drop)
            });
            // Release around the waiter's deadline: before, at or after it.
            thread::sleep(Duration::from_micros(300 + 40 * (round % 10)));
            drop(held);
            match waiter.join().unwrap() {
                Ok(()) | Err(AdmissionError::TimedOut) => {}
                Err(e) => panic!("round {round}: {e}"),
            }
            assert!(q.drain(Duration::from_secs(1)), "round {round}");
            assert_eq!(q.occupancy(), (0, 0), "round {round}");
            let p = q
                .acquire_tenant(
                    CacheUsageClass::Sensitive,
                    DEFAULT_TENANT,
                    Some(Duration::ZERO),
                )
                .unwrap_or_else(|e| panic!("round {round}: slot lost ({e})"));
            drop(p);
        }
    }

    #[test]
    fn permit_drop_releases_even_on_panic() {
        let q = queue(1, 4);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || {
            let _p = q2.acquire(CacheUsageClass::Polluting).unwrap();
            panic!("query blew up");
        });
        assert!(t.join().is_err());
        assert_eq!(q.occupancy(), (0, 0), "slot came back despite the panic");
    }
}
