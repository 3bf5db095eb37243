//! Bounded, scheduler-gated query admission.
//!
//! Every `/query` request must take a [`RunPermit`] before it touches the
//! executor. Permits come from an [`AdmissionQueue`] that enforces two
//! independent limits:
//!
//! 1. **Concurrency shape** — the engine's
//!    [`CacheAwareScheduler`] decides who
//!    may co-run: at most `slots` queries at once, never two
//!    cache-sensitive ones together (they would fight over the LLC share
//!    partitioning reserves for them). Waiters are served FIFO *with
//!    bypass*: when the head of the queue is a deferred sensitive query, a
//!    polluter behind it may start — the same packing rule
//!    [`plan_waves`](ccp_engine::CacheAwareScheduler::plan_waves) applies
//!    to offline queues.
//! 2. **Queue depth** — at most `capacity` queries may *wait*. Beyond
//!    that, [`acquire`](AdmissionQueue::acquire) fails immediately with
//!    [`AdmissionError::QueueFull`], which the HTTP layer maps to `429`.
//!    Backpressure is explicit and observable instead of an unbounded
//!    thread pile-up.
//!
//! Waiters may additionally carry a **deadline**
//! ([`acquire_with_deadline`](AdmissionQueue::acquire_with_deadline)):
//! a query that waits past it is dequeued and fails with
//! [`AdmissionError::TimedOut`] (HTTP `503` + `Retry-After`), so a
//! saturated server sheds load instead of accumulating doomed work.
//!
//! Every admission is traced ([`ccp_trace`]): an `admission_wait` span
//! covers enqueue→grant, with `enqueue` / `dequeue` / `bypass` /
//! `timeout` instants, all tagged with the admission ticket — the same
//! id the query's operator spans carry downstream.

use crate::metrics::ServerMetrics;
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

/// One waiting query.
struct Waiter {
    ticket: u64,
    cuid: CacheUsageClass,
    tenant: Arc<str>,
}

struct State {
    /// CUIDs of queries currently holding a permit.
    running: Vec<CacheUsageClass>,
    /// Tenants of the running queries (parallel to `running`, so the
    /// scheduler's `&[CacheUsageClass]` view stays a plain slice).
    running_tenants: Vec<Arc<str>>,
    /// Waiting queries in arrival order.
    waiting: Vec<Waiter>,
    /// Weighted-fair grant accounting across tenants.
    fair: FairShare,
    next_ticket: u64,
    shutdown: bool,
}

/// Per-tenant admission limits, layered on top of the global capacity:
/// a `quota` bounds how many of a tenant's
/// queries may be in flight (waiting + running) at once — the arrival
/// that would exceed it gets an immediate per-tenant `429` — and a
/// `weight` biases grant order when several tenants' waiters are
/// admissible at the same moment. Unlisted tenants have no quota and
/// weight 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantLimits {
    quotas: Vec<(String, usize)>,
    weights: Vec<(String, u32)>,
}

impl TenantLimits {
    /// No quotas, every tenant at weight 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps `tenant` at `quota` simultaneous in-flight queries
    /// (builder style; last setting wins).
    #[must_use]
    pub fn with_quota(mut self, tenant: &str, quota: usize) -> Self {
        self.quotas.retain(|(t, _)| t != tenant);
        self.quotas.push((tenant.to_string(), quota));
        self
    }

    /// Gives `tenant` grant weight `weight` (minimum 1; builder style).
    #[must_use]
    pub(crate) fn with_weight(mut self, tenant: &str, weight: u32) -> Self {
        self.weights.retain(|(t, _)| t != tenant);
        self.weights.push((tenant.to_string(), weight.max(1)));
        self
    }

    /// The in-flight quota for `tenant`, if one is configured.
    pub(crate) fn quota_for(&self, tenant: &str) -> Option<usize> {
        self.quotas
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|&(_, q)| q)
    }

    /// The grant weight for `tenant` (1 when unconfigured).
    pub(crate) fn weight_for(&self, tenant: &str) -> u32 {
        self.weights
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(1, |&(_, w)| w)
    }

    /// Every tenant named by a quota or weight, in configuration order.
    pub(crate) fn tenants(&self) -> Vec<&str> {
        let quotas = self.quotas.iter().map(|(t, _)| t.as_str());
        unique(quotas.chain(self.weights.iter().map(|(t, _)| t.as_str())))
    }
}

/// `names` without repeats, in first-seen order.
pub(crate) fn unique<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for name in names {
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// Weighted-fair grant selection across tenants — the pure core of the
/// queue's grant order, kept free of locks and clocks so property tests
/// can drive it with arbitrary arrival streams.
///
/// The rule is classic weighted round-robin: among the *head-of-line*
/// admissible waiter of each tenant, grant to the tenant with the
/// smallest normalized grant count `(grants + 1) / weight`; ties go to
/// the earlier ticket. With every weight at 1 and a single tenant this
/// degenerates to plain FIFO-with-bypass, so untenanted deployments
/// behave exactly as before.
#[derive(Debug, Clone, Default)]
pub struct FairShare {
    /// One entry per tenant name ever granted. The queue grants under the
    /// capped names of `ServerMetrics::tenant_label`, so its ledger — and
    /// the linear scans over it under the admission lock — stay short.
    grants: Vec<(String, u64)>,
}

impl FairShare {
    /// Fresh accounting (no grants yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative grants handed to `tenant`.
    pub fn grants(&self, tenant: &str) -> u64 {
        self.grants
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(0, |&(_, g)| g)
    }

    /// Records that `tenant` won a grant.
    pub fn record_grant(&mut self, tenant: &str) {
        match self.grants.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, g)) => *g += 1,
            None => self.grants.push((tenant.to_string(), 1)),
        }
    }

    /// Tenants with at least one grant, with their counts.
    pub(crate) fn all(&self) -> &[(String, u64)] {
        &self.grants
    }

    /// Picks the next grant among `candidates` — the admissible waiters
    /// in FIFO order as `(ticket, tenant)` — returning the winning
    /// ticket. Only each tenant's first (head-of-line) candidate
    /// competes, so order within a tenant stays FIFO; across tenants the
    /// smallest `(grants + 1) / weight` wins, compared exactly via
    /// cross-multiplication.
    pub fn pick(&self, candidates: &[(u64, &str)], weight_of: impl Fn(&str) -> u32) -> Option<u64> {
        let mut seen: Vec<&str> = Vec::new();
        // (ticket, grants + 1, weight) of the best so far.
        let mut best: Option<(u64, u64, u32)> = None;
        for &(ticket, tenant) in candidates {
            if seen.contains(&tenant) {
                continue;
            }
            seen.push(tenant);
            let g = self.grants(tenant) + 1;
            let w = weight_of(tenant).max(1);
            best = match best {
                None => Some((ticket, g, w)),
                Some((bt, bg, bw)) => {
                    // g/w < bg/bw  <=>  g*bw < bg*w (all positive).
                    if u128::from(g) * u128::from(bw) < u128::from(bg) * u128::from(w) {
                        Some((ticket, g, w))
                    } else {
                        Some((bt, bg, bw))
                    }
                }
            };
        }
        best.map(|(t, _, _)| t)
    }
}

/// Bounded admission queue in front of the dual-pool executor.
pub struct AdmissionQueue {
    scheduler: CacheAwareScheduler,
    sched_metrics: SchedulerMetrics,
    server_metrics: ServerMetrics,
    capacity: usize,
    tenant_limits: TenantLimits,
    state: Mutex<State>,
    changed: Condvar,
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
            tenant_limits: TenantLimits::default(),
            state: Mutex::new(State {
                running: Vec::new(),
                running_tenants: Vec::new(),
                waiting: Vec::new(),
                fair: FairShare::new(),
                next_ticket: 0,
                shutdown: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Layers per-tenant quotas and grant weights on top of the global
    /// capacity. Call before the queue is shared (builder style). The tenants
    /// `limits` names keep a metric label set of their own however many
    /// unconfigured tenants show up.
    pub fn with_tenant_limits(mut self, limits: TenantLimits) -> Self {
        self.server_metrics.pin_tenants(limits.tenants());
        self.tenant_limits = limits;
        self
    }

    /// The per-tenant quotas and weights in effect.
    pub(crate) fn tenant_limits(&self) -> &TenantLimits {
        &self.tenant_limits
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, st: &State) {
        self.server_metrics
            .set_admission_occupancy(st.waiting.len(), st.running.len());
    }

    /// Blocks until `cuid` may run, then returns a permit; the permit
    /// releases its slot on drop.
    ///
    /// Fails fast (without blocking) when the waiting queue is at
    /// capacity or the queue has been shut down.
    pub fn acquire(self: &Arc<Self>, cuid: CacheUsageClass) -> Result<RunPermit, AdmissionError> {
        self.acquire_tenant(cuid, DEFAULT_TENANT, None)
    }

    /// Like [`acquire`](Self::acquire), but gives up with
    /// [`AdmissionError::TimedOut`] (dequeuing the waiter) when no permit
    /// was granted within `deadline`. `None` waits indefinitely.
    pub fn acquire_with_deadline(
        self: &Arc<Self>,
        cuid: CacheUsageClass,
        deadline: Option<Duration>,
    ) -> Result<RunPermit, AdmissionError> {
        self.acquire_tenant(cuid, DEFAULT_TENANT, deadline)
    }

    /// Like [`acquire_with_deadline`](Self::acquire_with_deadline), but on
    /// behalf of `tenant`: the arrival is refused with
    /// [`AdmissionError::QuotaExceeded`] when the tenant is at its
    /// in-flight quota, and grants among concurrently admissible waiters
    /// follow the weighted-fair order of [`FairShare`].
    ///
    /// The queue knows `tenant` by the name the metrics book it under
    /// (`ServerMetrics::tenant_label`): the tenant header is client input,
    /// so past the cap on distinct unconfigured names the rest queue, run
    /// and are granted as the one tenant `other` (weight 1), which keeps
    /// the ledger and `/stats → tenants` bounded. Configured tenants and
    /// the default tenant always keep their own name, quota and weight.
    pub fn acquire_tenant(
        self: &Arc<Self>,
        cuid: CacheUsageClass,
        tenant: &str,
        deadline: Option<Duration>,
    ) -> Result<RunPermit, AdmissionError> {
        if ccp_fault::should_fail(FAULT_ADMISSION) {
            self.server_metrics.record_admission_rejection();
            return Err(AdmissionError::QueueFull);
        }
        let tenant: Arc<str> = Arc::from(self.server_metrics.tenant_label(tenant));
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
        if let Some(quota) = self.tenant_limits.quota_for(&tenant) {
            let in_flight = st.waiting.iter().filter(|w| w.tenant == tenant).count()
                + st.running_tenants.iter().filter(|t| **t == tenant).count();
            if in_flight >= quota {
                self.server_metrics.record_tenant_rejection(&tenant);
                return Err(AdmissionError::QuotaExceeded);
            }
        }
        // Record the arrival-time decision (admitted vs. deferred) in the
        // scheduler's instruments; re-checks below are not re-counted.
        self.scheduler
            .admit_observed(&st.running, cuid, &self.sched_metrics);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push(Waiter {
            ticket,
            cuid,
            tenant: Arc::clone(&tenant),
        });
        self.publish(&st);
        let wait_span = ccp_trace::span_id(TraceCat::Admission, "admission_wait", ticket);
        ccp_trace::instant_id(TraceCat::Admission, "enqueue", ticket);
        // Decision time (scheduler admissibility scans on behalf of this
        // waiter) is accounted separately from pure queueing time.
        let mut sched_ns: u64 = 0;
        loop {
            if st.shutdown {
                st.waiting.retain(|w| w.ticket != ticket);
                self.publish(&st);
                self.changed.notify_all();
                return Err(AdmissionError::ShuttingDown);
            }
            // FIFO with bypass, weighted across tenants: among the
            // admissible waiters (a polluter may overtake a deferred
            // sensitive query — it fills the wave), each tenant's
            // head-of-line candidate competes and the weighted-fair rule
            // picks the winner. With one tenant this is exactly "the
            // first admissible waiter starts".
            let decide_started = Instant::now();
            let winner = {
                let admissible: Vec<(u64, &str)> = st
                    .waiting
                    .iter()
                    .filter(|w| self.scheduler.admit(&st.running, w.cuid) == Admission::RunNow)
                    .map(|w| (w.ticket, &*w.tenant))
                    .collect();
                st.fair
                    .pick(&admissible, |t| self.tenant_limits.weight_for(t))
            };
            sched_ns += decide_started.elapsed().as_nanos() as u64;
            // The winner is drawn from `st.waiting` under this same lock
            // hold, so when it is us the position lookup cannot miss; a
            // defensive None re-enters the wait instead of panicking.
            let granted = match winner {
                Some(t) if t == ticket => st.waiting.iter().position(|w| w.ticket == ticket),
                _ => None,
            };
            match granted {
                Some(i) => {
                    if i > 0 {
                        ccp_trace::instant_id(TraceCat::Admission, "bypass", ticket);
                    }
                    st.waiting.remove(i);
                    st.running.push(cuid);
                    st.running_tenants.push(Arc::clone(&tenant));
                    st.fair.record_grant(&tenant);
                    self.publish(&st);
                    // Admitting one query can unblock another admissible
                    // one (slots permitting) — let everybody re-check.
                    self.changed.notify_all();
                    ccp_trace::instant_id(TraceCat::Admission, "dequeue", ticket);
                    drop(wait_span);
                    let schedule_us = sched_ns / 1_000;
                    let queue_us =
                        (enqueued.elapsed().as_micros() as u64).saturating_sub(schedule_us);
                    return Ok(RunPermit {
                        queue: Arc::clone(self),
                        cuid,
                        tenant,
                        ticket,
                        queue_us,
                        schedule_us,
                    });
                }
                None => {
                    let remaining = match deadline {
                        None => None,
                        Some(d) => match d.checked_sub(enqueued.elapsed()) {
                            Some(left) if !left.is_zero() => Some(left),
                            _ => {
                                // Deadline passed while still deferred:
                                // leave the queue so the slot scan stops
                                // considering us, and tell the client to
                                // come back.
                                st.waiting.retain(|w| w.ticket != ticket);
                                self.publish(&st);
                                self.changed.notify_all();
                                self.server_metrics.record_admission_timeout();
                                ccp_trace::instant_id(TraceCat::Admission, "timeout", ticket);
                                return Err(AdmissionError::TimedOut);
                            }
                        },
                    };
                    st = match remaining {
                        Some(left) => {
                            self.changed
                                .wait_timeout(st, left)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0
                        }
                        None => self
                            .changed
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner),
                    };
                }
            }
        }
    }

    fn release(&self, cuid: CacheUsageClass, tenant: &str) {
        let mut st = self.lock();
        if let Some(i) = st
            .running
            .iter()
            .zip(st.running_tenants.iter())
            .position(|(&c, t)| c == cuid && **t == *tenant)
        {
            st.running.remove(i);
            st.running_tenants.remove(i);
        }
        self.publish(&st);
        self.changed.notify_all();
    }

    /// Marks the queue as draining: waiters wake with
    /// [`AdmissionError::ShuttingDown`], new arrivals fail fast. Already
    /// running queries keep their permits.
    pub fn shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        self.publish(&st);
        self.changed.notify_all();
    }

    /// Waits until nothing runs or waits any more, up to `timeout`.
    /// Returns `true` when the queue drained completely.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while !st.running.is_empty() || !st.waiting.is_empty() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .changed
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        true
    }

    /// Current `(waiting, running)` occupancy.
    pub fn occupancy(&self) -> (usize, usize) {
        let st = self.lock();
        (st.waiting.len(), st.running.len())
    }

    /// Maximum number of waiting queries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum queries running concurrently (scheduler slots).
    pub(crate) fn slots(&self) -> usize {
        self.scheduler.slots
    }

    /// Arrival-time deferrals recorded so far.
    pub(crate) fn deferrals(&self) -> u64 {
        self.sched_metrics.deferrals()
    }

    /// Count of currently *waiting* queries per class, for `/stats`.
    pub(crate) fn waiting_by_class(&self) -> PerClass<usize> {
        count_by_class(self.lock().waiting.iter().map(|w| w.cuid))
    }

    /// Count of currently *running* queries per class. This is the load
    /// signal the occupancy sampler's simulated probe feeds on when no
    /// CMT hardware is present.
    pub(crate) fn running_by_class(&self) -> PerClass<usize> {
        count_by_class(self.lock().running.iter().copied())
    }

    /// Count of currently *waiting* queries per tenant, for `/stats`.
    pub(crate) fn waiting_by_tenant(&self) -> Vec<(String, usize)> {
        tally(self.lock().waiting.iter().map(|w| w.tenant.to_string()))
    }

    /// Count of currently *running* queries per tenant, for `/stats`.
    pub fn running_by_tenant(&self) -> Vec<(String, usize)> {
        tally(self.lock().running_tenants.iter().map(|t| t.to_string()))
    }

    /// Cumulative grants per tenant since startup (the weighted-fairness
    /// accounting), for `/stats` and the fairness assertions in tests.
    pub(crate) fn grants_by_tenant(&self) -> Vec<(String, u64)> {
        self.lock().fair.all().to_vec()
    }
}

/// How many of `cuids` belong to each class.
fn count_by_class(cuids: impl Iterator<Item = CacheUsageClass>) -> PerClass<usize> {
    let mut counts = PerClass::default();
    for cuid in cuids {
        let class = cuid.class();
        counts.set(class, counts.get(class) + 1);
    }
    counts
}

/// How often each distinct key occurs, in first-seen order.
fn tally<K: PartialEq>(keys: impl Iterator<Item = K>) -> Vec<(K, usize)> {
    let mut counts: Vec<(K, usize)> = Vec::new();
    for key in keys {
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts
}

/// Permission for one query to run; releases its concurrency slot on drop
/// (also when the query panics).
pub struct RunPermit {
    queue: Arc<AdmissionQueue>,
    cuid: CacheUsageClass,
    tenant: Arc<str>,
    ticket: u64,
    queue_us: u64,
    schedule_us: u64,
}

impl std::fmt::Debug for RunPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPermit")
            .field("cuid", &self.cuid)
            .field("tenant", &self.tenant)
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
        &self.tenant
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

    /// Microseconds the scheduler spent on admissibility decisions for
    /// this waiter (accumulated over every wakeup re-check).
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
            .acquire_with_deadline(CacheUsageClass::Polluting, Some(Duration::from_millis(30)))
            .unwrap_err();
        assert_eq!(err, AdmissionError::TimedOut);
        // The expired waiter left the queue: nothing waits any more.
        assert_eq!(q.occupancy(), (0, 1));
        drop(held);
        // Zero deadline with a free slot still admits immediately (the
        // admissibility check runs before the deadline check).
        let p = q
            .acquire_with_deadline(CacheUsageClass::Polluting, Some(Duration::ZERO))
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
        let metrics = ServerMetrics::new(&registry);
        let q = Arc::new(
            AdmissionQueue::new(
                CacheAwareScheduler::new(policy, 4),
                8,
                SchedulerMetrics::new(),
                metrics.clone(),
            )
            .with_tenant_limits(TenantLimits::new().with_quota("acme", 1)),
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
        assert_eq!(metrics.tenant_rejections("acme"), 1);
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
            .with_tenant_limits(TenantLimits::new().with_quota("banned", 0)),
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
    fn grants_accounting_tracks_tenants() {
        let q = queue(4, 8);
        let a = q
            .acquire_tenant(CacheUsageClass::Polluting, "alpha", None)
            .unwrap();
        let b = q
            .acquire_tenant(CacheUsageClass::Mixed { hot_bytes: 1_000 }, "beta", None)
            .unwrap();
        let a2 = q
            .acquire_tenant(CacheUsageClass::Mixed { hot_bytes: 1_000 }, "alpha", None)
            .unwrap();
        let mut grants = q.grants_by_tenant();
        grants.sort();
        assert_eq!(
            grants,
            vec![("alpha".to_string(), 2), ("beta".to_string(), 1)]
        );
        let mut running = q.running_by_tenant();
        running.sort();
        assert_eq!(
            running,
            vec![("alpha".to_string(), 2), ("beta".to_string(), 1)]
        );
        drop((a, b, a2));
        assert!(q.drain(Duration::from_secs(1)));
        assert!(q.running_by_tenant().is_empty());
    }

    #[test]
    fn cycling_tenant_ids_leave_a_bounded_ledger_and_configured_weights_alone() {
        let q = Arc::new(
            Arc::into_inner(queue(4, 8))
                .expect("sole owner")
                .with_tenant_limits(TenantLimits::new().with_weight("acme", 3)),
        );
        for i in 0..200 {
            let id = format!("t{i}");
            let permit = q
                .acquire_tenant(CacheUsageClass::Polluting, &id, None)
                .unwrap();
            assert_eq!(permit.tenant(), if i < 64 { id.as_str() } else { "other" });
        }
        drop(q.acquire(CacheUsageClass::Polluting).unwrap());
        drop(
            q.acquire_tenant(CacheUsageClass::Polluting, "acme", None)
                .unwrap(),
        );
        let grants = q.grants_by_tenant();
        assert_eq!(
            grants.len(),
            64 + 3,
            "64 own + other + default + acme: {grants:?}"
        );
        let of = |name: &str| grants.iter().find(|(t, _)| t == name).map(|&(_, g)| g);
        assert_eq!(of("other"), Some(136));
        assert_eq!(of("t63"), Some(1));
        assert_eq!(of("t64"), None);
        assert_eq!(of("acme"), Some(1));
        // However many ids went by, acme still outweighs a weight-1 tenant
        // three to one.
        assert_eq!(q.tenant_limits().weight_for("acme"), 3);
        assert!(q.running_by_tenant().is_empty() && q.waiting_by_tenant().is_empty());
    }

    #[test]
    fn fair_share_single_tenant_is_fifo() {
        let fs = FairShare::new();
        let picked = fs.pick(&[(3, "only"), (5, "only"), (9, "only")], |_| 1);
        assert_eq!(picked, Some(3), "head of line wins within a tenant");
        assert_eq!(fs.pick(&[], |_| 1), None);
    }

    #[test]
    fn fair_share_weights_bias_grant_ratio() {
        // Tenants "heavy" (weight 3) and "light" (weight 1) always have a
        // waiter ready; over 40 grants the split must be 30/10 exactly —
        // the ±1 property tests generalize this to arbitrary streams.
        let mut fs = FairShare::new();
        let weight = |t: &str| if t == "heavy" { 3 } else { 1 };
        let mut heavy = 0u64;
        let mut light = 0u64;
        for _ in 0..40 {
            let winner = fs.pick(&[(1, "heavy"), (2, "light")], weight).unwrap();
            if winner == 1 {
                heavy += 1;
                fs.record_grant("heavy");
            } else {
                light += 1;
                fs.record_grant("light");
            }
        }
        assert_eq!((heavy, light), (30, 10));
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
