//! Supervised controller: retry with backoff, a circuit breaker, and
//! the shared health state behind **degraded unpartitioned mode**.
//!
//! The paper's contract is that partitioning must never make a workload
//! *worse* than the unpartitioned baseline. A resctrl tree that starts
//! failing mid-flight (transient `EBUSY` on schemata writes, the mount
//! vanishing, CMT read errors) must therefore never take queries down
//! with it. [`SupervisedController`] wraps every [`CacheController`]
//! operation with:
//!
//! 1. **Retry** — transient errors are retried up to
//!    [`RetryPolicy::max_attempts`] times with bounded exponential
//!    backoff plus deterministic jitter (half the delay is fixed, half
//!    drawn from a seeded SplitMix64 stream, so runs replay exactly).
//! 2. **Circuit breaker** — [`ResctrlHealth`] counts *consecutive*
//!    exhausted operations; at the `trip_after` it was built with it flips
//!    the shared `degraded` flag. The engine observes the flag and
//!    falls back to full-mask (unpartitioned) execution: queries keep
//!    succeeding, partitioning is sacrificed.
//! 3. **Re-probe** — while degraded, a caller-driven
//!    [`probe`](SupervisedController::probe) replays the last schemata
//!    write *bypassing* the old-vs-new skip cache — or writes a scratch
//!    `ccp-probe` group when there is none, or its group has since been
//!    removed; only a real kernel write succeeding clears the flag
//!    ([`ResctrlHealth::restore`]).
//!
//! The supervised controller is also the **one owner of a process's
//! resctrl tree**: it indexes the per-mask `ccp-<mask hex>` groups made
//! through [`bind`](SupervisedController::bind) and
//! [`prepare`](SupervisedController::prepare), and is shared as a
//! [`ResctrlTree`] — one mutex under the workers' binds, a repartition's
//! `prepare`, the [`Sweeper`](crate::Sweeper), the
//! [`ResctrlMonitor`](crate::ResctrlMonitor) and the probe. A removed
//! group leaves the index, the skip caches and the probe's memory at
//! once, so removal is safe mid-run and the tree holds the groups of the
//! mask plan in force and nothing else.
//!
//! Deterministic errors — [`ResctrlError::BadMask`],
//! [`ResctrlError::TooManyGroups`], [`ResctrlError::NoSuchGroup`] — are
//! neither retried nor counted against the breaker: they indicate a
//! caller bug or a real resource limit, not a sick resctrl tree.

use crate::class::PerClass;
use crate::controller::{CacheController, CatInfo, GroupHandle, MonitoringData};
use crate::error::ResctrlError;
use crate::metrics::ResctrlMetrics;
use crate::tenant::mask_group_name;
use ccp_cachesim::WayMask;
use ccp_obs::{Counter, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Group name used by the health probe when no schemata write has
/// succeeded yet (created, written, and removed again).
pub(crate) const PROBE_GROUP: &str = "ccp-probe";

/// Retry schedule for transient resctrl failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retry). Default 3.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on the exponential delay.
    pub max_delay: Duration,
    /// Seed of the jitter stream (deterministic across runs).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// SplitMix64 step, the jitter source (same mixer the failpoint layer
/// uses; deterministic, no global RNG state).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared health of the resctrl backend: the circuit breaker's state
/// plus its `ccp_resctrl_*_total` event counters. One instance is shared
/// between the supervised controller (producer), the engine/server
/// supervision loop (consumer), and — once attached with
/// [`register_into`](ResctrlHealth::register_into) — `/metrics`.
#[derive(Debug)]
pub struct ResctrlHealth {
    // ORDERING: the degraded flag and the streak use relaxed loads and
    // stores. They are a single advisory flag and a single-writer count;
    // no other memory depends on their ordering, and the supervision
    // loop that consumes them tolerates reading values a few events
    // stale.
    degraded: AtomicBool,
    consecutive_failures: AtomicU32,
    trip_after: u32,
    retries: Counter,
    failures: Counter,
    trips: Counter,
    reprobes: Counter,
    restores: Counter,
}

impl ResctrlHealth {
    /// Breaker tripping after `trip_after` consecutive exhausted
    /// operations (minimum 1).
    pub fn new(trip_after: u32) -> Self {
        ResctrlHealth {
            degraded: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            trip_after: trip_after.max(1),
            retries: Counter::new(),
            failures: Counter::new(),
            trips: Counter::new(),
            reprobes: Counter::new(),
            restores: Counter::new(),
        }
    }

    /// Attaches the live event counters to `registry`.
    pub fn register_into(&self, registry: &Registry) {
        for (name, help, counter) in [
            (
                "ccp_resctrl_retries_total",
                "Transient resctrl failures retried by the supervisor",
                &self.retries,
            ),
            (
                "ccp_resctrl_op_failures_total",
                "resctrl operations that exhausted their retries",
                &self.failures,
            ),
            (
                "ccp_resctrl_breaker_trips_total",
                "Partitioned→Degraded transitions of the resctrl circuit breaker",
                &self.trips,
            ),
            (
                "ccp_resctrl_reprobes_total",
                "Health probes attempted while degraded",
                &self.reprobes,
            ),
            (
                "ccp_resctrl_restores_total",
                "Degraded→Partitioned transitions (successful re-probes)",
                &self.restores,
            ),
        ] {
            registry
                .counter_family(name, help)
                .register(&[], counter.clone());
        }
    }

    /// Whether the breaker is currently tripped (engine should run
    /// unpartitioned).
    pub fn is_degraded(&self) -> bool {
        // ORDERING: relaxed — advisory flag; see the struct comment.
        self.degraded.load(Ordering::Relaxed)
    }

    /// An operation succeeded: the consecutive-failure streak resets.
    /// Does *not* clear the degraded flag — only a
    /// [`restore`](Self::restore) (driven by an explicit re-probe) does
    /// that, so a lucky write while degraded cannot flap the engine back
    /// early.
    pub(crate) fn record_success(&self) {
        // ORDERING: relaxed — single-writer streak reset; see the struct
        // comment.
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// One retry attempt was scheduled.
    pub(crate) fn record_retry(&self) {
        self.retries.inc();
    }

    /// An operation exhausted its retries. Returns `true` when this
    /// failure tripped the breaker (degraded mode begins now).
    pub fn record_failure(&self) -> bool {
        self.failures.inc();
        // ORDERING: relaxed — streak plus the advisory degraded flag
        // (see the struct comment); the `swap` is atomic, which alone
        // guarantees exactly one caller counts each trip.
        let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.trip_after && !self.degraded.swap(true, Ordering::Relaxed) {
            self.trips.inc();
            return true;
        }
        false
    }

    /// A health re-probe ran (successful or not).
    pub(crate) fn record_reprobe(&self) {
        self.reprobes.inc();
    }

    /// A re-probe observed resctrl healthy again. Returns `true` when
    /// this call cleared a tripped breaker.
    pub fn restore(&self) -> bool {
        // ORDERING: relaxed throughout — see the struct comment; the
        // `swap` is atomic, so exactly one caller counts each restore.
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if self.degraded.swap(false, Ordering::Relaxed) {
            self.restores.inc();
            return true;
        }
        false
    }

    /// Retry attempts scheduled so far.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Operations that exhausted their retries.
    pub fn failures(&self) -> u64 {
        self.failures.get()
    }

    /// Times the breaker tripped (Partitioned → Degraded transitions).
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    /// Health probes attempted while degraded.
    pub fn reprobes(&self) -> u64 {
        self.reprobes.get()
    }

    /// Times a probe healed the breaker (Degraded → Partitioned).
    pub fn restores(&self) -> u64 {
        self.restores.get()
    }
}

/// Is this error plausibly transient (worth retrying and counting
/// against the breaker)?
fn transient(e: &ResctrlError) -> bool {
    matches!(
        e,
        ResctrlError::Io { .. } | ResctrlError::NotMounted | ResctrlError::RejectedSchemata(_)
    )
}

/// A [`CacheController`] wrapped with per-operation retry/backoff and
/// breaker accounting. See the module docs for the full state machine.
pub struct SupervisedController {
    inner: CacheController,
    policy: RetryPolicy,
    health: Arc<ResctrlHealth>,
    jitter: u64,
    /// Last successfully written `(group, domain, mask)`, while that
    /// group exists; the probe replays it with the skip cache bypassed.
    last_write: Option<(GroupHandle, u32, WayMask)>,
    /// L3 cache domains mask groups are programmed on (one per socket).
    domains: Vec<u32>,
    /// The mask groups created or adopted through `bind`/`prepare` and
    /// not removed since, by mask bits.
    mask_groups: HashMap<u32, GroupHandle>,
}

/// The one handle a process holds on its resctrl tree: its only
/// controller, behind the mutex every bind takes. Cloning shares it.
pub type ResctrlTree = Arc<Mutex<SupervisedController>>;

impl std::fmt::Debug for SupervisedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedController")
            .field("degraded", &self.health.is_degraded())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl SupervisedController {
    /// Wraps `inner`, reporting into `health`.
    pub fn new(inner: CacheController, policy: RetryPolicy, health: Arc<ResctrlHealth>) -> Self {
        let jitter = policy.jitter_seed;
        SupervisedController {
            inner,
            policy,
            health,
            jitter,
            last_write: None,
            domains: vec![0],
            mask_groups: HashMap::new(),
        }
    }

    /// Makes this controller the process's [`ResctrlTree`], programming
    /// mask groups on the given L3 `domains`.
    pub fn shared(mut self, domains: Vec<u32>) -> ResctrlTree {
        self.domains = domains;
        Arc::new(Mutex::new(self))
    }

    /// The shared health handle.
    pub fn health(&self) -> Arc<ResctrlHealth> {
        Arc::clone(&self.health)
    }

    /// CAT parameters of the underlying mount.
    pub fn info(&self) -> CatInfo {
        self.inner.info()
    }

    /// The wrapped controller's instruments.
    pub fn metrics(&self) -> ResctrlMetrics {
        self.inner.metrics()
    }

    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let base = self.policy.base_delay.as_micros().max(1) as u64;
        let cap = self.policy.max_delay.as_micros().max(1) as u64;
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(cap);
        // Half fixed, half jitter: delay ∈ [capped/2, capped].
        let jitter = splitmix64(&mut self.jitter) % (capped / 2 + 1);
        Duration::from_micros(capped / 2 + jitter)
    }

    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut CacheController) -> Result<T, ResctrlError>,
    ) -> Result<T, ResctrlError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match op(&mut self.inner) {
                Ok(v) => {
                    self.health.record_success();
                    return Ok(v);
                }
                Err(e) if !transient(&e) => return Err(e),
                Err(e) if attempt >= max_attempts => {
                    self.health.record_failure();
                    return Err(e);
                }
                Err(_) => {
                    self.health.record_retry();
                    let delay = self.backoff_delay(attempt);
                    thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }

    /// [`CacheController::create_group`] with retry/breaker accounting.
    ///
    /// # Errors
    /// Same surface as the wrapped call.
    pub fn create_group(&mut self, name: &str) -> Result<GroupHandle, ResctrlError> {
        self.retry(|ctl| ctl.create_group(name))
    }

    /// [`CacheController::existing_group`] (read-only, not retried).
    pub(crate) fn existing_group(&self, name: &str) -> Result<GroupHandle, ResctrlError> {
        self.inner.existing_group(name)
    }

    /// [`CacheController::monitoring`] of the group of `mask` (read-only,
    /// not retried); `None` when no such group is indexed or readable.
    pub(crate) fn mask_monitoring(&self, mask: WayMask, domain: u32) -> Option<MonitoringData> {
        let group = self.mask_groups.get(&mask.bits())?;
        self.inner.monitoring(group, domain).ok()
    }

    /// [`CacheController::groups`] (read-only, not retried).
    ///
    /// # Errors
    /// Same surface as the wrapped call.
    pub fn groups(&self) -> Result<Vec<String>, ResctrlError> {
        self.inner.groups()
    }

    /// [`CacheController::remove_group`] with retry/breaker accounting.
    /// A removed group also leaves the mask-group index and is forgotten
    /// as the probe's replay target: a write into a directory that is
    /// gone could never heal the breaker.
    pub(crate) fn remove_group(&mut self, group: GroupHandle) -> Result<(), ResctrlError> {
        self.retry(|ctl| ctl.remove_group(group.clone()))?;
        self.mask_groups.retain(|_, g| *g != group);
        if self.last_write.as_ref().is_some_and(|(g, ..)| *g == group) {
            self.last_write = None;
        }
        Ok(())
    }

    /// [`CacheController::set_l3_mask`] with retry/breaker accounting.
    ///
    /// # Errors
    /// Same surface as the wrapped call.
    pub fn set_l3_mask(
        &mut self,
        group: &GroupHandle,
        domain: u32,
        mask: WayMask,
    ) -> Result<(), ResctrlError> {
        self.retry(|ctl| ctl.set_l3_mask(group, domain, mask))?;
        self.last_write = Some((group.clone(), domain, mask));
        Ok(())
    }

    /// Group for `mask`, created (or adopted) and programmed on first use.
    fn mask_group(&mut self, mask: WayMask) -> Result<GroupHandle, ResctrlError> {
        if let Some(g) = self.mask_groups.get(&mask.bits()) {
            return Ok(g.clone());
        }
        let name = mask_group_name(mask);
        let g = match self.existing_group(&name) {
            Ok(g) => g,
            Err(_) => self.create_group(&name)?,
        };
        for d in self.domains.clone() {
            self.set_l3_mask(&g, d, mask)?;
        }
        self.mask_groups.insert(mask.bits(), g.clone());
        Ok(g)
    }

    /// Moves thread `tid` into the group of `mask`, creating the group
    /// when no live one has that mask. The controller's task cache makes
    /// a repeat of the last bind free (paper §V-C).
    ///
    /// # Errors
    /// `TooManyGroups` when the mask needs a group and no CLOSID is free.
    pub fn bind(&mut self, tid: u64, mask: WayMask) -> Result<(), ResctrlError> {
        let group = self.mask_group(mask)?;
        self.retry(|ctl| ctl.assign_task(&group, tid))
    }

    /// Makes the tree hold the groups of `plan`. Mask groups the plan does
    /// not name are removed first — its own may need their CLOSIDs; their
    /// tasks fall to the root class, the full cache, until their next
    /// bind — then each of the plan's masks gets its group.
    ///
    /// # Errors
    /// The first failing removal or creation; what was removed stays
    /// removed, so the caller prepares the plan it falls back to.
    pub fn prepare(&mut self, plan: &PerClass<WayMask>) -> Result<(), ResctrlError> {
        for (bits, group) in self.mask_groups.clone() {
            if !plan.iter().any(|(_, mask)| mask.bits() == bits) {
                self.remove_group(group)?;
            }
        }
        for (_, &mask) in plan.iter() {
            self.mask_group(mask)?;
        }
        Ok(())
    }

    /// Health probe for degraded mode: performs one *real* schemata
    /// write (the last successful one replayed with the skip cache
    /// bypassed, or a scratch `ccp-probe` group when there is none to
    /// replay) and, if it succeeds, clears the breaker.
    ///
    /// Returns `true` when resctrl is healthy after this probe.
    pub fn probe(&mut self) -> bool {
        self.health.record_reprobe();
        let outcome = match self.last_write.clone() {
            Some((group, domain, mask)) => {
                self.retry(|ctl| ctl.rewrite_l3_mask(&group, domain, mask))
            }
            None => self.probe_via_scratch_group(),
        };
        if outcome.is_ok() {
            self.health.restore();
            true
        } else {
            false
        }
    }

    fn probe_via_scratch_group(&mut self) -> Result<(), ResctrlError> {
        let full = WayMask::new(self.inner.info().cbm_mask)
            .map_err(|e| ResctrlError::BadMask(e.to_string()))?;
        let group = match self.existing_group(PROBE_GROUP) {
            Ok(g) => g,
            Err(_) => self.retry(|ctl| ctl.create_group(PROBE_GROUP))?,
        };
        let write = self.retry(|ctl| ctl.rewrite_l3_mask(&group, 0, full));
        // Always try to give the CLOS back, but a cleanup failure does
        // not veto a successful probe write.
        let _ = self.retry(|ctl| ctl.remove_group(group.clone()));
        write
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FakeFs;

    fn supervised(policy: RetryPolicy) -> (Arc<ResctrlHealth>, SupervisedController) {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").unwrap();
        let health = Arc::new(ResctrlHealth::new(3));
        let sup = SupervisedController::new(ctl, policy, Arc::clone(&health));
        (health, sup)
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(200),
            jitter_seed: 7,
        }
    }

    #[test]
    fn probe_without_prior_write_uses_scratch_group() {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        let health = Arc::new(ResctrlHealth::new(1));
        let mut sup = SupervisedController::new(ctl, fast_policy(), Arc::clone(&health));
        health.record_failure();
        assert!(health.is_degraded());
        assert!(sup.probe());
        assert!(!health.is_degraded());
        // The scratch group was cleaned up.
        assert_eq!(fs.group_count(), 0);
    }

    #[test]
    fn deterministic_errors_bypass_retry_and_breaker() {
        let (health, mut sup) = supervised(fast_policy());
        let g = sup.create_group("g").unwrap();
        // 1 way < min_cbm_bits: BadMask, deterministic.
        assert!(matches!(
            sup.set_l3_mask(&g, 0, WayMask::new(0x1).unwrap()),
            Err(ResctrlError::BadMask(_))
        ));
        assert_eq!(health.retries(), 0);
        assert_eq!(health.failures(), 0);
        assert!(!health.is_degraded());
    }

    #[test]
    fn success_resets_streak_but_not_degraded_flag() {
        let health = ResctrlHealth::new(2);
        assert!(!health.record_failure());
        assert!(health.record_failure(), "second failure trips");
        assert!(health.is_degraded());
        health.record_success();
        assert_eq!(health.consecutive_failures.load(Ordering::Relaxed), 0);
        assert!(
            health.is_degraded(),
            "only an explicit restore clears degraded"
        );
        assert!(health.restore());
        assert!(!health.is_degraded());
        assert!(!health.restore(), "restore is idempotent");
    }

    #[test]
    fn register_into_renders_the_live_counters() {
        let health = ResctrlHealth::new(2);
        let registry = Registry::new();
        health.register_into(&registry);
        health.record_retry();
        health.record_failure();
        assert!(health.record_failure(), "second failure trips");
        health.record_reprobe();
        assert!(health.restore());
        let text = registry.render_prometheus();
        for line in [
            "ccp_resctrl_retries_total 1",
            "ccp_resctrl_op_failures_total 2",
            "ccp_resctrl_breaker_trips_total 1",
            "ccp_resctrl_reprobes_total 1",
            "ccp_resctrl_restores_total 1",
        ] {
            assert!(text.contains(line), "{line} missing from:\n{text}");
        }
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let (_, mut a) = supervised(fast_policy());
        let (_, mut b) = supervised(fast_policy());
        for attempt in 1..6 {
            let da = a.backoff_delay(attempt);
            let db = b.backoff_delay(attempt);
            assert_eq!(da, db, "same seed, same delays");
            assert!(da <= Duration::from_micros(200));
            assert!(da >= Duration::from_micros(25));
        }
    }
}
