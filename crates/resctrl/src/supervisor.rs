//! Supervised controller: retry with backoff, and the circuit breaker
//! behind **degraded unpartitioned mode**.
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
//! 2. **Circuit breaker** — the controller counts *consecutive*
//!    exhausted operations; at the `trip_after` it was built with it
//!    opens the breaker ([`is_degraded`](SupervisedController::is_degraded)).
//!    The server's supervision step observes it and switches the engine to
//!    full-mask (unpartitioned) execution: queries keep succeeding,
//!    partitioning is sacrificed.
//! 3. **Re-probe** — while degraded, a caller-driven
//!    [`probe`](SupervisedController::probe) replays the last schemata
//!    write — or writes a scratch `ccp-probe` group when there is none,
//!    or its group has since been removed; only a kernel write succeeding
//!    closes the breaker.
//!
//! The breaker's flag and streak are plain fields: every operation that
//! moves them runs under the tree's mutex, and every reader takes it.
//! Its event counters ([`ResctrlHealth`]) are `/metrics` handles.
//!
//! The supervised controller is also the **one owner of a process's
//! resctrl tree**: it indexes the per-mask `ccp-<mask hex>` groups made
//! through [`bind`](SupervisedController::bind) and
//! [`prepare`](SupervisedController::prepare), and is shared as a
//! [`ResctrlTree`] — one mutex under the workers' binds, a repartition's
//! `prepare`, the [`Sweeper`](crate::Sweeper), the
//! [`ResctrlMonitor`](crate::ResctrlMonitor) and the probe. A removed
//! group leaves the index, the task cache and the probe's memory at
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

/// The supervisor's `ccp_resctrl_*_total` event counters. They live in
/// the [`SupervisedController`], are read through the tree's lock
/// ([`health`](SupervisedController::health)) and, once attached with
/// [`register_into`](ResctrlHealth::register_into), rendered on
/// `/metrics`.
#[derive(Debug, Default)]
pub struct ResctrlHealth {
    retries: Counter,
    failures: Counter,
    trips: Counter,
    reprobes: Counter,
    restores: Counter,
}

impl ResctrlHealth {
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
    /// Boxed, as the `Arc` it replaced was: held inline, its five handles
    /// slowed the same-mask rebind (`alloc/fast_path/rebind_same_mask`)
    /// by 6–8 % on a 2-vCPU x86-64 host.
    health: Box<ResctrlHealth>,
    /// The breaker is open: the engine runs unpartitioned until a probe
    /// heals it.
    degraded: bool,
    /// Consecutive operations that exhausted their retries.
    streak: u32,
    /// Streak length that opens the breaker.
    trip_after: u32,
    /// SplitMix64 state of the backoff jitter.
    jitter: u64,
    /// Last successfully written `(group, domain, mask)`, while that
    /// group exists; the probe replays it.
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
            .field("degraded", &self.degraded)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl SupervisedController {
    /// Wraps `inner`; the breaker opens after `trip_after` consecutive
    /// exhausted operations (minimum 1).
    pub fn new(inner: CacheController, policy: RetryPolicy, trip_after: u32) -> Self {
        let jitter = policy.jitter_seed;
        SupervisedController {
            inner,
            policy,
            health: Box::default(),
            degraded: false,
            streak: 0,
            trip_after: trip_after.max(1),
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

    /// The supervisor's event counters.
    pub fn health(&self) -> &ResctrlHealth {
        &self.health
    }

    /// Whether the breaker is open (the engine should run unpartitioned).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// An operation exhausted its retries. Returns `true` when this
    /// failure opened the breaker (degraded mode begins now).
    pub fn record_failure(&mut self) -> bool {
        self.health.failures.inc();
        self.streak = self.streak.saturating_add(1);
        if self.streak >= self.trip_after && !self.degraded {
            self.degraded = true;
            self.health.trips.inc();
            return true;
        }
        false
    }

    /// A probe observed resctrl healthy: the streak resets and an open
    /// breaker closes.
    fn restore(&mut self) {
        self.streak = 0;
        if std::mem::take(&mut self.degraded) {
            self.health.restores.inc();
        }
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
        let jitter = ccp_fault::splitmix64(self.jitter) % (capped / 2 + 1);
        self.jitter = self.jitter.wrapping_add(ccp_fault::SPLITMIX64_GAMMA);
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
                    // Only a probe closes an open breaker, so a lucky
                    // write while degraded cannot flap the engine back.
                    self.streak = 0;
                    return Ok(v);
                }
                Err(e) if !transient(&e) => return Err(e),
                Err(e) if attempt >= max_attempts => {
                    self.record_failure();
                    return Err(e);
                }
                Err(_) => {
                    self.health.retries.inc();
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

    /// Health probe for degraded mode: performs one schemata write (the
    /// last successful one replayed, or a scratch `ccp-probe` group when
    /// there is none to replay) and, if it succeeds, clears the breaker.
    ///
    /// Returns `true` when resctrl is healthy after this probe.
    pub fn probe(&mut self) -> bool {
        self.health.reprobes.inc();
        let outcome = match self.last_write.clone() {
            Some((group, domain, mask)) => self.set_l3_mask(&group, domain, mask),
            None => self.probe_via_scratch_group(),
        };
        if outcome.is_ok() {
            self.restore();
        }
        outcome.is_ok()
    }

    fn probe_via_scratch_group(&mut self) -> Result<(), ResctrlError> {
        let full = WayMask::new(self.inner.info().cbm_mask)
            .map_err(|e| ResctrlError::BadMask(e.to_string()))?;
        let group = match self.existing_group(PROBE_GROUP) {
            Ok(g) => g,
            Err(_) => self.retry(|ctl| ctl.create_group(PROBE_GROUP))?,
        };
        let write = self.retry(|ctl| ctl.set_l3_mask(&group, 0, full));
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

    fn supervised(policy: RetryPolicy) -> (FakeFs, SupervisedController) {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        (fs, SupervisedController::new(ctl, policy, 3))
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
        let (fs, mut sup) = supervised(fast_policy());
        while !sup.record_failure() {}
        assert!(sup.is_degraded());
        assert!(sup.probe());
        assert!(!sup.is_degraded());
        // The scratch group was cleaned up.
        assert_eq!(fs.group_count(), 0);
    }

    #[test]
    fn deterministic_errors_bypass_retry_and_breaker() {
        let (_, mut sup) = supervised(fast_policy());
        let g = sup.create_group("g").unwrap();
        // 1 way < min_cbm_bits: BadMask, deterministic.
        assert!(matches!(
            sup.set_l3_mask(&g, 0, WayMask::new(0x1).unwrap()),
            Err(ResctrlError::BadMask(_))
        ));
        assert_eq!(sup.health().retries(), 0);
        assert_eq!(sup.health().failures(), 0);
        assert!(!sup.is_degraded());
    }

    #[test]
    fn success_resets_streak_but_not_degraded_flag() {
        let (_, mut sup) = supervised(fast_policy());
        assert!(!sup.record_failure());
        assert!(!sup.record_failure());
        assert!(sup.record_failure(), "third failure trips");
        assert!(sup.is_degraded());
        sup.create_group("g").unwrap();
        assert_eq!(sup.streak, 0);
        assert!(sup.is_degraded(), "only a probe clears degraded");
        assert!(sup.probe());
        assert!(!sup.is_degraded());
        assert!(sup.probe());
        assert_eq!(sup.health().restores(), 1, "restore is idempotent");
    }

    #[test]
    fn register_into_renders_the_live_counters() {
        let (_, mut sup) = supervised(fast_policy());
        let registry = Registry::new();
        sup.health().register_into(&registry);
        sup.health.retries.inc();
        while !sup.record_failure() {}
        assert!(sup.probe());
        let text = registry.render_prometheus();
        for line in [
            "ccp_resctrl_retries_total 1",
            "ccp_resctrl_op_failures_total 3",
            "ccp_resctrl_breaker_trips_total 1",
            "ccp_resctrl_reprobes_total 1",
            "ccp_resctrl_restores_total 1",
        ] {
            assert!(text.contains(line), "{line} missing from:\n{text}");
        }
    }

    #[test]
    fn default_backoff_matches_the_reference_jitter_stream() {
        let (_, mut sup) = supervised(RetryPolicy::default());
        let delays: Vec<u128> = (1..6).map(|a| sup.backoff_delay(a).as_micros()).collect();
        assert_eq!(delays, [1647, 3206, 5371, 15713, 31866]);
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
