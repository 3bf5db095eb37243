//! Group-lifecycle reconciler: desired-vs-actual diffing over every
//! `ccp-`-prefixed control group.
//!
//! One process owning the whole resctrl tree (the paper's setting) can
//! get away with creating groups on demand and never cleaning up. A
//! fleet cannot: CLOSIDs are scarce (16 on the paper's Broadwell, often
//! 4 elsewhere), crashed processes leave orphaned groups behind, and
//! group creation fails with `ENOSPC` exactly when the machine is
//! busiest. The [`Reconciler`] makes group lifecycle a supervised,
//! convergent loop:
//!
//! * **Startup sweep** — every `ccp-` group left over from a previous
//!   process is deleted before this one creates anything (nested
//!   monitoring groups are torn down by `remove_group` itself).
//! * **Desired-vs-actual diffing** — each pass lists the tree, removes
//!   tenant groups no longer desired, creates missing desired groups
//!   and re-asserts their schemata (free when unchanged, via the
//!   old-vs-new skip cache).
//! * **Capacity-aware retry** — `ENOSPC`/CLOSID exhaustion
//!   ([`ResctrlError::TooManyGroups`]) is not a transient fault: the
//!   pass stops creating, the affected groups enter
//!   [`GroupState::Fallback`] (the tenant layer serves them from the
//!   shared per-class masks), and further creation attempts back off
//!   exponentially in passes — retrying forever would burn kernel
//!   round-trips on a full tree.
//! * **Supervision** — every kernel operation goes through the
//!   [`SupervisedController`], so transient errors retry with backoff
//!   and repeated failure trips the shared circuit breaker. While the
//!   breaker is tripped the reconciler stands down entirely
//!   ([`ReconcileOutcome::degraded`]): tenants degrade to the shared
//!   static masks instead of queries failing.
//!
//! Ownership contract: at startup and shutdown the reconciler owns
//! *all* `ccp-` groups. Mid-run it only removes groups it can attribute
//! via [`crate::tenant::parse_group_name`] — the engine allocator's
//! `ccp-<hex>` mask groups and the supervisor's `ccp-probe` are left
//! alone while the process lives.

use crate::error::ResctrlError;
use crate::faults;
use crate::supervisor::{ResctrlHealth, SupervisedController};
use crate::tenant::{parse_group_name, GROUP_PREFIX};
use ccp_cachesim::WayMask;
use ccp_obs::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::sync::Arc;

/// Passes to skip after the first consecutive exhaustion; doubles up to
/// [`MAX_BACKOFF_PASSES`].
const BASE_BACKOFF_PASSES: u32 = 1;

/// Upper bound on the creation backoff, in reconcile passes. Kept low
/// so a freed CLOSID is noticed within a few passes.
const MAX_BACKOFF_PASSES: u32 = 4;

/// One group the caller wants to exist: a `ccp-`-prefixed name plus the
/// L3 mask to program on every domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesiredGroup {
    pub name: String,
    pub mask: WayMask,
}

/// Where a desired group currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupState {
    /// Not yet attempted (fresh desired entry).
    Pending,
    /// Created and programmed; the tenant may bind into it.
    Satisfied,
    /// CLOSID/RMID exhaustion: the group cannot exist right now, the
    /// tenant is served from the shared per-class mask. Upgraded back
    /// to `Satisfied` when capacity frees.
    Fallback,
    /// A non-capacity failure (I/O error, sweep fault); retried next
    /// pass. `failed` in the stats gauge counts exactly these.
    Failed,
}

/// The reconciler's `ccp_reconcile_*` instruments, a bundle of live
/// `ccp_obs` handles: bumped on the reconcile loop, read by `/stats`
/// (`handle.get()`), and — once attached with
/// [`register_into`](ReconcileStats::register_into) — rendered by
/// `/metrics` from the same handles. Cloning shares them.
#[derive(Debug, Default, Clone)]
pub struct ReconcileStats {
    /// Groups brought into their desired state (created + programmed).
    pub reconciled: Counter,
    /// Creation re-attempts after an earlier failed or exhausted pass.
    pub retried: Counter,
    /// Orphaned `ccp-` groups deleted by sweeps.
    pub orphans_removed: Counter,
    /// Cumulative non-capacity reconcile failures.
    pub failures: Counter,
    /// Sweep passes completed.
    pub sweeps: Counter,
    /// Desired groups in [`GroupState::Failed`] after the latest pass —
    /// the convergence gauge: 0 once every non-capacity failure healed.
    pub failed: Gauge,
    /// Desired groups in [`GroupState::Fallback`] after the latest pass.
    pub fallback: Gauge,
    /// 1 while the latest creating pass observed CLOSID exhaustion.
    pub exhausted: Gauge,
}

impl ReconcileStats {
    /// Attaches the live counters and gauges to `registry`.
    pub fn register_into(&self, registry: &Registry) {
        for (name, help, counter) in [
            (
                "ccp_reconcile_sweeps_total",
                "Orphan sweeps executed by the group reconciler (startup and per pass)",
                &self.sweeps,
            ),
            (
                "ccp_reconcile_reconciled_total",
                "Tenant groups created and programmed by the reconciler",
                &self.reconciled,
            ),
            (
                "ccp_reconcile_retried_total",
                "Group creations re-attempted after a failed or fallback pass",
                &self.retried,
            ),
            (
                "ccp_reconcile_orphans_removed_total",
                "Stale ccp- groups deleted by reconciler sweeps",
                &self.orphans_removed,
            ),
            (
                "ccp_reconcile_failures_total",
                "Reconcile operations (create, program, sweep) that failed",
                &self.failures,
            ),
        ] {
            registry
                .counter_family(name, help)
                .register(&[], counter.clone());
        }
        for (name, help, gauge) in [
            (
                "ccp_reconcile_failed_groups",
                "Desired tenant groups currently in the Failed state",
                &self.failed,
            ),
            (
                "ccp_reconcile_fallback_groups",
                "Desired tenant groups currently degraded to the shared class mask \
                 (CLOSID exhaustion fallback)",
                &self.fallback,
            ),
            (
                "ccp_reconcile_exhausted",
                "1 while the last reconcile pass hit CLOSID exhaustion, else 0",
                &self.exhausted,
            ),
        ] {
            registry
                .gauge_family(name, help)
                .register(&[], gauge.clone());
        }
    }
}

/// What one [`Reconciler::reconcile`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Groups created (and programmed) this pass.
    pub created: usize,
    /// Orphaned tenant groups removed this pass.
    pub orphans_removed: usize,
    /// Desired groups left in [`GroupState::Failed`].
    pub failed: usize,
    /// Desired groups left in [`GroupState::Fallback`].
    pub fallback: usize,
    /// The supervisor's breaker is tripped: the pass stood down and
    /// every tenant should be served from the shared static masks.
    pub degraded: bool,
    /// The orphan sweep failed this pass (listing error or the
    /// `reconcile.sweep` failpoint); orphans survive until next pass.
    pub sweep_failed: bool,
}

/// The group-lifecycle reconciler. See the module docs.
pub struct Reconciler {
    ctl: SupervisedController,
    domains: Vec<u32>,
    desired: Vec<DesiredGroup>,
    states: HashMap<String, GroupState>,
    stats: ReconcileStats,
    /// Passes left to skip before creation is attempted again.
    backoff_left: u32,
    /// Next backoff window (doubles per consecutive exhaustion).
    backoff_next: u32,
    /// Sticky exhaustion condition: set when a creating pass hits
    /// CLOSID capacity, held through the backoff passes it causes, and
    /// cleared only by the next creating pass that does not. Keeps the
    /// `exhausted` gauge stable instead of flickering 0 on every
    /// backoff pass while the scarcity persists.
    capacity_exhausted: bool,
}

impl std::fmt::Debug for Reconciler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reconciler")
            .field("desired", &self.desired.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Reconciler {
    /// Wraps a supervised controller programming the given L3 `domains`.
    pub fn new(ctl: SupervisedController, domains: Vec<u32>) -> Self {
        Reconciler {
            ctl,
            domains,
            desired: Vec::new(),
            states: HashMap::new(),
            stats: ReconcileStats::default(),
            backoff_left: 0,
            backoff_next: BASE_BACKOFF_PASSES,
            capacity_exhausted: false,
        }
    }

    /// The reconciler's instruments (shared handles, for `/metrics` and
    /// `/stats`).
    pub fn stats(&self) -> ReconcileStats {
        self.stats.clone()
    }

    /// The supervisor's shared health handle.
    pub fn health(&self) -> Arc<ResctrlHealth> {
        self.ctl.health()
    }

    /// Replaces the desired set. Newly-desired groups start
    /// [`GroupState::Pending`]; states of groups no longer desired are
    /// dropped (their directories go in the next sweep).
    pub fn set_desired(&mut self, desired: Vec<DesiredGroup>) {
        self.states
            .retain(|name, _| desired.iter().any(|d| &d.name == name));
        for d in &desired {
            self.states
                .entry(d.name.clone())
                .or_insert(GroupState::Pending);
        }
        self.desired = desired;
    }

    /// Current state of every desired group (copied snapshot, safe to
    /// hand across threads).
    pub fn group_states(&self) -> HashMap<String, GroupState> {
        self.states.clone()
    }

    /// Startup sweep: deletes **every** `ccp-` group in the tree —
    /// leftovers of a previous process, including `ccp-probe` and the
    /// old engine's mask groups. Call once, before the engine creates
    /// its own groups.
    ///
    /// # Errors
    /// Propagates a listing failure; individual remove failures are
    /// counted into `failures` but do not abort the sweep.
    pub fn startup_sweep(&mut self) -> Result<usize, ResctrlError> {
        self.sweep(|name| name.starts_with(GROUP_PREFIX))
    }

    /// Shutdown sweep: same scope as the startup sweep (all `ccp-`
    /// groups, so nothing this process created survives it). Returns
    /// `(removed, remaining)` where `remaining` counts `ccp-` groups
    /// that could not be removed — 0 is the clean-exit criterion.
    pub fn shutdown_sweep(&mut self) -> (usize, usize) {
        // Nothing is desired after shutdown: drop the desired set first
        // so the sweep also removes the groups this process satisfied.
        self.desired.clear();
        self.states.clear();
        let removed = self
            .sweep(|name| name.starts_with(GROUP_PREFIX))
            .unwrap_or(0);
        let remaining = self
            .ctl
            .groups()
            .map(|gs| gs.iter().filter(|g| g.starts_with(GROUP_PREFIX)).count())
            .unwrap_or(usize::MAX);
        (removed, remaining)
    }

    /// One sweep over the tree removing groups selected by `victim`
    /// that are not currently desired.
    fn sweep(&mut self, victim: impl Fn(&str) -> bool) -> Result<usize, ResctrlError> {
        if ccp_fault::should_fail(faults::RECONCILE_SWEEP) {
            return Err(ResctrlError::Io {
                path: "reconcile.sweep".into(),
                op: "readdir",
                message: "Input/output error (os error 5)".into(),
            });
        }
        self.stats.sweeps.inc();
        let mut removed = 0;
        for name in self.ctl.groups()? {
            if !victim(&name) || self.desired.iter().any(|d| d.name == name) {
                continue;
            }
            let Ok(handle) = self.ctl.existing_group(&name) else {
                continue;
            };
            match self.ctl.remove_group(handle) {
                Ok(()) => {
                    removed += 1;
                    self.stats.orphans_removed.inc();
                }
                Err(_) => {
                    self.stats.failures.inc();
                }
            }
        }
        Ok(removed)
    }

    /// Evaluates the `tenant.create_group` failpoint, mapping its typed
    /// errno the same way the controller maps a real kernel error.
    fn fault_create(&self, name: &str) -> Result<(), ResctrlError> {
        match ccp_fault::check(faults::TENANT_CREATE_GROUP) {
            None => Ok(()),
            Some(ccp_fault::Failure::Errno(ccp_fault::Errno::Enospc)) => {
                Err(ResctrlError::TooManyGroups {
                    limit: self.ctl.info().num_closids,
                })
            }
            Some(ccp_fault::Failure::Errno(e)) => Err(ResctrlError::Io {
                path: name.to_string(),
                op: "mkdir",
                message: format!("{} (os error {})", e.message(), e.code()),
            }),
            Some(ccp_fault::Failure::Generic) => Err(ResctrlError::Io {
                path: name.to_string(),
                op: "mkdir",
                message: "Input/output error (os error 5)".into(),
            }),
        }
    }

    /// One reconcile pass: sweep orphaned tenant groups, create missing
    /// desired groups (capacity-aware), re-assert schemata. Stands down
    /// while the supervisor's breaker is tripped.
    pub fn reconcile(&mut self) -> ReconcileOutcome {
        let mut out = ReconcileOutcome::default();
        if self.health().is_degraded() {
            out.degraded = true;
            // Every tenant is served from the shared static masks until
            // the breaker heals; states are left as-is so the next
            // healthy pass resumes where it stood.
            self.publish_gauges(&out);
            return out;
        }

        // Mid-run sweeps only touch groups the tenant layer owns by
        // name; the engine's mask groups and ccp-probe stay.
        match self.sweep(|name| parse_group_name(name).is_some()) {
            Ok(n) => out.orphans_removed = n,
            Err(_) => out.sweep_failed = true,
        }

        let can_create = if self.backoff_left > 0 {
            self.backoff_left -= 1;
            false
        } else {
            true
        };
        let mut exhausted_this_pass = false;
        let desired = self.desired.clone();
        for d in &desired {
            let state = *self.states.get(&d.name).unwrap_or(&GroupState::Pending);
            let exists = self.ctl.existing_group(&d.name).is_ok();
            if exists {
                // Re-assert the mask; the skip cache makes the repeat
                // case free, and a drifted kernel state surfaces here.
                match self.assert_mask(d) {
                    Ok(()) => {
                        if state != GroupState::Satisfied {
                            self.stats.reconciled.inc();
                            out.created += usize::from(state == GroupState::Pending);
                        }
                        self.states.insert(d.name.clone(), GroupState::Satisfied);
                    }
                    Err(_) => {
                        self.stats.failures.inc();
                        self.states.insert(d.name.clone(), GroupState::Failed);
                    }
                }
                continue;
            }
            if !can_create || exhausted_this_pass {
                // Capacity backoff: leave the state as it stands
                // (Fallback keeps serving from the shared mask).
                if state == GroupState::Satisfied {
                    // The directory vanished under us; next eligible
                    // pass recreates it.
                    self.states.insert(d.name.clone(), GroupState::Failed);
                }
                continue;
            }
            if matches!(state, GroupState::Fallback | GroupState::Failed) {
                self.stats.retried.inc();
            }
            let created = self
                .fault_create(&d.name)
                .and_then(|()| self.ctl.create_group(&d.name));
            match created {
                Ok(handle) => match self.program_mask(&handle, d.mask) {
                    Ok(()) => {
                        out.created += 1;
                        self.stats.reconciled.inc();
                        self.states.insert(d.name.clone(), GroupState::Satisfied);
                    }
                    Err(_) => {
                        // Give the CLOSID back rather than leak a
                        // half-programmed group.
                        if let Ok(h) = self.ctl.existing_group(&d.name) {
                            let _ = self.ctl.remove_group(h);
                        }
                        self.stats.failures.inc();
                        self.states.insert(d.name.clone(), GroupState::Failed);
                    }
                },
                Err(ResctrlError::TooManyGroups { .. }) => {
                    // Exhaustion is a capacity condition, not a fault:
                    // this group (and the rest of the pass) degrades to
                    // the shared class mask and creation backs off.
                    exhausted_this_pass = true;
                    self.states.insert(d.name.clone(), GroupState::Fallback);
                }
                Err(_) => {
                    self.stats.failures.inc();
                    self.states.insert(d.name.clone(), GroupState::Failed);
                }
            }
        }

        if exhausted_this_pass {
            // Mark every still-missing desired group as fallback so the
            // tenant layer serves all of them from shared masks rather
            // than leaving later entries Pending forever.
            for d in &desired {
                let st = self.states.get_mut(&d.name).expect("state seeded");
                if *st == GroupState::Pending {
                    *st = GroupState::Fallback;
                }
            }
            self.backoff_left = self.backoff_next;
            self.backoff_next = (self.backoff_next * 2).min(MAX_BACKOFF_PASSES);
            self.capacity_exhausted = true;
        } else if can_create {
            self.backoff_next = BASE_BACKOFF_PASSES;
            self.capacity_exhausted = false;
        }

        out.failed = self.count(GroupState::Failed);
        out.fallback = self.count(GroupState::Fallback);
        self.stats
            .exhausted
            .set(f64::from(u8::from(self.capacity_exhausted)));
        self.publish_gauges(&out);
        out
    }

    fn publish_gauges(&self, out: &ReconcileOutcome) {
        self.stats.failed.set(out.failed as f64);
        self.stats.fallback.set(out.fallback as f64);
    }

    fn count(&self, which: GroupState) -> usize {
        self.states.values().filter(|s| **s == which).count()
    }

    fn assert_mask(&mut self, d: &DesiredGroup) -> Result<(), ResctrlError> {
        let handle = self.ctl.existing_group(&d.name)?;
        self.program_mask(&handle, d.mask)
    }

    fn program_mask(
        &mut self,
        handle: &crate::controller::GroupHandle,
        mask: WayMask,
    ) -> Result<(), ResctrlError> {
        for &domain in &self.domains.clone() {
            self.ctl.set_l3_mask(handle, domain, mask)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::CacheController;
    use crate::fs::FakeFs;
    use crate::supervisor::RetryPolicy;
    use std::time::Duration;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(200),
            jitter_seed: 7,
        }
    }

    fn reconciler_on(fs: FakeFs) -> Reconciler {
        let ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").unwrap();
        let sup = SupervisedController::new(ctl, fast_policy(), Arc::new(ResctrlHealth::new(3)));
        Reconciler::new(sup, vec![0])
    }

    fn desired(name: &str, mask: u32) -> DesiredGroup {
        DesiredGroup {
            name: name.to_string(),
            mask: WayMask::new(mask).unwrap(),
        }
    }

    #[test]
    fn startup_sweep_removes_all_ccp_groups_with_nested_mon_groups() {
        let fs = FakeFs::broadwell();
        {
            let mut prev =
                CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
            let g = prev.create_group("ccp-a-polluting").unwrap();
            prev.create_mon_group(Some(&g), "q1").unwrap();
            prev.create_group("ccp-fffff").unwrap();
            prev.create_group("ccp-probe").unwrap();
            prev.create_group("other").unwrap(); // not ours: survives
        }
        let mut r = reconciler_on(fs.clone());
        assert_eq!(r.startup_sweep().unwrap(), 3);
        assert_eq!(r.stats().orphans_removed.get(), 3);
        assert_eq!(fs.group_count(), 1);
    }

    #[test]
    fn reconcile_creates_desired_groups_and_programs_masks() {
        let fs = FakeFs::broadwell();
        let mut r = reconciler_on(fs.clone());
        r.set_desired(vec![
            desired("ccp-a-polluting", 0x3),
            desired("ccp-a-sensitive", 0xfffff),
        ]);
        let out = r.reconcile();
        assert_eq!(out.created, 2);
        assert_eq!(out.failed, 0);
        assert_eq!(r.stats().reconciled.get(), 2);
        use crate::fs::ResctrlFs;
        assert_eq!(
            fs.read(std::path::Path::new(
                "/sys/fs/resctrl/ccp-a-polluting/schemata"
            ))
            .unwrap(),
            "L3:0=3\n"
        );
        // A second pass is a no-op: nothing new created or failed.
        let out = r.reconcile();
        assert_eq!(out.created, 0);
        assert_eq!(r.stats().reconciled.get(), 2);
        assert!(r
            .group_states()
            .values()
            .all(|s| *s == GroupState::Satisfied));
    }

    #[test]
    fn undesired_tenant_groups_are_swept_but_mask_groups_survive_midrun() {
        let fs = FakeFs::broadwell();
        let mut r = reconciler_on(fs.clone());
        r.set_desired(vec![desired("ccp-a-polluting", 0x3)]);
        r.reconcile();
        // Another component's mask group plus a stale tenant group.
        {
            let mut other =
                CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
            other.create_group("ccp-fff").unwrap();
            other.create_group("ccp-gone-sensitive").unwrap();
        }
        let out = r.reconcile();
        assert_eq!(out.orphans_removed, 1, "only the stale tenant group");
        assert_eq!(fs.group_count(), 2); // ccp-a-polluting + ccp-fff
    }

    #[test]
    fn exhaustion_degrades_to_fallback_and_upgrades_when_capacity_frees() {
        // 4 CLOSIDs: root + 3 groups. Two slots taken by another owner.
        let fs = FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 4, &[0]);
        let mut other =
            CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        let o1 = other.create_group("held-1").unwrap();
        let _o2 = other.create_group("held-2").unwrap();

        let mut r = reconciler_on(fs.clone());
        r.set_desired(vec![
            desired("ccp-a-polluting", 0x3),
            desired("ccp-b-polluting", 0x3),
        ]);
        let out = r.reconcile();
        assert_eq!(out.created, 1, "one slot was left");
        assert_eq!(out.fallback, 1, "the other degrades to the shared mask");
        assert_eq!(out.failed, 0, "exhaustion is not a failure");
        assert_eq!(r.stats().exhausted.get(), 1.0);

        // Capacity frees; backoff (1 pass after first exhaustion) then
        // the retry upgrades the fallback group to satisfied.
        other.remove_group(o1).unwrap();
        let skipped = r.reconcile();
        assert_eq!(skipped.created, 0, "backoff pass skips creation");
        let healed = r.reconcile();
        assert_eq!(healed.created, 1);
        assert_eq!(healed.fallback, 0);
        assert!(r.stats().retried.get() >= 1);
        assert_eq!(r.stats().exhausted.get(), 0.0);
    }

    #[test]
    fn register_into_renders_the_live_counters_and_gauges() {
        let fs = FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 3, &[0]);
        let mut r = reconciler_on(fs);
        let registry = Registry::new();
        r.stats().register_into(&registry);
        // 3 CLOSIDs: root + 2 groups, so the third desired group falls back.
        r.set_desired(vec![
            desired("ccp-a-polluting", 0x3),
            desired("ccp-a-sensitive", 0xfffff),
            desired("ccp-a-mixed", 0xfff),
        ]);
        r.reconcile();
        let text = registry.render_prometheus();
        for line in [
            "ccp_reconcile_sweeps_total 1",
            "ccp_reconcile_reconciled_total 2",
            "ccp_reconcile_retried_total 0",
            "ccp_reconcile_orphans_removed_total 0",
            "ccp_reconcile_failures_total 0",
            "ccp_reconcile_failed_groups 0.0",
            "ccp_reconcile_fallback_groups 1.0",
            "ccp_reconcile_exhausted 1.0",
        ] {
            assert!(text.contains(line), "{line} missing from:\n{text}");
        }
    }

    #[test]
    fn degraded_breaker_stands_the_reconciler_down() {
        let fs = FakeFs::broadwell();
        let mut r = reconciler_on(fs.clone());
        r.set_desired(vec![desired("ccp-a-polluting", 0x3)]);
        for _ in 0..3 {
            r.health().record_failure();
        }
        assert!(r.health().is_degraded());
        let out = r.reconcile();
        assert!(out.degraded);
        assert_eq!(fs.group_count(), 0, "no kernel writes while degraded");
        r.health().restore();
        let out = r.reconcile();
        assert_eq!(out.created, 1);
    }

    #[test]
    fn shutdown_sweep_leaves_zero_ccp_groups() {
        let fs = FakeFs::broadwell();
        let mut r = reconciler_on(fs.clone());
        r.set_desired(vec![
            desired("ccp-a-polluting", 0x3),
            desired("ccp-b-sensitive", 0xfffff),
        ]);
        r.reconcile();
        {
            let mut other =
                CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
            other.create_group("ccp-fff").unwrap();
        }
        // Desired set deliberately left populated: the shutdown sweep
        // must remove this process's own satisfied groups too.
        let (removed, remaining) = r.shutdown_sweep();
        assert_eq!(removed, 3);
        assert_eq!(remaining, 0);
        assert_eq!(fs.group_count(), 0);
    }
}
