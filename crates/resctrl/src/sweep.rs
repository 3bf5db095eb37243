//! Orphan sweeps: the two moments a process owns every `ccp-` group.
//!
//! The only groups this system creates are the per-mask `ccp-<mask hex>`
//! groups (workers are bound into them) and the supervisor's short-lived
//! `ccp-probe`. Mid-run a group goes only when a repartition stops
//! naming its mask, so a crashed process leaves its groups behind — and
//! CLOSIDs are scarce (16 on the paper's Broadwell, often 4 elsewhere):
//! a few dead predecessors are enough to make every bind of the next one
//! fail with `ENOSPC`. The [`Sweeper`] closes that gap at the two points
//! where ownership is unambiguous:
//!
//! * **Start-up sweep** — every `ccp-` group left over from a previous
//!   process is deleted before this one binds anything (nested
//!   monitoring groups are torn down by `remove_group` itself).
//! * **Shutdown sweep** — same scope, after the last query has drained,
//!   so nothing this process created survives it; the caller logs the
//!   `(removed, remaining)` pair as its zero-leak witness.
//!
//! A sweep runs on the process's one [`ResctrlTree`], under the mutex the
//! binds take: transient errors retry with backoff, a failure streak
//! trips the same breaker, and a swept group leaves the index and the
//! task cache with its directory. Groups without the prefix belong to
//! someone else and are never touched.

use crate::error::ResctrlError;
use crate::faults;
use crate::supervisor::ResctrlTree;
use crate::tenant::GROUP_PREFIX;
use ccp_obs::{Counter, Registry};

/// The sweeper's `ccp_reconcile_*` instruments, a bundle of live
/// `ccp_obs` handles: bumped by the sweeps, read by `/stats`
/// (`handle.get()`), and — once attached with
/// [`register_into`](SweepStats::register_into) — rendered by `/metrics`
/// from the same handles. Cloning shares them.
#[derive(Debug, Default, Clone)]
pub struct SweepStats {
    /// Sweeps that listed the tree.
    pub sweeps: Counter,
    /// Orphaned `ccp-` groups deleted by sweeps.
    pub orphans_removed: Counter,
    /// Group removals a sweep attempted and could not complete.
    pub failures: Counter,
}

impl SweepStats {
    /// Attaches the live counters to `registry`.
    pub fn register_into(&self, registry: &Registry) {
        for (name, help, counter) in [
            (
                "ccp_reconcile_sweeps_total",
                "Orphan sweeps executed over the resctrl tree (start-up and shutdown)",
                &self.sweeps,
            ),
            (
                "ccp_reconcile_orphans_removed_total",
                "Stale ccp- groups deleted by orphan sweeps",
                &self.orphans_removed,
            ),
            (
                "ccp_reconcile_failures_total",
                "Group removals that failed during an orphan sweep",
                &self.failures,
            ),
        ] {
            registry
                .counter_family(name, help)
                .register(&[], counter.clone());
        }
    }
}

/// Removes `ccp-` groups nobody can be running in. See the module docs.
pub struct Sweeper {
    tree: ResctrlTree,
    stats: SweepStats,
}

impl Sweeper {
    /// A sweeper over `tree`.
    pub fn new(tree: ResctrlTree) -> Self {
        Sweeper {
            tree,
            stats: SweepStats::default(),
        }
    }

    /// The sweeper's instruments (shared handles, for `/metrics` and
    /// `/stats`).
    pub fn stats(&self) -> SweepStats {
        self.stats.clone()
    }

    /// Deletes **every** `ccp-` group in the tree and returns how many
    /// went. At start-up, before the engine binds anything, those are the
    /// leftovers of a previous process — its mask groups and `ccp-probe`.
    ///
    /// # Errors
    /// Propagates a listing failure; individual remove failures are
    /// counted into `failures` but do not abort the sweep.
    pub fn sweep(&mut self) -> Result<usize, ResctrlError> {
        if ccp_fault::should_fail(faults::RECONCILE_SWEEP) {
            return Err(ResctrlError::Io {
                path: "reconcile.sweep".into(),
                op: "readdir",
                message: "Input/output error (os error 5)".into(),
            });
        }
        self.stats.sweeps.inc();
        let mut ctl = self.tree.lock();
        let mut removed = 0;
        for name in ctl.groups()? {
            if !name.starts_with(GROUP_PREFIX) {
                continue;
            }
            let Ok(handle) = ctl.existing_group(&name) else {
                continue;
            };
            match ctl.remove_group(handle) {
                Ok(()) => {
                    removed += 1;
                    self.stats.orphans_removed.inc();
                }
                Err(_) => self.stats.failures.inc(),
            }
        }
        Ok(removed)
    }

    /// Shutdown sweep: one more [`sweep`](Self::sweep), so nothing this
    /// process created survives it. Returns `(removed, remaining)` where
    /// `remaining` counts `ccp-` groups that could not be removed — 0 is
    /// the clean-exit criterion.
    pub fn shutdown_sweep(&mut self) -> (usize, usize) {
        let removed = self.sweep().unwrap_or(0);
        let remaining = self
            .tree
            .lock()
            .groups()
            .map(|gs| gs.iter().filter(|g| g.starts_with(GROUP_PREFIX)).count())
            .unwrap_or(usize::MAX);
        (removed, remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::CacheController;
    use crate::fs::{FakeFs, ResctrlFs};
    use crate::supervisor::{RetryPolicy, SupervisedController};
    use std::path::Path;

    fn sweeper_on(fs: FakeFs) -> Sweeper {
        let ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").unwrap();
        Sweeper::new(SupervisedController::new(ctl, RetryPolicy::default(), 3).shared(vec![0]))
    }

    #[test]
    fn startup_sweep_removes_all_ccp_groups_with_nested_mon_groups() {
        let fs = FakeFs::broadwell();
        {
            let mut prev =
                CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
            prev.create_group("ccp-3").unwrap();
            prev.create_group("ccp-fffff").unwrap();
            prev.create_group("ccp-probe").unwrap();
            prev.create_group("other").unwrap(); // not ours: survives
        }
        fs.create_dir(Path::new("/sys/fs/resctrl/ccp-3/mon_groups/q1"))
            .unwrap();
        let mut s = sweeper_on(fs.clone());
        assert_eq!(s.sweep().unwrap(), 3);
        assert_eq!(s.stats().orphans_removed.get(), 3);
        assert_eq!(fs.group_count(), 1);
    }

    #[test]
    fn register_into_renders_the_live_counters() {
        let fs = FakeFs::broadwell();
        {
            let mut prev =
                CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
            prev.create_group("ccp-fff").unwrap();
        }
        let mut s = sweeper_on(fs);
        let registry = Registry::new();
        s.stats().register_into(&registry);
        s.sweep().unwrap();
        let text = registry.render_prometheus();
        for line in [
            "ccp_reconcile_sweeps_total 1",
            "ccp_reconcile_orphans_removed_total 1",
            "ccp_reconcile_failures_total 0",
        ] {
            assert!(text.contains(line), "{line} missing from:\n{text}");
        }
    }

    #[test]
    fn shutdown_sweep_leaves_zero_ccp_groups() {
        let fs = FakeFs::broadwell();
        let mut s = sweeper_on(fs.clone());
        {
            // What a run leaves behind: the allocator's mask groups, one
            // with a per-query monitoring group still nested in it.
            let mut engine =
                CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
            engine.create_group("ccp-3").unwrap();
            engine.create_group("ccp-fffff").unwrap();
            engine.create_group("ccp-fff").unwrap();
        }
        fs.create_dir(Path::new("/sys/fs/resctrl/ccp-3/mon_groups/q7"))
            .unwrap();
        let (removed, remaining) = s.shutdown_sweep();
        assert_eq!(removed, 3);
        assert_eq!(remaining, 0);
        assert_eq!(fs.group_count(), 0);
    }
}
