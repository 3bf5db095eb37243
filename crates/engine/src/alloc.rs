//! Cache-allocator backends.
//!
//! The executor talks to cache hardware through the [`CacheAllocator`]
//! trait: "bind thread `tid` to way mask `mask`". Three backends:
//!
//! * [`ResctrlAllocator`] — the production path on CAT hardware: one
//!   resctrl group per distinct mask, threads moved between groups. It
//!   hands out the process's one [`ResctrlTree`]: sweeps, monitor and
//!   supervise step go through the controller the binds use.
//! * [`NoopAllocator`] — partitioning disabled (the paper's baseline).
//! * [`RecordingAllocator`] — test double recording every call.

use ccp_cachesim::WayMask;
use ccp_resctrl::fs::FakeFs;
use ccp_resctrl::{
    detect, CacheController, PerClass, ResctrlError, ResctrlTree, RetryPolicy, SupervisedController,
};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Failpoint name for the executor's bind path (see `ccp-fault`): when
/// armed, a worker's allocator bind fails before reaching the backend.
pub(crate) const FAULT_BIND: &str = "engine.bind";

/// Consecutive exhausted resctrl operations before the supervised
/// allocator's circuit breaker trips into degraded mode.
pub(crate) const DEFAULT_TRIP_AFTER: u32 = 3;

/// Errors surfaced by allocator backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The resctrl layer failed.
    Resctrl(String),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Resctrl(e) => write!(f, "cache allocation failed: {e}"),
        }
    }
}

impl std::error::Error for AllocError {}

impl From<ResctrlError> for AllocError {
    fn from(e: ResctrlError) -> Self {
        AllocError::Resctrl(e.to_string())
    }
}

/// Binds threads to LLC way masks.
pub trait CacheAllocator: Send + Sync {
    /// Ensures thread `tid` runs under `mask` from now on.
    ///
    /// # Errors
    /// Backend-specific failures; the executor treats them as fatal for the
    /// job but not the engine.
    fn bind(&self, tid: u64, mask: WayMask) -> Result<(), AllocError>;

    /// Makes the backend hold the state of `plan` and nothing else,
    /// without binding any thread: groups of masks the plan does not name
    /// are retired (their tasks run under the full cache until their next
    /// bind), the groups of its masks created and programmed.
    ///
    /// The control loop calls this before every publish to the live mask
    /// table, so a failing schemata write surfaces as a controller revert
    /// instead of as per-job bind failures. Backends without kernel state
    /// accept any plan.
    ///
    /// # Errors
    /// Backend-specific failures; the caller falls back to the static
    /// mapping (and prepares that).
    fn prepare(&self, plan: &PerClass<WayMask>) -> Result<(), AllocError> {
        let _ = plan;
        Ok(())
    }

    /// Human-readable backend name for diagnostics.
    fn backend_name(&self) -> &'static str;

    /// The resctrl tree behind the backend: its one controller, with the
    /// breaker, the probe and the instruments. `None` for backends
    /// without a tree (noop, recording), which cannot fail.
    fn tree(&self) -> Option<ResctrlTree> {
        None
    }
}

/// Partitioning disabled: every bind succeeds and does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopAllocator;

impl CacheAllocator for NoopAllocator {
    fn bind(&self, _tid: u64, _mask: WayMask) -> Result<(), AllocError> {
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "noop"
    }
}

/// Test double recording `(tid, mask)` pairs in call order.
#[derive(Debug, Default)]
pub struct RecordingAllocator {
    calls: Mutex<Vec<(u64, WayMask)>>,
}

impl RecordingAllocator {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all recorded binds.
    pub fn calls(&self) -> Vec<(u64, WayMask)> {
        self.calls.lock().clone()
    }
}

impl CacheAllocator for RecordingAllocator {
    fn bind(&self, tid: u64, mask: WayMask) -> Result<(), AllocError> {
        self.calls.lock().push((tid, mask));
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "recording"
    }
}

/// Production backend: binds through the process's [`ResctrlTree`],
/// which lazily creates one control group per distinct mask, named
/// `ccp-<mask-hex>`, and moves threads between groups; the controller's
/// old-vs-new caching (paper Section V-C) makes repeated identical binds
/// free.
pub struct ResctrlAllocator {
    tree: ResctrlTree,
}

impl ResctrlAllocator {
    /// Wraps an opened controller, programming the given L3 `domains`,
    /// under the default supervision (3-attempt retry with backoff,
    /// breaker tripping after `DEFAULT_TRIP_AFTER` = 3 exhausted ops).
    pub fn new(ctl: CacheController, domains: Vec<u32>) -> Self {
        let ctl = SupervisedController::new(ctl, RetryPolicy::default(), DEFAULT_TRIP_AFTER);
        ResctrlAllocator {
            tree: ctl.shared(domains),
        }
    }

    /// Opens the host's resctrl mount and wraps it (single-socket: domain 0).
    ///
    /// # Errors
    /// Propagates [`ResctrlError`] when resctrl is unavailable.
    pub fn open_host() -> Result<Self, ResctrlError> {
        Ok(Self::new(CacheController::open()?, vec![0]))
    }

    /// Opens an in-memory fake resctrl tree with `num_closids` classes of
    /// service (Broadwell has 16; with 4, three mask groups are all the
    /// tree holds), supervised like the host's: `ccp serve --fake-resctrl`,
    /// where failpoints, breaker trips and degraded mode need no CAT.
    ///
    /// # Errors
    /// [`ResctrlError::Unsupported`] for zero CLOSIDs — a tree with no
    /// class of service, not even the root's, is no resctrl tree — and
    /// any [`ResctrlError`] from opening the fake tree.
    pub fn open_fake(num_closids: u32) -> Result<Self, ResctrlError> {
        if num_closids == 0 {
            return Err(ResctrlError::Unsupported(
                "a fake resctrl tree needs at least 1 CLOSID, got 0".into(),
            ));
        }
        let fs = FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, num_closids, &[0]);
        let ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl")?;
        Ok(Self::new(ctl, vec![0]))
    }
}

impl CacheAllocator for ResctrlAllocator {
    fn bind(&self, tid: u64, mask: WayMask) -> Result<(), AllocError> {
        Ok(self.tree.lock().bind(tid, mask)?)
    }

    fn prepare(&self, plan: &PerClass<WayMask>) -> Result<(), AllocError> {
        Ok(self.tree.lock().prepare(plan)?)
    }

    fn backend_name(&self) -> &'static str {
        "resctrl"
    }

    fn tree(&self) -> Option<ResctrlTree> {
        Some(Arc::clone(&self.tree))
    }
}

/// The allocator the host supports, and whether it reaches real CAT
/// hardware: resctrl when [`detect()`] finds it usable and the mount opens,
/// no-op allocation otherwise — partitioning is an optimization, the
/// engine never refuses to run without it.
pub fn host_allocator() -> (Arc<dyn CacheAllocator>, bool) {
    if detect().is_available() {
        if let Ok(resctrl) = ResctrlAllocator::open_host() {
            return (Arc::new(resctrl), true);
        }
    }
    (Arc::new(NoopAllocator), false)
}

/// Best-effort current-thread kernel tid.
///
/// Reads `/proc/thread-self/stat` on Linux; falls back to a hash of the
/// Rust `ThreadId` elsewhere (sufficient for the non-resctrl backends,
/// which only need a stable per-thread key).
pub(crate) fn current_tid() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") {
            if let Some(tid) = stat.split_whitespace().next().and_then(|s| s.parse().ok()) {
                return tid;
            }
        }
    }
    // Stable fallback: hash the opaque ThreadId.
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_resctrl::mask_group_name;

    fn fake_allocator() -> (FakeFs, ResctrlAllocator) {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        (fs, ResctrlAllocator::new(ctl, vec![0]))
    }

    #[test]
    fn a_fake_tree_without_closids_is_an_error() {
        let err = ResctrlAllocator::open_fake(0).err().expect("0 CLOSIDs");
        assert!(err.to_string().contains("got 0"), "{err}");
        let one = ResctrlAllocator::open_fake(1).expect("1 CLOSID opens");
        assert_eq!(one.backend_name(), "resctrl");
    }

    #[test]
    fn noop_always_succeeds() {
        let a = NoopAllocator;
        assert!(a.bind(1, WayMask::new(0x3).unwrap()).is_ok());
        assert_eq!(a.backend_name(), "noop");
    }

    #[test]
    fn recording_captures_order() {
        let a = RecordingAllocator::new();
        a.bind(1, WayMask::new(0x3).unwrap()).unwrap();
        a.bind(2, WayMask::new(0xfff).unwrap()).unwrap();
        let calls = a.calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0], (1, WayMask::new(0x3).unwrap()));
        assert_eq!(calls[1], (2, WayMask::new(0xfff).unwrap()));
    }

    #[test]
    fn resctrl_allocator_creates_group_per_mask() {
        let (fs, a) = fake_allocator();
        a.bind(100, WayMask::new(0x3).unwrap()).unwrap();
        a.bind(200, WayMask::new(0x3).unwrap()).unwrap();
        a.bind(300, WayMask::new(0xfffff).unwrap()).unwrap();
        assert_eq!(fs.group_count(), 2); // one per distinct mask
        assert_eq!(
            fs.tasks_of(std::path::Path::new("/sys/fs/resctrl/ccp-3")),
            vec![100, 200]
        );
        assert_eq!(
            fs.tasks_of(std::path::Path::new("/sys/fs/resctrl/ccp-fffff")),
            vec![300]
        );
    }

    #[test]
    fn alternating_binds_leave_every_worker_in_exactly_one_group() {
        let (fs, a) = fake_allocator();
        let root = std::path::Path::new("/sys/fs/resctrl");
        let masks = [0x3, 0xfffff, 0xfff].map(|m| WayMask::new(m).unwrap());
        let workers = [11u64, 12, 13];
        // Worker `w` advances `w + 1` masks per step: one rotates forwards,
        // one backwards, one re-binds the mask it already has.
        for step in 0..24 {
            for (w, &tid) in workers.iter().enumerate() {
                a.bind(tid, masks[step * (w + 1) % masks.len()]).unwrap();
            }
            for &tid in &workers {
                let listed_by: Vec<String> = masks
                    .iter()
                    .map(|&m| mask_group_name(m))
                    .filter(|g| fs.tasks_of(&root.join(g)).contains(&tid))
                    .collect();
                assert_eq!(
                    listed_by.len(),
                    1,
                    "step {step}: tid {tid} in {listed_by:?}"
                );
            }
            assert!(fs.tasks_of(root).is_empty(), "bound workers left the root");
        }
    }

    #[test]
    fn rebinding_same_mask_is_skipped() {
        let (_, a) = fake_allocator();
        let m = WayMask::new(0x3).unwrap();
        a.bind(1, m).unwrap();
        let before = skipped_writes(&a);
        for _ in 0..10 {
            a.bind(1, m).unwrap();
        }
        assert_eq!(skipped_writes(&a) - before, 10);
    }

    #[test]
    fn schemata_content_matches_mask() {
        let (fs, a) = fake_allocator();
        a.bind(1, WayMask::new(0xfff).unwrap()).unwrap();
        use ccp_resctrl::fs::ResctrlFs;
        let s = fs
            .read(std::path::Path::new("/sys/fs/resctrl/ccp-fff/schemata"))
            .unwrap();
        assert_eq!(s, "L3:0=fff\n");
    }

    fn skipped_writes(a: &ResctrlAllocator) -> u64 {
        a.tree.lock().metrics().skipped_writes()
    }

    fn plan(polluting: u32, mixed: u32, sensitive: u32) -> PerClass<WayMask> {
        PerClass::new(polluting, mixed, sensitive).map(|&bits| WayMask::new(bits).unwrap())
    }

    fn ccp_groups(fs: &FakeFs) -> Vec<String> {
        use ccp_resctrl::fs::ResctrlFs;
        let mut groups = fs
            .list_dirs(std::path::Path::new("/sys/fs/resctrl"))
            .unwrap();
        groups.retain(|g| g.starts_with("ccp-"));
        groups.sort();
        groups
    }

    #[test]
    fn prepare_creates_the_plans_groups_without_binding_tasks() {
        let (fs, a) = fake_allocator();
        a.prepare(&plan(0x3, 0xf0000, 0xf0000)).unwrap();
        assert_eq!(ccp_groups(&fs), ["ccp-3", "ccp-f0000"]);
        use ccp_resctrl::fs::ResctrlFs;
        let s = fs
            .read(std::path::Path::new("/sys/fs/resctrl/ccp-f0000/schemata"))
            .unwrap();
        assert_eq!(s, "L3:0=f0000\n");
        assert!(fs
            .tasks_of(std::path::Path::new("/sys/fs/resctrl/ccp-f0000"))
            .is_empty());
        // A later bind to the same mask reuses the prepared group.
        a.bind(7, WayMask::new(0xf0000).unwrap()).unwrap();
        assert_eq!(fs.group_count(), 2);
    }

    #[test]
    fn prepare_retires_the_groups_the_plan_no_longer_names() {
        // Root + three groups: the pool holds one plan and nothing else.
        let fs = FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 4, &[0]);
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        let a = ResctrlAllocator::new(ctl, vec![0]);
        let root = std::path::Path::new("/sys/fs/resctrl");
        a.prepare(&plan(0x3, 0xfff, 0xfffff)).unwrap();
        a.bind(7, WayMask::new(0xfffff).unwrap()).unwrap();
        assert_eq!(ccp_groups(&fs), ["ccp-3", "ccp-fff", "ccp-fffff"]);

        // Two of the next plan's masks are new: without the retire there
        // is no CLOSID for either.
        a.prepare(&plan(0x3, 0xc0000, 0xf0000)).unwrap();
        assert_eq!(ccp_groups(&fs), ["ccp-3", "ccp-c0000", "ccp-f0000"]);
        assert_eq!(
            fs.tasks_of(root),
            vec![7],
            "a retired group's task runs in the root"
        );

        // A mask outside the plan is still made lazily by a bind — when a
        // CLOSID is left, which here none is: a counted failed bind.
        assert!(a.bind(8, WayMask::new(0xfffff).unwrap()).is_err());
        // And back: the revert retires what the repartition made.
        a.prepare(&plan(0x3, 0xfff, 0xfffff)).unwrap();
        assert_eq!(ccp_groups(&fs), ["ccp-3", "ccp-fff", "ccp-fffff"]);
        // An identical plan touches nothing.
        let writes = a.tree.lock().metrics().schemata_writes();
        a.prepare(&plan(0x3, 0xfff, 0xfffff)).unwrap();
        assert_eq!(a.tree.lock().metrics().schemata_writes(), writes);
    }

    #[test]
    fn rebind_after_retire_and_recreate_is_a_real_write() {
        let (fs, a) = fake_allocator();
        let full = WayMask::new(0xfffff).unwrap();
        let group = std::path::Path::new("/sys/fs/resctrl/ccp-fffff");
        a.bind(7, full).unwrap();
        a.prepare(&plan(0x3, 0xc0000, 0xf0000)).unwrap();
        a.prepare(&plan(0x3, 0xfff, 0xfffff)).unwrap();
        assert!(fs.tasks_of(group).is_empty(), "re-created, nobody in it");
        // The controller that removed the group is the one the bind asks:
        // its task cache no longer says "already there".
        let skipped = skipped_writes(&a);
        a.bind(7, full).unwrap();
        assert_eq!(fs.tasks_of(group), vec![7]);
        assert_eq!(skipped_writes(&a), skipped);
    }

    #[test]
    fn probe_heals_after_its_last_written_group_was_retired() {
        let (fs, a) = fake_allocator();
        // The sensitive mask's group takes the plan's last schemata write…
        a.prepare(&plan(0x3, 0xfff, 0xfffff)).unwrap();
        // …and the next plan retires it without writing anything new.
        a.prepare(&plan(0x3, 0xfff, 0xfff)).unwrap();
        assert_eq!(ccp_groups(&fs), ["ccp-3", "ccp-fff"]);
        let mut tree = a.tree.lock();
        while !tree.record_failure() {}
        assert!(tree.is_degraded());
        assert!(tree.probe(), "nothing to replay: the scratch-group probe");
        assert!(!tree.is_degraded());
        drop(tree);
        assert_eq!(
            ccp_groups(&fs),
            ["ccp-3", "ccp-fff"],
            "ccp-probe cleaned up"
        );
    }

    #[test]
    fn occupancy_is_read_from_the_group_the_live_mask_binds_into() {
        use crate::masks::LiveMasks;
        use crate::{CacheUsageClass, PartitionPolicy};
        use ccp_resctrl::{Class, OccupancyProbe, ResctrlMonitor};
        use std::path::Path;

        let (fs, a) = fake_allocator();
        let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        let live = Arc::new(LiveMasks::from_policy(&policy));
        let table = Arc::clone(&live);
        let masks = Box::new(move || table.snapshot());
        let mut probe = ResctrlMonitor::new(Arc::clone(&a.tree), masks, 0);
        let polluting = |probe: &mut ResctrlMonitor| {
            let readings = probe.sample();
            let reading = readings.iter().find(|r| r.class == Class::Polluting);
            reading.map(|r| r.occupancy_bytes)
        };

        a.bind(7, live.mask_for(CacheUsageClass::Polluting, &policy))
            .unwrap();
        fs.set_mon_counter(Path::new("/sys/fs/resctrl/ccp-3"), "llc_occupancy", 1111);
        assert_eq!(polluting(&mut probe), Some(1111));

        // A repartition widens the polluting class: `ccp-3` is retired,
        // and the worker's next bind moves it to `ccp-f`.
        let mut plan = policy.static_plan();
        plan.set(Class::Polluting, WayMask::new(0xf).unwrap());
        a.prepare(&plan).unwrap();
        live.publish(&plan);
        a.bind(7, live.mask_for(CacheUsageClass::Polluting, &policy))
            .unwrap();
        assert_eq!(fs.tasks_of(Path::new("/sys/fs/resctrl/ccp-f")), vec![7]);
        fs.set_mon_counter(Path::new("/sys/fs/resctrl/ccp-f"), "llc_occupancy", 2222);
        assert_eq!(polluting(&mut probe), Some(2222));
    }

    #[test]
    fn current_tid_is_stable_within_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn current_tid_differs_across_threads() {
        let main = current_tid();
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(main, other);
    }
}
