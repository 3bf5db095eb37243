//! Cache-allocator backends.
//!
//! The executor talks to cache hardware through the [`CacheAllocator`]
//! trait: "bind thread `tid` to way mask `mask`". Three backends:
//!
//! * [`ResctrlAllocator`] — the production path on CAT hardware: one
//!   resctrl group per distinct mask, threads moved between groups.
//! * [`NoopAllocator`] — partitioning disabled (the paper's baseline).
//! * [`RecordingAllocator`] — test double recording every call.

use ccp_cachesim::WayMask;
use ccp_resctrl::{
    detect, mask_group_name, CacheController, GroupHandle, ResctrlError, ResctrlHealth,
    RetryPolicy, SupervisedController,
};
use parking_lot::Mutex;
use std::collections::HashMap;
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

    /// Eagerly materializes the backend state behind `mask` — group
    /// creation plus schemata writes — without binding any thread.
    ///
    /// This is the control loop's repartition path: a new plan's masks
    /// are prepared up front so a failing schemata rewrite surfaces as a
    /// controller revert instead of as per-job bind failures. Backends
    /// without kernel state accept any mask.
    ///
    /// # Errors
    /// Backend-specific failures; the caller is expected to fall back to
    /// the previous (static) mapping.
    fn prepare(&self, mask: WayMask) -> Result<(), AllocError> {
        let _ = mask;
        Ok(())
    }

    /// Human-readable backend name for diagnostics.
    fn backend_name(&self) -> &'static str;

    /// The backend's shared health handle, when it has failure modes.
    /// `None` for backends that cannot fail (noop, recording).
    fn health(&self) -> Option<Arc<ResctrlHealth>> {
        None
    }

    /// Degraded-mode recovery probe: performs one real backend
    /// operation and reports whether the backend is healthy (clearing
    /// its breaker on success). Backends without failure modes are
    /// trivially healthy.
    fn reprobe(&self) -> bool {
        true
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

/// Production backend: drives a [`CacheController`] (resctrl).
///
/// Lazily creates one control group per distinct mask, named
/// `ccp-<mask-hex>`, and moves threads between groups. The controller's own
/// old-vs-new caching (paper Section V-C) makes repeated identical binds
/// free.
pub struct ResctrlAllocator {
    inner: Mutex<ResctrlInner>,
    /// L3 cache domains to program (usually one per socket).
    domains: Vec<u32>,
}

struct ResctrlInner {
    ctl: SupervisedController,
    groups: HashMap<u32, GroupHandle>,
}

impl ResctrlInner {
    /// Group for `mask`, created and programmed on first use.
    fn ensure_group(&mut self, domains: &[u32], mask: WayMask) -> Result<GroupHandle, AllocError> {
        if let Some(g) = self.groups.get(&mask.bits()) {
            return Ok(g.clone());
        }
        let name = mask_group_name(mask);
        let g = match self.ctl.existing_group(&name) {
            Ok(g) => g,
            Err(_) => self.ctl.create_group(&name)?,
        };
        for &d in domains {
            self.ctl.set_l3_mask(&g, d, mask)?;
        }
        self.groups.insert(mask.bits(), g.clone());
        Ok(g)
    }
}

impl ResctrlAllocator {
    /// Wraps an opened controller, programming the given L3 `domains`,
    /// under the default supervision (3-attempt retry with backoff,
    /// breaker tripping after `DEFAULT_TRIP_AFTER` = 3 exhausted ops).
    pub fn new(ctl: CacheController, domains: Vec<u32>) -> Self {
        Self::supervised(
            ctl,
            domains,
            RetryPolicy::default(),
            Arc::new(ResctrlHealth::new(DEFAULT_TRIP_AFTER)),
        )
    }

    /// Wraps an opened controller with an explicit retry policy and a
    /// caller-shared health handle (so the server's supervision loop
    /// observes breaker trips).
    pub fn supervised(
        ctl: CacheController,
        domains: Vec<u32>,
        policy: RetryPolicy,
        health: Arc<ResctrlHealth>,
    ) -> Self {
        ResctrlAllocator {
            inner: Mutex::new(ResctrlInner {
                ctl: SupervisedController::new(ctl, policy, health),
                groups: HashMap::new(),
            }),
            domains,
        }
    }

    /// Opens the host's resctrl mount and wraps it (single-socket: domain 0).
    ///
    /// # Errors
    /// Propagates [`ResctrlError`] when resctrl is unavailable.
    pub fn open_host() -> Result<Self, ResctrlError> {
        Ok(Self::new(CacheController::open()?, vec![0]))
    }

    /// Number of kernel writes skipped by the fast path so far.
    pub fn skipped_writes(&self) -> u64 {
        self.inner.lock().ctl.skipped_writes()
    }
}

impl CacheAllocator for ResctrlAllocator {
    fn bind(&self, tid: u64, mask: WayMask) -> Result<(), AllocError> {
        let mut inner = self.inner.lock();
        let group = inner.ensure_group(&self.domains, mask)?;
        inner.ctl.assign_task(&group, tid)?;
        Ok(())
    }

    fn prepare(&self, mask: WayMask) -> Result<(), AllocError> {
        let mut inner = self.inner.lock();
        let group = inner.ensure_group(&self.domains, mask)?;
        // Re-assert the schemata even for a cached group so a drifted or
        // faulted kernel state surfaces here, on the control path, rather
        // than at the next worker bind. The controller's own old-vs-new
        // write cache keeps the repeat case cheap.
        for &d in &self.domains {
            inner.ctl.set_l3_mask(&group, d, mask)?;
        }
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "resctrl"
    }

    fn health(&self) -> Option<Arc<ResctrlHealth>> {
        Some(self.inner.lock().ctl.health())
    }

    fn reprobe(&self) -> bool {
        self.inner.lock().ctl.probe()
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
    use ccp_resctrl::fs::FakeFs;

    fn fake_allocator() -> (FakeFs, ResctrlAllocator) {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        (fs, ResctrlAllocator::new(ctl, vec![0]))
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
        let before = a.skipped_writes();
        for _ in 0..10 {
            a.bind(1, m).unwrap();
        }
        assert_eq!(a.skipped_writes() - before, 10);
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

    #[test]
    fn prepare_creates_group_without_binding_tasks() {
        let (fs, a) = fake_allocator();
        a.prepare(WayMask::new(0xf0000).unwrap()).unwrap();
        assert_eq!(fs.group_count(), 1);
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
        assert_eq!(fs.group_count(), 1);
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
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        let table = Arc::clone(&live);
        let mut probe = ResctrlMonitor::new(ctl, Box::new(move || table.snapshot(&policy)), 0);
        let polluting = |probe: &mut ResctrlMonitor| {
            let readings = probe.sample();
            let reading = readings.iter().find(|r| r.class == Class::Polluting);
            reading.map(|r| r.occupancy_bytes)
        };

        a.bind(7, live.mask_for(CacheUsageClass::Polluting, &policy))
            .unwrap();
        fs.set_mon_counter(Path::new("/sys/fs/resctrl/ccp-3"), "llc_occupancy", 1111);
        assert_eq!(polluting(&mut probe), Some(1111));

        // A repartition widens the polluting class: the worker's next
        // bind moves it to `ccp-f`, and `ccp-3` stops changing.
        let mut plan = policy.static_plan();
        plan.set(Class::Polluting, WayMask::new(0xf).unwrap());
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
