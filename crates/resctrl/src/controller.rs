//! High-level CAT controller over a mounted resctrl tree.
//!
//! [`CacheController`] manages *control groups* (classes of service): it
//! creates them, programs their L3 capacity bitmasks, and binds threads to
//! them. It also implements the paper's Section V-C optimization: a task
//! write is skipped when the thread is already in the group ("our
//! implementation always compares old and new bitmasks and only associates
//! a TID with a new bitmask if really necessary"). Groups are per mask, so
//! each group's schemata is written once, when it is made; a schemata
//! write always reaches the kernel.

use crate::error::ResctrlError;
use crate::faults;
use crate::fs::{RealFs, ResctrlFs};
use crate::metrics::ResctrlMetrics;
use crate::schemata::Schemata;
use ccp_cachesim::WayMask;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Evaluates the mount-vanished failpoint shared by every operation.
fn fault_mount_lost() -> Result<(), ResctrlError> {
    if ccp_fault::should_fail(faults::MOUNT_LOST) {
        return Err(ResctrlError::NotMounted);
    }
    Ok(())
}

/// Evaluates an I/O failpoint, fabricating the errno-style message a
/// real kernel failure on `path` would produce.
fn fault_io(name: &str, path: &Path, op: &'static str, message: &str) -> Result<(), ResctrlError> {
    if ccp_fault::should_fail(name) {
        return Err(ResctrlError::Io {
            path: path.display().to_string(),
            op,
            message: message.to_string(),
        });
    }
    Ok(())
}

/// Static CAT parameters read from `info/L3` at open time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatInfo {
    /// The full capacity bitmask (e.g. `0xfffff` on a 20-way Broadwell LLC).
    pub cbm_mask: u32,
    /// Minimum number of contiguous bits a mask must have.
    pub min_cbm_bits: u32,
    /// Number of hardware classes of service (16 on the paper's CPU).
    pub num_closids: u32,
}

impl CatInfo {
    /// Number of ways the CBM covers.
    pub fn ways(&self) -> u32 {
        self.cbm_mask.count_ones()
    }
}

/// Opaque handle to a control group created by this controller.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupHandle {
    name: String,
    dir: PathBuf,
}

impl GroupHandle {
    /// The group's directory name under the resctrl root.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Opaque handle to a *monitoring group*: an RMID-backed CMT/MBM counter
/// set under a `mon_groups` directory. Unlike a [`GroupHandle`] it has no
/// schemata and consumes no CLOS — the kernel only assigns it a resource
/// monitoring ID, so per-query occupancy can be tracked without spending
/// one of the 16 classes of service.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MonGroupHandle {
    name: String,
    dir: PathBuf,
}

impl MonGroupHandle {
    /// The monitoring group's directory name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Manages CAT classes of service through a resctrl mount.
pub struct CacheController {
    fs: Box<dyn ResctrlFs>,
    root: PathBuf,
    info: CatInfo,
    /// Cache of task -> group assignments: lets a rebind into the group
    /// a thread is already in skip the kernel (paper Section V-C).
    task_cache: HashMap<u64, String>,
    metrics: ResctrlMetrics,
}

impl std::fmt::Debug for CacheController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheController")
            .field("root", &self.root)
            .field("info", &self.info)
            .field("skipped_writes", &self.metrics.skipped_writes())
            .finish_non_exhaustive()
    }
}

impl CacheController {
    /// Opens the controller against the real host filesystem at the
    /// conventional mount point.
    ///
    /// # Errors
    /// [`ResctrlError::NotMounted`] when the tree is absent, plus any
    /// parse/IO failure reading `info/L3`.
    pub fn open() -> Result<Self, ResctrlError> {
        Self::open_with(Box::new(RealFs), crate::DEFAULT_MOUNT)
    }

    /// Opens against an arbitrary [`ResctrlFs`] (e.g. [`crate::fs::FakeFs`])
    /// rooted at `mount`.
    ///
    /// # Errors
    /// See [`CacheController::open`].
    pub fn open_with(fs: Box<dyn ResctrlFs>, mount: &str) -> Result<Self, ResctrlError> {
        let root = PathBuf::from(mount);
        let info_dir = root.join("info/L3");
        if !fs.exists(&info_dir) {
            return Err(ResctrlError::NotMounted);
        }
        let read_u32 = |file: &str, radix: u32| -> Result<u32, ResctrlError> {
            let path = info_dir.join(file);
            let text = fs.read(&path)?;
            u32::from_str_radix(text.trim(), radix)
                .map_err(|_| ResctrlError::InvalidSchemata(format!("{file}: {text:?}")))
        };
        let info = CatInfo {
            cbm_mask: read_u32("cbm_mask", 16)?,
            min_cbm_bits: read_u32("min_cbm_bits", 10)?,
            num_closids: read_u32("num_closids", 10)?,
        };
        Ok(CacheController {
            fs,
            root,
            info,
            task_cache: HashMap::new(),
            metrics: ResctrlMetrics::new(),
        })
    }

    /// The CAT parameters of the opened mount.
    pub fn info(&self) -> CatInfo {
        self.info
    }

    /// Names of existing control groups (excluding the root and `info`).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn groups(&self) -> Result<Vec<String>, ResctrlError> {
        Ok(self
            .fs
            .list_dirs(&self.root)?
            .into_iter()
            .filter(|d| d != "info" && d != "mon_groups" && d != "mon_data")
            .collect())
    }

    /// Creates a control group (one hardware class of service).
    ///
    /// # Errors
    /// Maps the kernel's `ENOSPC` to [`ResctrlError::TooManyGroups`].
    pub fn create_group(&mut self, name: &str) -> Result<GroupHandle, ResctrlError> {
        let dir = self.root.join(name);
        fault_mount_lost()?;
        let started = Instant::now();
        // The injected ENOSPC takes the same mapping path below as a
        // real kernel CLOS exhaustion.
        let created = fault_io(
            faults::CREATE_GROUP,
            &dir,
            "mkdir",
            "No space left on device (os error 28)",
        )
        .and_then(|()| self.fs.create_dir(&dir));
        match created {
            Ok(()) => {
                self.metrics
                    .record_group_create(started.elapsed().as_secs_f64());
                Ok(GroupHandle {
                    name: name.to_string(),
                    dir,
                })
            }
            Err(ResctrlError::Io { message, .. }) if message.contains("No space left") => {
                Err(ResctrlError::TooManyGroups {
                    limit: self.info.num_closids,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Opens a handle to an already existing group.
    ///
    /// # Errors
    /// [`ResctrlError::NoSuchGroup`] when absent.
    pub fn existing_group(&self, name: &str) -> Result<GroupHandle, ResctrlError> {
        let dir = self.root.join(name);
        if self.fs.exists(&dir.join("schemata")) {
            Ok(GroupHandle {
                name: name.to_string(),
                dir,
            })
        } else {
            Err(ResctrlError::NoSuchGroup(name.to_string()))
        }
    }

    /// Deletes a group; its tasks fall back to the root class. Nested
    /// monitoring groups are torn down first — real resctrl refuses to
    /// rmdir a group whose `mon_groups/` is non-empty, so removing them
    /// in one call is what makes group teardown a single operation for
    /// callers like the orphan sweeps.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn remove_group(&mut self, group: GroupHandle) -> Result<(), ResctrlError> {
        let mon_root = group.dir.join("mon_groups");
        if self.fs.exists(&mon_root) {
            for name in self.fs.list_dirs(&mon_root)? {
                self.fs.remove_dir(&mon_root.join(name))?;
            }
        }
        self.fs.remove_dir(&group.dir)?;
        self.task_cache.retain(|_, g| g != &group.name);
        Ok(())
    }

    /// Programs `group`'s L3 mask for cache `domain`, validating the mask
    /// against the hardware's `cbm_mask`/`min_cbm_bits` first.
    ///
    /// # Errors
    /// [`ResctrlError::BadMask`] on local validation failure, or the
    /// kernel's rejection.
    pub fn set_l3_mask(
        &mut self,
        group: &GroupHandle,
        domain: u32,
        mask: WayMask,
    ) -> Result<(), ResctrlError> {
        self.check_mask(mask)?;
        fault_mount_lost()?;
        fault_io(
            faults::WRITE_SCHEMATA,
            &group.dir.join("schemata"),
            "write",
            "Device or resource busy (os error 16)",
        )?;
        let line = format!("L3:{domain}={:x}\n", mask.bits());
        let started = Instant::now();
        self.fs.write(&group.dir.join("schemata"), &line)?;
        self.metrics
            .record_schemata_write(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// `mask` against the hardware's `cbm_mask` and `min_cbm_bits`.
    fn check_mask(&self, mask: WayMask) -> Result<(), ResctrlError> {
        if (mask.bits() & !self.info.cbm_mask) != 0 {
            return Err(ResctrlError::BadMask(format!(
                "mask {mask} exceeds hardware cbm_mask {:#x}",
                self.info.cbm_mask
            )));
        }
        if mask.way_count() < self.info.min_cbm_bits {
            return Err(ResctrlError::BadMask(format!(
                "mask {mask} has fewer than min_cbm_bits={} ways",
                self.info.min_cbm_bits
            )));
        }
        Ok(())
    }

    /// Reads back `group`'s current schemata from the kernel.
    ///
    /// # Errors
    /// Propagates filesystem and parse errors.
    pub fn schemata(&self, group: &GroupHandle) -> Result<Schemata, ResctrlError> {
        fault_mount_lost()?;
        fault_io(
            faults::READ,
            &group.dir.join("schemata"),
            "read",
            "Input/output error (os error 5)",
        )?;
        Schemata::parse(&self.fs.read(&group.dir.join("schemata"))?)
    }

    /// Binds thread `tid` to `group`. Subsequent identical assignments are
    /// skipped via the task cache (the paper's fast path: re-binding a job
    /// worker that already has the right class costs nothing).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn assign_task(&mut self, group: &GroupHandle, tid: u64) -> Result<(), ResctrlError> {
        if self.task_cache.get(&tid) == Some(&group.name) {
            self.metrics.record_skipped_write();
            return Ok(());
        }
        fault_mount_lost()?;
        fault_io(
            faults::ASSIGN_TASK,
            &group.dir.join("tasks"),
            "write",
            "Device or resource busy (os error 16)",
        )?;
        let started = Instant::now();
        self.fs.write(&group.dir.join("tasks"), &tid.to_string())?;
        self.metrics
            .record_task_assign(started.elapsed().as_secs_f64());
        self.task_cache.insert(tid, group.name.clone());
        Ok(())
    }

    /// This controller's instruments (kernel round-trip counts and
    /// latency, skipped writes). Attach them to a registry with
    /// [`ResctrlMetrics::register_into`]; once attached, every
    /// [`monitoring`](Self::monitoring) read also publishes per-group
    /// CMT/MBM gauges.
    pub fn metrics(&self) -> ResctrlMetrics {
        self.metrics.clone()
    }

    /// Reads a group's CMT/MBM monitoring counters for L3 domain `domain`
    /// (Intel Cache Monitoring Technology / Memory Bandwidth Monitoring).
    ///
    /// # Errors
    /// [`ResctrlError::Unsupported`] when the kernel exposes no monitoring
    /// files for the group (no CMT hardware or `cqm` disabled).
    pub fn monitoring(
        &self,
        group: &GroupHandle,
        domain: u32,
    ) -> Result<MonitoringData, ResctrlError> {
        self.read_mon_data(&group.dir, &group.name, domain)
    }

    fn read_mon_data(
        &self,
        group_dir: &Path,
        label: &str,
        domain: u32,
    ) -> Result<MonitoringData, ResctrlError> {
        let dir = group_dir
            .join("mon_data")
            .join(format!("mon_L3_{domain:02}"));
        fault_mount_lost()?;
        fault_io(
            faults::READ,
            &dir.join("llc_occupancy"),
            "read",
            "Input/output error (os error 5)",
        )?;
        if !self.fs.exists(&dir.join("llc_occupancy")) {
            return Err(ResctrlError::Unsupported(
                "no mon_data for this group (CMT/MBM unavailable)".into(),
            ));
        }
        let read_u64 = |file: &str| -> Result<u64, ResctrlError> {
            let text = self.fs.read(&dir.join(file))?;
            text.trim()
                .parse()
                .map_err(|_| ResctrlError::InvalidSchemata(format!("{file}: {text:?}")))
        };
        let data = MonitoringData {
            llc_occupancy_bytes: read_u64("llc_occupancy")?,
            mbm_total_bytes: read_u64("mbm_total_bytes")?,
            mbm_local_bytes: read_u64("mbm_local_bytes")?,
        };
        self.metrics.record_monitoring(label, domain, &data);
        Ok(data)
    }

    /// Creates a monitoring group under `parent` (or under the root when
    /// `None`). Costs an RMID but no CLOS, so it never fails with
    /// [`ResctrlError::TooManyGroups`].
    ///
    /// # Errors
    /// [`ResctrlError::Unsupported`] when the kernel exposes no
    /// `mon_groups` directory (RDT monitoring absent), otherwise
    /// filesystem errors.
    pub fn create_mon_group(
        &mut self,
        parent: Option<&GroupHandle>,
        name: &str,
    ) -> Result<MonGroupHandle, ResctrlError> {
        let base = parent.map_or(self.root.as_path(), |g| g.dir.as_path());
        let mon_root = base.join("mon_groups");
        if !self.fs.exists(&mon_root) {
            return Err(ResctrlError::Unsupported(
                "no mon_groups directory (RDT monitoring unavailable)".into(),
            ));
        }
        let dir = mon_root.join(name);
        let started = Instant::now();
        self.fs.create_dir(&dir)?;
        self.metrics
            .record_group_create(started.elapsed().as_secs_f64());
        Ok(MonGroupHandle {
            name: name.to_string(),
            dir,
        })
    }

    /// Names of existing monitoring groups under `parent` (root when
    /// `None`).
    ///
    /// # Errors
    /// Propagates filesystem errors; an absent `mon_groups` directory
    /// yields an empty list.
    pub fn mon_groups(&self, parent: Option<&GroupHandle>) -> Result<Vec<String>, ResctrlError> {
        let base = parent.map_or(self.root.as_path(), |g| g.dir.as_path());
        let mon_root = base.join("mon_groups");
        if !self.fs.exists(&mon_root) {
            return Ok(Vec::new());
        }
        self.fs.list_dirs(&mon_root)
    }

    /// Deletes a monitoring group, releasing its RMID.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn remove_mon_group(&mut self, group: MonGroupHandle) -> Result<(), ResctrlError> {
        self.fs.remove_dir(&group.dir)
    }

    /// Binds thread `tid` to a monitoring group (CMT/MBM attribution only
    /// — the thread keeps its control group's cache mask).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn assign_task_mon(
        &mut self,
        group: &MonGroupHandle,
        tid: u64,
    ) -> Result<(), ResctrlError> {
        let started = Instant::now();
        self.fs.write(&group.dir.join("tasks"), &tid.to_string())?;
        self.metrics
            .record_task_assign(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Reads a monitoring group's CMT/MBM counters for L3 `domain`.
    ///
    /// # Errors
    /// Same surface as [`CacheController::monitoring`].
    pub fn mon_group_monitoring(
        &self,
        group: &MonGroupHandle,
        domain: u32,
    ) -> Result<MonitoringData, ResctrlError> {
        self.read_mon_data(&group.dir, &group.name, domain)
    }
}

/// CMT/MBM counters of one control group on one cache domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitoringData {
    /// Bytes of LLC currently occupied by the group's tasks (CMT).
    pub llc_occupancy_bytes: u64,
    /// Total memory bandwidth consumed, cumulative bytes (MBM).
    pub mbm_total_bytes: u64,
    /// Local-socket share of `mbm_total_bytes`.
    pub mbm_local_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FakeFs;

    fn ctl() -> (FakeFs, CacheController) {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        (fs, ctl)
    }

    #[test]
    fn open_reads_cat_info() {
        let (_, ctl) = ctl();
        assert_eq!(
            ctl.info(),
            CatInfo {
                cbm_mask: 0xfffff,
                min_cbm_bits: 2,
                num_closids: 16
            }
        );
        assert_eq!(ctl.info().ways(), 20);
    }

    #[test]
    fn open_fails_when_not_mounted() {
        let fs = FakeFs::broadwell();
        let err = CacheController::open_with(Box::new(fs), "/not/mounted").unwrap_err();
        assert_eq!(err, ResctrlError::NotMounted);
    }

    #[test]
    fn group_lifecycle() {
        let (_, mut ctl) = ctl();
        assert!(ctl.groups().unwrap().is_empty());
        let g = ctl.create_group("olap").unwrap();
        assert_eq!(ctl.groups().unwrap(), vec!["olap"]);
        assert_eq!(ctl.existing_group("olap").unwrap(), g);
        ctl.remove_group(g).unwrap();
        assert!(ctl.groups().unwrap().is_empty());
        assert!(matches!(
            ctl.existing_group("olap"),
            Err(ResctrlError::NoSuchGroup(_))
        ));
    }

    #[test]
    fn set_mask_programs_schemata() {
        let (_, mut ctl) = ctl();
        let g = ctl.create_group("scan").unwrap();
        ctl.set_l3_mask(&g, 0, WayMask::new(0x3).unwrap()).unwrap();
        let s = ctl.schemata(&g).unwrap();
        assert_eq!(s.mask_of(0).unwrap().bits(), 0x3);
    }

    #[test]
    fn set_mask_validates_against_hardware() {
        let (_, mut ctl) = ctl();
        let g = ctl.create_group("g").unwrap();
        // 1 way < min_cbm_bits (2): locally rejected.
        assert!(matches!(
            ctl.set_l3_mask(&g, 0, WayMask::new(0x1).unwrap()),
            Err(ResctrlError::BadMask(_))
        ));
        // 24 ways > the 20-bit cbm_mask: locally rejected.
        assert!(matches!(
            ctl.set_l3_mask(&g, 0, WayMask::from_ways(24).unwrap()),
            Err(ResctrlError::BadMask(_))
        ));
    }

    #[test]
    fn task_assignment_appends_and_caches() {
        let (fs, mut ctl) = ctl();
        let g = ctl.create_group("g").unwrap();
        ctl.assign_task(&g, 111).unwrap();
        ctl.assign_task(&g, 222).unwrap();
        ctl.assign_task(&g, 111).unwrap(); // cached, skipped
        assert_eq!(
            fs.tasks_of(std::path::Path::new("/sys/fs/resctrl/g")),
            vec![111, 222]
        );
        assert_eq!(ctl.metrics().skipped_writes(), 1);
    }

    #[test]
    fn moving_task_between_groups_rewrites() {
        let (fs, mut ctl) = ctl();
        let a = ctl.create_group("a").unwrap();
        let b = ctl.create_group("b").unwrap();
        ctl.assign_task(&a, 7).unwrap();
        ctl.assign_task(&b, 7).unwrap();
        // The fake appends to both files (the real kernel moves the task);
        // what matters here is that the second write was not skipped.
        assert_eq!(
            fs.tasks_of(std::path::Path::new("/sys/fs/resctrl/b")),
            vec![7]
        );
        assert_eq!(ctl.metrics().skipped_writes(), 0);
    }

    #[test]
    fn closid_exhaustion_maps_to_too_many_groups() {
        let fs = FakeFs::new("/r", 0xfffff, 2, 3, &[0]);
        let mut ctl = CacheController::open_with(Box::new(fs), "/r").unwrap();
        ctl.create_group("g1").unwrap();
        ctl.create_group("g2").unwrap();
        assert!(matches!(
            ctl.create_group("g3"),
            Err(ResctrlError::TooManyGroups { limit: 3 })
        ));
    }

    #[test]
    fn monitoring_reads_cmt_and_mbm_counters() {
        let (fs, mut ctl) = ctl();
        let g = ctl.create_group("olap").unwrap();
        // Kernel-side counters tick (emulated by the fake).
        fs.set_mon_counter(
            std::path::Path::new("/sys/fs/resctrl/olap"),
            "llc_occupancy",
            5_767_168,
        );
        fs.set_mon_counter(
            std::path::Path::new("/sys/fs/resctrl/olap"),
            "mbm_total_bytes",
            123_456_789,
        );
        let m = ctl.monitoring(&g, 0).unwrap();
        assert_eq!(m.llc_occupancy_bytes, 5_767_168);
        assert_eq!(m.mbm_total_bytes, 123_456_789);
        assert_eq!(m.mbm_local_bytes, 0);
        // Unknown domain -> Unsupported, like a kernel without that socket.
        assert!(matches!(
            ctl.monitoring(&g, 7),
            Err(ResctrlError::Unsupported(_))
        ));
    }

    #[test]
    fn metrics_count_kernel_round_trips_and_skips() {
        let (fs, mut ctl) = ctl();
        let g = ctl.create_group("g").unwrap();
        let m = WayMask::new(0xfff).unwrap();
        ctl.set_l3_mask(&g, 0, m).unwrap();
        ctl.set_l3_mask(&g, 0, m).unwrap(); // written again
        ctl.assign_task(&g, 7).unwrap();
        ctl.assign_task(&g, 7).unwrap(); // skipped
        let metrics = ctl.metrics();
        assert_eq!(metrics.group_creates(), 1);
        assert_eq!(metrics.schemata_writes(), 2);
        assert_eq!(metrics.task_assigns(), 1);
        assert_eq!(metrics.skipped_writes(), 1);
        // Four real fs operations, each timed.
        assert_eq!(metrics.fs_op_seconds().count(), 4);

        // Once attached to a registry, a monitoring read publishes gauges.
        let registry = ccp_obs::Registry::new();
        metrics.register_into(&registry);
        fs.set_mon_counter(
            std::path::Path::new("/sys/fs/resctrl/g"),
            "llc_occupancy",
            4096,
        );
        ctl.monitoring(&g, 0).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_resctrl_schemata_writes_total 2"));
        assert!(text.contains("ccp_resctrl_llc_occupancy_bytes{domain=\"0\",group=\"g\"} 4096.0"));
    }

    #[test]
    fn mon_group_lifecycle_and_counters() {
        let (fs, mut ctl) = ctl();
        let g = ctl.create_group("olap").unwrap();
        let at_root = ctl.create_mon_group(None, "q1").unwrap();
        let nested = ctl.create_mon_group(Some(&g), "q2").unwrap();
        assert_eq!(ctl.mon_groups(None).unwrap(), vec!["q1"]);
        assert_eq!(ctl.mon_groups(Some(&g)).unwrap(), vec!["q2"]);
        // Mon groups never show up as control groups.
        assert_eq!(ctl.groups().unwrap(), vec!["olap"]);

        ctl.assign_task_mon(&nested, 42).unwrap();
        assert_eq!(
            fs.tasks_of(Path::new("/sys/fs/resctrl/olap/mon_groups/q2")),
            vec![42]
        );
        fs.set_mon_counter(
            Path::new("/sys/fs/resctrl/olap/mon_groups/q2"),
            "llc_occupancy",
            8192,
        );
        let m = ctl.mon_group_monitoring(&nested, 0).unwrap();
        assert_eq!(m.llc_occupancy_bytes, 8192);

        ctl.remove_mon_group(nested).unwrap();
        assert!(ctl.mon_groups(Some(&g)).unwrap().is_empty());
        ctl.remove_mon_group(at_root).unwrap();
    }

    #[test]
    fn remove_group_tears_down_nested_mon_groups_first() {
        // Regression: under strict-rmdir semantics (real resctrl refuses
        // to remove a group whose mon_groups/ is non-empty) a one-shot
        // remove_group used to fail with ENOTEMPTY and leak the group.
        let (fs, mut ctl) = ctl();
        let g = ctl.create_group("olap").unwrap();
        ctl.create_mon_group(Some(&g), "q1").unwrap();
        ctl.create_mon_group(Some(&g), "q2").unwrap();
        // The raw rmdir the old implementation issued is refused.
        use crate::fs::ResctrlFs;
        let err = fs
            .remove_dir(Path::new("/sys/fs/resctrl/olap"))
            .unwrap_err();
        assert!(err.to_string().contains("Directory not empty"), "{err}");
        // remove_group removes the monitoring children, then the group.
        ctl.remove_group(g).unwrap();
        assert!(ctl.groups().unwrap().is_empty());
        assert!(!fs.exists(Path::new("/sys/fs/resctrl/olap")));
    }

    #[test]
    fn paper_partitioning_scenario_end_to_end() {
        // Reproduce the exact configuration of Section V-B: scans confined
        // to 0x3, aggregations at 0xfffff, joins at 0xfff.
        let (_, mut ctl) = ctl();
        let scan = ctl.create_group("cuid_polluting").unwrap();
        let agg = ctl.create_group("cuid_sensitive").unwrap();
        let join = ctl.create_group("cuid_mixed").unwrap();
        ctl.set_l3_mask(&scan, 0, WayMask::new(0x3).unwrap())
            .unwrap();
        ctl.set_l3_mask(&agg, 0, WayMask::new(0xfffff).unwrap())
            .unwrap();
        ctl.set_l3_mask(&join, 0, WayMask::new(0xfff).unwrap())
            .unwrap();
        for (g, tid) in [(&scan, 100), (&agg, 200), (&join, 300)] {
            ctl.assign_task(g, tid).unwrap();
        }
        assert_eq!(ctl.schemata(&scan).unwrap().mask_of(0).unwrap().bits(), 0x3);
        assert_eq!(
            ctl.schemata(&agg).unwrap().mask_of(0).unwrap().bits(),
            0xfffff
        );
        assert_eq!(
            ctl.schemata(&join).unwrap().mask_of(0).unwrap().bits(),
            0xfff
        );
    }
}
