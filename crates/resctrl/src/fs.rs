//! Filesystem abstraction: the real resctrl tree and an in-memory fake that
//! emulates the kernel's observable behaviour.

use crate::error::ResctrlError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The subset of filesystem operations the resctrl protocol needs.
///
/// All paths are absolute. Implementations must behave like the kernel
/// tree: reads return whole-file contents, writes are whole-buffer writes
/// (the kernel parses each `write(2)` independently).
pub trait ResctrlFs: Send + Sync {
    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> Result<String, ResctrlError>;
    /// Writes `data` to `path` (single write syscall semantics).
    fn write(&self, path: &Path, data: &str) -> Result<(), ResctrlError>;
    /// Creates a directory (one level).
    fn create_dir(&self, path: &Path) -> Result<(), ResctrlError>;
    /// Removes a directory.
    fn remove_dir(&self, path: &Path) -> Result<(), ResctrlError>;
    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Names of subdirectories of `path`.
    fn list_dirs(&self, path: &Path) -> Result<Vec<String>, ResctrlError>;
}

/// Passthrough to the host filesystem (`/sys/fs/resctrl` on CAT hardware).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RealFs;

impl ResctrlFs for RealFs {
    fn read(&self, path: &Path) -> Result<String, ResctrlError> {
        std::fs::read_to_string(path)
            .map_err(|e| ResctrlError::io(path.display().to_string(), "read", &e))
    }

    fn write(&self, path: &Path, data: &str) -> Result<(), ResctrlError> {
        std::fs::write(path, data)
            .map_err(|e| ResctrlError::io(path.display().to_string(), "write", &e))
    }

    fn create_dir(&self, path: &Path) -> Result<(), ResctrlError> {
        std::fs::create_dir(path)
            .map_err(|e| ResctrlError::io(path.display().to_string(), "mkdir", &e))
    }

    fn remove_dir(&self, path: &Path) -> Result<(), ResctrlError> {
        std::fs::remove_dir(path)
            .map_err(|e| ResctrlError::io(path.display().to_string(), "rmdir", &e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list_dirs(&self, path: &Path) -> Result<Vec<String>, ResctrlError> {
        let rd = std::fs::read_dir(path)
            .map_err(|e| ResctrlError::io(path.display().to_string(), "readdir", &e))?;
        let mut out = Vec::new();
        for entry in rd {
            let entry =
                entry.map_err(|e| ResctrlError::io(path.display().to_string(), "readdir", &e))?;
            if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Shared mutable state of the fake resctrl tree.
#[derive(Debug, Default)]
struct FakeState {
    /// file path -> contents.
    files: BTreeMap<PathBuf, String>,
    /// directory paths (groups + root + info dirs).
    dirs: Vec<PathBuf>,
    /// tid -> the control group (root included) whose `tasks` lists it.
    /// A tid is in one control group at a time, so a bind is one insert
    /// here; the groups' `tasks` files are rendered from it on read.
    task_group: HashMap<u64, PathBuf>,
}

/// In-memory emulation of a mounted resctrl filesystem.
///
/// Mimics the kernel behaviours the driver depends on:
/// * the root pre-populated with `schemata`, `tasks`, `cpus` and
///   `info/L3/{cbm_mask,min_cbm_bits,num_closids}`;
/// * `mkdir` of a group auto-creates its `schemata` (full mask) and `tasks`
///   files, and fails with `ENOSPC` semantics once `num_closids - 1` groups
///   exist;
/// * `mkdir` under a `mon_groups` directory creates a *monitoring group*
///   (CMT/MBM counters + `tasks`, no `schemata`), which does **not**
///   consume a CLOS — as on RDT-monitoring kernels;
/// * writes to a `schemata` file are validated (hex mask, contiguity,
///   min_cbm_bits, known domain) and the file is re-rendered in the
///   kernel's canonical `L3:0=fffff` format;
/// * a tid written to a control group's `tasks` (the root's included)
///   leaves the control group it was in: every tid is listed by exactly
///   one, and `rmdir` of a group hands its tids back to the root.
///
/// Known divergence: a *monitoring* group's `tasks` only appends. The
/// kernel also moves a tid between the monitoring groups of its control
/// group, takes it out of them when it changes control group, and
/// refuses a tid that belongs to a different control group.
#[derive(Debug, Clone)]
pub struct FakeFs {
    state: Arc<Mutex<FakeState>>,
    root: PathBuf,
    cbm_mask: u32,
    min_cbm_bits: u32,
    num_closids: u32,
    domains: Vec<u32>,
}

impl FakeFs {
    /// A fake tree modeled on the paper's Xeon E5-2699 v4: 20-bit CBM,
    /// 16 classes of service, one L3 domain (single socket), mounted at
    /// `/sys/fs/resctrl`.
    pub fn broadwell() -> Self {
        FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 16, &[0])
    }

    /// Builds a fake tree with explicit CAT parameters.
    pub fn new(
        root: impl Into<PathBuf>,
        cbm_mask: u32,
        min_cbm_bits: u32,
        num_closids: u32,
        domains: &[u32],
    ) -> Self {
        let root = root.into();
        let mut st = FakeState::default();
        st.dirs.push(root.clone());
        st.dirs.push(root.join("info"));
        st.dirs.push(root.join("info/L3"));
        st.files
            .insert(root.join("info/L3/cbm_mask"), format!("{cbm_mask:x}\n"));
        st.files.insert(
            root.join("info/L3/min_cbm_bits"),
            format!("{min_cbm_bits}\n"),
        );
        st.files
            .insert(root.join("info/L3/num_closids"), format!("{num_closids}\n"));
        let schemata = Self::render_schemata(domains, cbm_mask);
        st.files.insert(root.join("schemata"), schemata);
        st.files.insert(root.join("tasks"), String::new());
        st.files.insert(root.join("cpus"), "ffffff\n".to_string());
        // Monitoring (CMT/MBM) files, as on kernels with RDT monitoring.
        st.dirs.push(root.join("mon_data"));
        st.dirs.push(root.join("mon_data/mon_L3_00"));
        st.files
            .insert(root.join("mon_data/mon_L3_00/llc_occupancy"), "0\n".into());
        st.files.insert(
            root.join("mon_data/mon_L3_00/mbm_total_bytes"),
            "0\n".into(),
        );
        st.files.insert(
            root.join("mon_data/mon_L3_00/mbm_local_bytes"),
            "0\n".into(),
        );
        // Per-task monitoring groups live under `mon_groups` and do not
        // consume a CLOS (they only allocate an RMID).
        st.dirs.push(root.join("mon_groups"));
        FakeFs {
            state: Arc::new(Mutex::new(st)),
            root,
            cbm_mask,
            min_cbm_bits,
            num_closids,
            domains: domains.to_vec(),
        }
    }

    fn render_schemata(domains: &[u32], mask: u32) -> String {
        let parts: Vec<String> = domains.iter().map(|d| format!("{d}={mask:x}")).collect();
        format!("L3:{}\n", parts.join(";"))
    }

    /// Sets a monitoring counter of a group (test helper emulating the
    /// kernel updating CMT/MBM values).
    pub fn set_mon_counter(&self, group_dir: &Path, file: &str, value: u64) {
        let mut st = self.state.lock();
        st.files.insert(
            group_dir.join("mon_data/mon_L3_00").join(file),
            format!("{value}\n"),
        );
    }

    /// Lists the tasks assigned to a group, as its `tasks` file reads
    /// (test helper).
    pub fn tasks_of(&self, group_dir: &Path) -> Vec<u64> {
        let listed = self.read(&group_dir.join("tasks")).unwrap_or_default();
        listed.lines().filter_map(|l| l.parse().ok()).collect()
    }

    /// The tids in control group `dir`, ascending.
    fn control_group_tasks(st: &FakeState, dir: &Path) -> Vec<u64> {
        let mut tids: Vec<u64> = st
            .task_group
            .iter()
            .filter(|(_, group)| group.as_path() == dir)
            .map(|(&tid, _)| tid)
            .collect();
        tids.sort_unstable();
        tids
    }

    /// Whether `dir` sits directly under a `mon_groups` directory. The
    /// only `tasks` files in the tree belong to monitoring groups, which
    /// do, and to control groups (the root included), which do not. Looks
    /// at the last two components only: this is on the bind path.
    fn in_mon_groups(dir: &Path) -> bool {
        dir.parent().is_some_and(|p| p.ends_with("mon_groups"))
    }

    /// Whether a root-level directory name is reserved by the kernel (not
    /// a control group).
    fn is_reserved(name: &Path) -> bool {
        name.ends_with("info") || name.ends_with("mon_data") || name.ends_with("mon_groups")
    }

    /// Number of group directories currently present (excluding the root
    /// and the kernel's reserved directories).
    pub fn group_count(&self) -> usize {
        let st = self.state.lock();
        st.dirs
            .iter()
            .filter(|d| d.parent() == Some(&self.root) && !Self::is_reserved(d))
            .count()
    }

    fn is_group_dir(&self, path: &Path) -> bool {
        path.parent() == Some(self.root.as_path()) && !Self::is_reserved(path)
    }

    /// Whether `path` names a monitoring group: a child of an *existing*
    /// `mon_groups` directory (the root's, or a control group's).
    fn is_mon_group_dir(&self, path: &Path) -> bool {
        let Some(parent) = path.parent() else {
            return false;
        };
        if !parent.ends_with("mon_groups") {
            return false;
        }
        let st = self.state.lock();
        st.dirs.iter().any(|d| d == parent)
    }

    /// Validates a schemata write the way the kernel does and returns the
    /// canonical re-rendered content. `current` is the file's existing
    /// canonical content: domains not mentioned in the write keep their
    /// previous mask, as in the kernel.
    fn validate_schemata(&self, current: &str, data: &str) -> Result<String, ResctrlError> {
        let mut masks: BTreeMap<u32, u32> =
            self.domains.iter().map(|&d| (d, self.cbm_mask)).collect();
        if let Some(rest) = current.trim().strip_prefix("L3:") {
            for part in rest.split(';') {
                if let Some((dom, mask)) = part.split_once('=') {
                    if let (Ok(d), Ok(m)) = (
                        dom.trim().parse::<u32>(),
                        u32::from_str_radix(mask.trim(), 16),
                    ) {
                        masks.insert(d, m);
                    }
                }
            }
        }
        for line in data.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line.strip_prefix("L3:").ok_or_else(|| {
                ResctrlError::RejectedSchemata(format!("unknown resource: {line}"))
            })?;
            for part in rest.split(';') {
                let (dom, mask) = part.split_once('=').ok_or_else(|| {
                    ResctrlError::RejectedSchemata(format!("malformed entry: {part}"))
                })?;
                let dom: u32 = dom
                    .trim()
                    .parse()
                    .map_err(|_| ResctrlError::RejectedSchemata(format!("bad domain id: {dom}")))?;
                if !self.domains.contains(&dom) {
                    return Err(ResctrlError::RejectedSchemata(format!(
                        "unknown domain {dom}"
                    )));
                }
                let mask = u32::from_str_radix(mask.trim(), 16)
                    .map_err(|_| ResctrlError::RejectedSchemata(format!("bad mask: {mask}")))?;
                if mask == 0 || (mask & !self.cbm_mask) != 0 {
                    return Err(ResctrlError::RejectedSchemata(format!(
                        "mask {mask:#x} outside cbm_mask {:#x}",
                        self.cbm_mask
                    )));
                }
                let shifted = mask >> mask.trailing_zeros();
                if (shifted & shifted.wrapping_add(1)) != 0 {
                    return Err(ResctrlError::RejectedSchemata(format!(
                        "mask {mask:#x} not contiguous"
                    )));
                }
                if mask.count_ones() < self.min_cbm_bits {
                    return Err(ResctrlError::RejectedSchemata(format!(
                        "mask {mask:#x} below min_cbm_bits {}",
                        self.min_cbm_bits
                    )));
                }
                masks.insert(dom, mask);
            }
        }
        let parts: Vec<String> = masks.iter().map(|(d, m)| format!("{d}={m:x}")).collect();
        Ok(format!("L3:{}\n", parts.join(";")))
    }
}

impl ResctrlFs for FakeFs {
    fn read(&self, path: &Path) -> Result<String, ResctrlError> {
        if ccp_fault::should_fail(crate::faults::FS_READ) {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "read",
                message: "Input/output error (os error 5)".into(),
            });
        }
        let st = self.state.lock();
        let content = st.files.get(path).ok_or_else(|| ResctrlError::Io {
            path: path.display().to_string(),
            op: "read",
            message: "No such file or directory".into(),
        })?;
        let control_group = path.parent().filter(|dir| {
            path.file_name().is_some_and(|n| n == "tasks") && !Self::in_mon_groups(dir)
        });
        Ok(match control_group {
            Some(group) => Self::control_group_tasks(&st, group)
                .iter()
                .map(|tid| format!("{tid}\n"))
                .collect(),
            None => content.clone(),
        })
    }

    fn write(&self, path: &Path, data: &str) -> Result<(), ResctrlError> {
        if ccp_fault::should_fail(crate::faults::FS_WRITE) {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "write",
                message: "Input/output error (os error 5)".into(),
            });
        }
        // Emulate kernel-side validation before taking the lock on state.
        let is_schemata = path.file_name().is_some_and(|n| n == "schemata");
        let canonical = if is_schemata {
            let current = self.read(path)?;
            Some(self.validate_schemata(&current, data)?)
        } else {
            None
        };
        let mut st = self.state.lock();
        let FakeState {
            files, task_group, ..
        } = &mut *st;
        let Some(entry) = files.get_mut(path) else {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "write",
                message: "No such file or directory".into(),
            });
        };
        if let Some(canonical) = canonical {
            *entry = canonical;
        } else if path.file_name().is_some_and(|n| n == "tasks") {
            // The kernel accepts one pid per write.
            let pid = data.trim();
            let Ok(tid) = pid.parse::<u64>() else {
                return Err(ResctrlError::Io {
                    path: path.display().to_string(),
                    op: "write",
                    message: format!("Invalid argument: {pid:?}"),
                });
            };
            let group = path.parent().expect("a file has a directory");
            if Self::in_mon_groups(group) {
                entry.push_str(pid);
                entry.push('\n');
            } else if let Some(current) = task_group.get_mut(&tid) {
                // Moving in is moving out of wherever the tid was; a tid
                // seen before keeps its buffer.
                current.clear();
                current.push(group);
            } else {
                task_group.insert(tid, group.to_path_buf());
            }
        } else {
            *entry = data.to_string();
        }
        Ok(())
    }

    fn create_dir(&self, path: &Path) -> Result<(), ResctrlError> {
        if self.is_mon_group_dir(path) {
            // Monitoring groups allocate an RMID, not a CLOS: no schemata
            // file, no closid budget.
            let mut st = self.state.lock();
            if st.dirs.contains(&path.to_path_buf()) {
                return Err(ResctrlError::Io {
                    path: path.display().to_string(),
                    op: "mkdir",
                    message: "File exists".into(),
                });
            }
            st.dirs.push(path.to_path_buf());
            st.dirs.push(path.join("mon_data"));
            st.dirs.push(path.join("mon_data/mon_L3_00"));
            st.files.insert(path.join("tasks"), String::new());
            for f in ["llc_occupancy", "mbm_total_bytes", "mbm_local_bytes"] {
                st.files
                    .insert(path.join("mon_data/mon_L3_00").join(f), "0\n".into());
            }
            return Ok(());
        }
        if !self.is_group_dir(path) {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "mkdir",
                message: "Permission denied".into(),
            });
        }
        // Count existing groups *before* locking mutably; the root CLOS
        // occupies one closid, hence the `- 1`.
        if self.group_count() as u32 >= self.num_closids - 1 {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "mkdir",
                message: "No space left on device".into(),
            });
        }
        let mut st = self.state.lock();
        if st.dirs.contains(&path.to_path_buf()) {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "mkdir",
                message: "File exists".into(),
            });
        }
        st.dirs.push(path.to_path_buf());
        let schemata = Self::render_schemata(&self.domains, self.cbm_mask);
        st.files.insert(path.join("schemata"), schemata);
        st.files.insert(path.join("tasks"), String::new());
        st.files.insert(path.join("cpus"), "ffffff\n".to_string());
        st.dirs.push(path.join("mon_data"));
        st.dirs.push(path.join("mon_data/mon_L3_00"));
        st.files
            .insert(path.join("mon_data/mon_L3_00/llc_occupancy"), "0\n".into());
        st.files.insert(
            path.join("mon_data/mon_L3_00/mbm_total_bytes"),
            "0\n".into(),
        );
        st.files.insert(
            path.join("mon_data/mon_L3_00/mbm_local_bytes"),
            "0\n".into(),
        );
        st.dirs.push(path.join("mon_groups"));
        Ok(())
    }

    fn remove_dir(&self, path: &Path) -> Result<(), ResctrlError> {
        let mut st = self.state.lock();
        if !st.dirs.iter().any(|d| d == path) {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "rmdir",
                message: "No such file or directory".into(),
            });
        }
        // Strict rmdir, as on real resctrl: a control group whose
        // `mon_groups/` still holds monitoring groups is non-empty and
        // the kernel refuses to remove it; callers must tear the
        // monitoring groups down first.
        let nested = path.join("mon_groups");
        if st.dirs.iter().any(|d| d.parent() == Some(nested.as_path())) {
            return Err(ResctrlError::Io {
                path: path.display().to_string(),
                op: "rmdir",
                message: "Directory not empty".into(),
            });
        }
        // The group's own scaffolding (mon_data, the empty mon_groups)
        // goes with it, exactly like the kernel's rmdir.
        st.dirs.retain(|d| !d.starts_with(path));
        st.files.retain(|p, _| !p.starts_with(path));
        // A removed group's tasks fall back to the root class.
        for group in st.task_group.values_mut() {
            if group == path {
                group.clone_from(&self.root);
            }
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.state.lock();
        st.dirs.iter().any(|d| d == path) || st.files.contains_key(path)
    }

    fn list_dirs(&self, path: &Path) -> Result<Vec<String>, ResctrlError> {
        let st = self.state.lock();
        let mut out: Vec<String> = st
            .dirs
            .iter()
            .filter(|d| d.parent() == Some(path))
            .map(|d| {
                d.file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_root_is_prepopulated() {
        let fs = FakeFs::broadwell();
        let root = Path::new("/sys/fs/resctrl");
        assert!(fs.exists(root));
        assert_eq!(
            fs.read(&root.join("info/L3/cbm_mask")).unwrap().trim(),
            "fffff"
        );
        assert_eq!(fs.read(&root.join("schemata")).unwrap(), "L3:0=fffff\n");
    }

    #[test]
    fn mkdir_creates_group_files() {
        let fs = FakeFs::broadwell();
        let g = Path::new("/sys/fs/resctrl/olap");
        fs.create_dir(g).unwrap();
        assert_eq!(fs.read(&g.join("schemata")).unwrap(), "L3:0=fffff\n");
        assert_eq!(fs.read(&g.join("tasks")).unwrap(), "");
        // Monitoring files come with the group, as on CMT-capable kernels.
        assert_eq!(
            fs.read(&g.join("mon_data/mon_L3_00/llc_occupancy"))
                .unwrap(),
            "0\n"
        );
    }

    #[test]
    fn mon_counters_are_settable_and_readable() {
        let fs = FakeFs::broadwell();
        let g = Path::new("/sys/fs/resctrl/olap");
        fs.create_dir(g).unwrap();
        fs.set_mon_counter(g, "llc_occupancy", 5_767_168);
        assert_eq!(
            fs.read(&g.join("mon_data/mon_L3_00/llc_occupancy"))
                .unwrap(),
            "5767168\n"
        );
    }

    #[test]
    fn schemata_write_is_validated_and_normalized() {
        let fs = FakeFs::broadwell();
        let g = Path::new("/sys/fs/resctrl/scan");
        fs.create_dir(g).unwrap();
        fs.write(&g.join("schemata"), "L3:0=3\n").unwrap();
        assert_eq!(fs.read(&g.join("schemata")).unwrap(), "L3:0=3\n");
        // Non-contiguous mask rejected.
        let err = fs.write(&g.join("schemata"), "L3:0=5\n").unwrap_err();
        assert!(matches!(err, ResctrlError::RejectedSchemata(_)));
        // Zero mask rejected.
        assert!(fs.write(&g.join("schemata"), "L3:0=0\n").is_err());
        // Below min_cbm_bits (2 on Broadwell) rejected.
        assert!(fs.write(&g.join("schemata"), "L3:0=1\n").is_err());
        // Unknown domain rejected.
        assert!(fs.write(&g.join("schemata"), "L3:7=3\n").is_err());
    }

    #[test]
    fn tasks_write_moves_the_tid_between_control_groups() {
        let fs = FakeFs::broadwell();
        let root = Path::new("/sys/fs/resctrl");
        let (a, b) = (root.join("a"), root.join("b"));
        fs.create_dir(&a).unwrap();
        fs.create_dir(&b).unwrap();
        fs.write(&root.join("tasks"), "100").unwrap();
        fs.write(&root.join("tasks"), "200\n").unwrap();
        assert_eq!(fs.tasks_of(root), vec![100, 200]);
        assert!(fs.write(&root.join("tasks"), "not-a-pid").is_err());

        // Into `a`: out of the root. Again into `a`: still listed once.
        fs.write(&a.join("tasks"), "100").unwrap();
        fs.write(&a.join("tasks"), "100").unwrap();
        assert_eq!(fs.read(&a.join("tasks")).unwrap(), "100\n");
        assert_eq!(fs.tasks_of(root), vec![200]);
        // On to `b`: out of `a`.
        fs.write(&b.join("tasks"), "100").unwrap();
        assert_eq!(fs.read(&a.join("tasks")).unwrap(), "");
        assert_eq!(fs.tasks_of(&b), vec![100]);
        // Removing `b` hands its tasks back to the root.
        fs.remove_dir(&b).unwrap();
        assert_eq!(fs.tasks_of(root), vec![100, 200]);
    }

    #[test]
    fn closid_limit_enforced() {
        let fs = FakeFs::new("/r", 0xf, 1, 3, &[0]); // 3 closids: root + 2 groups
        fs.create_dir(Path::new("/r/g1")).unwrap();
        fs.create_dir(Path::new("/r/g2")).unwrap();
        let err = fs.create_dir(Path::new("/r/g3")).unwrap_err();
        assert!(err.to_string().contains("No space left"));
    }

    #[test]
    fn rmdir_frees_a_closid() {
        let fs = FakeFs::new("/r", 0xf, 1, 2, &[0]); // room for exactly 1 group
        fs.create_dir(Path::new("/r/g1")).unwrap();
        assert!(fs.create_dir(Path::new("/r/g2")).is_err());
        fs.remove_dir(Path::new("/r/g1")).unwrap();
        fs.create_dir(Path::new("/r/g2")).unwrap();
        assert!(!fs.exists(Path::new("/r/g1/tasks")));
    }

    #[test]
    fn list_dirs_shows_groups() {
        let fs = FakeFs::broadwell();
        fs.create_dir(Path::new("/sys/fs/resctrl/b")).unwrap();
        fs.create_dir(Path::new("/sys/fs/resctrl/a")).unwrap();
        let dirs = fs.list_dirs(Path::new("/sys/fs/resctrl")).unwrap();
        assert_eq!(dirs, vec!["a", "b", "info", "mon_data", "mon_groups"]);
    }

    #[test]
    fn mon_group_mkdir_creates_counters_without_schemata() {
        let fs = FakeFs::broadwell();
        let m = Path::new("/sys/fs/resctrl/mon_groups/q17");
        fs.create_dir(m).unwrap();
        assert_eq!(fs.read(&m.join("tasks")).unwrap(), "");
        assert_eq!(
            fs.read(&m.join("mon_data/mon_L3_00/llc_occupancy"))
                .unwrap(),
            "0\n"
        );
        // Monitoring groups have no schemata file.
        assert!(fs.read(&m.join("schemata")).is_err());
        // Duplicate mkdir fails like the kernel.
        assert!(fs.create_dir(m).is_err());
    }

    #[test]
    fn mon_groups_do_not_consume_closids() {
        let fs = FakeFs::new("/r", 0xf, 1, 2, &[0]); // room for exactly 1 group
        fs.create_dir(Path::new("/r/g1")).unwrap();
        // CLOS budget exhausted, but monitoring groups still allocate.
        fs.create_dir(Path::new("/r/mon_groups/m1")).unwrap();
        fs.create_dir(Path::new("/r/g1/mon_groups/m2")).unwrap();
        assert_eq!(fs.group_count(), 1);
        fs.set_mon_counter(Path::new("/r/g1/mon_groups/m2"), "llc_occupancy", 42);
        assert_eq!(
            fs.read(Path::new(
                "/r/g1/mon_groups/m2/mon_data/mon_L3_00/llc_occupancy"
            ))
            .unwrap(),
            "42\n"
        );
    }

    #[test]
    fn rmdir_refuses_group_with_live_mon_groups() {
        let fs = FakeFs::broadwell();
        let g = Path::new("/sys/fs/resctrl/g1");
        fs.create_dir(g).unwrap();
        fs.create_dir(&g.join("mon_groups/m1")).unwrap();
        let err = fs.remove_dir(g).unwrap_err();
        assert!(err.to_string().contains("Directory not empty"), "{err}");
        // Tearing the monitoring group down first unblocks the rmdir,
        // and the group's scaffolding directories go with it.
        fs.remove_dir(&g.join("mon_groups/m1")).unwrap();
        fs.remove_dir(g).unwrap();
        assert!(!fs.exists(g));
        assert!(!fs.exists(&g.join("mon_groups")));
        assert!(!fs.exists(&g.join("mon_data/mon_L3_00")));
        assert_eq!(fs.group_count(), 0);
    }

    #[test]
    fn mkdir_outside_root_denied() {
        let fs = FakeFs::broadwell();
        assert!(fs.create_dir(Path::new("/sys/fs/resctrl/a/b")).is_err());
    }

    #[test]
    fn multi_domain_schemata() {
        let fs = FakeFs::new("/r", 0xfffff, 2, 16, &[0, 1]);
        assert_eq!(
            fs.read(Path::new("/r/schemata")).unwrap(),
            "L3:0=fffff;1=fffff\n"
        );
        fs.create_dir(Path::new("/r/g")).unwrap();
        // Partial update keeps the other domain at its previous value.
        fs.write(Path::new("/r/g/schemata"), "L3:1=3\n").unwrap();
        assert_eq!(
            fs.read(Path::new("/r/g/schemata")).unwrap(),
            "L3:0=fffff;1=3\n"
        );
        // A later partial write to domain 0 must not reset domain 1.
        fs.write(Path::new("/r/g/schemata"), "L3:0=ff\n").unwrap();
        assert_eq!(
            fs.read(Path::new("/r/g/schemata")).unwrap(),
            "L3:0=ff;1=3\n"
        );
    }
}
