//! Detection of CAT hardware support and resctrl availability.
//!
//! Mirrors the checks an operator would do by hand:
//! 1. `/proc/cpuinfo` advertises `rdt_a` (allocation) and `cat_l3`;
//! 2. `/proc/filesystems` lists `resctrl` (kernel ≥ 4.10 with
//!    `CONFIG_X86_CPU_RESCTRL`);
//! 3. the filesystem is mounted (the `info/L3` directory exists).

use std::path::Path;

/// Result of probing the host for CAT support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatSupport {
    /// CAT hardware present and resctrl mounted at the contained path —
    /// [`crate::CacheController::open`] will work.
    Available { mount: String },
    /// Hardware and kernel support exist, but nothing is mounted at the
    /// conventional mount point.
    NotMounted,
    /// The kernel has no resctrl filesystem (too old or not configured).
    KernelMissing { kernel_hint: String },
    /// The CPU does not advertise L3 CAT.
    HardwareMissing { missing_flags: Vec<String> },
}

impl CatSupport {
    /// Whether a controller can be opened right now.
    pub fn is_available(&self) -> bool {
        matches!(self, CatSupport::Available { .. })
    }
}

/// Probes the current host. Never fails: any read error is folded into the
/// appropriate "missing" variant, because an unreadable `/proc` means the
/// feature is unusable either way.
pub fn detect() -> CatSupport {
    detect_at(
        Path::new("/proc/cpuinfo"),
        Path::new("/proc/filesystems"),
        Path::new(crate::DEFAULT_MOUNT),
    )
}

/// Testable core of [`detect`] with injectable paths.
pub(crate) fn detect_at(cpuinfo: &Path, filesystems: &Path, mount: &Path) -> CatSupport {
    let cpuinfo_text = std::fs::read_to_string(cpuinfo).unwrap_or_default();
    let missing = missing_cpu_flags(&cpuinfo_text);
    if !missing.is_empty() {
        return CatSupport::HardwareMissing {
            missing_flags: missing,
        };
    }
    let fs_text = std::fs::read_to_string(filesystems).unwrap_or_default();
    if !fs_text
        .lines()
        .any(|l| l.trim_start().trim_start_matches("nodev").trim() == "resctrl")
    {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
        return CatSupport::KernelMissing {
            kernel_hint: format!("kernel {} lacks resctrl (need >= 4.10)", kernel.trim()),
        };
    }
    if mount.join("info").join("L3").is_dir() {
        CatSupport::Available {
            mount: mount.display().to_string(),
        }
    } else {
        CatSupport::NotMounted
    }
}

/// Returns which required CPU flags are absent from a cpuinfo dump.
pub(crate) fn missing_cpu_flags(cpuinfo: &str) -> Vec<String> {
    let flags_line = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v)
        .unwrap_or("");
    let present: std::collections::HashSet<&str> = flags_line.split_whitespace().collect();
    ["rdt_a", "cat_l3"]
        .iter()
        .filter(|f| !present.contains(**f))
        .map(|f| f.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAT_CPUINFO: &str = "processor\t: 0\nflags\t\t: fpu vme sse sse2 rdt_a cat_l3 cdp_l3\n";
    const PLAIN_CPUINFO: &str = "processor\t: 0\nflags\t\t: fpu vme sse sse2 avx2\n";

    #[test]
    fn flags_detected() {
        assert!(missing_cpu_flags(CAT_CPUINFO).is_empty());
        let missing = missing_cpu_flags(PLAIN_CPUINFO);
        assert_eq!(missing, vec!["rdt_a".to_string(), "cat_l3".to_string()]);
    }

    #[test]
    fn empty_cpuinfo_reports_all_missing() {
        assert_eq!(missing_cpu_flags("").len(), 2);
    }

    #[test]
    fn detect_handles_missing_hardware() {
        let dir = std::env::temp_dir().join(format!("ccp-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cpuinfo = dir.join("cpuinfo");
        std::fs::write(&cpuinfo, PLAIN_CPUINFO).unwrap();
        let fs = dir.join("filesystems");
        std::fs::write(&fs, "nodev\tresctrl\n").unwrap();
        let got = detect_at(&cpuinfo, &fs, &dir.join("resctrl"));
        assert!(matches!(got, CatSupport::HardwareMissing { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_walks_through_to_not_mounted() {
        let dir = std::env::temp_dir().join(format!("ccp-detect2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cpuinfo = dir.join("cpuinfo");
        std::fs::write(&cpuinfo, CAT_CPUINFO).unwrap();
        let fs = dir.join("filesystems");
        std::fs::write(&fs, "nodev\tsysfs\nnodev\tresctrl\n").unwrap();
        let got = detect_at(&cpuinfo, &fs, &dir.join("resctrl"));
        assert_eq!(got, CatSupport::NotMounted);
        // Once the info/L3 dir exists it flips to Available.
        std::fs::create_dir_all(dir.join("resctrl/info/L3")).unwrap();
        let got = detect_at(&cpuinfo, &fs, &dir.join("resctrl"));
        assert!(got.is_available());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_reports_kernel_missing() {
        let dir = std::env::temp_dir().join(format!("ccp-detect3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cpuinfo = dir.join("cpuinfo");
        std::fs::write(&cpuinfo, CAT_CPUINFO).unwrap();
        let fs = dir.join("filesystems");
        std::fs::write(&fs, "nodev\tsysfs\n").unwrap();
        let got = detect_at(&cpuinfo, &fs, &dir.join("resctrl"));
        assert!(matches!(got, CatSupport::KernelMissing { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
