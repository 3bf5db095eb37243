//! Instruments for the resctrl driver, built on [`ccp_obs`].
//!
//! Every [`CacheController`](crate::CacheController) owns a private
//! [`ResctrlMetrics`]: kernel round-trip counts (schemata writes, task
//! assignments, group creation), the task writes the Section V-C
//! old-vs-new comparison skipped, and a latency histogram over the
//! actual resctrl filesystem operations — the paper's "< 100 µs even
//! when the kernel is involved" claim, as a measured distribution.
//!
//! Attaching the bundle to a [`Registry`] with
//! [`ResctrlMetrics::register_into`] additionally turns every subsequent
//! [`monitoring`](crate::CacheController::monitoring) read into CMT/MBM
//! gauges labeled by group and domain, so a scrape shows per-class LLC
//! occupancy the same way the paper's Figure 6 does.

use ccp_obs::{unit, Counter, Histogram, Registry};
use std::sync::{Arc, Mutex};

use crate::controller::MonitoringData;

#[derive(Debug)]
struct Inner {
    schemata_writes: Counter,
    task_assigns: Counter,
    group_creates: Counter,
    skipped_writes: Counter,
    fs_op_seconds: Histogram,
    /// Registry attached by `register_into`; monitoring reads publish
    /// per-group gauges through it (labels are dynamic, so the gauges
    /// cannot be pre-built handles).
    exposition: Mutex<Option<Registry>>,
}

/// Per-controller resctrl instruments. Cloning shares the state.
#[derive(Debug, Clone)]
pub struct ResctrlMetrics {
    inner: Arc<Inner>,
}

impl Default for ResctrlMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ResctrlMetrics {
    /// Creates a fresh (zeroed, unregistered) instrument bundle.
    pub fn new() -> Self {
        ResctrlMetrics {
            inner: Arc::new(Inner {
                schemata_writes: Counter::new(),
                task_assigns: Counter::new(),
                group_creates: Counter::new(),
                skipped_writes: Counter::new(),
                fs_op_seconds: Histogram::new(unit::latency_seconds()),
                exposition: Mutex::new(None),
            }),
        }
    }

    /// Records a schemata write that actually reached the kernel.
    pub(crate) fn record_schemata_write(&self, seconds: f64) {
        self.inner.schemata_writes.inc();
        self.inner.fs_op_seconds.observe(seconds);
    }

    /// Records a task assignment that actually reached the kernel.
    pub(crate) fn record_task_assign(&self, seconds: f64) {
        self.inner.task_assigns.inc();
        self.inner.fs_op_seconds.observe(seconds);
    }

    /// Records a control-group creation.
    pub(crate) fn record_group_create(&self, seconds: f64) {
        self.inner.group_creates.inc();
        self.inner.fs_op_seconds.observe(seconds);
    }

    /// Records a task write skipped by the old-vs-new fast path.
    pub(crate) fn record_skipped_write(&self) {
        self.inner.skipped_writes.inc();
    }

    /// Publishes one group's CMT/MBM sample as gauges, when a registry
    /// is attached (no-op otherwise).
    pub(crate) fn record_monitoring(&self, group: &str, domain: u32, data: &MonitoringData) {
        let registry = {
            let guard = self
                .inner
                .exposition
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            guard.clone()
        };
        let Some(registry) = registry else { return };
        let domain = domain.to_string();
        let labels = [("group", group), ("domain", domain.as_str())];
        let set = |name: &str, help: &str, value: u64| {
            registry
                .gauge_family(name, help)
                .get_or_create(&labels)
                .set(value as f64);
        };
        set(
            "ccp_resctrl_llc_occupancy_bytes",
            "LLC bytes occupied by the group's tasks (CMT)",
            data.llc_occupancy_bytes,
        );
        set(
            "ccp_resctrl_mbm_total_bytes",
            "Cumulative memory bandwidth consumed by the group (MBM)",
            data.mbm_total_bytes,
        );
        set(
            "ccp_resctrl_mbm_local_bytes",
            "Local-socket share of mbm_total_bytes",
            data.mbm_local_bytes,
        );
    }

    /// Schemata writes that reached the kernel.
    pub fn schemata_writes(&self) -> u64 {
        self.inner.schemata_writes.get()
    }

    /// Task assignments that reached the kernel.
    pub fn task_assigns(&self) -> u64 {
        self.inner.task_assigns.get()
    }

    /// Control groups created.
    #[cfg(test)]
    pub(crate) fn group_creates(&self) -> u64 {
        self.inner.group_creates.get()
    }

    /// Task writes avoided by the old-vs-new fast path.
    pub fn skipped_writes(&self) -> u64 {
        self.inner.skipped_writes.get()
    }

    /// Latency histogram over actual resctrl filesystem operations
    /// (shared handle).
    #[cfg(test)]
    pub(crate) fn fs_op_seconds(&self) -> Histogram {
        self.inner.fs_op_seconds.clone()
    }

    /// Attaches the live handles to `registry` and remembers it, so
    /// later monitoring reads publish per-group CMT/MBM gauges too.
    pub fn register_into(&self, registry: &Registry) {
        registry
            .counter_family(
                "ccp_resctrl_schemata_writes_total",
                "Schemata (L3 mask) writes that reached the kernel",
            )
            .register(&[], self.inner.schemata_writes.clone());
        registry
            .counter_family(
                "ccp_resctrl_task_assigns_total",
                "Task-to-group assignments that reached the kernel",
            )
            .register(&[], self.inner.task_assigns.clone());
        registry
            .counter_family("ccp_resctrl_group_creates_total", "Control groups created")
            .register(&[], self.inner.group_creates.clone());
        registry
            .counter_family(
                "ccp_resctrl_skipped_writes_total",
                "Task writes avoided because the thread was already in the group",
            )
            .register(&[], self.inner.skipped_writes.clone());
        registry
            .histogram_family_with(
                "ccp_resctrl_fs_op_seconds",
                "Latency of resctrl filesystem operations (schemata/tasks/mkdir)",
                unit::latency_seconds(),
            )
            .register(&[], self.inner.fs_op_seconds.clone());
        let mut guard = self
            .inner
            .exposition
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *guard = Some(registry.clone());
    }

    /// Dummy gauge accessor used in tests to confirm monitoring gauges
    /// land in the attached registry.
    #[cfg(test)]
    fn attached(&self) -> bool {
        self.inner.exposition.lock().unwrap().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histogram_accumulate() {
        let m = ResctrlMetrics::new();
        m.record_schemata_write(0.00005);
        m.record_schemata_write(0.00007);
        m.record_task_assign(0.00002);
        m.record_group_create(0.0001);
        m.record_skipped_write();
        assert_eq!(m.schemata_writes(), 2);
        assert_eq!(m.task_assigns(), 1);
        assert_eq!(m.group_creates(), 1);
        assert_eq!(m.skipped_writes(), 1);
        assert_eq!(m.fs_op_seconds().count(), 4);
    }

    #[test]
    fn monitoring_without_registry_is_a_noop() {
        let m = ResctrlMetrics::new();
        assert!(!m.attached());
        // Must not panic or allocate families anywhere.
        m.record_monitoring(
            "olap",
            0,
            &MonitoringData {
                llc_occupancy_bytes: 1,
                mbm_total_bytes: 2,
                mbm_local_bytes: 3,
            },
        );
    }

    #[test]
    fn register_into_exposes_counters_and_mon_gauges() {
        let m = ResctrlMetrics::new();
        let r = Registry::new();
        m.register_into(&r);
        assert!(m.attached());
        m.record_schemata_write(0.0001);
        m.record_monitoring(
            "olap",
            0,
            &MonitoringData {
                llc_occupancy_bytes: 5_767_168,
                mbm_total_bytes: 99,
                mbm_local_bytes: 42,
            },
        );
        let text = r.render_prometheus();
        assert!(text.contains("ccp_resctrl_schemata_writes_total 1"));
        assert!(
            text.contains("ccp_resctrl_llc_occupancy_bytes{domain=\"0\",group=\"olap\"} 5767168.0"),
            "got: {text}"
        );
        assert!(text.contains("ccp_resctrl_mbm_local_bytes{domain=\"0\",group=\"olap\"} 42.0"));
    }
}
