//! Engine metric bundles built on [`ccp_obs`].
//!
//! Each [`JobExecutor`](crate::executor::JobExecutor) owns a private
//! [`ExecutorMetrics`] — instances are isolated by default (tests and
//! embedded pools don't share counters through a global registry). A
//! component that wants exposition calls
//! [`ExecutorMetrics::register_into`] to attach its live handles to a
//! [`Registry`] under a `pool` label; the registry then renders them in
//! Prometheus text format alongside every other family.
//!
//! Per-class fan-out uses [`Class::label`] as the `class` label value.

use crate::job::CacheUsageClass;
use crate::scheduler::Admission;
use ccp_obs::{unit, Counter, Histogram, Registry};
use ccp_resctrl::{Class, PerClass};

/// The `class` label value of a CUID (`polluting` / `sensitive` /
/// `mixed`).
pub fn class_label(cuid: CacheUsageClass) -> &'static str {
    cuid.class().label()
}

/// Per-executor instruments: job counts and latency distributions per
/// CUID class, plus the mask-switch accounting that quantifies the
/// paper's Section V-C fast path. Cloning shares the underlying state.
#[derive(Debug, Clone)]
pub struct ExecutorMetrics {
    pub(crate) jobs: PerClass<Counter>,
    panicked: Counter,
    mask_switches: Counter,
    bind_failures: Counter,
    pub(crate) queue_wait: PerClass<Histogram>,
    pub(crate) job_latency: PerClass<Histogram>,
}

impl Default for ExecutorMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutorMetrics {
    /// Creates a fresh (zeroed, unregistered) instrument bundle.
    pub fn new() -> Self {
        let lat = |_| Histogram::new(unit::latency_seconds());
        ExecutorMetrics {
            jobs: PerClass::from_fn(|_| Counter::new()),
            panicked: Counter::new(),
            mask_switches: Counter::new(),
            bind_failures: Counter::new(),
            queue_wait: PerClass::from_fn(lat),
            job_latency: PerClass::from_fn(lat),
        }
    }

    /// Records one completed job: its class, how long it sat in the
    /// queue, how long it ran, and whether its closure panicked.
    pub(crate) fn record_job(
        &self,
        cuid: CacheUsageClass,
        queue_wait_secs: f64,
        run_secs: f64,
        panicked: bool,
    ) {
        let class = cuid.class();
        self.jobs.get(class).inc();
        self.queue_wait.get(class).observe(queue_wait_secs);
        self.job_latency.get(class).observe(run_secs);
        if panicked {
            self.panicked.inc();
        }
    }

    /// Records an allocator bind that was not skipped by the per-worker
    /// fast path.
    pub(crate) fn record_mask_switch(&self) {
        self.mask_switches.inc();
    }

    /// Records a failed allocator bind (the job still ran,
    /// unpartitioned).
    pub(crate) fn record_bind_failure(&self) {
        self.bind_failures.inc();
    }

    /// Jobs executed across all classes.
    pub fn jobs_executed(&self) -> u64 {
        self.jobs.iter().map(|(_, jobs)| jobs.get()).sum()
    }

    /// Jobs whose closure panicked.
    pub fn jobs_panicked(&self) -> u64 {
        self.panicked.get()
    }

    /// Mask switches performed.
    pub fn mask_switches(&self) -> u64 {
        self.mask_switches.get()
    }

    /// Allocator bind failures.
    pub fn bind_failures(&self) -> u64 {
        self.bind_failures.get()
    }

    /// Attaches these live handles to `registry` under
    /// `pool="<pool>"`. Families are created idempotently, so several
    /// pools can expose through one registry.
    pub fn register_into(&self, registry: &Registry, pool: &str) {
        let jobs = registry.counter_family(
            "ccp_executor_jobs_total",
            "Jobs executed, by pool and CUID class",
        );
        let wait = registry.histogram_family_with(
            "ccp_executor_queue_wait_seconds",
            "Time jobs spent queued before a worker picked them up",
            unit::latency_seconds(),
        );
        let lat = registry.histogram_family_with(
            "ccp_executor_job_latency_seconds",
            "Job closure run time",
            unit::latency_seconds(),
        );
        for class in Class::ALL {
            let labels = [("pool", pool), ("class", class.label())];
            jobs.register(&labels, self.jobs.get(class).clone());
            wait.register(&labels, self.queue_wait.get(class).clone());
            lat.register(&labels, self.job_latency.get(class).clone());
        }
        registry
            .counter_family(
                "ccp_executor_jobs_panicked_total",
                "Jobs whose closure panicked (caught; the worker survived)",
            )
            .register(&[("pool", pool)], self.panicked.clone());
        registry
            .counter_family(
                "ccp_executor_mask_switches_total",
                "Allocator binds not skipped by the per-worker mask fast path",
            )
            .register(&[("pool", pool)], self.mask_switches.clone());
        registry
            .counter_family(
                "ccp_executor_bind_failures_total",
                "Failed allocator binds (jobs still ran, unpartitioned)",
            )
            .register(&[("pool", pool)], self.bind_failures.clone());
    }
}

/// Instruments for the cache-aware scheduler's admission control: how
/// often it admits a candidate and how often it defers one.
#[derive(Debug, Clone)]
pub struct SchedulerMetrics {
    admitted: Counter,
    deferred: Counter,
}

impl Default for SchedulerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerMetrics {
    /// Creates a fresh (zeroed, unregistered) instrument bundle.
    pub fn new() -> Self {
        SchedulerMetrics {
            admitted: Counter::new(),
            deferred: Counter::new(),
        }
    }

    /// Records one admission decision.
    pub(crate) fn record_admission(&self, decision: Admission) {
        match decision {
            Admission::RunNow => self.admitted.inc(),
            Admission::Defer => self.deferred.inc(),
        }
    }

    /// Admission decisions that deferred the candidate.
    pub fn deferrals(&self) -> u64 {
        self.deferred.get()
    }

    /// Attaches these live handles to `registry`.
    pub fn register_into(&self, registry: &Registry) {
        let adm = registry.counter_family(
            "ccp_scheduler_admissions_total",
            "Admission decisions, by outcome",
        );
        adm.register(&[("decision", "run_now")], self.admitted.clone());
        adm.register(&[("decision", "defer")], self.deferred.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_job_updates_class_counters_and_histograms() {
        let m = ExecutorMetrics::new();
        m.record_job(CacheUsageClass::Polluting, 0.001, 0.01, false);
        m.record_job(CacheUsageClass::Polluting, 0.002, 0.02, true);
        m.record_job(CacheUsageClass::Sensitive, 0.001, 0.01, false);
        assert_eq!(m.jobs_executed(), 3);
        assert_eq!(m.jobs.get(Class::Polluting).get(), 2);
        assert_eq!(m.jobs_panicked(), 1);
        assert_eq!(m.queue_wait.get(Class::Polluting).count(), 2);
        assert_eq!(m.job_latency.get(Class::Sensitive).count(), 1);
    }

    #[test]
    fn register_into_exposes_live_handles() {
        let m = ExecutorMetrics::new();
        let r = Registry::new();
        m.register_into(&r, "olap");
        m.record_job(CacheUsageClass::Sensitive, 0.0, 0.5, false);
        m.record_mask_switch();
        let text = r.render_prometheus();
        assert!(
            text.contains("ccp_executor_jobs_total{class=\"sensitive\",pool=\"olap\"} 1"),
            "got: {text}"
        );
        assert!(text.contains("ccp_executor_mask_switches_total{pool=\"olap\"} 1"));
        assert!(text.contains(
            "ccp_executor_job_latency_seconds_count{class=\"sensitive\",pool=\"olap\"} 1"
        ));
    }

    #[test]
    fn two_pools_share_one_registry() {
        let a = ExecutorMetrics::new();
        let b = ExecutorMetrics::new();
        let r = Registry::new();
        a.register_into(&r, "olap");
        b.register_into(&r, "oltp");
        a.record_job(CacheUsageClass::Polluting, 0.0, 0.0, false);
        let text = r.render_prometheus();
        assert!(text.contains("ccp_executor_jobs_total{class=\"polluting\",pool=\"olap\"} 1"));
        assert!(text.contains("ccp_executor_jobs_total{class=\"polluting\",pool=\"oltp\"} 0"));
    }

    #[test]
    fn scheduler_metrics_track_admissions() {
        let m = SchedulerMetrics::new();
        m.record_admission(Admission::RunNow);
        m.record_admission(Admission::Defer);
        m.record_admission(Admission::Defer);
        assert_eq!(m.deferrals(), 2);
        let r = Registry::new();
        m.register_into(&r);
        let text = r.render_prometheus();
        assert!(text.contains("ccp_scheduler_admissions_total{decision=\"run_now\"} 1"));
        assert!(text.contains("ccp_scheduler_admissions_total{decision=\"defer\"} 2"));
    }
}
