//! The server's own `ccp-obs` metric families (`ccp_server_*`).
//!
//! Everything the service layer does — connections accepted and refused,
//! requests by endpoint and status, request latency, admission-queue
//! occupancy and rejections — lands in the same [`Registry`] the engine,
//! scheduler and resctrl layers already publish to, so one `/metrics`
//! scrape shows the whole stack.

use ccp_control::ControlCounters;
use ccp_obs::{unit, Counter, Family, Gauge, Histogram, Registry};
use ccp_resctrl::{ReconcileStats, ResctrlHealth};

/// Instruments of the HTTP service layer. Cloning shares state.
#[derive(Clone)]
pub struct ServerMetrics {
    connections_total: Counter,
    connections_refused: Counter,
    active_connections: Gauge,
    requests: Family<Counter>,
    request_latency: Family<Histogram>,
    admission_rejections: Counter,
    admission_class_rejections: Family<Counter>,
    admission_timeouts: Counter,
    tenant_requests: Family<Counter>,
    tenant_rejections: Family<Counter>,
    reconcile_sweeps: Counter,
    reconcile_reconciled: Counter,
    reconcile_retried: Counter,
    reconcile_orphans_removed: Counter,
    reconcile_failures: Counter,
    reconcile_failed_groups: Gauge,
    reconcile_fallback_groups: Gauge,
    reconcile_exhausted: Gauge,
    queue_depth: Gauge,
    running_queries: Gauge,
    resctrl_degraded: Gauge,
    resctrl_retries: Counter,
    resctrl_op_failures: Counter,
    resctrl_breaker_trips: Counter,
    resctrl_reprobes: Counter,
    resctrl_restores: Counter,
    control_decisions: Counter,
    control_repartitions: Counter,
    control_holds: Counter,
    control_reverts: Counter,
    control_mask_ways: Family<Gauge>,
}

/// Brings `counter` up to `src`, a monotonic count kept elsewhere. The
/// control plane is the only writer of the mirrored counters, so the
/// counter's own value is the amount already published.
fn mirror(counter: &Counter, src: u64) {
    counter.add(src.saturating_sub(counter.get()));
}

impl ServerMetrics {
    /// Creates the `ccp_server_*` families in `registry` and returns live
    /// handles.
    pub fn new(registry: &Registry) -> Self {
        ServerMetrics {
            connections_total: registry
                .counter_family(
                    "ccp_server_connections_total",
                    "TCP connections accepted by the server",
                )
                .get_or_create(&[]),
            connections_refused: registry
                .counter_family(
                    "ccp_server_connections_refused_total",
                    "Connections turned away at the connection cap (503)",
                )
                .get_or_create(&[]),
            active_connections: registry
                .gauge_family(
                    "ccp_server_active_connections",
                    "Connections currently being served",
                )
                .get_or_create(&[]),
            requests: registry.counter_family(
                "ccp_server_requests_total",
                "HTTP requests handled, by endpoint and status code",
            ),
            request_latency: registry.histogram_family_with(
                "ccp_server_request_seconds",
                "Request handling latency, by endpoint",
                unit::latency_seconds(),
            ),
            admission_rejections: registry
                .counter_family(
                    "ccp_server_admission_rejections_total",
                    "Queries rejected with 429 because the admission queue was full",
                )
                .get_or_create(&[]),
            admission_class_rejections: registry.counter_family(
                "ccp_server_admission_class_rejections_total",
                "Queries rejected with 429 because their class hit its queue limit",
            ),
            admission_timeouts: registry
                .counter_family(
                    "ccp_admission_timeouts_total",
                    "Queries dequeued with 503 after waiting past the admission deadline",
                )
                .get_or_create(&[]),
            tenant_requests: registry.counter_family(
                "ccp_server_tenant_requests_total",
                "Queries admitted per tenant and CUID class",
            ),
            tenant_rejections: registry.counter_family(
                "ccp_server_tenant_rejections_total",
                "Queries rejected with 429 because their tenant hit its in-flight quota",
            ),
            reconcile_sweeps: registry
                .counter_family(
                    "ccp_reconcile_sweeps_total",
                    "Orphan sweeps executed by the group reconciler (startup and per pass)",
                )
                .get_or_create(&[]),
            reconcile_reconciled: registry
                .counter_family(
                    "ccp_reconcile_reconciled_total",
                    "Tenant groups created and programmed by the reconciler",
                )
                .get_or_create(&[]),
            reconcile_retried: registry
                .counter_family(
                    "ccp_reconcile_retried_total",
                    "Group creations re-attempted after a failed or fallback pass",
                )
                .get_or_create(&[]),
            reconcile_orphans_removed: registry
                .counter_family(
                    "ccp_reconcile_orphans_removed_total",
                    "Stale ccp- groups deleted by reconciler sweeps",
                )
                .get_or_create(&[]),
            reconcile_failures: registry
                .counter_family(
                    "ccp_reconcile_failures_total",
                    "Reconcile operations (create, program, sweep) that failed",
                )
                .get_or_create(&[]),
            reconcile_failed_groups: registry
                .gauge_family(
                    "ccp_reconcile_failed_groups",
                    "Desired tenant groups currently in the Failed state",
                )
                .get_or_create(&[]),
            reconcile_fallback_groups: registry
                .gauge_family(
                    "ccp_reconcile_fallback_groups",
                    "Desired tenant groups currently degraded to the shared class mask \
                     (CLOSID exhaustion fallback)",
                )
                .get_or_create(&[]),
            reconcile_exhausted: registry
                .gauge_family(
                    "ccp_reconcile_exhausted",
                    "1 while the last reconcile pass hit CLOSID exhaustion, else 0",
                )
                .get_or_create(&[]),
            queue_depth: registry
                .gauge_family(
                    "ccp_server_admission_queue_depth",
                    "Queries waiting in the bounded admission queue",
                )
                .get_or_create(&[]),
            running_queries: registry
                .gauge_family(
                    "ccp_server_running_queries",
                    "Queries currently admitted and executing",
                )
                .get_or_create(&[]),
            resctrl_degraded: registry
                .gauge_family(
                    "ccp_resctrl_degraded",
                    "1 while the resctrl circuit breaker is tripped and the engine runs \
                     unpartitioned (degraded mode), 0 when partitioning is live",
                )
                .get_or_create(&[]),
            resctrl_retries: registry
                .counter_family(
                    "ccp_resctrl_retries_total",
                    "Transient resctrl failures retried by the supervisor",
                )
                .get_or_create(&[]),
            resctrl_op_failures: registry
                .counter_family(
                    "ccp_resctrl_op_failures_total",
                    "resctrl operations that exhausted their retries",
                )
                .get_or_create(&[]),
            resctrl_breaker_trips: registry
                .counter_family(
                    "ccp_resctrl_breaker_trips_total",
                    "Partitioned→Degraded transitions of the resctrl circuit breaker",
                )
                .get_or_create(&[]),
            resctrl_reprobes: registry
                .counter_family(
                    "ccp_resctrl_reprobes_total",
                    "Health probes attempted while degraded",
                )
                .get_or_create(&[]),
            resctrl_restores: registry
                .counter_family(
                    "ccp_resctrl_restores_total",
                    "Degraded→Partitioned transitions (successful re-probes)",
                )
                .get_or_create(&[]),
            control_decisions: registry
                .counter_family(
                    "ccp_control_decisions_total",
                    "Adaptive control ticks evaluated",
                )
                .get_or_create(&[]),
            control_repartitions: registry
                .counter_family(
                    "ccp_control_repartitions_total",
                    "Adaptive mask plans derived and applied",
                )
                .get_or_create(&[]),
            control_holds: registry
                .counter_family(
                    "ccp_control_holds_total",
                    "Control ticks that held the current plan (dwell, threshold, clamp, no data)",
                )
                .get_or_create(&[]),
            control_reverts: registry
                .counter_family(
                    "ccp_control_reverts_total",
                    "Falls back to the static paper plan (degraded health, stale readings, or a \
                     failed apply)",
                )
                .get_or_create(&[]),
            control_mask_ways: registry.gauge_family(
                "ccp_control_mask_ways",
                "LLC ways currently granted to each CUID class by the live mask table",
            ),
        }
    }

    /// Records an accepted connection; pair with
    /// [`connection_closed`](Self::connection_closed).
    pub fn connection_opened(&self) {
        self.connections_total.inc();
        self.active_connections.add(1.0);
    }

    /// Records the end of an accepted connection.
    pub fn connection_closed(&self) {
        self.active_connections.sub(1.0);
    }

    /// Records a connection refused at the cap.
    pub fn connection_refused(&self) {
        self.connections_refused.inc();
    }

    /// Records one handled request.
    pub fn record_request(&self, endpoint: &str, status: u16, latency_secs: f64) {
        self.requests
            .get_or_create(&[("endpoint", endpoint), ("status", &status.to_string())])
            .inc();
        self.request_latency
            .get_or_create(&[("endpoint", endpoint)])
            .observe(latency_secs);
    }

    /// Records an admission-queue overflow (a 429).
    pub fn record_admission_rejection(&self) {
        self.admission_rejections.inc();
    }

    /// Records a per-class queue-limit rejection (also a 429). The
    /// global rejection counter is bumped too, so existing dashboards
    /// keep seeing every 429 in one series.
    pub fn record_class_rejection(&self, class: &str) {
        self.admission_rejections.inc();
        self.admission_class_rejections
            .get_or_create(&[("class", class)])
            .inc();
    }

    /// Per-class queue-limit rejections so far for `class`.
    pub fn class_rejections(&self, class: &str) -> u64 {
        self.admission_class_rejections
            .get_or_create(&[("class", class)])
            .get()
    }

    /// Records one admitted query for `tenant` in `class`.
    pub fn record_tenant_request(&self, tenant: &str, class: &str) {
        self.tenant_requests
            .get_or_create(&[("tenant", tenant), ("class", class)])
            .inc();
    }

    /// Records a per-tenant quota rejection (also a 429). The global
    /// rejection counter is bumped too, so existing dashboards keep
    /// seeing every 429 in one series.
    pub fn record_tenant_rejection(&self, tenant: &str) {
        self.admission_rejections.inc();
        self.tenant_rejections
            .get_or_create(&[("tenant", tenant)])
            .inc();
    }

    /// Per-tenant quota rejections so far for `tenant`.
    pub fn tenant_rejections(&self, tenant: &str) -> u64 {
        self.tenant_rejections
            .get_or_create(&[("tenant", tenant)])
            .get()
    }

    /// Admitted queries so far for `tenant` in `class`.
    pub fn tenant_requests(&self, tenant: &str, class: &str) -> u64 {
        self.tenant_requests
            .get_or_create(&[("tenant", tenant), ("class", class)])
            .get()
    }

    /// Publishes the reconciler's counters and gauges.
    pub fn sync_reconcile(&self, stats: &ReconcileStats) {
        mirror(&self.reconcile_sweeps, stats.sweeps());
        mirror(&self.reconcile_reconciled, stats.reconciled());
        mirror(&self.reconcile_retried, stats.retried());
        mirror(&self.reconcile_orphans_removed, stats.orphans_removed());
        mirror(&self.reconcile_failures, stats.failed_total());
        self.reconcile_failed_groups.set(stats.failed() as f64);
        self.reconcile_fallback_groups.set(stats.fallback() as f64);
        self.reconcile_exhausted
            .set(if stats.is_exhausted() { 1.0 } else { 0.0 });
    }

    /// Orphan sweeps so far.
    pub fn reconcile_sweeps(&self) -> u64 {
        self.reconcile_sweeps.get()
    }

    /// Whether the last creating reconcile pass hit CLOSID exhaustion.
    pub fn reconcile_exhausted(&self) -> bool {
        self.reconcile_exhausted.get() != 0.0
    }

    /// Reconciler group creations so far.
    pub fn reconcile_reconciled(&self) -> u64 {
        self.reconcile_reconciled.get()
    }

    /// Reconciler re-attempts so far.
    pub fn reconcile_retried(&self) -> u64 {
        self.reconcile_retried.get()
    }

    /// Orphaned groups removed so far.
    pub fn reconcile_orphans_removed(&self) -> u64 {
        self.reconcile_orphans_removed.get()
    }

    /// Failed reconcile operations so far.
    pub fn reconcile_failures(&self) -> u64 {
        self.reconcile_failures.get()
    }

    /// Desired groups currently in the Failed state.
    pub fn reconcile_failed_groups(&self) -> f64 {
        self.reconcile_failed_groups.get()
    }

    /// Desired groups currently degraded to the shared class mask.
    pub fn reconcile_fallback_groups(&self) -> f64 {
        self.reconcile_fallback_groups.get()
    }

    /// Publishes the admission queue's current occupancy.
    pub fn set_admission_occupancy(&self, queued: usize, running: usize) {
        self.queue_depth.set(queued as f64);
        self.running_queries.set(running as f64);
    }

    /// Records a query dequeued after its admission deadline (a 503).
    pub fn record_admission_timeout(&self) {
        self.admission_timeouts.inc();
    }

    /// Admission rejections so far.
    pub fn admission_rejections(&self) -> u64 {
        self.admission_rejections.get()
    }

    /// Admission deadline timeouts so far.
    pub fn admission_timeouts(&self) -> u64 {
        self.admission_timeouts.get()
    }

    /// Connections accepted so far.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.get()
    }

    /// Connections currently active.
    pub fn active_connections(&self) -> f64 {
        self.active_connections.get()
    }

    /// Publishes the degraded flag (1 = degraded unpartitioned mode).
    pub fn set_resctrl_degraded(&self, degraded: bool) {
        self.resctrl_degraded.set(if degraded { 1.0 } else { 0.0 });
    }

    /// Current value of the degraded gauge.
    pub fn resctrl_degraded(&self) -> f64 {
        self.resctrl_degraded.get()
    }

    /// Publishes `health`'s monotonic counters into the registry.
    pub fn sync_resctrl_health(&self, health: &ResctrlHealth) {
        mirror(&self.resctrl_retries, health.retries());
        mirror(&self.resctrl_op_failures, health.failures());
        mirror(&self.resctrl_breaker_trips, health.trips());
        mirror(&self.resctrl_reprobes, health.reprobes());
        mirror(&self.resctrl_restores, health.restores());
    }

    /// Publishes the controller's monotonic counters.
    pub fn sync_control(&self, counters: ControlCounters) {
        mirror(&self.control_decisions, counters.decisions);
        mirror(&self.control_repartitions, counters.repartitions);
        mirror(&self.control_holds, counters.holds);
        mirror(&self.control_reverts, counters.reverts);
    }

    /// Publishes one class's live way count.
    pub fn set_control_mask_ways(&self, class: &str, ways: u32) {
        self.control_mask_ways
            .get_or_create(&[("class", class)])
            .set(f64::from(ways));
    }

    /// Adaptive repartitions so far.
    pub fn control_repartitions(&self) -> u64 {
        self.control_repartitions.get()
    }

    /// Control-loop decisions so far.
    pub fn control_decisions(&self) -> u64 {
        self.control_decisions.get()
    }

    /// Control-loop holds so far.
    pub fn control_holds(&self) -> u64 {
        self.control_holds.get()
    }

    /// Control-loop reverts to the static plan so far.
    pub fn control_reverts(&self) -> u64 {
        self.control_reverts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_render_with_endpoint_and_status_labels() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.connection_opened();
        m.record_request("/metrics", 200, 0.002);
        m.record_request("/query", 429, 0.0001);
        m.record_admission_rejection();
        m.record_admission_timeout();
        m.set_admission_occupancy(3, 2);
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_server_connections_total 1"));
        assert!(text.contains("ccp_server_active_connections 1.0"));
        assert!(text.contains("ccp_server_requests_total{endpoint=\"/metrics\",status=\"200\"} 1"));
        assert!(text.contains("ccp_server_requests_total{endpoint=\"/query\",status=\"429\"} 1"));
        assert!(text.contains("ccp_server_request_seconds_count{endpoint=\"/query\"} 1"));
        assert!(text.contains("ccp_server_admission_rejections_total 1"));
        assert!(text.contains("ccp_admission_timeouts_total 1"));
        assert!(text.contains("ccp_server_admission_queue_depth 3.0"));
        assert!(text.contains("ccp_server_running_queries 2.0"));
    }

    #[test]
    fn control_counters_delta_sync_and_gauges_render() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.sync_control(ControlCounters {
            decisions: 5,
            repartitions: 2,
            holds: 3,
            reverts: 1,
        });
        // Re-syncing the same snapshot adds nothing; a moved snapshot
        // adds only the delta.
        m.sync_control(ControlCounters {
            decisions: 5,
            repartitions: 2,
            holds: 3,
            reverts: 1,
        });
        m.sync_control(ControlCounters {
            decisions: 7,
            repartitions: 3,
            holds: 3,
            reverts: 1,
        });
        m.set_control_mask_ways("sensitive", 4);
        assert_eq!(m.control_decisions(), 7);
        assert_eq!(m.control_repartitions(), 3);
        assert_eq!(m.control_holds(), 3);
        assert_eq!(m.control_reverts(), 1);
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_control_repartitions_total 3"));
        assert!(text.contains("ccp_control_mask_ways{class=\"sensitive\"} 4.0"));
    }

    #[test]
    fn tenant_families_render_and_count() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.record_tenant_request("acme", "polluting");
        m.record_tenant_request("acme", "polluting");
        m.record_tenant_rejection("acme");
        assert_eq!(m.tenant_requests("acme", "polluting"), 2);
        assert_eq!(m.tenant_rejections("acme"), 1);
        // The quota 429 also lands in the global rejection series.
        assert_eq!(m.admission_rejections(), 1);
        let text = registry.render_prometheus();
        assert!(text
            .contains("ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"acme\"} 2"));
        assert!(text.contains("ccp_server_tenant_rejections_total{tenant=\"acme\"} 1"));
    }

    #[test]
    fn reconcile_counters_delta_sync() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        let stats = ReconcileStats::default();
        stats.note_sweep();
        stats.note_reconciled();
        stats.note_reconciled();
        stats.note_retried();
        stats.set_failed(1);
        stats.set_fallback(3);
        stats.set_exhausted(true);
        m.sync_reconcile(&stats);
        // Re-syncing an unchanged snapshot adds nothing.
        m.sync_reconcile(&stats);
        assert_eq!(m.reconcile_reconciled(), 2);
        assert_eq!(m.reconcile_retried(), 1);
        assert_eq!(m.reconcile_failed_groups(), 1.0);
        assert_eq!(m.reconcile_fallback_groups(), 3.0);
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_reconcile_reconciled_total 2"));
        assert!(text.contains("ccp_reconcile_exhausted 1.0"));
    }

    #[test]
    fn connection_gauge_tracks_open_and_close() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        assert_eq!(m.active_connections(), 1.0);
        assert_eq!(m.connections_total(), 2);
    }
}
