//! The server's own `ccp-obs` metric families (`ccp_server_*`).
//!
//! Everything the service layer itself counts — connections accepted and
//! refused, requests by endpoint and status, request latency,
//! admission-queue occupancy and rejections, per-tenant traffic — lands
//! in the same [`Registry`] the engine, scheduler, resctrl and control
//! layers attach their own handles to (`register_into`), so one
//! `/metrics` scrape shows the whole stack and `/timeline` records the
//! same series over time.

use crate::tenant::{Tenant, Tenants};
use ccp_obs::{unit, Counter, Family, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Instruments of the HTTP service layer. Cloning shares state.
#[derive(Clone)]
pub struct ServerMetrics {
    connections_total: Counter,
    connections_refused: Counter,
    active_connections: Gauge,
    requests: Family<Counter>,
    request_latency: Family<Histogram>,
    admission_rejections: Counter,
    admission_timeouts: Counter,
    tenant_requests: Family<Counter>,
    tenant_rejections: Family<Counter>,
    tenants: Arc<Tenants>,
    queue_depth: Gauge,
    running_queries: Gauge,
    resctrl_degraded: Gauge,
}

impl ServerMetrics {
    /// Creates the `ccp_server_*` families in `registry` and returns live
    /// handles.
    pub fn new(registry: &Registry) -> Self {
        ServerMetrics {
            connections_total: registry.counter(
                "ccp_server_connections_total",
                "TCP connections accepted by the server",
            ),
            connections_refused: registry.counter(
                "ccp_server_connections_refused_total",
                "Connections turned away at the connection cap (503)",
            ),
            active_connections: registry.gauge(
                "ccp_server_active_connections",
                "Connections currently being served",
            ),
            requests: registry.counter_family(
                "ccp_server_requests_total",
                "HTTP requests handled, by endpoint and status code",
            ),
            request_latency: registry.histogram_family_with(
                "ccp_server_request_seconds",
                "Request handling latency, by endpoint",
                unit::latency_seconds(),
            ),
            admission_rejections: registry.counter(
                "ccp_server_admission_rejections_total",
                "Queries rejected with 429 because the admission queue was full",
            ),
            admission_timeouts: registry.counter(
                "ccp_admission_timeouts_total",
                "Queries dequeued with 503 after waiting past the admission deadline",
            ),
            tenant_requests: registry.counter_family(
                "ccp_server_tenant_requests_total",
                "Queries admitted per tenant and CUID class",
            ),
            tenant_rejections: registry.counter_family(
                "ccp_server_tenant_rejections_total",
                "Queries rejected with 429 because their tenant hit its in-flight quota",
            ),
            tenants: Arc::new(Tenants::new(registry.counter(
                "ccp_server_tenant_label_overflow_total",
                "Tenant-labelled events booked under tenant=\"other\" because the cap on \
                 distinct unconfigured tenant label sets was reached",
            ))),
            queue_depth: registry.gauge(
                "ccp_server_admission_queue_depth",
                "Queries waiting in the bounded admission queue",
            ),
            running_queries: registry.gauge(
                "ccp_server_running_queries",
                "Queries currently admitted and executing",
            ),
            resctrl_degraded: registry.gauge(
                "ccp_resctrl_degraded",
                "1 while the resctrl circuit breaker is tripped and the engine runs \
                 unpartitioned (degraded mode), 0 when partitioning is live",
            ),
        }
    }

    /// Records an accepted connection; pair with
    /// [`connection_closed`](Self::connection_closed).
    pub(crate) fn connection_opened(&self) {
        self.connections_total.inc();
        self.active_connections.add(1.0);
    }

    /// Records the end of an accepted connection.
    pub(crate) fn connection_closed(&self) {
        self.active_connections.sub(1.0);
    }

    /// Records a connection refused at the cap.
    pub(crate) fn connection_refused(&self) {
        self.connections_refused.inc();
    }

    /// Records one handled request.
    pub fn record_request(&self, endpoint: &str, status: u16, latency_secs: f64) {
        let mut digits = [0; 20];
        let status = crate::json::decimal(status.into(), &mut digits);
        self.requests
            .get_or_create(&[("endpoint", endpoint), ("status", status)])
            .inc();
        self.request_latency
            .get_or_create(&[("endpoint", endpoint)])
            .observe(latency_secs);
    }

    /// Records an admission-queue overflow (a 429).
    pub(crate) fn record_admission_rejection(&self) {
        self.admission_rejections.inc();
    }

    /// The tenant table: the admission queue and the request counters
    /// book a request's tenant in it once and share the handle.
    pub(crate) fn tenants(&self) -> &Tenants {
        &self.tenants
    }

    /// Records one admitted query for `tenant` in `class`, booking the
    /// name as a `/query` request would.
    pub fn record_tenant_request(&self, tenant: &str, class: &str) {
        self.record_admitted(&self.tenants.book(tenant), class);
    }

    /// [`record_tenant_request`](Self::record_tenant_request) for a
    /// tenant already booked.
    pub(crate) fn record_admitted(&self, tenant: &Tenant, class: &str) {
        self.tenant_requests
            .get_or_create(&[("tenant", &tenant.name), ("class", class)])
            .inc();
    }

    /// Records a per-tenant quota rejection (also a 429). The global
    /// rejection counter is bumped too, so existing dashboards keep seeing
    /// every 429 in one series.
    pub(crate) fn record_tenant_rejection(&self, tenant: &Tenant) {
        self.admission_rejections.inc();
        self.tenant_rejections
            .get_or_create(&[("tenant", &tenant.name)])
            .inc();
    }

    /// Publishes the admission queue's current occupancy.
    pub(crate) fn set_admission_occupancy(&self, queued: usize, running: usize) {
        self.queue_depth.set(queued as f64);
        self.running_queries.set(running as f64);
    }

    /// Records a query dequeued after its admission deadline (a 503).
    pub(crate) fn record_admission_timeout(&self) {
        self.admission_timeouts.inc();
    }

    /// Publishes the degraded flag (1 = degraded unpartitioned mode).
    pub(crate) fn set_resctrl_degraded(&self, degraded: bool) {
        self.resctrl_degraded.set(f64::from(u8::from(degraded)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::MAX_TENANT_LABELS;
    use ccp_resctrl::DEFAULT_TENANT;

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

    /// Every status the server sends, and one it never does, is labelled
    /// with its decimal code.
    #[test]
    fn every_status_is_labelled_with_its_decimal_code() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        let statuses = [200, 400, 404, 405, 409, 413, 429, 500, 503, 418, 7, 65535];
        for status in statuses {
            m.record_request("/query", status, 0.001);
        }
        let text = registry.render_prometheus();
        for status in statuses {
            let line =
                format!("ccp_server_requests_total{{endpoint=\"/query\",status=\"{status}\"}} 1");
            assert!(text.contains(&line), "missing {line}");
        }
    }

    #[test]
    fn tenant_families_render_and_count() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.record_tenant_request("acme", "polluting");
        m.record_tenant_request("acme", "polluting");
        m.record_tenant_rejection(&m.tenants().book("acme"));
        let text = registry.render_prometheus();
        // The quota 429 also lands in the global rejection series.
        assert!(text.contains("ccp_server_admission_rejections_total 1"));
        assert!(text
            .contains("ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"acme\"} 2"));
        assert!(text.contains("ccp_server_tenant_rejections_total{tenant=\"acme\"} 1"));
    }

    #[test]
    fn unconfigured_tenants_past_the_cap_share_one_label_set() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.tenants().configure([("acme", 1)]);
        for i in 0..MAX_TENANT_LABELS + 10 {
            m.record_tenant_request(&format!("t{i}"), "polluting");
        }
        m.record_tenant_request("acme", "polluting");
        m.record_tenant_request(DEFAULT_TENANT, "polluting");
        m.record_tenant_request("t0", "polluting"); // already owns a label set
        m.record_tenant_rejection(&m.tenants().book("acme"));
        let text = registry.render_prometheus();
        let label_sets = text
            .lines()
            .filter(|l| l.starts_with("ccp_server_tenant_requests_total{"))
            .count();
        assert_eq!(
            label_sets,
            MAX_TENANT_LABELS + 3,
            "cap + acme + default + other"
        );
        assert!(text
            .contains("ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"other\"} 10"));
        assert!(text.contains("ccp_server_tenant_label_overflow_total 10"));
        assert!(
            text.contains("ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"t0\"} 2")
        );
        assert!(text.contains("ccp_server_tenant_rejections_total{tenant=\"acme\"} 1"));
    }

    #[test]
    fn connection_gauge_tracks_open_and_close() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        let text = registry.render_prometheus();
        assert!(text.contains("ccp_server_active_connections 1.0"));
        assert!(text.contains("ccp_server_connections_total 2"));
    }
}
