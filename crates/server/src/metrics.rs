//! The server's own `ccp-obs` metric families (`ccp_server_*`).
//!
//! Everything the service layer itself counts — connections accepted and
//! refused, requests by endpoint and status, request latency,
//! admission-queue occupancy and rejections, per-tenant traffic — lands
//! in the same [`Registry`] the engine, scheduler, resctrl and control
//! layers attach their own handles to (`register_into`), so one
//! `/metrics` scrape shows the whole stack and `/stats` reads the very
//! same handles.

use ccp_obs::{unit, Counter, Family, Gauge, Histogram, Registry};
use ccp_resctrl::{Class, DEFAULT_TENANT};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Unconfigured tenants that are booked under their own name — a label
/// set in the `ccp_server_tenant_*` families and an entry in
/// `/stats → tenants`. `X-CCP-Tenant` is client input with 37^24 valid
/// values; past this many distinct ones the rest are booked under
/// [`OVERFLOW_TENANT`]. Configured tenants (a quota) and the default
/// tenant never count against the cap.
const MAX_TENANT_LABELS: usize = 64;

/// The name shared by every tenant past the cap.
const OVERFLOW_TENANT: &str = "other";

/// Which tenants are booked under their own name.
struct TenantLabels {
    own: Mutex<OwnLabels>,
    overflow: Counter,
}

#[derive(Default)]
struct OwnLabels {
    configured: BTreeSet<String>,
    /// At most [`MAX_TENANT_LABELS`] names, first come first served.
    unconfigured: BTreeSet<String>,
}

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
    tenant_labels: Arc<TenantLabels>,
    queue_depth: Gauge,
    running_queries: Gauge,
    resctrl_degraded: Gauge,
}

impl ServerMetrics {
    /// Creates the `ccp_server_*` families in `registry` and returns live
    /// handles.
    pub fn new(registry: &Registry) -> Self {
        let metrics = ServerMetrics {
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
            tenant_labels: Arc::new(TenantLabels {
                own: Mutex::default(),
                overflow: registry.counter(
                    "ccp_server_tenant_label_overflow_total",
                    "Tenant-labelled events booked under tenant=\"other\" because the cap on \
                     distinct unconfigured tenant label sets was reached",
                ),
            }),
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
        };
        metrics.pin_tenants([DEFAULT_TENANT]);
        metrics
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

    /// Gives each of `tenants` a label set of its own that does not
    /// count against [`MAX_TENANT_LABELS`] — the configured tenants.
    pub(crate) fn pin_tenants<'a>(&self, tenants: impl IntoIterator<Item = &'a str>) {
        let mut own = self.own_labels();
        own.configured
            .extend(tenants.into_iter().map(str::to_string));
    }

    fn own_labels(&self) -> MutexGuard<'_, OwnLabels> {
        self.tenant_labels
            .own
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The name `tenant` is booked under, in the tenant-labelled families
    /// here and in the admission queue: its own for the default
    /// tenant, the configured ones and the first [`MAX_TENANT_LABELS`]
    /// others, [`OVERFLOW_TENANT`] for the rest. The one place that rule
    /// lives; it sees the id as the client sent it, so it is also where an
    /// arrival landing in the overflow is counted. A request resolves its
    /// tenant once — the admission queue does, and its permit carries the
    /// name to the recorders below.
    pub(crate) fn tenant_label<'a>(&self, tenant: &'a str) -> &'a str {
        let mut own = self.own_labels();
        if own.configured.contains(tenant) || own.unconfigured.contains(tenant) {
            return tenant;
        }
        if own.unconfigured.len() >= MAX_TENANT_LABELS {
            self.tenant_labels.overflow.inc();
            return OVERFLOW_TENANT;
        }
        own.unconfigured.insert(tenant.to_string());
        tenant
    }

    /// Records one admitted query for `tenant` in `class`.
    pub fn record_tenant_request(&self, tenant: &str, class: &str) {
        self.record_labelled_request(self.tenant_label(tenant), class);
    }

    /// [`record_tenant_request`](Self::record_tenant_request) under
    /// `label`, a name [`tenant_label`](Self::tenant_label) already
    /// resolved — a permit's tenant.
    pub(crate) fn record_labelled_request(&self, label: &str, class: &str) {
        self.tenant_requests
            .get_or_create(&[("tenant", label), ("class", class)])
            .inc();
    }

    /// Records a per-tenant quota rejection (also a 429) under `label`, a
    /// name [`tenant_label`](Self::tenant_label) already resolved. The
    /// global rejection counter is bumped too, so existing dashboards keep
    /// seeing every 429 in one series.
    pub(crate) fn record_tenant_rejection(&self, label: &str) {
        self.admission_rejections.inc();
        self.tenant_rejections
            .get_or_create(&[("tenant", label)])
            .inc();
    }

    /// Every name [`tenant_label`](Self::tenant_label) has booked: the
    /// default tenant, the configured ones, the unconfigured ones under the
    /// cap, and [`OVERFLOW_TENANT`] once an arrival landed there.
    pub(crate) fn tenant_names(&self) -> Vec<String> {
        let own = self.own_labels();
        let mut names = vec![DEFAULT_TENANT.to_string()];
        for name in own.configured.iter().chain(&own.unconfigured) {
            if name != DEFAULT_TENANT {
                names.push(name.clone());
            }
        }
        if self.tenant_labels.overflow.get() > 0 && !names.iter().any(|n| n == OVERFLOW_TENANT) {
            names.push(OVERFLOW_TENANT.to_string());
        }
        names
    }

    /// Queries admitted so far for `tenant`, summed over its class
    /// labels in `ccp_server_tenant_requests_total`.
    pub(crate) fn tenant_grants(&self, tenant: &str) -> u64 {
        Class::ALL
            .iter()
            .filter_map(|c| {
                self.tenant_requests
                    .get(&[("tenant", tenant), ("class", c.label())])
            })
            .map(|c| c.get())
            .sum()
    }

    /// Per-tenant quota rejections so far for `tenant`.
    pub(crate) fn tenant_rejections(&self, tenant: &str) -> u64 {
        self.tenant_rejections
            .get(&[("tenant", tenant)])
            .map_or(0, |c| c.get())
    }

    /// Publishes the admission queue's current occupancy.
    pub(crate) fn set_admission_occupancy(&self, queued: usize, running: usize) {
        self.queue_depth.set(queued as f64);
        self.running_queries.set(running as f64);
    }

    /// The admission queue's `(waiting, running)` occupancy as published.
    pub(crate) fn admission_occupancy(&self) -> (f64, f64) {
        (self.queue_depth.get(), self.running_queries.get())
    }

    /// Records a query dequeued after its admission deadline (a 503).
    pub(crate) fn record_admission_timeout(&self) {
        self.admission_timeouts.inc();
    }

    /// Admission rejections so far.
    pub(crate) fn admission_rejections(&self) -> u64 {
        self.admission_rejections.get()
    }

    /// Admission deadline timeouts so far.
    pub(crate) fn admission_timeouts(&self) -> u64 {
        self.admission_timeouts.get()
    }

    /// Connections accepted so far.
    pub(crate) fn connections_total(&self) -> u64 {
        self.connections_total.get()
    }

    /// Connections currently active.
    pub(crate) fn active_connections(&self) -> f64 {
        self.active_connections.get()
    }

    /// Publishes the degraded flag (1 = degraded unpartitioned mode).
    pub(crate) fn set_resctrl_degraded(&self, degraded: bool) {
        self.resctrl_degraded.set(f64::from(u8::from(degraded)));
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
        m.record_tenant_rejection("acme");
        assert_eq!(m.tenant_rejections("acme"), 1);
        // The quota 429 also lands in the global rejection series.
        assert_eq!(m.admission_rejections(), 1);
        let text = registry.render_prometheus();
        assert!(text
            .contains("ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"acme\"} 2"));
        assert!(text.contains("ccp_server_tenant_rejections_total{tenant=\"acme\"} 1"));
    }

    #[test]
    fn unconfigured_tenants_past_the_cap_share_one_label_set() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.pin_tenants(["acme"]);
        for i in 0..MAX_TENANT_LABELS + 10 {
            m.record_tenant_request(&format!("t{i}"), "polluting");
        }
        m.record_tenant_request("acme", "polluting");
        m.record_tenant_request(DEFAULT_TENANT, "polluting");
        m.record_tenant_request("t0", "polluting"); // already owns a label set
        m.record_tenant_rejection("acme");
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
    fn reading_a_rejection_count_mints_no_label_set() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        assert_eq!(m.tenant_rejections("nobody"), 0);
        let text = registry.render_prometheus();
        assert!(!text.contains("nobody"), "{text}");
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
