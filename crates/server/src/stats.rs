//! `GET /stats`: one JSON snapshot of the whole stack.
//!
//! Every section is built the same way — [`section`] over `(key, value)`
//! pairs in render order — and every number that has a metric family is
//! read from the very `ccp_obs` handle `/metrics` renders, through the
//! component that owns it: [`ServerMetrics`](crate::ServerMetrics), the
//! pools' `ExecutorMetrics`, the scheduler's deferral counter,
//! [`ResctrlHealth`](ccp_resctrl::ResctrlHealth),
//! [`SweepStats`](ccp_resctrl::SweepStats), the plane's
//! [`ControlView`](crate::control_plane::ControlView) and the reuse
//! cache. The two surfaces therefore cannot disagree, and reading never
//! mints a label set. Typed views supply only what has no family: the
//! controller's labels ([`PlaneView`]), the admission queue's current
//! occupancy by tenant, and echoes of the configuration.
//!
//! Key names *and key order* are part of the contract (scripts grep
//! substrings of the rendered text); `tests/stats_shape.rs` pins both.

use crate::control_plane::PlaneView;
use crate::json::Json;
use crate::server::Shared;
use ccp_engine::JobExecutor;
use ccp_resctrl::Class;
use std::sync::PoisonError;

/// One `/stats` object: its fields in render order.
fn section<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::obj(fields.into())
}

/// The `/stats` body.
pub(crate) fn render(shared: &Shared) -> Json {
    // One copy of what the control plane last published, shared by the
    // two sections that render from it.
    let view = shared
        .plane_view
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let m = &shared.metrics;
    let (queued, running) = m.admission_occupancy();
    let pools = shared.engine.pools();
    section([
        ("uptime_secs", shared.started.elapsed().as_secs_f64().into()),
        ("cat_live", shared.engine.cat_live().into()),
        (
            "pools",
            section([("olap", pool(pools.olap())), ("oltp", pool(pools.oltp()))]),
        ),
        (
            "admission",
            section([
                ("queued", queued.into()),
                ("running", running.into()),
                ("capacity", shared.admission.capacity().into()),
                ("slots", shared.admission.slots().into()),
                ("rejections", m.admission_rejections().into()),
                ("timeouts", m.admission_timeouts().into()),
                ("deferrals", shared.admission.deferrals().into()),
                ("classes", admission_classes(shared)),
            ]),
        ),
        (
            "connections",
            section([
                ("active", m.active_connections().into()),
                ("total", m.connections_total().into()),
                ("max", shared.config.max_connections.into()),
            ]),
        ),
        ("resctrl", resctrl(shared)),
        ("control", control(shared, &view)),
        ("tenants", tenants(shared)),
        ("reconciler", reconciler(&view)),
        ("reuse", reuse(shared)),
        ("trace", trace()),
    ])
}

fn pool(ex: &JobExecutor) -> Json {
    let m = ex.metrics();
    section([
        ("jobs_executed", m.jobs_executed().into()),
        ("jobs_panicked", m.jobs_panicked().into()),
        ("mask_switches", m.mask_switches().into()),
        ("bind_failures", m.bind_failures().into()),
    ])
}

/// Per-class admission view: how many queries of each class wait right
/// now.
fn admission_classes(shared: &Shared) -> Json {
    let waiting = shared.admission.waiting_by_class();
    section(Class::PAPER_ORDER.map(|class| {
        let fields = section([("waiting", (*waiting.get(class)).into())]);
        (class.label(), fields)
    }))
}

/// Supervisor health: whether the engine currently runs degraded
/// (unpartitioned) and the supervisor's cumulative counters. Backends
/// without failure modes (noop, recording) report `supervised: false`
/// and are never degraded.
fn resctrl(shared: &Shared) -> Json {
    let Some(tree) = shared.engine.allocator().tree() else {
        return section([("supervised", false.into()), ("degraded", false.into())]);
    };
    let tree = tree.lock();
    let h = tree.health();
    section([
        ("supervised", true.into()),
        ("degraded", tree.is_degraded().into()),
        ("retries", h.retries().into()),
        ("op_failures", h.failures().into()),
        ("breaker_trips", h.trips().into()),
        ("reprobes", h.reprobes().into()),
        ("restores", h.restores().into()),
    ])
}

/// Adaptive control: whether the loop runs, whether it is currently
/// clamped to the static plan, its last decision, the cumulative decision
/// counters and the per-class way counts.
fn control(shared: &Shared, view: &PlaneView) -> Json {
    let Some(c) = &view.control else {
        return section([("enabled", false.into())]);
    };
    let mask_ways = c
        .mask_ways
        .iter()
        .map(|(class, ways)| (class.label(), ways.get().into()));
    section([
        ("enabled", true.into()),
        (
            "interval_ms",
            shared.config.control_interval.as_millis().into(),
        ),
        ("clamped", c.clamped.into()),
        ("last_decision", c.last_decision.into()),
        ("decisions", c.decisions.get().into()),
        ("repartitions", c.repartitions.get().into()),
        ("holds", c.holds.get().into()),
        ("reverts", c.reverts.get().into()),
        ("mask_ways", Json::obj(mask_ways.collect())),
    ])
}

/// Per-tenant view of every name the metrics book tenants under:
/// configured quota, current waiting/running occupancy, admitted queries
/// (`ccp_server_tenant_requests_total`, summed over class) and quota
/// rejections.
fn tenants(shared: &Shared) -> Json {
    let limits = shared.admission.tenant_limits();
    let waiting = shared.admission.waiting_by_tenant();
    let running = shared.admission.running_by_tenant();
    let m = &shared.metrics;
    fn of(list: &[(String, usize)], name: &str) -> usize {
        list.iter().find(|(t, _)| t == name).map_or(0, |&(_, n)| n)
    }
    let tenant = |name: String| {
        let fields = section([
            ("quota", limits.quota_for(&name).into()),
            ("waiting", of(&waiting, &name).into()),
            ("running", of(&running, &name).into()),
            ("grants", m.tenant_grants(&name).into()),
            ("rejections", m.tenant_rejections(&name).into()),
        ]);
        (name, fields)
    };
    Json::Obj(m.tenant_names().into_iter().map(tenant).collect())
}

/// Orphan sweeps over the resctrl tree (start-up and shutdown): how many
/// ran, the `ccp-` groups they removed and the removals that failed.
fn reconciler(view: &PlaneView) -> Json {
    let Some(sweep) = &view.sweep else {
        return section([("enabled", false.into())]);
    };
    section([
        ("enabled", true.into()),
        ("sweeps", sweep.sweeps.get().into()),
        ("orphans_removed", sweep.orphans_removed.get().into()),
        ("failures", sweep.failures.get().into()),
    ])
}

/// Reuse cache: budget and residency, the hit/miss counters (including
/// coalesced single-flight waits), invalidation and misprediction totals,
/// and the current data-version epoch.
fn reuse(shared: &Shared) -> Json {
    let Some(cache) = shared.engine.reuse_cache() else {
        return section([("enabled", false.into())]);
    };
    let s = cache.stats();
    section([
        ("enabled", true.into()),
        ("budget_bytes", s.budget_bytes.into()),
        ("bytes", s.bytes.into()),
        ("entries", s.entries.into()),
        ("data_version", s.data_version.into()),
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("inserts", s.inserts.into()),
        ("evictions", s.evictions.into()),
        ("invalidations", s.invalidations.into()),
        ("coalesced", s.coalesced.into()),
        ("mispredictions", s.mispredictions.into()),
    ])
}

/// Tracer ring health: a rising `dropped` means `/trace` timelines have
/// holes (scrape with `clear=1` more often or raise the ring capacity).
fn trace() -> Json {
    let t = ccp_trace::stats();
    section([
        ("enabled", t.enabled.into()),
        ("rings", t.rings.into()),
        ("dropped", t.dropped.into()),
    ])
}
