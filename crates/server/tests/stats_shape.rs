//! The wire shape of `/stats` and `/metrics`, pinned: every key path of
//! `/stats` in render order (scripts grep substrings such as
//! `"reconciler":{"enabled":true`, so order is part of the contract) and
//! every metric family with its type. The lists below were taken at
//! commit cbb8391 and have since changed by removals (the
//! `ccp-<tenant>-<class>` groups' keys and families went with the groups;
//! the per-class queue caps' `admission.classes.*.{limit,rejections}`
//! keys and `ccp_server_admission_class_rejections_total` went with the
//! caps) and by five families: the resctrl controller's own instruments, which
//! the server exports since it opens exactly one controller. A refactor
//! of how the numbers are produced must leave this test passing
//! unchanged.

use ccp_server::{fetch, Json, Server, ServerConfig};
use std::time::Duration;

/// Every key path of `/stats` on a fake-resctrl + adaptive + one-quota
/// server, depth-first in render order.
const STATS_PATHS: &[&str] = &[
    "uptime_secs",
    "cat_live",
    "pools",
    "pools.olap",
    "pools.olap.jobs_executed",
    "pools.olap.jobs_panicked",
    "pools.olap.mask_switches",
    "pools.olap.bind_failures",
    "pools.oltp",
    "pools.oltp.jobs_executed",
    "pools.oltp.jobs_panicked",
    "pools.oltp.mask_switches",
    "pools.oltp.bind_failures",
    "admission",
    "admission.queued",
    "admission.running",
    "admission.capacity",
    "admission.slots",
    "admission.rejections",
    "admission.timeouts",
    "admission.deferrals",
    "admission.classes",
    "admission.classes.polluting",
    "admission.classes.polluting.waiting",
    "admission.classes.sensitive",
    "admission.classes.sensitive.waiting",
    "admission.classes.mixed",
    "admission.classes.mixed.waiting",
    "connections",
    "connections.active",
    "connections.total",
    "connections.max",
    "resctrl",
    "resctrl.supervised",
    "resctrl.degraded",
    "resctrl.retries",
    "resctrl.op_failures",
    "resctrl.breaker_trips",
    "resctrl.reprobes",
    "resctrl.restores",
    "control",
    "control.enabled",
    "control.interval_ms",
    "control.clamped",
    "control.last_decision",
    "control.decisions",
    "control.repartitions",
    "control.holds",
    "control.reverts",
    "control.mask_ways",
    "control.mask_ways.polluting",
    "control.mask_ways.mixed",
    "control.mask_ways.sensitive",
    "tenants",
    "tenants.default",
    "tenants.default.quota",
    "tenants.default.waiting",
    "tenants.default.running",
    "tenants.default.grants",
    "tenants.default.rejections",
    "tenants.acme",
    "tenants.acme.quota",
    "tenants.acme.waiting",
    "tenants.acme.running",
    "tenants.acme.grants",
    "tenants.acme.rejections",
    "reconciler",
    "reconciler.enabled",
    "reconciler.sweeps",
    "reconciler.orphans_removed",
    "reconciler.failures",
    "reuse",
    "reuse.enabled",
    "reuse.budget_bytes",
    "reuse.bytes",
    "reuse.entries",
    "reuse.data_version",
    "reuse.hits",
    "reuse.misses",
    "reuse.inserts",
    "reuse.evictions",
    "reuse.invalidations",
    "reuse.coalesced",
    "reuse.mispredictions",
    "trace",
    "trace.enabled",
    "trace.rings",
    "trace.dropped",
];

/// Every `# TYPE` line of `/metrics` on the same server, sorted.
const METRIC_TYPES: &[&str] = &[
    "ccp_admission_timeouts_total counter",
    "ccp_build_info gauge",
    "ccp_control_decisions_total counter",
    "ccp_control_holds_total counter",
    "ccp_control_mask_ways gauge",
    "ccp_control_repartitions_total counter",
    "ccp_control_reverts_total counter",
    "ccp_executor_bind_failures_total counter",
    "ccp_executor_job_latency_seconds histogram",
    "ccp_executor_jobs_panicked_total counter",
    "ccp_executor_jobs_total counter",
    "ccp_executor_mask_switches_total counter",
    "ccp_executor_queue_wait_seconds histogram",
    "ccp_llc_occupancy_bytes gauge",
    "ccp_mbm_total_bytes gauge",
    "ccp_reconcile_failures_total counter",
    "ccp_reconcile_orphans_removed_total counter",
    "ccp_reconcile_sweeps_total counter",
    "ccp_resctrl_breaker_trips_total counter",
    "ccp_resctrl_degraded gauge",
    "ccp_resctrl_fs_op_seconds histogram",
    "ccp_resctrl_group_creates_total counter",
    "ccp_resctrl_op_failures_total counter",
    "ccp_resctrl_reprobes_total counter",
    "ccp_resctrl_restores_total counter",
    "ccp_resctrl_retries_total counter",
    "ccp_resctrl_schemata_writes_total counter",
    "ccp_resctrl_skipped_writes_total counter",
    "ccp_resctrl_task_assigns_total counter",
    "ccp_reuse_bytes gauge",
    "ccp_reuse_coalesced_total counter",
    "ccp_reuse_evictions_total counter",
    "ccp_reuse_hits_total counter",
    "ccp_reuse_inserts_total counter",
    "ccp_reuse_invalidations_total counter",
    "ccp_reuse_mispredictions_total counter",
    "ccp_reuse_misses_total counter",
    "ccp_scheduler_admissions_total counter",
    "ccp_server_active_connections gauge",
    "ccp_server_admission_queue_depth gauge",
    "ccp_server_admission_rejections_total counter",
    "ccp_server_connections_refused_total counter",
    "ccp_server_connections_total counter",
    "ccp_server_request_seconds histogram",
    "ccp_server_requests_total counter",
    "ccp_server_running_queries gauge",
    "ccp_server_tenant_rejections_total counter",
    "ccp_server_tenant_requests_total counter",
];

/// Families that did not exist at cbb8391. A scrape may carry these on
/// top of [`METRIC_TYPES`] and nothing else; the pinned families must
/// still all be there, with their types, in order.
const FAMILIES_ADDED_SINCE: &[&str] = &["ccp_server_tenant_label_overflow_total counter"];

fn key_paths(prefix: &str, value: &Json, out: &mut Vec<String>) {
    let Json::Obj(fields) = value else { return };
    for (key, child) in fields {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        out.push(path.clone());
        key_paths(&path, child, out);
    }
}

#[test]
fn stats_key_order_and_metric_families_are_pinned() {
    // The plane passes process-global failpoint sites; keep other tests'
    // fault plans out of this server.
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dataset_rows: 64,
        fake_resctrl: true,
        adaptive: true,
        occupancy_script: Some("sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02".to_string()),
        control_interval: Duration::from_millis(10),
        tenant_quotas: vec![("acme".to_string(), 2)],
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    let body = fetch(addr, "GET", "/stats", None).expect("stats").body;
    let mut paths = Vec::new();
    key_paths("", &Json::parse(&body).expect("stats is JSON"), &mut paths);
    assert_eq!(paths, STATS_PATHS, "/stats key paths or order moved");
    // The substring the tenant smoke script greps.
    assert!(body.contains("\"reconciler\":{\"enabled\":true"), "{body}");

    let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
    let mut types: Vec<&str> = scrape
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect();
    types.sort_unstable();
    let (pinned, added): (Vec<&str>, Vec<&str>) =
        types.iter().partition(|t| METRIC_TYPES.contains(t));
    assert_eq!(
        pinned, METRIC_TYPES,
        "a pinned family moved or changed type"
    );
    for family in added {
        assert!(
            FAMILIES_ADDED_SINCE.contains(&family),
            "unexpected metric family {family:?}"
        );
    }

    server.shutdown();
}

/// The controller's families exist exactly where a controller does: the
/// server exports the one it binds, sweeps and probes through, and a
/// backend without a resctrl tree has none to export.
#[test]
fn controller_families_follow_the_backend() {
    let _turn = ccp_fault::exclusive();
    const FAMILIES: [&str; 5] = [
        "ccp_resctrl_schemata_writes_total",
        "ccp_resctrl_task_assigns_total",
        "ccp_resctrl_group_creates_total",
        "ccp_resctrl_skipped_writes_total",
        "ccp_resctrl_fs_op_seconds",
    ];
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dataset_rows: 64,
        ..ServerConfig::default()
    };

    let mut fake = Server::start(ServerConfig {
        fake_resctrl: true,
        ..config()
    })
    .expect("start");
    assert_eq!(fake.partitioning(), "resctrl (fake tree, 16 CLOSIDs)");
    for body in [r#"{"workload":"q1"}"#, r#"{"workload":"q2"}"#] {
        let r = fetch(fake.addr(), "POST", "/query", Some(body)).expect("query");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let scrape = fetch(fake.addr(), "GET", "/metrics", None)
        .expect("scrape")
        .body;
    for family in FAMILIES {
        assert!(
            scrape.contains(&format!("# TYPE {family} ")),
            "{family} missing"
        );
    }
    // One schemata write per mask group the two queries' binds made.
    let writes = scrape
        .lines()
        .find_map(|l| l.strip_prefix("ccp_resctrl_schemata_writes_total "))
        .expect("schemata_writes sample");
    assert!(writes.parse::<u64>().expect("count") >= 2, "{writes}");
    fake.shutdown();

    let mut host = Server::start(config()).expect("start");
    if host.partitioning() == "noop" {
        let scrape = fetch(host.addr(), "GET", "/metrics", None)
            .expect("scrape")
            .body;
        for family in FAMILIES {
            assert!(
                !scrape.contains(family),
                "{family} on a backend without a tree"
            );
        }
    }
    host.shutdown();
}
