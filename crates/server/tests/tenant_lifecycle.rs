//! Multi-tenant lifecycle over real sockets: the `X-CCP-Tenant` header
//! routes each query to a per-tenant admission quota (429 on breach,
//! 400 on a hostile header, default tenant when absent) and a tenant
//! name in the configuration is validated on every backend. Tenancy
//! costs no CLOSIDs: under a 4-CLOSID cap with three tenants configured
//! the tree holds the workers' mask groups and nothing else, every bind
//! succeeds, and shutdown leaves zero `ccp-` groups.

use ccp_server::{fetch, fetch_with_headers, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn scrape(addr: SocketAddr) -> String {
    fetch(addr, "GET", "/metrics", None).expect("scrape").body
}

/// Queries admitted for `tenant`: its `ccp_server_tenant_requests_total`
/// series summed over class.
fn grants(scrape: &str, tenant: &str) -> f64 {
    let label = format!("tenant=\"{tenant}\"}}");
    scrape
        .lines()
        .filter_map(|l| l.strip_prefix("ccp_server_tenant_requests_total{"))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| series.ends_with(&label))
        .map(|(_, value)| value.parse::<f64>().expect("numeric sample"))
        .sum()
}

/// First sample of `name` in a Prometheus scrape (exact match on the
/// full series name including labels).
fn scrape_value(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (metric, value) = l.split_once(' ')?;
            (metric == name).then(|| value.parse().ok())?
        })
        .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
}

#[test]
fn tenant_header_routes_quotas_and_counts() {
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 2,
        oltp_workers: 1,
        scheduler_slots: 4,
        dataset_rows: 64,
        enable_sleep_workload: true,
        fake_resctrl: true,
        no_reuse: true,
        tenant_quotas: vec![("acme".to_string(), 1)],
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // A hostile tenant header is rejected before touching admission.
    let r = fetch_with_headers(
        addr,
        "POST",
        "/query",
        &[("X-CCP-Tenant", "No/Such..Tenant")],
        Some(r#"{"workload":"q1"}"#),
    )
    .expect("bad tenant");
    assert_eq!(r.status, 400, "hostile tenant id: {}", r.body);
    assert!(
        r.body.contains("bad X-CCP-Tenant"),
        "names the header: {}",
        r.body
    );

    // Absent header → default tenant; the request lands in the default
    // tenant's counters.
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("default query");
    assert_eq!(r.status, 200, "default tenant serves: {}", r.body);

    // Park a long sleep under tenant `acme` (quota 1), then show the
    // second acme arrival is quota-rejected while the default tenant
    // keeps flowing through the very same queue.
    let holder = std::thread::spawn(move || {
        fetch_with_headers(
            addr,
            "POST",
            "/query",
            &[("X-CCP-Tenant", "acme")],
            Some(r#"{"workload":"sleep","ms":1500}"#),
        )
        .expect("holder")
    });
    // Wait until the holder is admitted: its grant is booked before it
    // runs, and its permit holds acme's quota until the sleep ends.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = scrape(addr);
        if grants(&s, "acme") >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "holder never admitted: {s}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let r = fetch_with_headers(
        addr,
        "POST",
        "/query",
        &[("X-CCP-Tenant", "acme")],
        Some(r#"{"workload":"q1"}"#),
    )
    .expect("over quota");
    assert_eq!(r.status, 429, "acme quota of 1 is enforced: {}", r.body);
    assert!(
        r.body.contains("quota"),
        "429 names the quota, not the queue: {}",
        r.body
    );

    // The default tenant has no quota and is not collateral damage.
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("default query");
    assert_eq!(
        r.status, 200,
        "default unaffected by acme quota: {}",
        r.body
    );

    let hold = holder.join().expect("holder thread");
    assert_eq!(hold.status, 200, "holder completes: {}", hold.body);

    // One scrape shows the per-tenant labelled families next to the
    // sweep counters (label keys render sorted: class then tenant).
    let scrape = scrape(addr);
    assert_eq!(grants(&scrape, "acme"), 1.0, "the holder alone ran");
    assert!(
        scrape.contains("ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"default\"}"),
        "default tenant request family: {scrape}"
    );
    assert!(
        scrape_value(
            &scrape,
            "ccp_server_tenant_rejections_total{tenant=\"acme\"}"
        ) >= 1.0,
        "acme rejection family: {scrape}"
    );
    // The start-up sweep ran.
    assert_eq!(scrape_value(&scrape, "ccp_reconcile_sweeps_total"), 1.0);
    assert_eq!(scrape_value(&scrape, "ccp_reconcile_failures_total"), 0.0);

    server.shutdown();
}

#[test]
fn cycling_tenant_ids_cannot_grow_the_exposition_without_bound() {
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dataset_rows: 64,
        no_reuse: true,
        // Quota 0: every acme arrival is a per-tenant 429.
        tenant_quotas: vec![("acme".to_string(), 0)],
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let query = |tenant: &str| {
        fetch_with_headers(
            addr,
            "POST",
            "/query",
            &[("X-CCP-Tenant", tenant)],
            Some(r#"{"workload":"q1"}"#),
        )
        .expect("query")
        .status
    };

    // 200 distinct well-formed ids, one query each: the first 64 get a
    // label set of their own, the other 136 share `tenant="other"`.
    for i in 0..200 {
        assert_eq!(query(&format!("t{i}")), 200);
    }
    // The configured tenant keeps its quota and its own label set; the
    // default tenant keeps its own too.
    assert_eq!(query("acme"), 429, "quota 0 still enforced");
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("default");
    assert_eq!(r.status, 200);
    let scrape = scrape(addr);
    // Each of the first 64 ids ran once under its own name, the rest
    // under `other`; acme (quota 0) never ran.
    for i in 0..64 {
        assert_eq!(grants(&scrape, &format!("t{i}")), 1.0, "t{i}");
    }
    assert_eq!(grants(&scrape, "t64"), 0.0, "t64 is booked as other");
    assert_eq!(grants(&scrape, "other"), 136.0);
    assert_eq!(grants(&scrape, "default"), 1.0);
    assert_eq!(grants(&scrape, "acme"), 0.0);
    let series = |family: &str| {
        let prefix = format!("{family}{{");
        scrape.lines().filter(|l| l.starts_with(&prefix)).count()
    };
    assert_eq!(
        series("ccp_server_tenant_requests_total"),
        64 + 2,
        "64 unconfigured + default + other: {scrape}"
    );
    assert_eq!(
        scrape_value(
            &scrape,
            "ccp_server_tenant_requests_total{class=\"polluting\",tenant=\"other\"}"
        ),
        136.0
    );
    assert_eq!(
        scrape_value(&scrape, "ccp_server_tenant_label_overflow_total"),
        136.0
    );
    assert_eq!(
        series("ccp_server_tenant_rejections_total"),
        1,
        "only acme was ever rejected: {scrape}"
    );
    assert_eq!(
        scrape_value(
            &scrape,
            "ccp_server_tenant_rejections_total{tenant=\"acme\"}"
        ),
        1.0
    );

    server.shutdown();
}

#[test]
fn four_closids_and_three_tenants_still_partition() {
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 2,
        oltp_workers: 1,
        scheduler_slots: 4,
        dataset_rows: 64,
        // 4 CLOSIDs = the root plus three groups: exactly the paper's
        // three masks, and nothing to spare for a group no task runs in.
        fake_closids: Some(4),
        no_reuse: true,
        tenant_quotas: vec![
            ("alpha".to_string(), 8),
            ("beta".to_string(), 8),
            ("gamma".to_string(), 8),
        ],
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    for (tenant, workload) in [
        ("alpha", "q1"),
        ("beta", "q2"),
        ("gamma", "q3"),
        ("alpha", "oltp"),
    ] {
        let r = fetch_with_headers(
            addr,
            "POST",
            "/query",
            &[("X-CCP-Tenant", tenant)],
            Some(&format!(r#"{{"workload":"{workload}"}}"#)),
        )
        .expect("query");
        assert_eq!(r.status, 200, "{tenant} {workload}: {}", r.body);
    }

    // Every bind landed: the polluting and the sensitive mask are both
    // in force, under the CLOSID budget of a common CAT part.
    let scrape = scrape(addr);
    assert_eq!(
        scrape_value(&scrape, "ccp_executor_bind_failures_total{pool=\"olap\"}"),
        0.0
    );
    assert!(scrape_value(&scrape, "ccp_executor_mask_switches_total{pool=\"olap\"}") >= 2.0);
    // Groups are per mask: each one's schemata is written once, when it
    // is made, and a bind never writes one.
    assert_eq!(
        scrape_value(&scrape, "ccp_resctrl_schemata_writes_total"),
        scrape_value(&scrape, "ccp_resctrl_group_creates_total"),
    );

    // The tree holds groups a worker is bound into, and only those.
    let groups = server.resctrl_groups().expect("fake tree");
    let ours: Vec<&str> = groups
        .iter()
        .map(String::as_str)
        .filter(|g| g.starts_with("ccp-"))
        .collect();
    for want in ["ccp-3", "ccp-fffff"] {
        assert!(ours.contains(&want), "{want} missing from {groups:?}");
    }
    for group in &ours {
        let hex = &group["ccp-".len()..];
        assert!(
            u32::from_str_radix(hex, 16).is_ok(),
            "{group} is not a ccp-<mask hex> group: {groups:?}"
        );
    }

    server.shutdown();
    let left = server.resctrl_groups().expect("fake tree");
    assert!(
        !left.iter().any(|g| g.starts_with("ccp-")),
        "shutdown sweep left {left:?}"
    );
}

#[test]
fn tenant_names_in_the_configuration_are_validated_on_every_backend() {
    // No resctrl tree at all (noop allocator on this host): the name is
    // still refused, before a thread is spawned or a port bound.
    for config in [
        ServerConfig {
            tenant_quotas: vec![("Bad Name".to_string(), 1)],
            ..ServerConfig::default()
        },
        ServerConfig {
            tenant_quotas: vec![("probe".to_string(), 2)],
            ..ServerConfig::default()
        },
    ] {
        let err = Server::start(config).err().expect("must not start");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().starts_with("--tenant: invalid tenant id"),
            "{err}"
        );
    }
}
