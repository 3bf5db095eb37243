//! Multi-tenant lifecycle over real sockets: the `X-CCP-Tenant` header
//! routes each query to a per-tenant admission quota (429 on breach,
//! 400 on a hostile header, default tenant when absent), the reconciler
//! mints `ccp-<tenant>-<class>` groups and publishes its state through
//! `/stats` and `/metrics`, and a bounded `tenant.create_group` ENOSPC
//! fault window plus a 4-CLOSID cap degrade tenants to shared class
//! masks (fallback, not failure) while every query keeps succeeding.

use ccp_server::{fetch, fetch_with_headers, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn stats(addr: SocketAddr) -> String {
    fetch(addr, "GET", "/stats", None).expect("stats").body
}

/// Value of the first `"key":<number>` occurrence in a JSON blob.
fn stat_num(body: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing from {body}"));
    let rest = &body[at + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} not numeric in {body}"))
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
fn tenant_header_routes_quotas_and_stats() {
    // Both tests run a reconciler that passes the `tenant.create_group`
    // site: side by side, this server would eat part of the chaos test's
    // ENOSPC window.
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 2,
        oltp_workers: 1,
        scheduler_slots: 4,
        dataset_rows: 64,
        enable_sleep_workload: true,
        fake_resctrl: true,
        monitor_interval: None,
        no_reuse: true,
        tenant_quotas: vec![("acme".to_string(), 1)],
        tenant_weights: vec![("acme".to_string(), 3)],
        reconcile_interval: Duration::from_millis(25),
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
    // Wait until the holder is visibly in flight for acme.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats(addr);
        let at = s.find("\"acme\"").expect("acme in tenants");
        if stat_num(&s[at..], "running") + stat_num(&s[at..], "waiting") >= 1.0 {
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

    // /stats carries the whole tenant ledger: quota, weight, grants,
    // rejections, and the reconciler's per-class group states.
    let s = stats(addr);
    assert!(s.contains("\"tenants\""), "tenants section: {s}");
    assert!(s.contains("\"reconciler\""), "reconciler section: {s}");
    let at = s.find("\"acme\"").expect("acme entry");
    assert_eq!(stat_num(&s[at..], "quota"), 1.0, "acme quota in stats: {s}");
    assert_eq!(
        stat_num(&s[at..], "weight"),
        3.0,
        "acme weight in stats: {s}"
    );
    assert!(stat_num(&s[at..], "grants") >= 1.0, "acme grants: {s}");
    assert!(
        stat_num(&s[at..], "rejections") >= 1.0,
        "acme rejections: {s}"
    );
    let rec = &s[s.find("\"reconciler\"").unwrap()..];
    assert!(rec.contains("\"enabled\":true"), "reconciler enabled: {s}");

    // The reconciler converges: with ample fake CLOSIDs every desired
    // `ccp-<tenant>-<class>` group ends up satisfied and none failed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats(addr);
        let rec = &s[s.find("\"reconciler\"").unwrap()..];
        if stat_num(rec, "reconciled") >= 6.0 && stat_num(rec, "failed") == 0.0 {
            assert!(s.contains("\"satisfied\""), "group states surfaced: {s}");
            break;
        }
        assert!(Instant::now() < deadline, "reconciler never converged: {s}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // One scrape shows the per-tenant labelled families next to the
    // reconciler counters (label keys render sorted: class then tenant).
    let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
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
    assert!(scrape_value(&scrape, "ccp_reconcile_sweeps_total") >= 1.0);
    assert_eq!(scrape_value(&scrape, "ccp_reconcile_failed_groups"), 0.0);

    server.shutdown();
}

#[test]
fn cycling_tenant_ids_cannot_grow_the_exposition_without_bound() {
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dataset_rows: 64,
        monitor_interval: None,
        no_reuse: true,
        // Quota 0: every acme arrival is a per-tenant 429.
        tenant_quotas: vec![("acme".to_string(), 0)],
        tenant_weights: vec![("acme".to_string(), 3)],
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
    // The configured tenant keeps its quota, its weight and its own
    // label set; the default tenant keeps its own too.
    assert_eq!(query("acme"), 429, "quota 0 still enforced");
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("default");
    assert_eq!(r.status, 200);
    // Reading per-tenant rejections for 200 tenants mints nothing.
    let s = stats(addr);
    let at = s.find("\"acme\"").expect("acme in tenants");
    assert_eq!(stat_num(&s[at..], "weight"), 3.0, "{s}");
    assert_eq!(stat_num(&s[at..], "rejections"), 1.0, "{s}");
    // The fair-share ledger and the `tenants` object stopped growing with
    // the label sets: every entry carries one `grants` field, and only
    // acme (quota 0) has none to show.
    let tenants = &s[s.find("\"tenants\":{").expect("tenants object")..];
    let entries = tenants.matches("\"grants\":").count();
    assert_eq!(
        entries,
        64 + 3,
        "64 unconfigured + default + other + acme: {s}"
    );
    let granted = entries - tenants.matches("\"grants\":0").count();
    assert_eq!(
        granted,
        64 + 2,
        "ledger: 64 unconfigured + default + other: {s}"
    );
    let other = &tenants[tenants.find("\"other\":{").expect("other in tenants")..];
    assert_eq!(stat_num(other, "grants"), 136.0, "{s}");
    assert_eq!(stat_num(other, "weight"), 1.0, "{s}");

    let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
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
fn closid_exhaustion_chaos_degrades_to_fallback_and_heals() {
    let _turn = ccp_fault::exclusive();
    // A bounded ENOSPC window on tenant group creation, armed before
    // the server boots so even the first reconcile passes hit it.
    ccp_fault::install_str("tenant.create_group=err:enospc@1+20").expect("plan");

    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 2,
        oltp_workers: 1,
        scheduler_slots: 4,
        dataset_rows: 64,
        // 4 CLOSIDs = 3 usable groups for 4 tenants × 3 classes of
        // demand: permanent scarcity even after the fault heals.
        fake_closids: Some(4),
        monitor_interval: None,
        no_reuse: true,
        tenant_quotas: vec![
            ("alpha".to_string(), 8),
            ("beta".to_string(), 8),
            ("gamma".to_string(), 8),
        ],
        tenant_weights: vec![
            ("alpha".to_string(), 5),
            ("beta".to_string(), 3),
            ("gamma".to_string(), 2),
        ],
        reconcile_interval: Duration::from_millis(25),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // Queries keep succeeding for every tenant while the fault window
    // is live — partition groups are an optimization, never a gate.
    for i in 0..12 {
        let tenant = ["alpha", "beta", "gamma"][i % 3];
        let r = fetch_with_headers(
            addr,
            "POST",
            "/query",
            &[("X-CCP-Tenant", tenant)],
            Some(r#"{"workload":"q1"}"#),
        )
        .expect("query");
        assert_eq!(r.status, 200, "{tenant} survives the window: {}", r.body);
    }

    // The capacity-aware retry burns through the 20-hit window (backoff
    // means one attempt every few passes) and then lands on genuine
    // CLOSID scarcity: some groups reconcile, the rest settle as
    // fallback onto shared class masks — and *none* count as failed,
    // so the failure gauge converges to zero under permanent scarcity.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = stats(addr);
        let rec = &s[s.find("\"reconciler\"").unwrap()..];
        let retried = stat_num(rec, "retried");
        let fallback = stat_num(rec, "fallback");
        if retried >= 3.0 && fallback >= 9.0 && rec.contains("\"exhausted\":true") {
            assert_eq!(
                stat_num(rec, "failed"),
                0.0,
                "exhaustion is not failure: {s}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "window never burned down to steady scarcity: {s}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Still serving everyone after the heal, on shared masks.
    for tenant in ["alpha", "beta", "gamma"] {
        let r = fetch_with_headers(
            addr,
            "POST",
            "/query",
            &[("X-CCP-Tenant", tenant)],
            Some(r#"{"workload":"q1"}"#),
        )
        .expect("query");
        assert_eq!(r.status, 200, "{tenant} serves under scarcity: {}", r.body);
    }

    // The episode is visible in one scrape: retries counted, zero
    // failed groups, the exhaustion gauge up, and per-tenant traffic
    // labelled — with no worker panics through any of it.
    let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
    assert!(scrape_value(&scrape, "ccp_reconcile_retried_total") >= 3.0);
    assert_eq!(scrape_value(&scrape, "ccp_reconcile_failed_groups"), 0.0);
    assert!(scrape_value(&scrape, "ccp_reconcile_fallback_groups") >= 9.0);
    assert_eq!(scrape_value(&scrape, "ccp_reconcile_exhausted"), 1.0);
    for tenant in ["alpha", "beta", "gamma"] {
        assert!(
            scrape_value(
                &scrape,
                &format!(
                    "ccp_server_tenant_requests_total{{class=\"polluting\",tenant=\"{tenant}\"}}"
                )
            ) >= 1.0,
            "{tenant} traffic labelled: {scrape}"
        );
    }
    let panicked = scrape
        .lines()
        .filter(|l| l.starts_with("ccp_executor_jobs_panicked_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>();
    assert_eq!(panicked, 0.0, "no worker panics during the episode");

    server.shutdown();
}
