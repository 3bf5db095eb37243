//! Flight recorder endpoints over real sockets: `/timeline` serves the
//! retained series with a working `since` cursor and prefix filter, and
//! the `ccp_build_info` gauge on `/metrics` carries the baked-in build
//! provenance. Retired surfaces — `/profile`, `/version`, `/dashboard` —
//! are ordinary unknown paths.

use ccp_server::{fetch, Json, Server, ServerConfig, ENDPOINTS};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn flight_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 1,
        oltp_workers: 1,
        scheduler_slots: 2,
        dataset_rows: 64,
        fake_resctrl: true,
        control_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    }
}

fn timeline(addr: SocketAddr, path: &str) -> Json {
    let resp = fetch(addr, "GET", path, None).expect("timeline fetch");
    assert_eq!(resp.status, 200, "{path} -> {}", resp.body);
    Json::parse(&resp.body).expect("timeline is JSON")
}

/// Asserts the `ccp_build_info{version,git_sha,profile}` sample on
/// `/metrics` has all three labels, each non-empty.
fn assert_build_info_labels(addr: SocketAddr) {
    let scrape = fetch(addr, "GET", "/metrics", None).expect("metrics").body;
    let labels = scrape
        .lines()
        .find_map(|l| l.strip_prefix("ccp_build_info{"))
        .and_then(|l| l.split_once('}'))
        .unwrap_or_else(|| panic!("build info gauge missing from scrape:\n{scrape}"))
        .0;
    for key in ["version", "git_sha", "profile"] {
        let value = labels
            .split(',')
            .find_map(|pair| {
                pair.strip_prefix(key)?
                    .strip_prefix("=\"")?
                    .strip_suffix('"')
            })
            .unwrap_or_else(|| panic!("missing {key} in ccp_build_info{{{labels}}}"));
        assert!(!value.is_empty(), "{key} must be non-empty");
    }
}

#[test]
fn timeline_and_build_info_serve_recorder_state() {
    let mut server = Server::start(flight_config()).expect("start");
    let addr = server.addr();

    // Drive one query through so request/queue series have real data.
    let q = fetch(
        addr,
        "POST",
        "/query",
        Some(r#"{"workload":"oltp","key":16}"#),
    )
    .expect("query");
    assert_eq!(q.status, 200, "{}", q.body);

    // Wait until the recorder has taken a few snapshots.
    let deadline = Instant::now() + Duration::from_secs(10);
    let tl = loop {
        let tl = timeline(addr, "/timeline");
        let tick = tl.get("tick").and_then(Json::as_f64).unwrap_or(0.0);
        if tick >= 3.0 {
            break tl;
        }
        assert!(Instant::now() < deadline, "recorder never ticked: {tl}");
        std::thread::sleep(Duration::from_millis(20));
    };

    let series = match tl.get("series") {
        Some(Json::Obj(entries)) => entries.clone(),
        other => panic!("series must be an object, got {other:?}"),
    };
    assert!(
        series
            .iter()
            .any(|(name, _)| name.starts_with("ccp_server_admission_queue_depth")),
        "admission depth series missing from timeline"
    );
    assert!(
        series
            .iter()
            .all(|(_, pts)| matches!(pts, Json::Arr(a) if !a.is_empty())),
        "every reported series carries points"
    );

    // The since cursor only returns strictly newer points.
    let tick = tl.get("tick").and_then(Json::as_f64).expect("tick") as u64;
    let newer = timeline(addr, &format!("/timeline?since={tick}"));
    if let Some(Json::Obj(entries)) = newer.get("series") {
        for (name, pts) in entries {
            let Json::Arr(pts) = pts else {
                panic!("series {name} must be an array")
            };
            for p in pts {
                let seq = match p {
                    Json::Arr(pair) => pair.first().and_then(Json::as_f64),
                    _ => None,
                }
                .unwrap_or_else(|| panic!("bad point in {name}"));
                assert!(seq > tick as f64, "stale point seq {seq} <= since {tick}");
            }
        }
    }

    // The prefix filter narrows to the requested family.
    let filtered = timeline(addr, "/timeline?series=ccp_server_");
    if let Some(Json::Obj(entries)) = filtered.get("series") {
        assert!(!entries.is_empty(), "prefix filter dropped everything");
        for (name, _) in entries {
            assert!(name.starts_with("ccp_server_"), "leaked series {name}");
        }
    }

    // Bad cursor is a 400, not a panic.
    let bad = fetch(addr, "GET", "/timeline?since=xyz", None).expect("bad since");
    assert_eq!(bad.status, 400);

    // Build provenance lives in the ccp_build_info gauge's labels.
    assert_build_info_labels(addr);

    server.shutdown();
}

#[test]
fn retired_surfaces_are_unknown_paths() {
    let mut server = Server::start(flight_config()).expect("start");
    let addr = server.addr();

    for path in ["/profile", "/profile?seconds=1", "/version", "/dashboard"] {
        let resp = fetch(addr, "GET", path, None).expect("fetch");
        assert_eq!(resp.status, 404, "{path} -> {}", resp.body);
        let body = Json::parse(&resp.body).expect("404 body is JSON");
        let listed: Vec<&str> = match body.get("endpoints") {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_str).collect(),
            other => panic!("404 body must list endpoints, got {other:?}"),
        };
        assert_eq!(listed, ENDPOINTS, "{path}: 404 lists the served paths");
    }
    assert_eq!(
        ENDPOINTS,
        [
            "/metrics",
            "/healthz",
            "/stats",
            "/query",
            "/trace",
            "/data/bump",
            "/timeline",
        ]
    );
    // The router knows each listed path: a method it does not serve
    // there is a 405, where an unknown path is a 404.
    for path in ENDPOINTS {
        let resp = fetch(addr, "DELETE", path, None).expect("fetch");
        assert_eq!(resp.status, 405, "{path} -> {}", resp.body);
    }

    server.shutdown();
}
