//! End-to-end adaptive control over real sockets: a scripted occupancy
//! trace drives the controller to repartition the live mask table, the
//! episode is visible in `/stats` and `/metrics`, and an armed
//! `control.apply` failpoint turns the first repartition into a clean
//! revert followed by a successful retry.

use ccp_server::{fetch, Json, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SHRINK_SCRIPT: &str = "sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02";

fn adaptive_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 1,
        oltp_workers: 1,
        scheduler_slots: 2,
        dataset_rows: 64,
        fake_resctrl: true,
        adaptive: true,
        control_interval: Duration::from_millis(10),
        monitor_interval: Some(Duration::from_millis(20)),
        occupancy_script: Some(SHRINK_SCRIPT.to_string()),
        ..ServerConfig::default()
    }
}

fn control_stats(addr: SocketAddr) -> Json {
    let body = fetch(addr, "GET", "/stats", None).expect("stats").body;
    let json = Json::parse(&body).expect("stats is JSON");
    json.get("control").expect("control object").clone()
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number {key:?} in {v}"))
}

#[test]
fn scripted_shrink_repartitions_and_reports_everywhere() {
    // Both tests run a controller that passes the `control.apply` site:
    // side by side, whichever server repartitions first would consume
    // the other test's one-shot fault.
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(adaptive_config()).expect("start");
    let addr = server.addr();

    let first = control_stats(addr);
    assert_eq!(first.get("enabled"), Some(&Json::Bool(true)));

    // The scripted sensitive working set collapses after 6 monitor
    // ticks; the controller must notice and shrink the live mask.
    let deadline = Instant::now() + Duration::from_secs(15);
    let control = loop {
        let c = control_stats(addr);
        if num(&c, "repartitions") >= 1.0 {
            break c;
        }
        assert!(
            Instant::now() < deadline,
            "controller never repartitioned: {c}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    let ways = control.get("mask_ways").expect("mask_ways");
    assert!(
        num(ways, "sensitive") < 20.0,
        "sensitive mask did not shrink: {control}"
    );
    assert!(num(ways, "polluting") >= 2.0, "polluter starved: {control}");

    // The repartition shows up in the Prometheus scrape too.
    let scrape = fetch(addr, "GET", "/metrics", None).expect("metrics").body;
    assert!(
        scrape
            .lines()
            .any(|l| l.starts_with("ccp_control_repartitions_total") && !l.ends_with(" 0")),
        "no repartitions in scrape"
    );
    assert!(scrape.contains("ccp_control_mask_ways{class=\"sensitive\"}"));

    // Queries keep flowing, and a sensitive query's reported mask is the
    // live (shrunken) one, not the static full mask.
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q2"}"#)).expect("query");
    assert_eq!(r.status, 200, "{}", r.body);
    let outcome = Json::parse(r.body.lines().next().expect("one line")).expect("outcome");
    let mask = outcome.get("mask").and_then(Json::as_str).expect("mask");
    assert_ne!(mask, "0xfffff", "live mask not applied to the query path");

    server.shutdown();
}

#[test]
fn apply_fault_reverts_cleanly_then_retries() {
    let _turn = ccp_fault::exclusive();
    // The first apply fails; every later one succeeds.
    ccp_fault::install_str("control.apply=err@1+1").expect("plan");
    let mut server = Server::start(adaptive_config()).expect("start");
    let addr = server.addr();

    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let c = control_stats(addr);
        // The first Repartition decision counts, then fails its apply
        // (one revert); the retry is the second repartition.
        if num(&c, "reverts") >= 1.0 && num(&c, "repartitions") >= 2.0 {
            // Reverted once on the injected failure, then landed the
            // adaptive plan on a retry.
            let ways = c.get("mask_ways").expect("mask_ways");
            assert!(num(ways, "sensitive") < 20.0, "retry never landed: {c}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "revert/retry never observed: {c}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    server.shutdown();
}
