//! End-to-end adaptive control over real sockets: a scripted occupancy
//! trace drives the controller to repartition the live mask table, the
//! episode is visible in `/metrics`, and an armed
//! `control.apply` failpoint turns the first repartition into a clean
//! revert followed by a successful retry. On a 4-CLOSID tree — the root
//! plus three groups, one plan's worth — a repartition has to retire the
//! groups of the plan it replaces before it can make its own.

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
        occupancy_script: Some(SHRINK_SCRIPT.to_string()),
        ..ServerConfig::default()
    }
}

fn scrape(addr: SocketAddr) -> String {
    fetch(addr, "GET", "/metrics", None).expect("metrics").body
}

/// The sample of `series` (the family plus its labels, as the line
/// begins) in a `/metrics` scrape.
fn sample(scrape: &str, series: &str) -> f64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{series} missing from the scrape"))
        .parse()
        .expect("numeric sample")
}

/// The live way count of `class` as `ccp_control_mask_ways` shows it.
fn ways(scrape: &str, class: &str) -> f64 {
    sample(
        scrape,
        &format!("ccp_control_mask_ways{{class=\"{class}\"}}"),
    )
}

#[test]
fn scripted_shrink_repartitions_and_reports_everywhere() {
    // Both tests run a controller that passes the `control.apply` site:
    // side by side, whichever server repartitions first would consume
    // the other test's one-shot fault.
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(adaptive_config()).expect("start");
    let addr = server.addr();

    // The scripted sensitive working set collapses after 6 monitor
    // ticks; the controller must notice and shrink the live mask.
    let deadline = Instant::now() + Duration::from_secs(15);
    let control = loop {
        let c = scrape(addr);
        if sample(&c, "ccp_control_repartitions_total") >= 1.0 {
            break c;
        }
        assert!(
            Instant::now() < deadline,
            "controller never repartitioned: {c}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        ways(&control, "sensitive") < 20.0,
        "sensitive mask did not shrink: {control}"
    );
    assert!(
        ways(&control, "polluting") >= 2.0,
        "polluter starved: {control}"
    );

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
        let c = scrape(addr);
        // The first Repartition decision counts, then fails its apply
        // (one revert); the retry is the second repartition.
        if sample(&c, "ccp_control_reverts_total") >= 1.0
            && sample(&c, "ccp_control_repartitions_total") >= 2.0
        {
            // Reverted once on the injected failure, then landed the
            // adaptive plan on a retry.
            assert!(ways(&c, "sensitive") < 20.0, "retry never landed: {c}");
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

/// The `ccp-` groups in the server's resctrl tree.
fn ccp_groups(server: &Server) -> Vec<String> {
    let mut groups = server.resctrl_groups().expect("fake tree");
    groups.retain(|g| g.starts_with("ccp-"));
    groups
}

#[test]
fn four_closids_repartition_without_thrash() {
    let _turn = ccp_fault::exclusive();
    let mut server = Server::start(ServerConfig {
        fake_closids: Some(4),
        olap_workers: 2,
        ..adaptive_config()
    })
    .expect("start");
    let addr = server.addr();

    // The scripted collapse lands, then the controller gets 60 more ticks
    // to change its mind in. The pool never holds more than one plan.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut shrunk_at = None;
    loop {
        let groups = ccp_groups(&server);
        assert!(groups.len() <= 3, "more groups than one plan: {groups:?}");
        let c = scrape(addr);
        if ways(&c, "sensitive") < 20.0 {
            let decisions = sample(&c, "ccp_control_decisions_total");
            if decisions >= *shrunk_at.get_or_insert(decisions) + 60.0 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "never converged: {c}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut replied = Vec::new();
    for workload in ["q1", "q2", "tpch-3"] {
        let body = format!(r#"{{"workload":"{workload}"}}"#);
        let r = fetch(addr, "POST", "/query", Some(&body)).expect("query");
        assert_eq!(r.status, 200, "{workload}: {}", r.body);
        let outcome = Json::parse(r.body.lines().next().expect("one line")).expect("outcome");
        let mask = outcome.get("mask").and_then(Json::as_str).expect("mask");
        replied.push(format!("ccp-{}", mask.trim_start_matches("0x")));
    }

    let control = scrape(addr);
    assert_eq!(sample(&control, "ccp_control_reverts_total"), 0.0);
    assert!(sample(&control, "ccp_control_repartitions_total") <= 3.0);
    assert_eq!(
        sample(&control, "ccp_executor_bind_failures_total{pool=\"olap\"}"),
        0.0
    );
    // Groups are per mask: each one's schemata is written once, when it
    // is made, also across repartitions.
    assert_eq!(
        sample(&control, "ccp_resctrl_schemata_writes_total"),
        sample(&control, "ccp_resctrl_group_creates_total")
    );

    // Every group is the group of a mask the plan in force names: the
    // masks the replies report are there, and nothing is left of the
    // static plan the repartition replaced.
    let groups = ccp_groups(&server);
    let plan_ways = ["polluting", "mixed", "sensitive"].map(|class| ways(&control, class) as u32);
    for group in &groups {
        let bits = u32::from_str_radix(&group["ccp-".len()..], 16).expect("ccp-<mask hex>");
        assert!(
            plan_ways.contains(&bits.count_ones()),
            "{group} is no mask of {control}: {groups:?}"
        );
    }
    for group in &replied {
        assert!(groups.contains(group), "{group} missing from {groups:?}");
    }
    assert!(groups.len() <= 3, "{groups:?}");

    server.shutdown();
    assert_eq!(ccp_groups(&server), Vec::<String>::new());
}
