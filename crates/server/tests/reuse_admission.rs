//! End-to-end reuse integration over real sockets: a repeated query is
//! served from the cache and *admitted* under the non-polluting class,
//! `POST /data/bump` invalidates, and a fault-injected `reuse.lookup`
//! exercises the misprediction counter — admission predicted a hit, the
//! entry vanished by execution time, and the server noticed.

use ccp_server::{fetch, Json, Server, ServerConfig};
use std::net::SocketAddr;

/// Clears the process-global fault plan even when the test panics, so a
/// failure here cannot leak an armed failpoint into other tests.
struct PlanGuard;
impl Drop for PlanGuard {
    fn drop(&mut self) {
        ccp_fault::clear();
    }
}

fn query(addr: SocketAddr, body: &str) -> Json {
    let resp = fetch(addr, "POST", "/query", Some(body)).expect("query");
    assert_eq!(resp.status, 200, "query failed: {}", resp.body);
    Json::parse(resp.body.trim()).expect("query response parses")
}

fn scrape(addr: SocketAddr) -> String {
    fetch(addr, "GET", "/metrics", None).expect("scrape").body
}

/// The sample of the unlabelled family `name` in a `/metrics` scrape.
fn sample(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from the scrape"))
        .parse()
        .expect("numeric sample")
}

fn field<'j>(j: &'j Json, name: &str) -> &'j Json {
    j.get(name)
        .unwrap_or_else(|| panic!("missing field {name}"))
}

#[test]
fn repeat_hits_reclassify_bump_invalidates_and_faults_count_mispredictions() {
    let _plan = PlanGuard;
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 1,
        oltp_workers: 1,
        dataset_rows: 4_096,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let q1 = r#"{"workload":"q1","threshold":25000}"#;

    // Cold: the scan is the paper's polluter and misses the cache.
    let first = query(addr, q1);
    assert_eq!(field(&first, "reuse").as_str(), Some("miss"));
    assert_eq!(field(&first, "class").as_str(), Some("polluting"));

    // Warm: predicted hit -> admitted sensitive-light, served cached.
    let second = query(addr, q1);
    assert_eq!(field(&second, "reuse").as_str(), Some("hit"));
    assert_eq!(
        field(&second, "class").as_str(),
        Some("sensitive"),
        "a predicted hit must be admitted under the non-polluting class"
    );
    assert_eq!(
        field(&second, "result").as_f64(),
        field(&first, "result").as_f64(),
        "cached result matches the computed one"
    );

    // Equivalent predicate spelling lands on the same entry.
    let spaced = query(addr, r#"{"workload":"q1","threshold":  25000}"#);
    assert_eq!(field(&spaced, "reuse").as_str(), Some("hit"));

    // Bump the data version: the entry is invalidated, q1 rebuilds
    // (admitted as the polluter again), then the cache refills.
    let bump = fetch(addr, "POST", "/data/bump", None).expect("bump");
    assert_eq!(bump.status, 200, "bump failed: {}", bump.body);
    let bumped = Json::parse(bump.body.trim()).expect("bump parses");
    assert_eq!(field(&bumped, "data_version").as_f64(), Some(1.0));
    let rebuilt = query(addr, q1);
    assert_eq!(field(&rebuilt, "reuse").as_str(), Some("miss"));
    assert_eq!(field(&rebuilt, "class").as_str(), Some("polluting"));
    let refilled = query(addr, q1);
    assert_eq!(field(&refilled, "reuse").as_str(), Some("hit"));
    let s = scrape(addr);
    assert!(sample(&s, "ccp_reuse_invalidations_total") >= 1.0);
    assert_eq!(sample(&s, "ccp_reuse_mispredictions_total"), 0.0);

    // Fault-inject the exec-time lookup: admission still predicts a hit
    // (predict() takes no failpoint), but the armed lookup makes the
    // entry vanish mid-flight — the query runs under sensitive-light
    // without earning it, and the misprediction counter says so.
    ccp_fault::install_str("reuse.lookup=err@1").expect("plan parses");
    let mispredicted = query(addr, q1);
    assert_eq!(field(&mispredicted, "reuse").as_str(), Some("miss"));
    assert_eq!(
        field(&mispredicted, "class").as_str(),
        Some("sensitive"),
        "admission had already decided before the entry vanished"
    );
    ccp_fault::clear();
    assert!(sample(&scrape(addr), "ccp_reuse_mispredictions_total") >= 1.0);

    // The forced miss rebuilt and re-published: next lookup hits again.
    let recovered = query(addr, q1);
    assert_eq!(field(&recovered, "reuse").as_str(), Some("hit"));

    server.shutdown();
}

#[test]
fn no_reuse_disables_endpoint_and_bypasses() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 1,
        oltp_workers: 1,
        dataset_rows: 1_024,
        no_reuse: true,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let q1 = r#"{"workload":"q1"}"#;
    for _ in 0..2 {
        let out = query(addr, q1);
        assert_eq!(field(&out, "reuse").as_str(), Some("bypass"));
        assert_eq!(field(&out, "class").as_str(), Some("polluting"));
    }
    let bump = fetch(addr, "POST", "/data/bump", None).expect("bump");
    assert_eq!(bump.status, 409, "bump without a cache: {}", bump.body);
    // No cache, no `ccp_reuse_*` families.
    let s = scrape(addr);
    assert!(!s.contains("ccp_reuse_"), "{s}");
    server.shutdown();
}
