//! Chaos integration over real sockets: with a bounded
//! `resctrl.write_schemata` fault window armed, the supervised
//! fake-resctrl engine keeps serving queries while binds fail, trips
//! its circuit breaker into degraded unpartitioned mode, and heals back
//! to partitioned once the background re-probe burns through the
//! window — with the whole episode visible in `/metrics`.

use ccp_server::{fetch, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Clears the process-global fault plan even when the test panics, so a
/// failure here cannot leak an armed failpoint into other tests.
struct PlanGuard;
impl Drop for PlanGuard {
    fn drop(&mut self) {
        ccp_fault::clear();
    }
}

fn scrape(addr: SocketAddr) -> String {
    fetch(addr, "GET", "/metrics", None).expect("scrape").body
}

/// First sample of `name` in a Prometheus scrape.
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
fn write_faults_trip_degraded_mode_and_reprobe_heals() {
    let _plan = PlanGuard;
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 1,
        oltp_workers: 1,
        scheduler_slots: 2,
        dataset_rows: 64,
        fake_resctrl: true,
        control_interval: Duration::from_millis(20),
        // The repeated q1 must actually scan (and bind) every time;
        // with reuse on, repeats would be served from the cache and
        // the bind-fault window would never be consumed.
        no_reuse: true,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // The fake tree is supervised: the breaker's families are there.
    let s = scrape(addr);
    assert!(
        s.contains("# TYPE ccp_resctrl_breaker_trips_total counter"),
        "fake resctrl: {s}"
    );
    assert_eq!(
        scrape_value(&s, "ccp_resctrl_degraded"),
        0.0,
        "healthy at start"
    );

    // A window of 40 schemata-write failures: enough for three exhausted
    // ops (3 attempts each) to trip the breaker, small enough that the
    // 20ms re-probe loop (3 hits per probe) exhausts it within a second.
    ccp_fault::install_str("resctrl.write_schemata=err@1+40").expect("plan");

    // Queries keep succeeding while their binds fail — partitioning is
    // an optimization, never a gate — and the breaker eventually trips.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("query");
        assert_eq!(
            r.status, 200,
            "queries must survive bind faults: {}",
            r.body
        );
        if scrape_value(&scrape(addr), "ccp_resctrl_degraded") == 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never tripped: {}",
            scrape(addr)
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Degraded mode still serves queries (full cache, no binds).
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("query");
    assert_eq!(r.status, 200, "degraded mode serves queries: {}", r.body);

    // The re-probe loop burns through the fault window and restores
    // partitioned mode on the first genuine write success.
    let deadline = Instant::now() + Duration::from_secs(15);
    while scrape_value(&scrape(addr), "ccp_resctrl_degraded") == 1.0 {
        assert!(
            Instant::now() < deadline,
            "re-probe never healed: {}",
            scrape(addr)
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Queries still succeed after the restore.
    let r = fetch(addr, "POST", "/query", Some(r#"{"workload":"q1"}"#)).expect("query");
    assert_eq!(r.status, 200, "restored mode serves queries: {}", r.body);

    // The whole episode is visible in one scrape: the gauge is back to
    // 0, and every stage left its counter trail.
    let episode = scrape(addr);
    assert_eq!(scrape_value(&episode, "ccp_resctrl_degraded"), 0.0);
    assert!(scrape_value(&episode, "ccp_resctrl_retries_total") >= 1.0);
    assert!(scrape_value(&episode, "ccp_resctrl_op_failures_total") >= 3.0);
    assert!(scrape_value(&episode, "ccp_resctrl_breaker_trips_total") >= 1.0);
    assert!(scrape_value(&episode, "ccp_resctrl_reprobes_total") >= 1.0);
    assert!(scrape_value(&episode, "ccp_resctrl_restores_total") >= 1.0);
    // No worker died through any of it.
    let panicked = episode
        .lines()
        .filter(|l| l.starts_with("ccp_executor_jobs_panicked_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>();
    assert_eq!(panicked, 0.0, "no worker panics during the episode");

    server.shutdown();
}
