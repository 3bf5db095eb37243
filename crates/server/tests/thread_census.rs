//! Thread census: with every periodic duty switched on (adaptive
//! control, flight recorder, supervised fake resctrl, occupancy
//! monitor), the server runs exactly one periodic background thread.
//!
//! A one-test binary on purpose: `/proc/self/task` lists the whole
//! process, so a neighbouring test's server would be counted too.

use ccp_server::{fetch, Server, ServerConfig};
use std::time::{Duration, Instant};

/// The `comm` of every thread in this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// Census after at most 5 s: the first one with exactly `plane` threads
/// named `ccp-plane` (a thread names itself after it starts, and leaves
/// `/proc/self/task` only after it is joined), else the last one taken.
fn census_with_planes(plane: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = thread_names();
        let planes = names.iter().filter(|n| *n == "ccp-plane").count();
        if planes == plane || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn every_periodic_duty_shares_the_one_plane_thread() {
    let mut server = Server::start(ServerConfig {
        olap_workers: 1,
        oltp_workers: 1,
        dataset_rows: 64,
        fake_resctrl: true,
        adaptive: true,
        control_interval: Duration::from_millis(20),
        occupancy_script: Some("sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02".to_string()),
        ..ServerConfig::default()
    })
    .expect("start");
    // Serving, so every thread `start` spawns is up.
    let health = fetch(server.addr(), "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);

    let names = census_with_planes(1);
    let count = |name: &str| names.iter().filter(|n| n.as_str() == name).count();
    assert_eq!(count("ccp-plane"), 1, "threads: {names:?}");
    for legacy in [
        "ccp-occupancy",
        "ccp-flight",
        "ccp-supervise",
        "ccp-control",
        "ccp-reconcile",
    ] {
        assert_eq!(count(legacy), 0, "{legacy} is back; threads: {names:?}");
    }

    server.shutdown();
    assert_eq!(
        census_with_planes(0)
            .iter()
            .filter(|n| *n == "ccp-plane")
            .count(),
        0,
        "shutdown joins the plane"
    );
}
