//! Thread census: with every periodic duty switched on (adaptive
//! control, flight recorder, supervised fake resctrl, occupancy
//! monitor), the server runs exactly one periodic background thread,
//! and only its OLAP workers run below the default priority.
//!
//! A one-test binary on purpose: `/proc/self/task` lists the whole
//! process, so a neighbouring test's server would be counted too.

use ccp_engine::OLAP_NICE;
use ccp_server::{HttpClient, Server, ServerConfig};
use std::time::{Duration, Instant};

/// One thread of this process: its `comm` and its nice value.
struct Task {
    name: String,
    nice: i32,
}

/// Field 19 of a `/proc/<pid>/task/<tid>/stat` line. The name (field 2)
/// is parenthesised and may hold spaces, so count from its closing `)`,
/// which is followed by field 3.
fn nice_of(stat: &str) -> Option<i32> {
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(19 - 3)?.parse().ok()
}

/// Every thread in this process.
fn tasks() -> Vec<Task> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            let nice = nice_of(&std::fs::read_to_string(dir.join("stat")).ok()?)?;
            Some(Task {
                name: name.trim_end().to_string(),
                nice,
            })
        })
        .collect()
}

/// Census after at most 5 s: the first one that `settled` accepts (a
/// thread names itself and sets its nice after it starts, and leaves
/// `/proc/self/task` only after it is joined), else the last one taken.
fn census_until(settled: impl Fn(&[Task]) -> bool) -> Vec<Task> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let tasks = tasks();
        if settled(&tasks) || Instant::now() >= deadline {
            return tasks;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn count(tasks: &[Task], name: &str) -> usize {
    tasks.iter().filter(|t| t.name == name).count()
}

fn is_olap_worker(task: &Task) -> bool {
    task.name.starts_with("olap-worker-")
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
    // Serving, so every thread `start` spawns is up; the open keep-alive
    // connection keeps its connection thread in the census.
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let health = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);

    let tasks = census_until(|tasks| {
        count(tasks, "ccp-plane") == 1
            && count(tasks, "ccp-conn") == 1
            && tasks.iter().any(is_olap_worker)
            && tasks
                .iter()
                .filter(|t| is_olap_worker(t))
                .all(|t| t.nice == OLAP_NICE)
    });
    let names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(count(&tasks, "ccp-plane"), 1, "threads: {names:?}");
    for legacy in [
        "ccp-occupancy",
        "ccp-flight",
        "ccp-supervise",
        "ccp-control",
        "ccp-reconcile",
    ] {
        assert_eq!(
            count(&tasks, legacy),
            0,
            "{legacy} is back; threads: {names:?}"
        );
    }

    // Only the OLAP workers give way: the OLTP pool, the plane and the
    // connection threads keep the default priority.
    assert_eq!(tasks.iter().filter(|t| is_olap_worker(t)).count(), 1);
    for name in ["oltp-worker-0", "ccp-plane", "ccp-conn", "ccp-accept"] {
        assert_eq!(count(&tasks, name), 1, "{name}; threads: {names:?}");
    }
    for task in &tasks {
        let want = if is_olap_worker(task) { OLAP_NICE } else { 0 };
        assert_eq!(task.nice, want, "nice of {}", task.name);
    }
    drop(client);

    server.shutdown();
    assert_eq!(
        count(
            &census_until(|tasks| count(tasks, "ccp-plane") == 0),
            "ccp-plane"
        ),
        0,
        "shutdown joins the plane"
    );
}
