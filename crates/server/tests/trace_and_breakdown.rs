//! End-to-end tests of the observability surface over real sockets:
//! the per-query latency breakdown's arithmetic, the Chrome trace-event
//! export on `/trace`, per-CUID-class occupancy and trace-loss gauges on
//! `/metrics`, and deadline-based load shedding with `Retry-After`.

use ccp_server::{fetch, HttpClient, Json, Server, ServerConfig};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The tracer is process-global, so tests that emit or clear spans must
/// not interleave (`?clear=1` in one would erase another's events).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        olap_workers: 1,
        oltp_workers: 1,
        scheduler_slots: 2,
        queue_capacity: 4,
        dataset_rows: 2_000,
        control_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn breakdown_field(outcome: &Json, field: &str) -> u64 {
    outcome
        .get("breakdown")
        .and_then(|b| b.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("breakdown field {field} missing in {outcome:?}"))
}

/// The four breakdown phases never add up to more than the wall time the
/// client observed for the whole request — the invariant that makes the
/// breakdown trustworthy for "where did my latency go" questions.
#[test]
fn breakdown_sums_to_at_most_total_latency() {
    let _guard = serial();
    let mut server = Server::start(config()).expect("start");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    for body in [
        r#"{"workload":"q1","threshold":100}"#,
        r#"{"workload":"q2","agg":"sum"}"#,
        r#"{"workload":"oltp","key":4}"#,
    ] {
        let started = Instant::now();
        let resp = client.request("POST", "/query", Some(body)).expect("query");
        let total_us = started.elapsed().as_micros() as u64;
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let outcome = Json::parse(resp.body.trim()).expect("outcome JSON");
        let sum = breakdown_field(&outcome, "queue_us")
            + breakdown_field(&outcome, "schedule_us")
            + breakdown_field(&outcome, "bind_us")
            + breakdown_field(&outcome, "exec_us");
        assert!(
            sum <= total_us,
            "breakdown sum {sum}us exceeds client-observed total {total_us}us ({body})"
        );
    }
    server.shutdown();
}

/// `/trace` serves one self-contained Chrome trace-event document whose
/// spans cover every layer a query passes through: server routing,
/// admission, mask binding and the operator itself, all correlated by
/// the admission ticket in `args.query`.
#[test]
fn trace_endpoint_covers_all_layers() {
    let _guard = serial();
    let mut server = Server::start(config()).expect("start");
    let addr = server.addr();
    let resp = fetch(
        addr,
        "POST",
        "/query",
        Some(r#"{"workload":"q1","threshold":100}"#),
    )
    .expect("query");
    assert_eq!(resp.status, 200);

    let trace = fetch(addr, "GET", "/trace", None).expect("trace");
    assert_eq!(trace.status, 200);
    let doc = Json::parse(&trace.body).expect("/trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let mut cats = Vec::new();
    let mut names = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph present");
        assert!(
            matches!(ph, "B" | "E" | "i" | "M"),
            "unexpected phase {ph:?}"
        );
        assert!(ev.get("tid").is_some(), "tid present");
        if ph == "M" {
            continue; // metadata events carry no cat/ts
        }
        assert!(ev.get("ts").and_then(Json::as_u64).is_some(), "ts numeric");
        if let Some(cat) = ev.get("cat").and_then(Json::as_str) {
            cats.push(cat.to_string());
        }
        if let Some(name) = ev.get("name").and_then(Json::as_str) {
            names.push(name.to_string());
        }
    }
    for layer in ["server", "admission", "bind", "op", "query"] {
        assert!(
            cats.iter().any(|c| c == layer),
            "no {layer:?} events in {cats:?}"
        );
    }
    assert!(
        names.iter().any(|n| n == "admission_wait"),
        "admission wait span present: {names:?}"
    );

    // `?clear=1` snapshots then resets: a second scrape has no query spans.
    let _ = fetch(addr, "GET", "/trace?clear=1", None).expect("clear");
    let after = fetch(addr, "GET", "/trace", None).expect("trace after clear");
    let doc = Json::parse(&after.body).expect("still valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing after clear");
    };
    assert!(
        !events
            .iter()
            .any(|e| { e.get("cat").and_then(Json::as_str) == Some("op") }),
        "operator spans survived ?clear=1"
    );
    server.shutdown();
}

/// Every `Connection: close` client costs the server one short-lived
/// handler thread; the tracer must recycle those threads' span rings
/// instead of registering a fresh 256 KiB ring per connection forever
/// (a scrape loop would otherwise OOM a long-running server).
#[test]
fn connection_churn_does_not_accumulate_trace_rings() {
    let _guard = serial();
    let mut server = Server::start(config()).expect("start");
    let addr = server.addr();
    const CONNS: usize = 40;
    for _ in 0..CONNS {
        // `fetch` opens a fresh connection and asks the server to close
        // it — exactly the per-request-thread churn pattern.
        let resp = fetch(addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(resp.status, 200);
    }
    let trace = fetch(addr, "GET", "/trace", None).expect("trace");
    let doc = Json::parse(&trace.body).expect("valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    // One `thread_name` metadata event per registered ring. Workers,
    // accept loop and a few overlapping connection handlers are fine;
    // one ring per connection ever handled is the leak this guards.
    let rings = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .count();
    assert!(
        rings < CONNS,
        "{rings} rings registered after {CONNS} sequential connections — \
         dead connection threads' rings are not being recycled"
    );
    server.shutdown();
}

/// The background sampler publishes per-CUID-class occupancy gauges into
/// the same registry `/metrics` scrapes — simulator-backed here, since
/// CI has no CMT hardware.
#[test]
fn metrics_expose_per_class_occupancy_gauges() {
    let _guard = serial();
    let mut server = Server::start(config()).expect("start");
    let addr = server.addr();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
        let all_present = ["polluting", "sensitive", "mixed"]
            .iter()
            .all(|class| scrape.contains(&format!("ccp_llc_occupancy_bytes{{class=\"{class}\"}}")));
        if all_present {
            assert!(
                scrape.contains("ccp_mbm_total_bytes{class="),
                "bandwidth gauges ride along"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "occupancy gauges never appeared:\n{scrape}"
        );
        thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// A query that cannot get a slot before the configured deadline is
/// dequeued with `503` and told when to come back.
#[test]
fn deadline_sheds_load_with_retry_after() {
    let _guard = serial();
    let mut server = Server::start(ServerConfig {
        scheduler_slots: 1,
        queue_capacity: 4,
        enable_sleep_workload: true,
        queue_deadline: Some(Duration::from_millis(100)),
        dataset_rows: 64,
        ..config()
    })
    .expect("start");
    let addr = server.addr();
    let holder = thread::spawn(move || {
        fetch(
            addr,
            "POST",
            "/query",
            Some(r#"{"workload":"sleep","ms":800}"#),
        )
        .expect("holder")
    });
    thread::sleep(Duration::from_millis(250));

    let shed = fetch(
        addr,
        "POST",
        "/query",
        Some(r#"{"workload":"sleep","ms":10}"#),
    )
    .expect("shed");
    assert_eq!(shed.status, 503, "deadline expired -> 503: {}", shed.body);
    assert_eq!(
        shed.header("retry-after"),
        Some("1"),
        "Retry-After accompanies the 503"
    );
    assert!(shed.body.contains("timed out"), "body names the cause");

    assert_eq!(holder.join().unwrap().status, 200);
    let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
    assert!(
        scrape.contains("ccp_admission_timeouts_total 1"),
        "timeout counted:\n{scrape}"
    );
    server.shutdown();
}

/// `/query` returns the admission ticket, and `/trace?ticket=N` narrows
/// the trace to exactly that query's spans: every remaining non-metadata
/// event carries `args.query == N`, and other queries' spans are gone.
#[test]
fn trace_ticket_filter_isolates_one_query() {
    let _guard = serial();
    let mut server = Server::start(config()).expect("start");
    let addr = server.addr();
    // Two queries → two distinct tickets in the rings.
    let first = fetch(
        addr,
        "POST",
        "/query",
        Some(r#"{"workload":"q1","threshold":100}"#),
    )
    .expect("first query");
    assert_eq!(first.status, 200);
    let second = fetch(
        addr,
        "POST",
        "/query",
        Some(r#"{"workload":"q1","threshold":100}"#),
    )
    .expect("second query");
    let outcome = Json::parse(&second.body).expect("query response is JSON");
    let ticket = outcome
        .get("ticket")
        .and_then(Json::as_u64)
        .expect("response carries the admission ticket");

    let trace = fetch(addr, "GET", &format!("/trace?ticket={ticket}"), None).expect("trace");
    assert_eq!(trace.status, 200);
    let doc = Json::parse(&trace.body).expect("filtered trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let mut span_events = 0;
    for ev in events {
        // `B` and `i` events carry `args.query`; `E` closes its `B` and
        // `M` is thread metadata — neither repeats the id.
        if !matches!(ev.get("ph").and_then(Json::as_str), Some("B" | "i")) {
            continue;
        }
        span_events += 1;
        let id = ev
            .get("args")
            .and_then(|a| a.get("query"))
            .and_then(Json::as_u64);
        assert_eq!(id, Some(ticket), "foreign event in filtered trace: {ev:?}");
    }
    assert!(span_events > 0, "filter kept the query's own spans");

    // A malformed ticket is a clean 400, not a panic or a full dump.
    let bad = fetch(addr, "GET", "/trace?ticket=abc", None).expect("bad ticket");
    assert_eq!(bad.status, 400);
    server.shutdown();
}

/// An OLTP statement runs on the never-bound connection thread: a hundred
/// of them leave the resctrl tree's task assignments where they were,
/// every reply's `bind_us` is 0, and a statement's trace holds its query
/// and operator spans and no bind.
#[test]
fn oltp_statements_bind_nothing() {
    let _guard = serial();
    let mut server = Server::start(ServerConfig {
        fake_resctrl: true,
        ..config()
    })
    .expect("start");
    let addr = server.addr();
    let task_assigns = || {
        let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
        let line = scrape
            .lines()
            .find(|l| l.starts_with("ccp_resctrl_task_assigns_total "))
            .unwrap_or_else(|| panic!("no task_assigns counter in:\n{scrape}"));
        line.rsplit(' ').next().unwrap().parse::<f64>().unwrap()
    };
    let before = task_assigns();
    let mut client = HttpClient::connect(addr).expect("connect");
    let mut ticket = None;
    for key in 0..100 {
        let body = format!(r#"{{"workload":"oltp","key":{key}}}"#);
        let resp = client.request("POST", "/query", Some(&body)).expect("oltp");
        assert_eq!(resp.status, 200, "{body}: {}", resp.body);
        let outcome = Json::parse(resp.body.trim()).expect("outcome JSON");
        assert_eq!(breakdown_field(&outcome, "bind_us"), 0, "{outcome:?}");
        ticket = outcome.get("ticket").and_then(Json::as_u64);
    }
    assert_eq!(task_assigns(), before, "an OLTP statement moved a task");

    let ticket = ticket.expect("reply carries a ticket");
    let trace = fetch(addr, "GET", &format!("/trace?ticket={ticket}"), None).expect("trace");
    let doc = Json::parse(&trace.body).expect("filtered trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let spans: Vec<(&str, &str)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .filter_map(|e| {
            let cat = e.get("cat").and_then(Json::as_str)?;
            Some((cat, e.get("name").and_then(Json::as_str)?))
        })
        .collect();
    assert!(spans.iter().any(|&(cat, _)| cat == "query"), "{spans:?}");
    assert!(spans.contains(&("op", "point_select")), "{spans:?}");
    assert!(!spans.iter().any(|&(cat, _)| cat == "bind"), "{spans:?}");
    server.shutdown();
}

/// `/metrics` carries the tracer's losses: with 8-record rings a few
/// queries on one connection overflow its ring, and within a plane pass
/// `ccp_trace_dropped_records` shows it.
#[test]
fn metrics_count_dropped_trace_records() {
    let _guard = serial();
    let mut server = Server::start(ServerConfig {
        trace_ring_capacity: 8,
        ..config()
    })
    .expect("start");
    let addr = server.addr();
    let dropped = || {
        let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape").body;
        scrape
            .lines()
            .find_map(|l| l.strip_prefix("ccp_trace_dropped_records "))
            .unwrap_or_else(|| panic!("no ccp_trace_dropped_records in\n{scrape}"))
            .parse::<f64>()
            .expect("numeric sample")
    };
    let mut client = HttpClient::connect(addr).expect("connect");
    for _ in 0..10 {
        let resp = client
            .request("POST", "/query", Some(r#"{"workload":"oltp","key":4}"#))
            .expect("query");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while dropped() == 0.0 {
        assert!(Instant::now() < deadline, "no drops published");
        thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
