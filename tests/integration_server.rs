//! Full-stack service-layer test: queries travel over real TCP sockets
//! through admission, classification and the dual-pool executor, and one
//! `/metrics` scrape shows the server, executor and scheduler families
//! side by side.

use cache_partitioning::server::{fetch, Json, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

fn test_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dataset_rows: 20_000,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn concurrent_scan_and_aggregation_round_trip() {
    let mut server = test_server();
    let addr = server.addr();

    const BODIES: [&str; 6] = [
        r#"{"workload":"q1","threshold":25000}"#,
        r#"{"workload":"q2","agg":"max"}"#,
        r#"{"workload":"q3"}"#,
        r#"{"workload":"oltp","key":7}"#,
        r#"{"workload":"tpch-1"}"#,
        r#"{"workload":"tpch-6"}"#,
    ];
    let handles: Vec<_> = BODIES
        .iter()
        .map(|body| {
            thread::spawn(move || {
                let resp = fetch(addr, "POST", "/query", Some(body)).expect("round trip");
                assert_eq!(resp.status, 200, "body: {}", resp.body);
                Json::parse(resp.body.trim()).expect("outcome is JSON")
            })
        })
        .collect();
    let outcomes: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Classification travelled with each result.
    let class_of = |i: usize| outcomes[i].get("class").and_then(Json::as_str).unwrap();
    assert_eq!(class_of(0), "polluting");
    assert_eq!(class_of(1), "sensitive");
    assert_eq!(class_of(2), "mixed");
    for o in &outcomes {
        assert!(o.get("latency_secs").and_then(Json::as_f64).unwrap() > 0.0);
        let norm = o
            .get("normalized_throughput")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(norm > 0.0 && norm <= 1.0 + 1e-9);
        assert!(o
            .get("mask")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("0x"));
    }

    // The polluter is confined to the paper's 10% mask; the sensitive
    // query keeps the full Broadwell mask.
    assert_eq!(outcomes[0].get("mask").and_then(Json::as_str), Some("0x3"));
    assert_eq!(
        outcomes[1].get("mask").and_then(Json::as_str),
        Some("0xfffff")
    );

    server.shutdown();
}

#[test]
fn scrape_exposes_all_layers() {
    let mut server = test_server();
    let addr = server.addr();
    for body in [r#"{"workload":"q1"}"#, r#"{"workload":"q2"}"#] {
        assert_eq!(
            fetch(addr, "POST", "/query", Some(body)).unwrap().status,
            200
        );
    }
    let scrape = fetch(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(scrape.status, 200);
    let text = scrape.body;
    for family in [
        // Service layer.
        "ccp_server_connections_total",
        "ccp_server_requests_total",
        "ccp_server_request_seconds",
        "ccp_server_admission_queue_depth",
        "ccp_server_admission_rejections_total",
        // Executor pools (olap + oltp labels).
        "ccp_executor_jobs_total",
        "ccp_executor_mask_switches_total",
        // Scheduler.
        "ccp_scheduler_admissions_total",
    ] {
        assert!(text.contains(family), "scrape missing {family}:\n{text}");
    }
    assert!(
        text.contains("pool=\"olap\"") && text.contains("pool=\"oltp\""),
        "both pools labeled"
    );
    // Executed jobs from the queries above are visible. A connection
    // thread counts its request after the reply is written, so the second
    // query may land in the count a moment after the client has its reply.
    let counted = "ccp_server_requests_total{endpoint=\"/query\",status=\"200\"} 2";
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut text = text;
    while !text.contains(counted) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        text = fetch(addr, "GET", "/metrics", None).unwrap().body;
    }
    assert!(text.contains(counted), "{text}");
    server.shutdown();
}

#[test]
fn healthz_and_error_routes() {
    let mut server = test_server();
    let addr = server.addr();

    let health = fetch(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));

    assert_eq!(fetch(addr, "GET", "/nope", None).unwrap().status, 404);
    assert_eq!(fetch(addr, "POST", "/metrics", None).unwrap().status, 405);
    assert_eq!(fetch(addr, "GET", "/query", None).unwrap().status, 404);
    let bad = fetch(addr, "POST", "/query", Some("not json")).unwrap();
    assert_eq!(bad.status, 400);
    let unknown = fetch(addr, "POST", "/query", Some(r#"{"workload":"q99"}"#)).unwrap();
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("unknown workload"));
    // The sleep workload is disabled unless explicitly enabled.
    let sleep = fetch(addr, "POST", "/query", Some(r#"{"workload":"sleep"}"#)).unwrap();
    assert_eq!(sleep.status, 400);
    server.shutdown();
}

#[test]
fn keep_alive_pipelines_queries_on_one_socket() {
    let mut server = test_server();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = r#"{"workload":"q1"}"#;
    // Two pipelined requests, then one asking to close.
    let mut raw = String::new();
    for connection in ["keep-alive", "keep-alive", "close"] {
        raw.push_str(&format!(
            "POST /query HTTP/1.1\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    stream.write_all(raw.as_bytes()).unwrap();
    let mut replies = String::new();
    stream.read_to_string(&mut replies).unwrap();
    assert_eq!(
        replies.matches("HTTP/1.1 200 OK").count(),
        3,
        "all pipelined queries answered in order: {replies}"
    );
    assert_eq!(replies.matches("\"workload\":\"q1\"").count(), 3);
    server.shutdown();
}

#[test]
fn multi_line_ndjson_body_executes_each_line() {
    let mut server = test_server();
    let addr = server.addr();
    let body =
        "{\"workload\":\"q1\"}\n{\"workload\":\"oltp\",\"key\":3}\n{\"workload\":\"nope\"}\n";
    let resp = fetch(addr, "POST", "/query", Some(body)).unwrap();
    assert_eq!(resp.status, 200);
    let lines: Vec<&str> = resp.body.trim().lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"workload\":\"q1\""));
    assert!(lines[1].contains("\"workload\":\"oltp\""));
    assert!(
        lines[2].contains("unknown workload"),
        "per-line error: {}",
        lines[2]
    );
    server.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_port_is_released() {
    let mut server = test_server();
    let addr = server.addr();
    assert_eq!(fetch(addr, "GET", "/healthz", None).unwrap().status, 200);
    server.shutdown();
    server.shutdown(); // second call is a no-op
                       // The port is free again: a fresh listener can bind it.
    std::net::TcpListener::bind(addr).expect("port released after shutdown");
}

#[test]
fn a_shut_down_server_never_dials_its_freed_port() {
    let mut server = test_server();
    let addr = server.addr();
    server.shutdown();
    // Another listener takes the freed port before the server is dropped.
    let listener = std::net::TcpListener::bind(addr).expect("port released after shutdown");
    listener.set_nonblocking(true).unwrap();
    drop(server);
    let err = listener
        .accept()
        .expect_err("the drop dialled the freed port");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
}
