//! End-to-end demo of the networked service layer: start a server on an
//! ephemeral port, fire **concurrent** scan and aggregation clients at
//! `POST /query` over keep-alive connections, then scrape `/metrics`
//! and `/trace` to show the observability surface the run produced.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! This is `ccp serve` compressed into one process: the same admission
//! queue decides who may co-run (never two cache-sensitive queries at
//! once), the same dual-pool executor binds way masks per job, and the
//! same registry serves the scrape.

use ccp_server::{fetch, HttpClient, Json, Server, ServerConfig};
use std::thread;

fn main() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dataset_rows: 200_000,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr();
    println!(
        "serving on http://{addr} (partitioning: {})\n",
        server.partitioning()
    );

    // Two clients hammer the server concurrently: a polluting scan stream
    // and a cache-sensitive aggregation stream — the paper's antagonists,
    // arriving over the wire. Each holds one keep-alive connection for
    // its whole run, like a real application would.
    let clients: Vec<(&str, &str)> = vec![
        ("scan", r#"{"workload":"q1","threshold":25000}"#),
        ("aggregation", r#"{"workload":"q2","agg":"max"}"#),
    ];
    let mut handles = Vec::new();
    for (name, body) in clients {
        let body = body.to_string();
        handles.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut lines = Vec::new();
            for _ in 0..5 {
                let resp = client
                    .request("POST", "/query", Some(&body))
                    .expect("query round-trip");
                assert_eq!(resp.status, 200, "unexpected response: {}", resp.body);
                lines.push(resp.body.trim().to_string());
            }
            (name, lines)
        }));
    }
    for h in handles {
        let (name, lines) = h.join().expect("client thread");
        println!("── {name} ──");
        for line in &lines {
            let v = Json::parse(line).expect("valid outcome JSON");
            let queue_us = v
                .get("breakdown")
                .and_then(|b| b.get("queue_us"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            println!(
                "  class={:<10} mask={:<6} rows={:>7} latency={:>8.3} ms  queued={:>5} us  normalized={:.2}",
                v.get("class").and_then(Json::as_str).unwrap_or("?"),
                v.get("mask").and_then(Json::as_str).unwrap_or("?"),
                v.get("rows").and_then(Json::as_u64).unwrap_or(0),
                v.get("latency_secs").and_then(Json::as_f64).unwrap_or(0.0) * 1e3,
                queue_us,
                v.get("normalized_throughput")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            );
        }
    }

    let stats = fetch(addr, "GET", "/stats", None).expect("stats");
    println!("\n/stats → {}", stats.body);

    let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape");
    println!("\nserver-side families from /metrics:");
    for line in scrape.body.lines() {
        if line.starts_with("ccp_server_") && !line.contains("_bucket") {
            println!("  {line}");
        }
    }
    assert!(
        scrape.body.contains("ccp_server_requests_total"),
        "scrape must expose the server families"
    );
    assert!(
        scrape.body.contains("ccp_executor_jobs_total"),
        "scrape must expose the executor families"
    );

    // The whole run above is also a trace: every query's admission wait,
    // mask bind and operator spans, ready to drop into Perfetto.
    let trace = fetch(addr, "GET", "/trace", None).expect("trace");
    let doc = Json::parse(&trace.body).expect("/trace is valid Chrome JSON");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events.len(),
        _ => panic!("traceEvents missing from /trace"),
    };
    println!(
        "\n/trace → {events} trace events ({} bytes; load in ui.perfetto.dev)",
        trace.body.len()
    );

    server.shutdown();
    println!("\nserver drained cleanly");
}
