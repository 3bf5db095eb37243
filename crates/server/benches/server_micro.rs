//! Criterion microbenchmarks for the fixed work every `/query` pays on
//! the connection thread, around the query itself: reading the HTTP
//! request, parsing its JSON line, taking and returning an admission
//! permit, rendering the reply line and the label lookups the request
//! counters make.
//!
//! The reply is rendered through `to_string()`, the call the
//! benchmark's traced pass makes, so the ids compare across revisions
//! of the renderer.

use ccp_cachesim::HierarchyConfig;
use ccp_engine::{CacheAwareScheduler, CacheUsageClass, PartitionPolicy, SchedulerMetrics};
use ccp_obs::Registry;
use ccp_resctrl::Class;
use ccp_server::http::read_request;
use ccp_server::{parse_query, AdmissionQueue, Breakdown, Json, QueryOutcome, ServerMetrics};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::borrow::Cow;
use std::io::Cursor;
use std::sync::Arc;

/// A reuse-hit `q1` request line, as the load generator sends it.
const LINE: &str = r#"{"workload":"q1","threshold":25000}"#;

fn bench_json(c: &mut Criterion) {
    let outcome = QueryOutcome {
        workload: Cow::Borrowed("q1"),
        class: Class::Sensitive,
        mask_bits: 0xfffff,
        rows: 2_000_000,
        result: 999_425,
        latency_secs: 1.873e-6,
        rows_per_sec: 1_067_805_659_369.99,
        normalized_throughput: 0.6203478712409443,
        reuse: "hit",
    };
    let breakdown = Breakdown {
        queue_us: 3,
        schedule_us: 0,
        bind_us: 0,
        exec_us: 2,
    };
    let mut g = c.benchmark_group("server/json");
    g.bench_function("render_reply", |b| {
        b.iter(|| {
            let mut json = black_box(&outcome).to_json_with(&breakdown);
            if let Json::Obj(ref mut fields) = json {
                fields.push(("ticket".to_string(), Json::num(123_456.0)));
            }
            json.to_string().len()
        });
    });
    g.bench_function("parse_request_line", |b| {
        b.iter(|| {
            let value = Json::parse(black_box(LINE)).map_err(|e| e.to_string())?;
            parse_query(&value, false)
        });
    });
    g.finish();
}

fn bench_http(c: &mut Criterion) {
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: 127.0.0.1:0\r\nContent-Length: {}\r\n\r\n{LINE}",
        LINE.len()
    )
    .into_bytes();
    let mut g = c.benchmark_group("server/http");
    g.bench_function("read_request", |b| {
        b.iter(|| {
            read_request(&mut Cursor::new(black_box(&raw[..])))
                .ok()
                .flatten()
                .map(|r| r.body.len())
        });
    });
    g.finish();
}

/// A label set that already exists, looked up the way `record_request`
/// does on every reply.
fn bench_family(c: &mut Criterion) {
    let registry = Registry::new();
    let requests = registry.counter_family("requests_total", "Requests");
    for endpoint in ["/metrics", "/query", "/stats", "other"] {
        for status in ["200", "400", "429"] {
            requests.get_or_create(&[("endpoint", endpoint), ("status", status)]);
        }
    }
    let mut g = c.benchmark_group("obs/family");
    g.bench_function("get_or_create_hit", |b| {
        b.iter(|| {
            requests
                .get_or_create(black_box(&[("endpoint", "/query"), ("status", "200")]))
                .inc()
        });
    });
    g.finish();
}

/// An uncontended permit on the served default of two slots: acquire,
/// then drop, with nothing else waiting or running.
fn bench_admission(c: &mut Criterion) {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    let queue = Arc::new(AdmissionQueue::new(
        CacheAwareScheduler::new(policy, 2),
        16,
        SchedulerMetrics::new(),
        ServerMetrics::new(&Registry::new()),
    ));
    let mut g = c.benchmark_group("server/admission");
    g.bench_function("acquire_release", |b| {
        b.iter(|| drop(queue.acquire(black_box(CacheUsageClass::Polluting))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_json,
    bench_http,
    bench_admission,
    bench_family
);
criterion_main!(benches);
