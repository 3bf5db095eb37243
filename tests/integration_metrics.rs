//! End-to-end exposition check against a real [`Server`]: after a `q1`,
//! `q2`, `q3` and `oltp` over the fake resctrl tree, one `/metrics` scrape
//! must be structurally valid Prometheus text covering every layer the
//! server wires — service, admission, both executor pools and resctrl.

use cache_partitioning::server::{fetch, Server, ServerConfig};
use std::collections::HashSet;
use std::sync::OnceLock;

/// One scrape shared by every test in this file.
fn scrape_text() -> &'static str {
    static SCRAPE: OnceLock<String> = OnceLock::new();
    SCRAPE.get_or_init(|| {
        let mut server = Server::start(ServerConfig {
            dataset_rows: 20_000,
            fake_resctrl: true,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.addr();
        for body in [
            r#"{"workload":"q1"}"#,
            r#"{"workload":"q2"}"#,
            r#"{"workload":"q3"}"#,
            r#"{"workload":"oltp","key":7}"#,
        ] {
            let resp = fetch(addr, "POST", "/query", Some(body)).expect("round trip");
            assert_eq!(resp.status, 200, "{body}: {}", resp.body);
        }
        let scrape = fetch(addr, "GET", "/metrics", None).expect("scrape");
        assert_eq!(scrape.status, 200);
        server.shutdown();
        scrape.body
    })
}

/// The value of the first sample line starting with `series`.
fn sample(text: &str, series: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(series))
        .unwrap_or_else(|| panic!("{series} missing from the scrape"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

#[test]
fn served_scrape_exports_every_layer() {
    let text = scrape_text();
    // Executor: both pools, per-class counters, latency histograms.
    assert!(text.contains("# TYPE ccp_executor_jobs_total counter"));
    assert!(text.contains("ccp_executor_jobs_total{class=\"polluting\",pool=\"olap\"}"));
    assert!(text.contains("ccp_executor_jobs_total{class=\"sensitive\",pool=\"oltp\"}"));
    assert!(text.contains("# TYPE ccp_executor_job_latency_seconds histogram"));
    assert!(text.contains("ccp_executor_queue_wait_seconds_count"));
    // Service layer and admission.
    assert!(text.contains("ccp_server_requests_total{endpoint=\"/query\",status=\"200\"} 4"));
    assert!(text.contains("ccp_scheduler_admissions_total{decision=\"run_now\"}"));
    // resctrl: the fake tree's group writes are counted.
    assert!(text.contains("# TYPE ccp_resctrl_schemata_writes_total counter"));
}

#[test]
fn served_queries_ran_real_work() {
    let text = scrape_text();
    // The scan's jobs flowed through the OLAP pool under the polluter
    // mask; the point select was served on its connection thread (it is
    // among the four requests `served_scrape_exports_every_layer` counts),
    // so the OLTP pool ran nothing.
    let scans = sample(
        text,
        "ccp_executor_jobs_total{class=\"polluting\",pool=\"olap\"}",
    );
    assert!(scans > 0.0, "scan jobs must have executed");
    for class in ["polluting", "sensitive", "mixed"] {
        let series = format!("ccp_executor_jobs_total{{class=\"{class}\",pool=\"oltp\"}}");
        assert_eq!(sample(text, &series), 0.0, "the OLTP pool ran a job");
    }
    assert!(sample(text, "ccp_resctrl_schemata_writes_total") > 0.0);
}

#[test]
fn exposition_is_structurally_valid_prometheus() {
    let text = scrape_text();
    assert!(!text.is_empty());
    let mut typed: HashSet<String> = HashSet::new();
    let mut last_help: Option<String> = None;
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a metric");
            last_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a metric");
            let kind = parts.next().expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "bad kind {kind}"
            );
            // TYPE directly follows its HELP line.
            assert_eq!(
                last_help.as_deref(),
                Some(name),
                "HELP/TYPE pairing for {name}"
            );
            assert!(
                typed.insert(name.to_string()),
                "family {name} rendered twice"
            );
            continue;
        }
        // Sample line: `name{labels} value` or `name value`.
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value {value:?} in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains(*b))
            .unwrap_or(name);
        assert!(typed.contains(base), "sample {name} lacks a # TYPE header");
        if let Some(rest) = series.split_once('{') {
            assert!(rest.1.ends_with('}'), "unterminated label set in {line:?}");
        }
    }
    assert!(
        typed.len() >= 30,
        "expected the server's full registry, got {} families",
        typed.len()
    );
}

#[test]
fn histogram_bucket_counts_are_cumulative_and_consistent() {
    let text = scrape_text();
    // For one histogram series, +Inf bucket == _count and buckets never
    // decrease.
    let buckets: Vec<u64> = text
        .lines()
        .filter(|l| {
            l.starts_with(
                "ccp_executor_job_latency_seconds_bucket{class=\"polluting\",pool=\"olap\"",
            )
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty());
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "buckets must be cumulative"
    );
    let count = sample(
        text,
        "ccp_executor_job_latency_seconds_count{class=\"polluting\",pool=\"olap\"}",
    );
    assert_eq!(
        *buckets.last().unwrap() as f64,
        count,
        "+Inf bucket equals _count"
    );
}
