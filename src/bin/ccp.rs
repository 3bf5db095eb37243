//! `ccp` — command-line front end for the cache-partitioning library.
//!
//! ```text
//! ccp probe                     # CAT/resctrl support of this host
//! ccp serve --addr 127.0.0.1:9090
//!                               # HTTP query admission + Prometheus scrape service
//! ccp bench-serve --addr 127.0.0.1:9090 --qps 50 --duration 10
//!                               # drive a running server, report latency percentiles
//! ccp help
//! ```
//!
//! The simulator walkthroughs live in `examples/`: `quickstart` shows the
//! paper's Figure 1 effect, `online_classifier` derives operator CUIDs
//! online and plans co-run waves.
//!
//! Argument parsing is hand-rolled (the workspace deliberately keeps its
//! dependency set to the offline-audited list).

use cache_partitioning::prelude::*;
use ccp_server::{
    fetch, install_sigint_handler, sigint_requested, HttpClient, Json, Server, ServerConfig,
    ENDPOINTS,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("probe") => reject_extra_args("probe", &args[1..]).unwrap_or_else(probe),
        Some("serve") => serve(&args[1..]),
        Some("bench-serve") => bench_serve(&args[1..]),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

/// A command that takes no arguments (`probe`) fails loudly on stray
/// ones instead of silently ignoring a typo like `ccp probe --verbose`.
fn reject_extra_args(cmd: &str, rest: &[String]) -> Option<ExitCode> {
    if rest.is_empty() {
        None
    } else {
        eprintln!("`ccp {cmd}` takes no arguments, got {rest:?}");
        Some(ExitCode::FAILURE)
    }
}

fn print_help() {
    println!(
        "ccp — CPU cache partitioning for concurrent database workloads (ICDE 2018 reproduction)\n\n\
         USAGE:\n  ccp <command>\n\n\
         COMMANDS:\n  \
         probe      detect Intel CAT / resctrl support on this host\n  \
         serve      run the HTTP query/metrics service, e.g. `ccp serve --addr 127.0.0.1:9090`\n  \
         bench-serve  load-test a running server over keep-alive sockets\n  \
         help       this text\n\n\
         SERVE FLAGS:\n{}\n\
         BENCH-SERVE FLAGS:\n{}\n\
         Simulator walkthroughs: `cargo run --release --example quickstart` (Figure 1)\n\
         and `--example online_classifier` (CUIDs, co-run waves); the full\n\
         experiment suite lives in `cargo bench -p ccp-bench`.",
        flag_help(SERVE_FLAGS),
        flag_help(BENCH_FLAGS),
    );
}

/// One command-line flag, declared once: the table entry drives both the
/// parser and the flag's line in `ccp help`.
struct Flag<C> {
    name: &'static str,
    /// Placeholder of the value in the help text; empty for a switch.
    value: &'static str,
    help: &'static str,
    /// Applies the flag (with its value, `""` for a switch) to the config.
    apply: fn(&mut C, &str) -> Result<(), String>,
}

/// `*slot = value`, as a flag's `apply` result.
fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// The help lines of `flags`, one per flag.
fn flag_help<C>(flags: &[Flag<C>]) -> String {
    flags
        .iter()
        .map(|f| format!("  {:<27} {}\n", format!("{} {}", f.name, f.value), f.help))
        .collect()
}

/// Applies `args` to `config` through the flag table of subcommand `cmd`;
/// an unknown flag, a missing value or a value the flag rejects is a
/// clean failure, never a panic.
fn parse_flags<C>(
    cmd: &str,
    flags: &[Flag<C>],
    args: &[String],
    config: &mut C,
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = flags.iter().find(|f| f.name == arg).ok_or_else(|| {
            format!("unknown {cmd} flag {arg:?} (see `ccp help` for the flag list)")
        })?;
        let value = if flag.value.is_empty() {
            ""
        } else {
            it.next()
                .ok_or_else(|| format!("flag {} needs a value", flag.name))?
        };
        (flag.apply)(config, value)?;
    }
    Ok(())
}

fn probe() -> ExitCode {
    match detect() {
        CatSupport::Available { mount } => {
            println!("CAT available, resctrl mounted at {mount}");
            match CacheController::open() {
                Ok(ctl) => {
                    let info = ctl.info();
                    println!(
                        "cbm_mask={:#x} ({} ways), min_cbm_bits={}, num_closids={}",
                        info.cbm_mask,
                        info.ways(),
                        info.min_cbm_bits,
                        info.num_closids
                    );
                    println!("groups: {:?}", ctl.groups().unwrap_or_default());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("resctrl mounted but unusable: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        CatSupport::NotMounted => {
            println!("CPU+kernel support CAT; mount it with:");
            println!("  sudo mount -t resctrl resctrl /sys/fs/resctrl");
            ExitCode::SUCCESS
        }
        other => {
            println!("no usable CAT on this host: {other:?}");
            println!("(the simulator-based experiments work everywhere: cargo bench -p ccp-bench)");
            ExitCode::SUCCESS
        }
    }
}

/// What `ccp serve` is started with: the server's configuration plus an
/// optional `--faults` plan string (installed by [`serve`], not by the
/// parser — parsing stays side-effect free).
struct ServeArgs {
    config: ServerConfig,
    faults: Option<String>,
}

const SERVE_FLAGS: &[Flag<ServeArgs>] = &[
    Flag {
        name: "--addr",
        value: "HOST:PORT",
        help: "bind address (default 127.0.0.1:9090)",
        apply: |a, v| set(&mut a.config.addr, v.to_string()),
    },
    Flag {
        name: "--olap-workers",
        value: "N",
        help: "partitioned workers (default 2)",
        apply: |a, v| parse_count(v).map(|n| a.config.olap_workers = n),
    },
    Flag {
        name: "--oltp-workers",
        value: "N",
        help: "full-cache workers (default 1)",
        apply: |a, v| parse_count(v).map(|n| a.config.oltp_workers = n),
    },
    Flag {
        name: "--slots",
        value: "N",
        help: "concurrent queries (default 2)",
        apply: |a, v| parse_count(v).map(|n| a.config.scheduler_slots = n),
    },
    Flag {
        name: "--queue",
        value: "N",
        help: "admission queue cap (default 16)",
        apply: |a, v| parse_count(v).map(|n| a.config.queue_capacity = n),
    },
    Flag {
        name: "--max-conns",
        value: "N",
        help: "connection cap (default 64)",
        apply: |a, v| parse_count(v).map(|n| a.config.max_connections = n),
    },
    Flag {
        name: "--rows",
        value: "N",
        help: "resident rows (default 60000)",
        apply: |a, v| parse_count(v).map(|n| a.config.dataset_rows = n),
    },
    Flag {
        name: "--queue-deadline-ms",
        value: "N",
        help: "shed queries queued longer than N ms with 503 (default 30000, 0 = wait forever)",
        apply: |a, v| {
            let ms: u64 = v
                .parse()
                .map_err(|_| "expected a number for --queue-deadline-ms".to_string())?;
            // 0 opts out of shedding (wait for a slot indefinitely).
            a.config.queue_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            Ok(())
        },
    },
    Flag {
        name: "--faults",
        value: "PLAN",
        help: "arm ccp-fault failpoints, e.g. resctrl.write_schemata=err@1+40 (or env CCP_FAULTS)",
        apply: |a, v| set(&mut a.faults, Some(v.to_string())),
    },
    Flag {
        name: "--fake-resctrl",
        value: "",
        help: "back the engine with an in-memory resctrl (chaos harness; no CAT needed)",
        apply: |a, _| set(&mut a.config.fake_resctrl, true),
    },
    Flag {
        name: "--adaptive",
        value: "",
        help: "close the loop: occupancy readings repartition the LLC online",
        apply: |a, _| set(&mut a.config.adaptive, true),
    },
    Flag {
        name: "--control-interval-ms",
        value: "N",
        help: "control-plane period: sample, supervise, control, record (default 250)",
        apply: |a, v| {
            let ms = parse_count(v)? as u64;
            set(&mut a.config.control_interval, Duration::from_millis(ms))
        },
    },
    Flag {
        name: "--occupancy-script",
        value: "SPEC",
        help: "scripted occupancy trace for CI, e.g. 'sensitive:0.95x6,0.12;polluting:0.08'",
        apply: |a, v| set(&mut a.config.occupancy_script, Some(v.to_string())),
    },
    Flag {
        name: "--reuse-budget-mb",
        value: "N",
        help: "reuse-cache byte budget in MiB (default 64)",
        apply: |a, v| parse_count(v).map(|n| a.config.reuse_budget_mb = n),
    },
    Flag {
        name: "--no-reuse",
        value: "",
        help: "disable the artifact reuse cache (every query reports reuse=bypass)",
        apply: |a, _| set(&mut a.config.no_reuse, true),
    },
    Flag {
        name: "--tenant-quota",
        value: "NAME=N",
        help: "cap NAME's in-flight queries at N, 429 above (repeatable)",
        apply: |a, v| {
            let (name, n) = parse_tenant_kv(v, "--tenant-quota")?;
            // Quota 0 is legal: it rejects every arrival for that tenant.
            a.config.tenant_quotas.push((name, parse_limit(n)?));
            Ok(())
        },
    },
    Flag {
        name: "--fake-closids",
        value: "N",
        help: "fake resctrl with only N CLOSIDs (implies --fake-resctrl; exhaustion chaos)",
        apply: |a, v| parse_u32(v, "--fake-closids").map(|n| a.config.fake_closids = Some(n)),
    },
];

fn parse_serve_config(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs {
        config: ServerConfig {
            addr: "127.0.0.1:9090".to_string(),
            ..ServerConfig::default()
        },
        faults: None,
    };
    parse_flags("serve", SERVE_FLAGS, args, &mut parsed)?;
    Ok(parsed)
}

/// Splits a `NAME=VALUE` tenant flag argument; `Server::start` validates
/// the id (a startup error naming it, before anything is spawned).
fn parse_tenant_kv<'v>(s: &'v str, flag: &str) -> Result<(String, &'v str), String> {
    let (name, value) = s
        .split_once('=')
        .ok_or_else(|| format!("{flag} expects NAME=VALUE, got {s:?}"))?;
    if name.is_empty() {
        return Err(format!(
            "{flag} expects a tenant name before '=', got {s:?}"
        ));
    }
    Ok((name.to_string(), value))
}

/// Parses a tenant quota; unlike [`parse_count`], `0` is legal (it
/// means "reject every arrival of that tenant").
fn parse_limit(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("expected a non-negative number, got {s:?}"))
}

fn parse_count(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!("expected a positive number, got {s:?}")),
        Err(_) => Err(format!("expected a number, got {s:?}")),
    }
}

/// A positive `u32` for `flag`; out-of-range input is an error naming the
/// flag, never a truncated value.
fn parse_u32(s: &str, flag: &str) -> Result<u32, String> {
    match s.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{flag} expects a number from 1 to {}, got {s:?}",
            u32::MAX
        )),
    }
}

fn serve(args: &[String]) -> ExitCode {
    let ServeArgs { config, faults } = match parse_serve_config(args) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
    };
    // `--faults` wins over the CCP_FAULTS environment variable; either
    // way a malformed plan is a startup failure naming the bad clause,
    // not a server that silently runs without its chaos.
    let installed = match faults {
        Some(plan) => ccp_fault::install_str(&plan).map(Some),
        None => ccp_fault::install_from_env(),
    };
    if let Err(e) = installed {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    install_sigint_handler();
    let mut server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ccp-server listening on http://{}", server.addr());
    println!("  partitioning: {}", server.partitioning());
    println!("  endpoints: {}", ENDPOINTS.join(" "));
    if let Some(plan) = ccp_fault::active_plan() {
        println!("  fault plan: {plan}");
    }
    println!("  ctrl-c to stop");
    while !sigint_requested() && !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("shutting down…");
    server.shutdown();
    ExitCode::SUCCESS
}

/// Tunables of the `bench-serve` load generator.
struct BenchConfig {
    addr: String,
    qps: u64,
    duration: Duration,
    concurrency: usize,
    workload: String,
    max_error_pct: u64,
    /// Second server for an A/B comparison: phase A ("static") drives
    /// `addr`, phase B ("adaptive") drives this one.
    ab_addr: Option<String>,
    /// Write the phase summaries as JSON to this file.
    json_out: Option<String>,
    /// Save the driven server's `/timeline` here after the run (the
    /// phase-B server in an A/B run — the one whose story matters).
    timeline_out: Option<String>,
    /// Weighted tenant assignment: each request carries `X-CCP-Tenant`
    /// drawn from this distribution by its schedule slot. Empty = no
    /// header (the server books everything under the default tenant).
    tenant_mix: Vec<(String, u64)>,
}

const BENCH_FLAGS: &[Flag<BenchConfig>] = &[
    Flag {
        name: "--addr",
        value: "HOST:PORT",
        help: "server to drive (default 127.0.0.1:9090)",
        apply: |c, v| set(&mut c.addr, v.to_string()),
    },
    Flag {
        name: "--qps",
        value: "N",
        help: "target request rate (default 50)",
        apply: |c, v| parse_count(v).map(|n| c.qps = n as u64),
    },
    Flag {
        name: "--duration",
        value: "SECS",
        help: "run length (default 10)",
        apply: |c, v| parse_count(v).map(|n| c.duration = Duration::from_secs(n as u64)),
    },
    Flag {
        name: "--concurrency",
        value: "N",
        help: "client connections (default 4)",
        apply: |c, v| parse_count(v).map(|n| c.concurrency = n),
    },
    Flag {
        name: "--workload",
        value: "KIND",
        help: "q1|q2|oltp|mix (default mix)",
        apply: |c, v| {
            if !["q1", "q2", "oltp", "mix"].contains(&v) {
                return Err(format!("unknown workload {v:?} (q1, q2, oltp or mix)"));
            }
            c.workload = v.to_string();
            Ok(())
        },
    },
    Flag {
        name: "--max-error-pct",
        value: "N",
        help: "exit non-zero above this error rate (default 5)",
        apply: |c, v| {
            c.max_error_pct = v
                .parse()
                .map_err(|_| "expected a number for --max-error-pct".to_string())?;
            Ok(())
        },
    },
    Flag {
        name: "--ab-addr",
        value: "HOST:PORT",
        help: "second server for an A/B run (phase A on --addr, phase B here)",
        apply: |c, v| set(&mut c.ab_addr, Some(v.to_string())),
    },
    Flag {
        name: "--json-out",
        value: "FILE",
        help: "write the phase summaries as JSON (includes the server's build info)",
        apply: |c, v| set(&mut c.json_out, Some(v.to_string())),
    },
    Flag {
        name: "--timeline-out",
        value: "FILE",
        help: "save the server's /timeline after the run (flight-recorder black box)",
        apply: |c, v| set(&mut c.timeline_out, Some(v.to_string())),
    },
    Flag {
        name: "--tenant-mix",
        value: "SPEC",
        help: "spread requests over tenants by weight via X-CCP-Tenant, e.g. \
               'alpha:50,beta:30,gamma:20' (per-tenant sent/ok/429 reported)",
        apply: |c, v| {
            for part in v.split(',') {
                let (name, weight) = part.split_once(':').ok_or_else(|| {
                    format!("--tenant-mix expects NAME:WEIGHT entries, got {part:?}")
                })?;
                if name.is_empty() {
                    return Err(format!("--tenant-mix entry {part:?} has no tenant name"));
                }
                c.tenant_mix
                    .push((name.to_string(), parse_count(weight)? as u64));
            }
            Ok(())
        },
    },
];

fn parse_bench_config(args: &[String]) -> Result<BenchConfig, String> {
    let mut config = BenchConfig {
        addr: "127.0.0.1:9090".to_string(),
        qps: 50,
        duration: Duration::from_secs(10),
        concurrency: 4,
        workload: "mix".to_string(),
        max_error_pct: 5,
        ab_addr: None,
        json_out: None,
        timeline_out: None,
        tenant_mix: Vec::new(),
    };
    parse_flags("bench-serve", BENCH_FLAGS, args, &mut config)?;
    Ok(config)
}

/// Request bodies the generator rotates through, by slot, per workload
/// choice. Point selects cycle over three keys every data set holds.
fn bench_bodies(workload: &str) -> Vec<&'static str> {
    let q1 = r#"{"workload":"q1","threshold":100}"#;
    let q2 = r#"{"workload":"q2","agg":"sum"}"#;
    let oltp = [
        r#"{"workload":"oltp","key":7}"#,
        r#"{"workload":"oltp","key":1}"#,
        r#"{"workload":"oltp","key":4}"#,
    ];
    match workload {
        "q1" => vec![q1],
        "q2" => vec![q2],
        "oltp" => oltp.to_vec(),
        _ => oltp.iter().flat_map(|&select| [q1, q2, select]).collect(),
    }
}

/// One finished request: client-observed wall latency plus the server's
/// own phase breakdown (microseconds each).
#[derive(Debug, Clone, Copy)]
struct BenchSample {
    total_us: u64,
    queue_us: u64,
    exec_us: u64,
    reuse: ReuseMark,
}

/// The `"reuse"` field of a `/query` response, as seen by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReuseMark {
    Hit,
    Miss,
    /// `bypass`, a pre-reuse server, or an unparsable response.
    Other,
}

impl ReuseMark {
    fn of(outcome: &Json) -> ReuseMark {
        match outcome.get("reuse").and_then(Json::as_str) {
            Some("hit") => ReuseMark::Hit,
            Some("miss") => ReuseMark::Miss,
            _ => ReuseMark::Other,
        }
    }
}

/// Per-tenant request tally for a `--tenant-mix` run.
#[derive(Debug, Default, Clone, Copy)]
struct TenantTally {
    sent: u64,
    ok: u64,
    /// Quota rejections (HTTP 429) — the signal the mix exists to read.
    rejected: u64,
}

#[derive(Debug, Default)]
struct BenchOutcome {
    samples: Vec<BenchSample>,
    errors: u64,
    /// Keyed by tenant name; only populated under `--tenant-mix`.
    tenants: std::collections::BTreeMap<String, TenantTally>,
}

/// Deterministic weighted assignment: slot `n` goes to the tenant whose
/// cumulative-weight bucket contains `n % Σweights`, so the offered mix
/// matches the requested ratios exactly over every whole period.
fn tenant_for_slot(mix: &[(String, u64)], slot: u64) -> Option<&str> {
    let total: u64 = mix.iter().map(|(_, w)| *w).sum();
    if total == 0 {
        return None;
    }
    let mut r = slot % total;
    for (name, w) in mix {
        if r < *w {
            return Some(name);
        }
        r -= *w;
    }
    None
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn breakdown_us(outcome: &Json, field: &str) -> u64 {
    outcome
        .get("breakdown")
        .and_then(|b| b.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Scrapes the server's cumulative reuse counters from `/metrics`.
/// Returns `None` when the scrape fails or the metrics are absent
/// (reuse disabled with `--no-reuse`, or a pre-reuse server).
fn reuse_counters(addr: std::net::SocketAddr) -> Option<(f64, f64)> {
    let scrape = fetch(addr, "GET", "/metrics", None).ok()?.body;
    let sample = |name: &str| -> Option<f64> {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
    };
    Some((
        sample("ccp_reuse_hits_total ")?,
        sample("ccp_reuse_misses_total ")?,
    ))
}

/// Reuse-cache view of one phase: what the client observed per response
/// plus the server's own counter delta over the phase (cumulative
/// counters survive earlier phases, so only the delta is this phase's).
struct ReusePhase {
    hits: u64,
    misses: u64,
    /// p95 of client wall latency over hit responses (0 if none).
    hit_p95_us: u64,
    /// p95 of client wall latency over miss responses (0 if none).
    miss_p95_us: u64,
    /// `Δhits / (Δhits + Δmisses)` from `/metrics`, when scrapable.
    server_hit_rate: Option<f64>,
}

impl ReusePhase {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::num(self.hits as f64)),
            ("misses", Json::num(self.misses as f64)),
            ("hit_p95_us", Json::num(self.hit_p95_us as f64)),
            ("miss_p95_us", Json::num(self.miss_p95_us as f64)),
            (
                "server_hit_rate",
                self.server_hit_rate.map_or(Json::Null, Json::num),
            ),
        ])
    }
}

/// One phase's percentile summary (all values microseconds).
struct PhaseSummary {
    addr: String,
    sent: u64,
    errors: u64,
    error_pct: f64,
    achieved_qps: f64,
    /// p50/p95/p99 of client-observed wall latency.
    total: [u64; 3],
    /// p50/p95/p99 of server-reported queue time.
    queue: [u64; 3],
    /// p50/p95/p99 of server-reported execution time.
    exec: [u64; 3],
    reuse: ReusePhase,
    /// Per-tenant tallies, in tenant-name order (empty without
    /// `--tenant-mix`).
    tenants: Vec<(String, TenantTally)>,
}

impl PhaseSummary {
    fn to_json(&self) -> Json {
        let trio = |v: &[u64; 3]| {
            Json::obj(vec![
                ("p50_us", Json::num(v[0] as f64)),
                ("p95_us", Json::num(v[1] as f64)),
                ("p99_us", Json::num(v[2] as f64)),
            ])
        };
        let mut fields = vec![
            ("addr", Json::str(&self.addr)),
            ("sent", Json::num(self.sent as f64)),
            ("errors", Json::num(self.errors as f64)),
            ("achieved_qps", Json::num(self.achieved_qps)),
            ("total", trio(&self.total)),
            ("queue", trio(&self.queue)),
            ("exec", trio(&self.exec)),
            ("reuse", self.reuse.to_json()),
        ];
        let tenants = Json::obj(
            self.tenants
                .iter()
                .map(|(name, t)| {
                    (
                        name.as_str(),
                        Json::obj(vec![
                            ("sent", Json::num(t.sent as f64)),
                            ("ok", Json::num(t.ok as f64)),
                            ("rejected_429", Json::num(t.rejected as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        if !self.tenants.is_empty() {
            fields.push(("tenants", tenants));
        }
        Json::obj(fields)
    }
}

/// Open-loop load generator for one server: `concurrency` keep-alive
/// connections share one global request schedule at the target QPS
/// (each request has a fixed start slot, so server slowdowns show up as
/// latency, not as a silently reduced offered rate).
fn run_phase(label: &str, addr_str: &str, config: &BenchConfig) -> Result<PhaseSummary, String> {
    let addr = std::net::ToSocketAddrs::to_socket_addrs(&addr_str)
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| format!("cannot resolve {addr_str:?}"))?;
    let bodies = bench_bodies(&config.workload);
    let interval = Duration::from_nanos(1_000_000_000 / config.qps.max(1));
    let counters_before = reuse_counters(addr);
    let started = Instant::now();
    let deadline = started + config.duration;
    let next_slot = Arc::new(AtomicU64::new(0));
    let outcome = Arc::new(Mutex::new(BenchOutcome::default()));

    println!(
        "[{label}] driving {} at {} qps for {:?} over {} connection(s), workload {}…",
        addr_str, config.qps, config.duration, config.concurrency, config.workload
    );
    let mut workers = Vec::new();
    for _ in 0..config.concurrency {
        let bodies: Vec<&'static str> = bodies.clone();
        let mix = config.tenant_mix.clone();
        let next_slot = Arc::clone(&next_slot);
        let outcome = Arc::clone(&outcome);
        workers.push(std::thread::spawn(move || {
            let mut client = match HttpClient::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    outcome.lock().unwrap().errors += 1;
                    return;
                }
            };
            loop {
                // ORDERING: relaxed ticket counter; each worker only needs
                // a unique slot number, not ordering with other memory.
                let slot = next_slot.fetch_add(1, Ordering::Relaxed);
                let at = started + interval * slot as u32;
                if at >= deadline {
                    return;
                }
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let body = bodies[slot as usize % bodies.len()];
                let tenant = tenant_for_slot(&mix, slot);
                let sent = Instant::now();
                let resp = match tenant {
                    Some(t) => client.request_with_headers(
                        "POST",
                        "/query",
                        &[("X-CCP-Tenant", t)],
                        Some(body),
                    ),
                    None => client.request("POST", "/query", Some(body)),
                };
                let mut out = outcome.lock().unwrap();
                if let Some(t) = tenant {
                    out.tenants.entry(t.to_string()).or_default().sent += 1;
                }
                match resp {
                    Ok(resp) if resp.status == 200 => {
                        let total_us = sent.elapsed().as_micros() as u64;
                        let (queue_us, exec_us, reuse) = Json::parse(resp.body.trim())
                            .map(|o| {
                                (
                                    breakdown_us(&o, "queue_us"),
                                    breakdown_us(&o, "exec_us"),
                                    ReuseMark::of(&o),
                                )
                            })
                            .unwrap_or((0, 0, ReuseMark::Other));
                        out.samples.push(BenchSample {
                            total_us,
                            queue_us,
                            exec_us,
                            reuse,
                        });
                        if let Some(t) = tenant {
                            out.tenants.entry(t.to_string()).or_default().ok += 1;
                        }
                    }
                    Ok(resp) if resp.status == 429 => {
                        out.errors += 1;
                        if let Some(t) = tenant {
                            out.tenants.entry(t.to_string()).or_default().rejected += 1;
                        }
                    }
                    _ => out.errors += 1,
                }
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }

    let outcome = Arc::try_unwrap(outcome)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_default();
    let sent = outcome.samples.len() as u64 + outcome.errors;
    if sent == 0 {
        return Err(format!("[{label}] no requests were sent"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let error_pct = outcome.errors as f64 * 100.0 / sent as f64;
    println!(
        "[{label}] {} requests in {:.1}s ({:.1} achieved qps), {} error(s) ({error_pct:.1}%)",
        sent,
        elapsed,
        outcome.samples.len() as f64 / elapsed,
        outcome.errors
    );
    let mut percentiles = [[0u64; 3]; 3];
    for (i, (part, pick)) in [
        (
            "total",
            (|s: &BenchSample| s.total_us) as fn(&BenchSample) -> u64,
        ),
        ("queue", |s| s.queue_us),
        ("exec", |s| s.exec_us),
    ]
    .into_iter()
    .enumerate()
    {
        let mut us: Vec<u64> = outcome.samples.iter().map(pick).collect();
        us.sort_unstable();
        percentiles[i] = [
            percentile(&us, 50.0),
            percentile(&us, 95.0),
            percentile(&us, 99.0),
        ];
        println!(
            "{part:>8} latency  p50 {:>8} us   p95 {:>8} us   p99 {:>8} us",
            percentiles[i][0], percentiles[i][1], percentiles[i][2],
        );
    }
    let mark_p95 = |mark: ReuseMark| {
        let mut us: Vec<u64> = outcome
            .samples
            .iter()
            .filter(|s| s.reuse == mark)
            .map(|s| s.total_us)
            .collect();
        us.sort_unstable();
        (us.len() as u64, percentile(&us, 95.0))
    };
    let (hits, hit_p95_us) = mark_p95(ReuseMark::Hit);
    let (misses, miss_p95_us) = mark_p95(ReuseMark::Miss);
    // Reuse counters are cumulative across phases, so the server's hit
    // rate for *this* phase is the delta between the two scrapes.
    let server_hit_rate =
        counters_before
            .zip(reuse_counters(addr))
            .and_then(|((h0, m0), (h1, m1))| {
                let (dh, dm) = (h1 - h0, m1 - m0);
                (dh + dm > 0.0).then(|| dh / (dh + dm))
            });
    let reuse = ReusePhase {
        hits,
        misses,
        hit_p95_us,
        miss_p95_us,
        server_hit_rate,
    };
    match reuse.server_hit_rate {
        Some(rate) => println!(
            "   reuse  server hit rate {:.1}%   client hits {hits} (p95 {hit_p95_us} us)   misses {misses} (p95 {miss_p95_us} us)",
            rate * 100.0
        ),
        None => println!("   reuse  no server reuse counters (disabled or unscrapable)"),
    }
    let tenants: Vec<(String, TenantTally)> = outcome.tenants.into_iter().collect();
    for (name, t) in &tenants {
        println!(
            "  tenant  {name}: sent {}, ok {}, 429 {}",
            t.sent, t.ok, t.rejected
        );
    }
    Ok(PhaseSummary {
        addr: addr_str.to_string(),
        sent,
        errors: outcome.errors,
        error_pct,
        achieved_qps: outcome.samples.len() as f64 / elapsed,
        total: percentiles[0],
        queue: percentiles[1],
        exec: percentiles[2],
        reuse,
        tenants,
    })
}

/// Whether `errors` of `sent` requests exceed `max_pct` percent, compared
/// exactly: 19 failures in 1 000 is 1.9 %, over a 1 % budget.
fn exceeds_error_budget(errors: u64, sent: u64, max_pct: u64) -> bool {
    errors * 100 > max_pct * sent
}

/// Resolves `host:port` for the ad-hoc fetches around a bench run.
fn resolve_bench_addr(addr_str: &str) -> Option<std::net::SocketAddr> {
    std::net::ToSocketAddrs::to_socket_addrs(&addr_str)
        .ok()
        .and_then(|mut addrs| addrs.next())
}

/// The driven server's build provenance, read from the labels of the
/// `ccp_build_info` gauge in one `/metrics` scrape, so a saved bench
/// report names the exact build that produced its numbers.
fn server_build_info(addr_str: &str) -> Option<Json> {
    let addr = resolve_bench_addr(addr_str)?;
    let scrape = fetch(addr, "GET", "/metrics", None).ok()?.body;
    build_info_labels(&scrape)
}

/// The `version`, `git_sha` and `profile` labels of the scrape's
/// `ccp_build_info{…}` sample, as a JSON object with those three keys.
fn build_info_labels(scrape: &str) -> Option<Json> {
    let labels = scrape
        .lines()
        .find_map(|l| l.strip_prefix("ccp_build_info{"))?
        .split_once('}')?
        .0;
    let label = |key: &str| {
        labels
            .split(',')
            .find_map(|pair| {
                pair.strip_prefix(key)?
                    .strip_prefix("=\"")?
                    .strip_suffix('"')
            })
            .map(Json::str)
    };
    Some(Json::obj(vec![
        ("version", label("version")?),
        ("git_sha", label("git_sha")?),
        ("profile", label("profile")?),
    ]))
}

/// `bench-serve`: one load phase against `--addr`, or an A/B comparison
/// (`--ab-addr`) that drives a second — typically `--adaptive` — server
/// with the identical schedule and reports the p95 ratio between them.
fn bench_serve(args: &[String]) -> ExitCode {
    let config = match parse_bench_config(args) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
    };
    let first_label = if config.ab_addr.is_some() {
        "static"
    } else {
        "bench"
    };
    let first = match run_phase(first_label, &config.addr, &config) {
        Ok(s) => s,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
    };
    let second = match &config.ab_addr {
        Some(addr) => match run_phase("adaptive", addr, &config) {
            Ok(s) => Some(s),
            Err(why) => {
                eprintln!("{why}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut failed = false;
    for (label, phase) in
        std::iter::once((first_label, &first)).chain(second.iter().map(|s| ("adaptive", s)))
    {
        if exceeds_error_budget(phase.errors, phase.sent, config.max_error_pct) {
            eprintln!(
                "[{label}] error rate {:.1}% exceeds --max-error-pct {}",
                phase.error_pct, config.max_error_pct
            );
            failed = true;
        }
    }

    let build = server_build_info(&config.addr).unwrap_or(Json::Null);
    let report = match &second {
        Some(adaptive) => {
            let p95_ratio = if first.total[1] == 0 {
                1.0
            } else {
                adaptive.total[1] as f64 / first.total[1] as f64
            };
            println!(
                "\nA/B: static p95 {} us, adaptive p95 {} us, ratio {p95_ratio:.3}",
                first.total[1], adaptive.total[1]
            );
            Json::obj(vec![
                ("mode", Json::str("ab")),
                ("build", build),
                ("static", first.to_json()),
                ("adaptive", adaptive.to_json()),
                ("p95_ratio", Json::num(p95_ratio)),
            ])
        }
        None => Json::obj(vec![
            ("mode", Json::str("single")),
            ("build", build),
            ("bench", first.to_json()),
        ]),
    };
    if let Some(path) = &config.json_out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("cannot write {path}: {e}");
            failed = true;
        }
    }
    // Save the flight recorder's story of the run — the phase-B server
    // in an A/B comparison (the adaptive one), else the only server.
    if let Some(path) = &config.timeline_out {
        let target = config.ab_addr.as_deref().unwrap_or(&config.addr);
        let timeline = resolve_bench_addr(target)
            .and_then(|addr| fetch(addr, "GET", "/timeline", None).ok())
            .filter(|resp| resp.status == 200);
        match timeline {
            Some(resp) => {
                if let Err(e) = std::fs::write(path, format!("{}\n", resp.body)) {
                    eprintln!("cannot write {path}: {e}");
                    failed = true;
                }
            }
            None => {
                eprintln!("cannot save timeline: {target} did not serve /timeline");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{build_info_labels, exceeds_error_budget};

    #[test]
    fn error_budget_is_compared_exactly() {
        assert!(exceeds_error_budget(19, 1_000, 1), "1.9 % is over 1 %");
        assert!(!exceeds_error_budget(10, 1_000, 1), "1.0 % is within 1 %");
        assert!(exceeds_error_budget(11, 1_000, 1));
        assert!(!exceeds_error_budget(0, 1, 0));
        assert!(exceeds_error_budget(1, 1_000, 0));
    }

    #[test]
    fn build_info_comes_from_the_gauge_labels() {
        let scrape = "# TYPE ccp_build_info gauge\n\
                      ccp_build_info{version=\"0.1.0\",git_sha=\"abc1234\",profile=\"release\"} 1.0\n\
                      ccp_uptime_seconds 3.0\n";
        let build = build_info_labels(scrape).expect("labels parse");
        assert_eq!(
            build.to_string(),
            r#"{"version":"0.1.0","git_sha":"abc1234","profile":"release"}"#
        );
        assert!(build_info_labels("ccp_uptime_seconds 3.0\n").is_none());
    }
}
