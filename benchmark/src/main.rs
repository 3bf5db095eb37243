//! `ccp-benchmark`: the end-to-end and per-layer benchmark of the
//! cache-partitioning server. See `benchmark/README.md`.
//!
//! ```text
//! ccp-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ccp-benchmark golden            > benchmark/golden.tsv
//! ccp-benchmark compare A.json B.json
//! ```

mod calib;
mod golden;
mod layers;
mod load;
mod pipeline;
mod probes;
mod report;
mod schedule;
mod spans;
mod stats;

use ccp_server::{HttpClient, Json};
use golden::Golden;
use report::{Metric, Provenance, Report, Tally, WorkloadReport};
use schedule::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Measured seconds when `--seconds` is absent: three 12 s segments.
const DEFAULT_SECONDS: f64 = 36.0;

/// Requests per stream whose spans are written to `trace.json`; the
/// statistics use every span, the file stays loadable.
const TRACE_FILE_REQUESTS: u64 = 1_000;

const USAGE: &str = "usage:
  ccp-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  ccp-benchmark golden
  ccp-benchmark compare BASELINE.json CANDIDATE.json";

/// The only directory the harness writes to.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes; `Some(false)`: end to end only;
    /// `Some(true)`: the traced pass and the probes only.
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: schedule::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: out_dir().join("result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.to_string()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// The commit of the checkout the harness was built in, read from
/// `.git` without running git; `unknown` in an exported tree.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(git.join(reference)).unwrap_or(head),
        None => head,
    }
}

/// Chrome trace events of one replay, capped per stream.
fn trace_events(workload: &Workload, index: usize, replay: &pipeline::Replay) -> Vec<Json> {
    let mut events = Vec::new();
    for (stream, tid, spans) in [("fg", 1, &replay.fg.spans), ("bg", 2, &replay.bg.spans)] {
        let first = spans.first().map_or(0, |s| s.request);
        let kept: Vec<spans::Span> = spans
            .iter()
            .filter(|s| s.request < first + TRACE_FILE_REQUESTS)
            .copied()
            .collect();
        // Parent indices survive because the kept spans are a prefix.
        events.extend(spans::chrome_events(
            &kept,
            (index * 2 + tid) as u64,
            &format!("{}/{stream}", workload.name),
        ));
    }
    events
}

/// Measures one workload; trace events of its replay go to `events`.
fn measure(
    workload: &Workload,
    index: usize,
    args: &RunArgs,
    golden: &Golden,
    epoch: Instant,
    events: &mut Vec<Json>,
) -> Result<WorkloadReport, String> {
    let s = args.seconds;
    // End-to-end mode spends the whole window on the socket pass and
    // times set-up repeatedly; trace-only mode spends half of it there
    // (for the reply breakdowns and the fg p50 to reconcile against).
    let (socket_s, setups) = match args.trace {
        Some(true) => (s / 2.0, 1),
        _ => (s, load::SETUPS),
    };
    let warmup = Duration::from_secs_f64(socket_s * 2.0 / 9.0);
    let load = load::run(workload, args.seed, socket_s, warmup, setups, golden)
        .map_err(|e| format!("{}: {e}", workload.name))?;
    let (bounded, streams) = layers::end_to_end(&load);
    let fg_p50_us = layers::fg_p50_us(&load);
    let mut report = WorkloadReport {
        name: workload.name,
        why: workload.why,
        end_to_end: if args.trace == Some(true) {
            Vec::new()
        } else {
            bounded
        },
        streams,
        per_layer: Vec::new(),
        fg_samples: layers::samples_per_segment(&load.fg),
        bg_samples: layers::samples_per_segment(&load.bg),
        tally: Tally::default(),
    };
    if args.trace != Some(false) {
        let config = load::server_config(workload);
        let pipeline = pipeline::Pipeline::build(workload, &config)?;
        let secs = Duration::from_secs_f64;
        let traced = pipeline.replay(
            workload,
            args.seed,
            golden,
            epoch,
            secs(s / 16.0),
            secs(s * 3.0 / 8.0),
        );
        // The per-stream rows reach the driver as the client layer.
        report.per_layer = report
            .streams
            .iter()
            .map(|m| Metric::new(format!("client.{}", m.name), m.unit, m.value))
            .collect();
        report.per_layer.extend(layers::from_replies(&load));
        report
            .per_layer
            .extend(layers::from_trace(fg_p50_us, &traced));
        events.extend(trace_events(workload, index, &traced));
        report.tally.absorb(traced.fg.tally);
        report.tally.absorb(traced.bg.tally);
    }
    report.tally.absorb(load.fg.tally);
    report.tally.absorb(load.bg.tally);
    Ok(report)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let golden = Golden::committed()?;
    let mut workloads = schedule::workloads();
    if let Some(name) = &args.workload {
        workloads.retain(|w| w.name == name);
        if workloads.is_empty() {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    let epoch = Instant::now();
    let mut events = Vec::new();
    let mut reports = Vec::new();
    for (index, workload) in workloads.iter().enumerate() {
        reports.push(measure(
            workload,
            index,
            &args,
            &golden,
            epoch,
            &mut events,
        )?);
    }
    let traced = args.trace != Some(false);
    let probes = if traced {
        probes::run_all()
    } else {
        Vec::new()
    };
    let memcpy_gbps = match probes.iter().find(|m| m.name == "host.memcpy_gbps") {
        Some(m) => m.value,
        None => probes::memcpy_gbps().value,
    };
    let report = Report {
        provenance: Provenance {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            memcpy_gbps,
            commit: git_commit(),
            seed: args.seed,
            seconds: args.seconds,
            dataset_rows: schedule::DATASET_ROWS,
            server_config: format!("{:?}", load::server_config(&workloads[0])),
        },
        workloads: reports,
        probes,
    };
    write_file(&args.out, &report.to_json().to_string())?;
    if traced {
        let trace = Json::obj(vec![("traceEvents", Json::Arr(events))]);
        write_file(&out_dir().join("trace.json"), &trace.to_string())?;
    }
    print!("{}", report.human());
    // The driver runs one workload with an explicit --trace and reads
    // the last line of standard output.
    if let (Some(_), Some(trace)) = (&args.workload, args.trace) {
        println!("{}", report.driver_line(trace));
    }
    Ok(())
}

/// Prints `golden.tsv`: every menu body of every workload, answered by a
/// reuse-off server so the table records what the engine computes, not
/// what admission re-classes a cached answer as.
fn golden_table() -> Result<(), String> {
    let mut workload = schedule::workloads().remove(0);
    workload.reuse = false;
    let (mut server, _) = load::boot(&load::server_config(&workload)).map_err(|e| e.to_string())?;
    let mut lines = vec![format!(
        "# request body\trows\tresult\tclass\tmask\t(dataset_rows = {}, reuse off; regenerate with the `golden` subcommand)",
        schedule::DATASET_ROWS
    )];
    {
        let mut client = HttpClient::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut seen = std::collections::HashSet::new();
        for w in schedule::workloads() {
            for body in w.fg.menu.iter().chain(&w.bg.menu) {
                if !seen.insert(body.clone()) {
                    continue;
                }
                let reply = client
                    .request("POST", "/query", Some(body))
                    .map_err(|e| format!("{body}: {e}"))?;
                if reply.status != 200 {
                    return Err(format!("{body}: status {}", reply.status));
                }
                let json = Json::parse(reply.body.trim()).map_err(|e| format!("{body}: {e}"))?;
                lines.push(golden::format_line(body, &json)?);
            }
        }
    }
    server.shutdown();
    println!("{}", lines.join("\n"));
    Ok(())
}

/// `compare A B`: `Ok(true)` when any cell is worse.
fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err(USAGE.to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, worse) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest).map(|()| false),
        Some((cmd, [])) if cmd == "golden" => golden_table().map(|()| false),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ccp-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
