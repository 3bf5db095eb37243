//! The end-to-end pass: boot the server in-process, drive the two
//! closed-loop streams over real keep-alive sockets, check every answer.

use crate::calib::{slowdown, Calibrator};
use crate::golden::Golden;
use crate::report::Tally;
use crate::schedule::{schedule, Stream, Workload, DATASET_ROWS};
use crate::stats::{median, percentile_of};
use ccp_obs::{FamilySample, MetricSample};
use ccp_server::{fetch, HttpClient, Json, Server, ServerConfig};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Measured segments per run; every end-to-end metric is the median of
/// the per-segment values.
pub const SEGMENTS: usize = 3;

/// How often an end-to-end run boots the server to time set-up (median
/// reported).
pub const SETUPS: usize = 3;

/// The configuration every workload serves under: ephemeral port, fake
/// resctrl tree, the fixed dataset, reuse as the workload says, all else
/// default.
pub fn server_config(workload: &Workload) -> ServerConfig {
    ServerConfig {
        fake_resctrl: true,
        dataset_rows: DATASET_ROWS,
        no_reuse: !workload.reuse,
        ..ServerConfig::default()
    }
}

/// Starts a server and waits for its first `200`; returns it with the
/// seconds that took (dataset build included).
pub fn boot(config: &ServerConfig) -> io::Result<(Server, f64)> {
    let started = Instant::now();
    let server = Server::start(config.clone())?;
    // One-shot connection: a keep-alive socket left open would make the
    // next shutdown wait out the server's read timeout.
    let health = fetch(server.addr(), "GET", "/healthz", None)?;
    if health.status != 200 {
        return Err(io::Error::other(format!(
            "/healthz answered {}",
            health.status
        )));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Boots `setups` times, shutting down in between, and keeps the last
/// server. Returns when every boot began and how long it took.
fn boot_repeatedly(
    config: &ServerConfig,
    setups: usize,
) -> io::Result<(Server, Vec<(Instant, f64)>)> {
    let mut boots = Vec::with_capacity(setups);
    loop {
        let began = Instant::now();
        let (mut server, secs) = boot(config)?;
        boots.push((began, secs));
        if boots.len() >= setups {
            return Ok((server, boots));
        }
        server.shutdown();
    }
}

/// When the warm-up ends and where the segment boundaries fall. Fixed
/// before the streams start, so both clock themselves against the same
/// instants without a coordinator.
#[derive(Clone, Copy)]
pub struct Plan {
    pub start: Instant,
    pub segment: Duration,
}

impl Plan {
    /// `warmup` from now, then [`SEGMENTS`] segments covering `seconds`.
    pub fn starting_now(warmup: Duration, seconds: f64) -> Plan {
        Plan {
            start: Instant::now() + warmup,
            segment: Duration::from_secs_f64(seconds / SEGMENTS as f64),
        }
    }

    pub fn end(&self) -> Instant {
        self.start + self.segment * SEGMENTS as u32
    }

    /// The segment a request that completed at `t` counts for; `None`
    /// during warm-up.
    fn segment_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        Some(((since.as_secs_f64() / self.segment.as_secs_f64()) as usize).min(SEGMENTS - 1))
    }
}

/// How the reuse cache served a request, as the reply reports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reuse {
    Bypass,
    Hit,
    Miss,
}

/// One correct reply inside a measured segment.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub segment: u8,
    /// Client-side latency around `HttpClient::request`.
    pub latency_us: f64,
    /// The server's own breakdown of the same request.
    pub queue_us: u32,
    pub schedule_us: u32,
    pub bind_us: u32,
    pub exec_us: u32,
    pub rows: u64,
    pub reuse: Reuse,
}

impl Sample {
    /// Client latency the server's breakdown does not cover: sockets,
    /// HTTP, JSON, the connection thread's hand-offs.
    pub fn residual_us(&self) -> f64 {
        let covered = self.queue_us + self.schedule_us + self.bind_us + self.exec_us;
        (self.latency_us - f64::from(covered)).max(0.0)
    }
}

/// Everything one stream observed.
#[derive(Default)]
pub struct StreamOutcome {
    pub samples: Vec<Sample>,
    /// Requests completed before the run's end, warm-up and bumps
    /// included.
    pub tally: Tally,
}

/// Parses one reply and checks it against the golden table; the facts
/// the per-layer table needs come back on success.
fn check_reply(
    golden: &Golden,
    body: &str,
    reply: io::Result<(u16, String)>,
) -> Result<(Json, Reuse), String> {
    let (status, text) = reply.map_err(|e| format!("{body}: transport error: {e}"))?;
    if status != 200 {
        return Err(format!("{body}: status {status}: {}", text.trim()));
    }
    let json = Json::parse(text.trim()).map_err(|e| format!("{body}: bad reply: {e}"))?;
    golden.check(body, &json)?;
    let reuse = match json.get("reuse").and_then(Json::as_str) {
        Some("hit") => Reuse::Hit,
        Some("miss") => Reuse::Miss,
        _ => Reuse::Bypass,
    };
    Ok((json, reuse))
}

impl StreamOutcome {
    /// Accounts one completed `/query` exchange: checked after the clock
    /// stopped, counted as failed on any mismatch, kept as a sample when
    /// correct and inside a segment.
    pub fn record(
        &mut self,
        golden: &Golden,
        body: &str,
        reply: io::Result<(u16, String)>,
        latency: Duration,
        segment: Option<usize>,
    ) {
        self.tally.attempted += 1;
        let (json, reuse) = match check_reply(golden, body, reply) {
            Ok(ok) => ok,
            Err(why) => return self.tally.fail(why),
        };
        let Some(segment) = segment else { return };
        let part = |k: &str| {
            json.get("breakdown")
                .and_then(|b| b.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0) as u32
        };
        self.samples.push(Sample {
            segment: segment as u8,
            latency_us: latency.as_secs_f64() * 1e6,
            queue_us: part("queue_us"),
            schedule_us: part("schedule_us"),
            bind_us: part("bind_us"),
            exec_us: part("exec_us"),
            rows: json.get("rows").and_then(Json::as_u64).unwrap_or(0),
            reuse,
        });
    }
}

/// One closed-loop client: sends the next scheduled body when the
/// previous reply has arrived, until the plan's end.
fn run_stream(
    addr: SocketAddr,
    stream: &Stream,
    order: &[u32],
    golden: &Golden,
    plan: Plan,
) -> StreamOutcome {
    let mut out = StreamOutcome::default();
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempted = 1;
            out.tally.fail(format!("connect: {e}"));
            return out;
        }
    };
    let end = plan.end();
    let mut since_bump = 0usize;
    for &index in order.iter().cycle() {
        if stream.bump_every == Some(since_bump) {
            since_bump = 0;
            let bumped = client.request("POST", "/data/bump", None);
            if Instant::now() >= end {
                break;
            }
            out.tally.attempted += 1;
            match bumped {
                Ok(r) if r.status == 200 => {}
                Ok(r) => out.tally.fail(format!("/data/bump: status {}", r.status)),
                Err(e) => out.tally.fail(format!("/data/bump: {e}")),
            }
        }
        let body = &stream.menu[index as usize];
        let sent = Instant::now();
        let reply = client.request("POST", "/query", Some(body));
        let done = Instant::now();
        // A request still in flight at the end is dropped, not judged.
        if done >= end {
            break;
        }
        since_bump += 1;
        out.record(
            golden,
            body,
            reply.map(|r| (r.status, r.body)),
            done - sent,
            plan.segment_of(done),
        );
    }
    out
}

/// Point-in-time copy of the server's metric registry.
pub struct Snapshot(Vec<FamilySample>);

impl Snapshot {
    pub fn take(server: &Server) -> Snapshot {
        Snapshot(server.registry().sample_all())
    }

    fn family<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a (ccp_obs::Labels, MetricSample)> {
        self.0
            .iter()
            .filter(move |f| f.name == name)
            .flat_map(|f| f.samples.iter())
    }

    /// Sum of a counter family over the label sets carrying `label`
    /// (all label sets when `None`).
    fn counter(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.family(name)
            .filter(|(labels, _)| {
                label.is_none_or(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|(_, sample)| match sample {
                MetricSample::Counter(c) => *c as f64,
                _ => 0.0,
            })
            .sum()
    }

    /// `(sum, count)` of a histogram family over all label sets.
    fn histogram(&self, name: &str) -> (f64, f64) {
        self.family(name)
            .fold((0.0, 0.0), |(sum, count), (_, sample)| match sample {
                MetricSample::Histogram(h) => (sum + h.sum(), count + h.count() as f64),
                _ => (sum, count),
            })
    }
}

/// What the server's own instruments counted between two snapshots.
#[derive(Default, Debug, Clone, Copy)]
pub struct RegistryDelta {
    pub deferrals: f64,
    pub rejections: f64,
    pub mask_switches: f64,
    pub executor_jobs: f64,
    /// Mean submit-to-start wait of an executor job.
    pub executor_queue_wait_us: f64,
    pub reuse_hits: f64,
    pub reuse_misses: f64,
    pub reuse_coalesced: f64,
    pub reuse_invalidations: f64,
}

impl RegistryDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> RegistryDelta {
        let counter = |name: &str, label| after.counter(name, label) - before.counter(name, label);
        let (wait_sum, wait_n) = {
            let name = "ccp_executor_queue_wait_seconds";
            let (a, b) = (after.histogram(name), before.histogram(name));
            (a.0 - b.0, a.1 - b.1)
        };
        RegistryDelta {
            deferrals: counter(
                "ccp_scheduler_admissions_total",
                Some(("decision", "defer")),
            ),
            rejections: counter("ccp_server_admission_rejections_total", None),
            mask_switches: counter("ccp_executor_mask_switches_total", None),
            executor_jobs: counter("ccp_executor_jobs_total", None),
            executor_queue_wait_us: if wait_n > 0.0 {
                wait_sum / wait_n * 1e6
            } else {
                0.0
            },
            reuse_hits: counter("ccp_reuse_hits_total", None),
            reuse_misses: counter("ccp_reuse_misses_total", None),
            reuse_coalesced: counter("ccp_reuse_coalesced_total", None),
            reuse_invalidations: counter("ccp_reuse_invalidations_total", None),
        }
    }
}

/// The raw result of one end-to-end pass over one workload.
pub struct LoadResult {
    pub setup_s: Vec<f64>,
    /// Host slowdown during each boot (see `calib`).
    pub setup_slowdown: Vec<f64>,
    pub segment_s: f64,
    /// Host slowdown during each measured segment.
    pub segment_slowdown: Vec<f64>,
    pub fg: StreamOutcome,
    pub bg: StreamOutcome,
    pub registry: RegistryDelta,
    pub peak_rss_mb: f64,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `workload` end to end: `setups` timed boots, a discarded
/// warm-up, then [`SEGMENTS`] back-to-back segments covering `seconds`.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    warmup: Duration,
    setups: usize,
    golden: &Golden,
) -> io::Result<LoadResult> {
    let calibrator = Calibrator::start();
    let (mut server, boots) = match boot_repeatedly(&server_config(workload), setups) {
        Ok(booted) => booted,
        Err(e) => {
            calibrator.stop();
            return Err(e);
        }
    };
    let addr = server.addr();
    let fg_order = schedule(&workload.fg, seed, 1);
    let bg_order = schedule(&workload.bg, seed, 2);
    let plan = Plan::starting_now(warmup, seconds);
    let (fg, bg, registry) = std::thread::scope(|scope| {
        let fg = scope.spawn(|| run_stream(addr, &workload.fg, &fg_order, golden, plan));
        let bg = scope.spawn(|| run_stream(addr, &workload.bg, &bg_order, golden, plan));
        // Registry snapshots bracket the measured window; they are taken
        // from this thread, which otherwise sleeps.
        std::thread::sleep(plan.start.saturating_duration_since(Instant::now()));
        let before = Snapshot::take(&server);
        std::thread::sleep(plan.end().saturating_duration_since(Instant::now()));
        let after = Snapshot::take(&server);
        (
            fg.join().expect("fg stream panicked"),
            bg.join().expect("bg stream panicked"),
            RegistryDelta::between(&before, &after),
        )
    });
    let peak_rss_mb = peak_rss_mb();
    server.shutdown();
    let calib = calibrator.stop();
    let secs = Duration::from_secs_f64;
    Ok(LoadResult {
        setup_s: boots.iter().map(|(_, s)| *s).collect(),
        setup_slowdown: boots
            .iter()
            .map(|(began, s)| slowdown(&calib, *began, *began + secs(*s)))
            .collect(),
        segment_s: plan.segment.as_secs_f64(),
        segment_slowdown: (0..SEGMENTS as u32)
            .map(|k| {
                let from = plan.start + plan.segment * k;
                slowdown(&calib, from, from + plan.segment)
            })
            .collect(),
        fg,
        bg,
        registry,
        peak_rss_mb,
    })
}

/// Per-segment `(qps, p50 ms, p95 ms)` of one stream.
pub fn segment_stats(out: &StreamOutcome, segment_s: f64) -> [Vec<f64>; 3] {
    let (mut qps, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    for seg in 0..SEGMENTS {
        let mut lat: Vec<f64> = out
            .samples
            .iter()
            .filter(|s| usize::from(s.segment) == seg)
            .map(|s| s.latency_us / 1e3)
            .collect();
        qps.push(lat.len() as f64 / segment_s);
        p50.push(percentile_of(&mut lat, 0.50));
        p95.push(percentile_of(&mut lat, 0.95));
    }
    [qps, p50, p95]
}

/// Median over the samples of `f`, `0.0` when there are none.
pub fn p50_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"workload":"q1","threshold":1000}"#;

    fn golden() -> Golden {
        Golden::parse(&format!("{BODY}\t100\t42\tpolluting\t0x3\n")).unwrap()
    }

    fn reply(result: i64) -> io::Result<(u16, String)> {
        Ok((
            200,
            format!(
                r#"{{"workload":"q1","class":"polluting","mask":"0x3","rows":100,"result":{result},"reuse":"bypass","breakdown":{{"queue_us":3,"schedule_us":1,"bind_us":0,"exec_us":40}}}}"#
            ) + "\n",
        ))
    }

    #[test]
    fn an_injected_wrong_result_raises_failed_share() {
        let g = golden();
        let mut out = StreamOutcome::default();
        let lat = Duration::from_micros(100);
        out.record(&g, BODY, reply(42), lat, Some(0));
        assert_eq!((out.tally.attempted, out.tally.failed), (1, 0));
        out.record(&g, BODY, reply(43), lat, Some(0));
        assert_eq!((out.tally.attempted, out.tally.failed), (2, 1));
        assert_eq!(out.tally.failed_share(), 0.5);
        assert_eq!(out.samples.len(), 1, "a wrong answer is not a sample");
        let errors = &out.tally.errors;
        assert!(errors[0].contains("golden 100/42"), "{errors:?}");
    }

    #[test]
    fn transport_errors_and_refusals_count_as_failed() {
        let g = golden();
        let mut out = StreamOutcome::default();
        let lat = Duration::from_micros(100);
        out.record(&g, BODY, Err(io::Error::other("reset")), lat, Some(1));
        out.record(&g, BODY, Ok((429, "{}".into())), lat, Some(1));
        out.record(&g, BODY, Ok((200, "not json".into())), lat, Some(1));
        assert_eq!((out.tally.attempted, out.tally.failed), (3, 3));
        assert!(out.samples.is_empty());
    }

    #[test]
    fn warmup_replies_are_checked_but_not_sampled() {
        let g = golden();
        let mut out = StreamOutcome::default();
        out.record(&g, BODY, reply(42), Duration::from_micros(100), None);
        out.record(&g, BODY, reply(7), Duration::from_micros(100), None);
        assert_eq!((out.tally.attempted, out.tally.failed), (2, 1));
        assert!(out.samples.is_empty());
    }

    #[test]
    fn residual_is_latency_minus_the_servers_breakdown() {
        let g = golden();
        let mut out = StreamOutcome::default();
        out.record(&g, BODY, reply(42), Duration::from_micros(100), Some(2));
        let s = out.samples[0];
        assert_eq!(s.segment, 2);
        assert!((s.residual_us() - 56.0).abs() < 1e-9);
    }

    #[test]
    fn plan_assigns_completions_to_segments() {
        let start = Instant::now();
        let plan = Plan {
            start,
            segment: Duration::from_secs(4),
        };
        assert_eq!(plan.segment_of(start + Duration::from_secs(1)), Some(0));
        assert_eq!(plan.segment_of(start + Duration::from_secs(5)), Some(1));
        assert_eq!(plan.segment_of(start + Duration::from_secs(11)), Some(2));
        assert_eq!(plan.end(), start + Duration::from_secs(12));
        if let Some(before) = start.checked_sub(Duration::from_secs(1)) {
            assert_eq!(plan.segment_of(before), None);
        }
    }

    #[test]
    fn segment_stats_are_per_segment() {
        let mk = |segment, latency_us| Sample {
            segment,
            latency_us,
            queue_us: 0,
            schedule_us: 0,
            bind_us: 0,
            exec_us: 0,
            rows: 0,
            reuse: Reuse::Bypass,
        };
        let out = StreamOutcome {
            samples: vec![mk(0, 1000.0), mk(0, 3000.0), mk(1, 2000.0)],
            ..StreamOutcome::default()
        };
        let [qps, p50, p95] = segment_stats(&out, 2.0);
        assert_eq!(qps, vec![1.0, 0.5, 0.0]);
        assert_eq!(p50, vec![1.0, 2.0, 0.0]);
        assert_eq!(p95, vec![3.0, 2.0, 0.0]);
    }
}
