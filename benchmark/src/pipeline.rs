//! The traced pass: the same two closed-loop streams, replayed without
//! sockets through the public functions the connection handler calls,
//! with one span per call.
//!
//! The replay owns its engine, admission queue and resctrl controller,
//! built from the same public constructors `Server::start` uses, so the
//! controller's kernel-write counters (which the server does not export)
//! can be read here.

use crate::golden::Golden;
use crate::report::Tally;
use crate::schedule::{schedule, Stream, Workload, DATASET_ROWS};
use crate::spans::{Recorder, Span};
use ccp_engine::{
    class_label, with_query_ctx, CacheAwareScheduler, QueryCtx, ResctrlAllocator, SchedulerMetrics,
};
use ccp_obs::Registry;
use ccp_resctrl::{fs::FakeFs, CacheController, ResctrlMetrics, DEFAULT_TENANT};
use ccp_server::http::{read_request, Response};
use ccp_server::{
    parse_query, AdmissionQueue, Breakdown, Json, QueryEngine, ServerConfig, ServerMetrics,
};
use ccp_trace::TraceCat;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The handler's steps, in call order. The per-layer table reports the
/// p50 self time of each; `request` is the enclosing span, whose own
/// self time is the handler's bookkeeping between the steps.
pub const STEPS: [&str; 9] = [
    "http.read_request",
    "json.parse",
    "query.parse",
    "query.classify",
    "admission.acquire",
    "query.execute",
    "admission.release",
    "json.encode",
    "http.write_response",
];

/// Name of the span enclosing a request's steps.
pub const REQUEST: &str = "request";

/// Name of the request span of every other request, which is served
/// with the step spans off: same stream, same moment, no tracing — the
/// baseline the tracing overhead is measured against.
pub const REQUEST_PLAIN: &str = "request.plain";

/// Everything a request crosses behind the socket.
pub struct Pipeline {
    engine: QueryEngine,
    admission: Arc<AdmissionQueue>,
    metrics: ServerMetrics,
    resctrl: ResctrlMetrics,
    queue_deadline: Option<Duration>,
}

/// Kernel round trips the resctrl controller made or skipped.
#[derive(Clone, Copy, Default, Debug)]
pub struct ResctrlCounts {
    pub schemata_writes: u64,
    pub task_assigns: u64,
    pub skipped_writes: u64,
}

impl std::ops::Sub for ResctrlCounts {
    type Output = ResctrlCounts;
    fn sub(self, earlier: ResctrlCounts) -> ResctrlCounts {
        ResctrlCounts {
            schemata_writes: self.schemata_writes - earlier.schemata_writes,
            task_assigns: self.task_assigns - earlier.task_assigns,
            skipped_writes: self.skipped_writes - earlier.skipped_writes,
        }
    }
}

/// One stream's replay.
pub struct StreamReplay {
    pub spans: Vec<Span>,
    pub tally: Tally,
}

pub struct Replay {
    pub fg: StreamReplay,
    pub bg: StreamReplay,
    pub resctrl: ResctrlCounts,
}

impl Pipeline {
    /// Builds the serving stack the way `Server::start` does for
    /// `config`: fake resctrl tree, dual-pool engine over the fixed
    /// dataset, scheduler-backed admission queue, tracer on.
    pub fn build(workload: &Workload, config: &ServerConfig) -> Result<Pipeline, String> {
        if config.trace {
            ccp_trace::enable(ccp_trace::TraceConfig {
                ring_capacity: config.trace_ring_capacity,
                ..ccp_trace::TraceConfig::default()
            });
        }
        let fs = FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 16, &[0]);
        let controller = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl")
            .map_err(|e| format!("fake resctrl: {e}"))?;
        let resctrl = controller.metrics();
        let mut engine = QueryEngine::with_allocator(
            config.olap_workers,
            config.oltp_workers,
            DATASET_ROWS,
            Arc::new(ResctrlAllocator::new(controller, vec![0])),
            false,
        );
        engine.configure_reuse(workload.reuse.then(|| {
            ccp_reuse::ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(
                (config.reuse_budget_mb as u64) << 20,
            ))
        }));
        let metrics = ServerMetrics::new(&Registry::new());
        let admission = Arc::new(AdmissionQueue::new(
            CacheAwareScheduler::new(engine.policy(), config.scheduler_slots),
            config.queue_capacity,
            SchedulerMetrics::new(),
            metrics.clone(),
        ));
        Ok(Pipeline {
            engine,
            admission,
            metrics,
            resctrl,
            queue_deadline: config.queue_deadline,
        })
    }

    fn resctrl_counts(&self) -> ResctrlCounts {
        ResctrlCounts {
            schemata_writes: self.resctrl.schemata_writes(),
            task_assigns: self.resctrl.task_assigns(),
            skipped_writes: self.resctrl.skipped_writes(),
        }
    }

    /// Serves one raw HTTP request the way `handle_connection` +
    /// `handle_query` + `run_query_line` do, writing the response into
    /// `sink`. With `steps` off only the caller's request span is timed.
    fn serve(
        &self,
        rec: &mut Recorder,
        steps: bool,
        id: u64,
        raw: &[u8],
        sink: &mut Vec<u8>,
    ) -> Result<(), String> {
        macro_rules! step {
            ($name:expr, $call:expr) => {
                if steps {
                    rec.span($name, id, || $call)
                } else {
                    $call
                }
            };
        }
        let started = Instant::now();
        let request = step!(STEPS[0], read_request(&mut Cursor::new(raw)))
            .map_err(|e| e.to_string())?
            .ok_or("empty request")?;
        let request_span = ccp_trace::span(TraceCat::Server, request.path());
        let value = step!(STEPS[1], {
            let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let line = body.lines().map(str::trim).find(|l| !l.is_empty());
            Json::parse(line.ok_or("empty body")?).map_err(|e| e.to_string())
        })?;
        let spec = step!(STEPS[2], parse_query(&value, false))?;
        let (cuid, predicted_hit) = step!(STEPS[3], self.engine.classify_for_admission(&spec));
        let permit = step!(
            STEPS[4],
            self.admission
                .acquire_tenant(cuid, DEFAULT_TENANT, self.queue_deadline)
        )
        .map_err(|e| e.to_string())?;
        self.metrics
            .record_tenant_request(DEFAULT_TENANT, class_label(cuid));
        let ticket = permit.ticket();
        let ctx = QueryCtx::new(ticket);
        let query_span = ccp_trace::span_id(TraceCat::Query, &spec.name(), ticket);
        let exec_started = Instant::now();
        let outcome = step!(
            STEPS[5],
            with_query_ctx(Arc::clone(&ctx), || self
                .engine
                .execute_admitted(&spec, cuid))
        );
        if predicted_hit && outcome.reuse != "hit" {
            if let Some(cache) = self.engine.reuse_cache() {
                cache.note_misprediction();
            }
        }
        let exec_total_us = exec_started.elapsed().as_micros() as u64;
        drop(query_span);
        let bind_us = ctx.bind_ns() / 1_000;
        let breakdown = Breakdown {
            queue_us: permit.queue_us(),
            schedule_us: permit.schedule_us(),
            bind_us,
            exec_us: exec_total_us.saturating_sub(bind_us),
        };
        step!(STEPS[6], drop(permit));
        let body = step!(STEPS[7], {
            let mut json = outcome.to_json_with(&breakdown);
            if let Json::Obj(ref mut fields) = json {
                fields.push(("ticket".to_string(), Json::num(ticket as f64)));
            }
            let mut line = json.to_string();
            line.push('\n');
            line
        });
        drop(request_span);
        sink.clear();
        step!(STEPS[8], Response::ndjson(200, body).write_to(sink)).map_err(|e| e.to_string())?;
        self.metrics
            .record_request("/query", 200, started.elapsed().as_secs_f64());
        Ok(())
    }

    /// One closed-loop in-process stream until `end`; spans are kept for
    /// requests that start at or after `start`. Requests alternate
    /// between step spans on and off.
    fn run_stream(
        &self,
        stream: &Stream,
        order: &[u32],
        golden: &Golden,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> StreamReplay {
        // The bytes `HttpClient` would put on the wire for each body.
        let raw: Vec<Vec<u8>> = stream
            .menu
            .iter()
            .map(|body| {
                format!(
                    "POST /query HTTP/1.1\r\nHost: 127.0.0.1:0\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        let mut rec = Recorder::new(epoch);
        let mut out = StreamReplay {
            spans: Vec::new(),
            tally: Tally::default(),
        };
        let mut sink = Vec::with_capacity(1024);
        let mut since_bump = 0usize;
        for (id, &index) in order.iter().cycle().enumerate() {
            let now = Instant::now();
            if now >= end {
                break;
            }
            rec.enabled = now >= start;
            if stream.bump_every == Some(since_bump) {
                since_bump = 0;
                if let Some(cache) = self.engine.reuse_cache() {
                    rec.span("reuse.bump", id as u64, || cache.bump_version());
                }
            }
            since_bump += 1;
            let body = &stream.menu[index as usize];
            let steps = id % 2 == 0;
            rec.enter(if steps { REQUEST } else { REQUEST_PLAIN }, id as u64);
            let served = self.serve(&mut rec, steps, id as u64, &raw[index as usize], &mut sink);
            rec.exit();
            // The answer check runs after the request span has closed,
            // as the socket client checks after its clock stops.
            out.tally.attempted += 1;
            let checked = served.and_then(|()| {
                let text = sink
                    .iter()
                    .position(|&b| b == b'{')
                    .and_then(|at| std::str::from_utf8(&sink[at..]).ok())
                    .ok_or("response without a JSON body")?;
                let reply = Json::parse(text.trim()).map_err(|e| e.to_string())?;
                golden.check(body, &reply)
            });
            if let Err(why) = checked {
                out.tally.fail(why);
            }
        }
        out.spans = rec.into_spans();
        out
    }

    /// Replays both streams of `workload` side by side for
    /// `warmup + measure`; spans cover the measured part.
    pub fn replay(
        &self,
        workload: &Workload,
        seed: u64,
        golden: &Golden,
        epoch: Instant,
        warmup: Duration,
        measure: Duration,
    ) -> Replay {
        let fg_order = schedule(&workload.fg, seed, 1);
        let bg_order = schedule(&workload.bg, seed, 2);
        let start = Instant::now() + warmup;
        let end = start + measure;
        let (fg, bg, resctrl) = std::thread::scope(|scope| {
            let run =
                |stream, order| move || self.run_stream(stream, order, golden, epoch, start, end);
            let fg = scope.spawn(run(&workload.fg, &fg_order));
            let bg = scope.spawn(run(&workload.bg, &bg_order));
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            let before = self.resctrl_counts();
            let fg = fg.join().expect("fg replay panicked");
            let bg = bg.join().expect("bg replay panicked");
            (fg, bg, self.resctrl_counts() - before)
        });
        Replay { fg, bg, resctrl }
    }
}
