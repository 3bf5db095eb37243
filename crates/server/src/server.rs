//! The TCP service: accept loop, router, graceful shutdown.
//!
//! One listener thread accepts connections up to a hard cap and hands
//! each to a short-lived handler thread (std-only; no async runtime).
//! Handlers speak strict HTTP/1.1 with keep-alive, route to six
//! endpoints, and account every request in the `ccp_server_*` families:
//!
//! | endpoint | method | body |
//! |---|---|---|
//! | `/metrics` | GET | Prometheus text exposition of the whole registry |
//! | `/healthz` | GET | `{"status":"ok"}` |
//! | `/query` | POST | NDJSON workloads in, NDJSON outcomes out |
//! | `/trace` | GET | Chrome trace-event JSON (`?clear=1` resets the rings) |
//! | `/data/bump` | POST | bumps the data-version epoch, invalidating reuse entries |
//! | `/timeline` | GET | flight-recorder series + events (`?since=seq`, `?series=prefix`) |
//!
//! This module is routing and the connection loop. Everything periodic —
//! occupancy sampling, resctrl supervision, adaptive control, the flight
//! recorder — runs on the one [`ControlPlane`] thread (see
//! [`crate::control_plane`]).
//!
//! Shutdown is cooperative: a flag flips, the plane stops, a
//! self-connection unblocks `accept`, the admission queue drains, and
//! the handle joins every connection before returning — no
//! `TcpListener` leaks into the next test's port.

use crate::admission::{AdmissionError, AdmissionQueue};
use crate::control_plane::{occupancy_probe, ControlPlane, PlaneHandle};
use crate::http::{read_request, HttpError, Request, Response};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::query::{parse_query, Breakdown, QueryEngine};
use crate::tenant::{self, Tenant};
use ccp_engine::alloc::{host_allocator, CacheAllocator, ResctrlAllocator};
use ccp_engine::{with_query_ctx, CacheAwareScheduler, QueryCtx, SchedulerMetrics};
use ccp_flight::FlightHandle;
use ccp_obs::Registry;
use ccp_trace::TraceCat;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-connection socket read and write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// OLAP (partitioned) worker threads.
    pub olap_workers: usize,
    /// OLTP (full-cache) worker threads.
    pub oltp_workers: usize,
    /// Queries allowed to run concurrently (scheduler wave slots).
    pub scheduler_slots: usize,
    /// Queries allowed to *wait* for a slot before `429`.
    pub queue_capacity: usize,
    /// Concurrent connections before new ones get `503` and close.
    pub max_connections: usize,
    /// Rows in each resident data set column.
    pub dataset_rows: usize,
    /// Enables the debug `sleep` workload (admission tests).
    pub enable_sleep_workload: bool,
    /// How long a query may wait for an admission slot before it is
    /// dequeued with `503` + `Retry-After`. `None` waits indefinitely.
    pub queue_deadline: Option<Duration>,
    /// Enables the process-global tracer at startup (`/trace` serves its
    /// snapshot either way; with tracing off it is just empty).
    pub trace: bool,
    /// Per-thread trace ring capacity (events retained per thread).
    pub trace_ring_capacity: usize,
    /// Backs the engine with an in-memory fake resctrl filesystem under
    /// full supervision (the chaos harness; see
    /// [`ResctrlAllocator::open_fake`]).
    pub fake_resctrl: bool,
    /// Enables the closed-loop adaptive controller: occupancy readings
    /// drive online repartitions of the live mask table, clamped back to
    /// the paper's static mapping whenever resctrl health degrades or
    /// readings go stale.
    pub adaptive: bool,
    /// The control plane's period (`--control-interval-ms`): one pass of
    /// sample, supervise, control and record each period.
    pub control_interval: Duration,
    /// Replaces the occupancy probe with a deterministic scripted trace
    /// (see [`ccp_control::ScriptedTrace`] for the grammar) — the CI harness for
    /// driving the controller through a chosen scenario.
    pub occupancy_script: Option<String>,
    /// Reuse-cache byte budget in MiB (`--reuse-budget-mb`).
    pub reuse_budget_mb: usize,
    /// Disables the reuse cache entirely (`--no-reuse`): every query
    /// reports `"reuse":"bypass"` and admission never predicts hits.
    pub no_reuse: bool,
    /// Per-tenant in-flight admission quotas (`--tenant-quota NAME=N`);
    /// a tenant at its quota gets `429` per request.
    pub tenant_quotas: Vec<(String, usize)>,
    /// With `fake_resctrl`, caps the fake filesystem's CLOSIDs
    /// (`--fake-closids N`) so CLOSID-exhaustion paths are reachable in
    /// chaos runs; `None` keeps the Broadwell default of 16.
    pub fake_closids: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            olap_workers: 2,
            oltp_workers: 1,
            scheduler_slots: 2,
            queue_capacity: 16,
            max_connections: 64,
            dataset_rows: 60_000,
            enable_sleep_workload: false,
            queue_deadline: Some(Duration::from_secs(30)),
            trace: true,
            trace_ring_capacity: 4096,
            fake_resctrl: false,
            adaptive: false,
            control_interval: Duration::from_millis(250),
            occupancy_script: None,
            reuse_budget_mb: 64,
            no_reuse: false,
            tenant_quotas: Vec::new(),
            fake_closids: None,
        }
    }
}

/// Counts live connection-handler threads so shutdown can join them.
struct ConnTracker {
    count: Mutex<usize>,
    zero: Condvar,
}

impl ConnTracker {
    fn new() -> Self {
        ConnTracker {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    fn try_acquire(&self, cap: usize) -> bool {
        let mut n = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        if *n >= cap {
            return false;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        let mut n = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *n = n.saturating_sub(1);
        self.zero.notify_all();
    }

    fn wait_zero(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut n = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *n > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .zero
                .wait_timeout(n, left)
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
        }
        true
    }
}

/// What every connection handler works on.
struct Shared {
    config: ServerConfig,
    registry: Registry,
    metrics: ServerMetrics,
    admission: Arc<AdmissionQueue>,
    engine: Arc<QueryEngine>,
    shutdown: AtomicBool,
    conns: ConnTracker,
    /// Flight-recorder handle for `/timeline` and event emission.
    flight: FlightHandle,
}

/// A running server; dropping it shuts the service down gracefully.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    plane: Option<PlaneHandle>,
}

impl Server {
    /// Binds, builds the engine and registry, and starts serving.
    ///
    /// # Errors
    /// `InvalidInput` for a tenant name in `config` that no `X-CCP-Tenant`
    /// header could ever match or a malformed occupancy script; otherwise
    /// what binding the address or spawning a thread reports.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        for (tenant, _) in &config.tenant_quotas {
            tenant::validate(tenant).map_err(|why| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("--tenant: {why}"))
            })?;
        }
        let reuse_budget = (config.reuse_budget_mb as u64)
            .checked_mul(1 << 20)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "--reuse-budget-mb: {} MiB overflows a byte count",
                        config.reuse_budget_mb
                    ),
                )
            })?;
        if config.trace {
            ccp_trace::enable(ccp_trace::TraceConfig {
                ring_capacity: config.trace_ring_capacity,
            });
        }
        let registry = Registry::new();
        register_build_info(&registry);
        // The one allocator, and with it the one resctrl controller, this
        // server opens: a fake tree when asked for, else the host's.
        let (allocator, cat_live) = if config.fake_resctrl || config.fake_closids.is_some() {
            let fake = ResctrlAllocator::open_fake(config.fake_closids.unwrap_or(16))
                .map_err(std::io::Error::other)?;
            (Arc::new(fake) as Arc<dyn CacheAllocator>, false)
        } else {
            host_allocator()
        };
        let mut engine = QueryEngine::with_allocator(
            config.olap_workers,
            config.oltp_workers,
            config.dataset_rows,
            allocator,
            cat_live,
        );
        engine.configure_reuse((!config.no_reuse).then(|| {
            ccp_reuse::ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(reuse_budget))
        }));
        if let Some(cache) = engine.reuse_cache() {
            cache.register_into(&registry);
        }
        engine.pools().register_metrics(&registry);
        let metrics = ServerMetrics::new(&registry);
        let sched_metrics = SchedulerMetrics::new();
        sched_metrics.register_into(&registry);
        let scheduler = CacheAwareScheduler::new(engine.policy(), config.scheduler_slots);
        let admission = Arc::new(
            AdmissionQueue::new(
                scheduler,
                config.queue_capacity,
                sched_metrics,
                metrics.clone(),
            )
            .with_tenant_quotas(config.tenant_quotas.iter().map(|(t, q)| (t.as_str(), *q))),
        );

        let engine = Arc::new(engine);
        let probe = occupancy_probe(&config, &engine, &admission)?;
        let plane = ControlPlane::new(
            &config,
            Arc::clone(&engine),
            &registry,
            metrics.clone(),
            probe,
        );
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            registry,
            metrics,
            admission,
            engine,
            shutdown: AtomicBool::new(false),
            conns: ConnTracker::new(),
            flight: plane.flight(),
        });
        let plane = plane.spawn()?;
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ccp-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            plane: Some(plane),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape registry (shares state with the live instruments).
    pub fn registry(&self) -> Registry {
        self.shared.registry.clone()
    }

    /// The allocator's backend and whether its tree reaches CAT hardware:
    /// `resctrl (live CAT)`, `resctrl (fake tree, 4 CLOSIDs)` or `noop`.
    pub fn partitioning(&self) -> String {
        let allocator = self.shared.engine.allocator();
        let backend = allocator.backend_name();
        let Some(tree) = allocator.tree() else {
            return backend.to_string();
        };
        if self.shared.engine.cat_live() {
            return format!("{backend} (live CAT)");
        }
        let closids = tree.lock().info().num_closids;
        format!("{backend} (fake tree, {closids} CLOSIDs)")
    }

    /// Names of the control groups in the resctrl tree the engine
    /// partitions through; `None` for a backend without a tree.
    pub fn resctrl_groups(&self) -> Option<Vec<String>> {
        self.shared.engine.allocator().tree()?.lock().groups().ok()
    }

    /// Requests a graceful stop and blocks until the listener has exited,
    /// the admission queue has drained and every connection handler has
    /// finished (bounded by the connection timeouts). Only the first call
    /// does anything: a later one — `Drop` after an explicit call — must
    /// not dial the freed port, which another listener may own by then.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The plane writes the live mask table and the resctrl tree; stop
        // it first so no repartition races the teardown.
        let plane = self.plane.take().and_then(|mut handle| handle.stop());
        self.shared.admission.shutdown();
        // The accept loop blocks in `accept`; a throwaway self-connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let grace = IO_TIMEOUT + Duration::from_secs(2);
        self.shared.admission.drain(grace);
        self.shared.conns.wait_zero(grace);
        // The shutdown sweep runs after the drain, when no query can mint
        // or bind a group any more, so it can leave the resctrl tree with
        // zero `ccp-` groups.
        if let Some(mut plane) = plane {
            plane.shutdown_sweep();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if !shared.conns.try_acquire(shared.config.max_connections) {
            shared.metrics.connection_refused();
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let mut s = stream;
            let _ = Response::error(503, "connection limit reached")
                .closing()
                .write_to(&mut s);
            continue;
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("ccp-conn".to_string())
            .spawn(move || {
                handle_connection(&conn_shared, stream);
                conn_shared.conns.release();
            });
        if spawned.is_err() {
            shared.conns.release();
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared.metrics.connection_opened();
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Responses are small; without TCP_NODELAY, Nagle against the
    // client's delayed ACK costs ~40ms per keep-alive round trip.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        shared.metrics.connection_closed();
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Ok(None) => break,
            Ok(Some(req)) => {
                let started = Instant::now();
                let request_span = ccp_trace::span(TraceCat::Server, req.path());
                let (endpoint, mut resp) = route(shared, &req);
                drop(request_span);
                let close =
                    resp.close || req.wants_close() || shared.shutdown.load(Ordering::SeqCst);
                if close {
                    resp = resp.closing();
                }
                let status = resp.status;
                let write_ok = resp.write_to(&mut writer).is_ok();
                shared
                    .metrics
                    .record_request(endpoint, status, started.elapsed().as_secs_f64());
                if close || !write_ok {
                    break;
                }
            }
            Err(HttpError::Malformed(why)) => {
                respond_error(shared, &mut writer, 400, why);
                break;
            }
            Err(HttpError::TooLarge(why)) => {
                respond_error(shared, &mut writer, 413, why);
                break;
            }
            Err(HttpError::Io(_)) => break,
        }
    }
    shared.metrics.connection_closed();
}

fn respond_error(shared: &Shared, writer: &mut TcpStream, status: u16, why: &str) {
    let started = Instant::now();
    let _ = Response::error(status, why).closing().write_to(writer);
    shared
        .metrics
        .record_request("invalid", status, started.elapsed().as_secs_f64());
}

/// Routes one request; returns the endpoint label used for metrics.
fn route(shared: &Shared, req: &Request) -> (&'static str, Response) {
    match (req.method.as_str(), req.path()) {
        ("GET", "/metrics") => (
            "/metrics",
            Response::prometheus(shared.registry.render_prometheus()),
        ),
        ("GET", "/healthz") => (
            "/healthz",
            Response::json(200, &Json::obj(vec![("status", Json::str("ok"))])),
        ),
        ("GET", "/trace") => ("/trace", handle_trace(req)),
        ("GET", "/timeline") => ("/timeline", handle_timeline(shared, req)),
        ("POST", "/query") => ("/query", handle_query(shared, req)),
        ("POST", "/data/bump") => ("/data/bump", handle_data_bump(shared)),
        ("GET" | "HEAD", _) => ("other", not_found()),
        (_, path) if ENDPOINTS.contains(&path) => {
            ("other", Response::error(405, "method not allowed"))
        }
        _ => ("other", not_found()),
    }
}

/// Every path the router serves; the 404 body and the `ccp serve` banner
/// list them.
pub const ENDPOINTS: [&str; 6] = [
    "/metrics",
    "/healthz",
    "/query",
    "/trace",
    "/data/bump",
    "/timeline",
];

/// `true` when the request's query string sets `name=1` or `name=true`.
fn query_flag(req: &Request, name: &str) -> bool {
    query_param(req, name).is_some_and(|v| v == "1" || v == "true")
}

/// The last `name=value` pair in the request's query string, if any.
fn query_param<'r>(req: &'r Request, name: &str) -> Option<&'r str> {
    let (_, qs) = req.target.split_once('?')?;
    qs.split('&')
        .filter_map(|pair| pair.split_once('='))
        .filter(|(k, _)| *k == name)
        .map(|(_, v)| v)
        .next_back()
}

/// The query parameter `name` as an unsigned integer; a value that does
/// not parse is the `400` to send back.
fn uint_param(req: &Request, name: &str) -> Result<Option<u64>, Response> {
    query_param(req, name)
        .map(|raw| {
            raw.parse()
                .map_err(|_| Response::error(400, format!("{name} must be an unsigned integer")))
        })
        .transpose()
}

/// Serves the tracer's Chrome trace-event snapshot. `?clear=1` hides
/// exactly the records the snapshot observed — spans recorded while the
/// scrape was running stay for the next one — so a scrape-then-clear
/// loop sees each span exactly once. `?ticket=N` narrows the snapshot
/// to one query's spans (the ticket `/query` returned); combining it
/// with `clear=1` still clears the whole observed window, because the
/// snapshot is taken before the filter is applied.
fn handle_trace(req: &Request) -> Response {
    let ticket = match uint_param(req, "ticket") {
        Ok(ticket) => ticket,
        Err(bad) => return bad,
    };
    let snap = if query_flag(req, "clear") {
        ccp_trace::snapshot_and_clear()
    } else {
        ccp_trace::snapshot()
    };
    let snap = match ticket {
        Some(id) => snap.filter_query(id),
        None => snap,
    };
    Response::json_text(200, snap.to_chrome_json())
}

/// Version string baked in at compile time.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");
/// Short git SHA captured by `build.rs` ("unknown" outside a checkout).
const BUILD_GIT_SHA: &str = env!("CCP_GIT_SHA");
/// Cargo profile the binary was built under.
const BUILD_PROFILE: &str = env!("CCP_BUILD_PROFILE");

/// Registers the `ccp_build_info` gauge: constant 1 with the build
/// provenance in the labels, the Prometheus idiom for metadata.
fn register_build_info(registry: &Registry) {
    registry
        .gauge_family(
            "ccp_build_info",
            "Build provenance; the value is always 1, the labels carry version, git SHA and \
             cargo profile",
        )
        .get_or_create(&[
            ("version", BUILD_VERSION),
            ("git_sha", BUILD_GIT_SHA),
            ("profile", BUILD_PROFILE),
        ])
        .set(1.0);
}

/// `GET /timeline`: the flight recorder's retained series and events.
/// `?since=seq` returns only points/events newer than `seq` (incremental
/// pulls); `?series=prefix` filters series by name prefix.
fn handle_timeline(shared: &Shared, req: &Request) -> Response {
    let since = match uint_param(req, "since") {
        Ok(since) => since.unwrap_or(0),
        Err(bad) => return bad,
    };
    let timeline = shared.flight.timeline(since, query_param(req, "series"));
    Response::json(200, &timeline_json(&timeline))
}

fn timeline_json(tl: &ccp_flight::Timeline) -> Json {
    let series = Json::Obj(
        tl.series
            .iter()
            .map(|(name, pts)| {
                (
                    name.clone(),
                    Json::Arr(
                        pts.iter()
                            .map(|&(seq, v)| Json::Arr(vec![Json::num(seq as f64), Json::num(v)]))
                            .collect(),
                    ),
                )
            })
            .collect(),
    );
    let events = Json::Arr(
        tl.events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("seq", Json::num(e.seq as f64)),
                    ("t_ms", Json::num(e.t_ms as f64)),
                    ("kind", Json::str(e.kind)),
                    ("detail", Json::str(&e.detail)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("tick", Json::num(tl.tick as f64)),
        ("interval_ms", Json::num(tl.interval_ms as f64)),
        ("now_ms", Json::num(tl.now_ms as f64)),
        ("started_unix_ms", Json::num(tl.started_unix_ms as f64)),
        ("dropped_series", Json::num(tl.dropped_series as f64)),
        ("dropped_events", Json::num(tl.dropped_events as f64)),
        ("events", events),
        ("series", series),
    ])
}

fn not_found() -> Response {
    let endpoints = Json::Arr(ENDPOINTS.iter().map(|e| Json::str(*e)).collect());
    Response::json(
        404,
        &Json::obj(vec![
            ("error", Json::str("not found")),
            ("endpoints", endpoints),
        ]),
    )
}

/// `POST /data/bump`: advances the data-version epoch and sweeps every
/// cached artifact built against the old version out of the cache. This
/// is the server's stand-in for a data modification — the moment the
/// resident columns would change, memoized results must stop matching.
fn handle_data_bump(shared: &Shared) -> Response {
    match shared.engine.reuse_cache() {
        Some(cache) => {
            let version = cache.bump_version();
            shared
                .flight
                .emit("epoch_bump", format!("data version -> {version}"));
            Response::json(
                200,
                &Json::obj(vec![
                    ("status", Json::str("ok")),
                    ("data_version", Json::num(version as f64)),
                ]),
            )
        }
        None => Response::error(409, "reuse cache disabled"),
    }
}

/// Executes the NDJSON query body line by line.
///
/// The *first* line's admission failure turns into the response status
/// (`429` queue full / `503` draining) so callers and load balancers see
/// backpressure; failures on later lines become error objects inside the
/// 200 NDJSON stream, since the status line has already been decided.
///
/// The `X-CCP-Tenant` header names the tenant the request is admitted
/// as; absent means the default tenant, a malformed name is a `400`. The
/// name is validated and booked once, and every line runs as that handle.
fn handle_query(shared: &Shared, req: &Request) -> Response {
    let name = req
        .header("x-ccp-tenant")
        .unwrap_or(ccp_resctrl::DEFAULT_TENANT);
    if let Err(why) = tenant::validate(name) {
        return Response::error(400, format!("bad X-CCP-Tenant: {why}"));
    }
    let tenant = shared.metrics.tenants().book(name);
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let lines = body.lines().map(str::trim).filter(|l| !l.is_empty());
    // Each reply line is rendered straight into the response body.
    let mut out = String::with_capacity(crate::json::LINE_BYTES);
    for (i, line) in lines.enumerate() {
        let reply = match run_query_line(shared, line, &tenant) {
            Ok(outcome) => outcome,
            Err(QueryLineError::Parse(why)) => {
                let err = Json::obj(vec![("error", Json::str(&why))]);
                if i == 0 {
                    return Response::json(400, &err);
                }
                err
            }
            Err(QueryLineError::Admission(err)) => {
                let status = match err {
                    AdmissionError::QueueFull | AdmissionError::QuotaExceeded => 429,
                    AdmissionError::ShuttingDown | AdmissionError::TimedOut => 503,
                };
                let msg = Json::obj(vec![("error", Json::str(err.to_string()))]);
                if i == 0 {
                    let resp = Response::json(status, &msg);
                    return if err == AdmissionError::TimedOut {
                        resp.retry_after(retry_after_secs(shared))
                    } else {
                        resp
                    };
                }
                msg
            }
        };
        reply.write_into(&mut out);
        out.push('\n');
    }
    if out.is_empty() {
        return Response::error(400, "empty body; send one JSON object per line");
    }
    Response::ndjson(200, out)
}

enum QueryLineError {
    Parse(String),
    Admission(AdmissionError),
}

/// Seconds a timed-out client should wait before retrying: the admission
/// deadline itself (the queue needs about that long to move), at least 1.
fn retry_after_secs(shared: &Shared) -> u64 {
    shared
        .config
        .queue_deadline
        .map_or(1, |d| d.as_secs().max(1))
}

fn run_query_line(
    shared: &Shared,
    line: &str,
    tenant: &Arc<Tenant>,
) -> Result<Json, QueryLineError> {
    let value = Json::parse(line).map_err(|e| QueryLineError::Parse(format!("bad JSON: {e}")))?;
    let spec =
        parse_query(&value, shared.config.enable_sleep_workload).map_err(QueryLineError::Parse)?;
    // Reuse is consulted *before* classification: a scan whose memoized
    // result is resident is admitted as sensitive-light, not held back
    // behind the polluter limits it no longer deserves.
    let (cuid, predicted_hit) = shared.engine.classify_for_admission(&spec);
    let permit = shared
        .admission
        .acquire_as(cuid, Arc::clone(tenant), shared.config.queue_deadline)
        .map_err(QueryLineError::Admission)?;
    shared.metrics.record_admitted(tenant, cuid.class().label());
    // The admission ticket doubles as the trace query id: every span this
    // query emits downstream (scheduler, bind, operators) carries it.
    let ticket = permit.ticket();
    let ctx = QueryCtx::new(ticket);
    let name = spec.name();
    let query_span = ccp_trace::span_id(TraceCat::Query, &name, ticket);
    let exec_started = Instant::now();
    let outcome = with_query_ctx(Arc::clone(&ctx), || {
        shared.engine.execute_admitted(&spec, cuid)
    });
    if predicted_hit && outcome.reuse != "hit" {
        // The entry vanished (eviction, version bump, fault) between
        // admission and execution: the query ran under a class it no
        // longer earned. Counted so the CI gate can see how often the
        // prediction lies.
        if let Some(cache) = shared.engine.reuse_cache() {
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
    drop(permit);
    let mut json = outcome.to_json_with(&breakdown);
    if let Json::Obj(ref mut fields) = json {
        // The ticket lets a client pull exactly this query's spans with
        // `GET /trace?ticket=N`.
        fields.push(("ticket".to_string(), Json::num(ticket as f64)));
    }
    Ok(json)
}

// ---------------------------------------------------------------------------
// SIGINT flag
// ---------------------------------------------------------------------------

static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sigint {
    use super::SIGINT_SEEN;
    use std::sync::atomic::Ordering;

    // ASYNC-SIGNAL-SAFE: only a store to a static atomic (no allocation,
    // locking or formatting); the serve loop polls the flag.
    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_SEEN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // libc is always linked on unix; `signal` keeps us dependency-free.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        // SAFETY: `signal(2)` is async-signal-safe to install, the handler
        // only stores to a static atomic (no allocation, locking, or
        // formatting), and registration happens once from `main` before
        // any connection threads exist.
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

/// Installs a SIGINT handler that only flips a flag readable through
/// [`sigint_requested`]. No-op on non-unix platforms.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    sigint::install();
}

/// Whether SIGINT arrived since [`install_sigint_handler`].
pub fn sigint_requested() -> bool {
    SIGINT_SEEN.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Heap allocations the thread has asked for (`alloc`,
        /// `alloc_zeroed` and `realloc` calls). A const-initialised `Cell`
        /// without a destructor: touching it never allocates.
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_one() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    /// The system allocator, counting each thread's allocations.
    struct CountingAlloc;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; counting only touches a
    // thread-local `Cell`.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            // SAFETY: the caller upholds `alloc`'s contract for `layout`.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_one();
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            // SAFETY: `ptr` came from this allocator (hence `System`) with
            // `layout`, as the caller guarantees.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator (hence `System`) with
            // `layout`, as the caller guarantees.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// `f`'s result and the allocations the calling thread made inside it.
    fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = ALLOCATIONS.with(Cell::get);
        let out = f();
        (out, ALLOCATIONS.with(Cell::get) - before)
    }

    fn query(body: &str, tenant: Option<&str>) -> Request {
        let mut headers = vec![
            ("Host".to_string(), "127.0.0.1".to_string()),
            ("Content-Length".to_string(), body.len().to_string()),
        ];
        headers.extend(tenant.map(|t| ("X-CCP-Tenant".to_string(), t.to_string())));
        Request {
            method: "POST".to_string(),
            target: "/query".to_string(),
            http11: true,
            headers,
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn configurations_that_cannot_be_served_fail_to_start() {
        // Both fail before the data is built or a port is bound.
        for (config, why) in [
            (
                ServerConfig {
                    fake_closids: Some(0),
                    ..ServerConfig::default()
                },
                "at least 1 CLOSID, got 0",
            ),
            (
                ServerConfig {
                    reuse_budget_mb: (u64::MAX >> 20) as usize + 1,
                    ..ServerConfig::default()
                },
                "--reuse-budget-mb: 17592186044416 MiB overflows",
            ),
        ] {
            let err = Server::start(config).err().expect("must not start");
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    /// The fixed per-request work of `/query`, counted in heap
    /// allocations on the connection thread: the handler for an `oltp`
    /// statement (as the default tenant and as an already booked one), a
    /// reuse-hit `q1` and a reuse-hit `q2` stays under its ceiling (the
    /// handler before the single renderer, label lookups without
    /// allocation and canonical reuse keys made 49, 70 and 68; a tenant
    /// named by a `String` and an `Arc<str>` per request, 29, 35 and 34).
    /// The count is per thread: the plane's sample and record steps run
    /// on `ccp-plane` and allocate outside it.
    #[test]
    fn a_query_line_stays_inside_its_allocation_budget() {
        let mut server = Server::start(ServerConfig {
            dataset_rows: 4_096,
            fake_resctrl: true,
            ..ServerConfig::default()
        })
        .unwrap();
        for (tenant, body, ceiling) in [
            (None, r#"{"workload":"oltp","key":7}"#, 27),
            (Some("acme"), r#"{"workload":"oltp","key":7}"#, 27),
            (None, r#"{"workload":"q1","threshold":25000}"#, 33),
            (None, r#"{"workload":"q2","agg":"sum"}"#, 32),
        ] {
            let req = query(body, tenant);
            // The first run books the tenant, mints the label sets and
            // the best-throughput entry, and publishes the reuse entry
            // the measured run hits.
            assert_eq!(handle_query(&server.shared, &req).status, 200);
            let (resp, allocations) = allocations_in(|| handle_query(&server.shared, &req));
            assert_eq!(resp.status, 200, "{body}");
            assert!(
                allocations <= ceiling,
                "{body}: {allocations} allocations, ceiling {ceiling}"
            );
        }
        server.shutdown();
    }
}
