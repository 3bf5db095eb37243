//! # ccp-server — networked service layer
//!
//! The paper's engine ([`ccp_engine`]) schedules and cache-partitions
//! jobs *inside* one process. This crate puts a wire in front of it: a
//! dependency-free (std-only) multi-threaded HTTP/1.1 service that
//!
//! * admits queries through the cache-aware scheduler — the query API
//!   (`POST /query`) classifies each workload to a cache usage
//!   identifier, takes a permit from a **bounded admission queue**
//!   (never two cache-sensitive queries at once, `429` when the queue
//!   overflows), and executes on the dual-pool executor;
//! * exposes the whole stack's instruments — one `GET /metrics` scrape
//!   in Prometheus text format shows executor, scheduler and
//!   `ccp_server_*` families side by side, `GET /timeline` their recent
//!   history, and `GET /healthz` a liveness probe;
//! * serves the process tracer ([`ccp_trace`]) as Chrome trace-event
//!   JSON on `GET /trace` (load it in Perfetto / `chrome://tracing`),
//!   and attaches a per-query latency breakdown
//!   (`queue_us`/`schedule_us`/`bind_us`/`exec_us`) to every `/query`
//!   response line.
//!
//! ```no_run
//! use ccp_server::{Server, ServerConfig};
//!
//! let mut server = Server::start(ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! // ... later:
//! server.shutdown();
//! ```
//!
//! Everything — HTTP framing ([`http`]), JSON (`json`) — is written
//! against `std` alone, keeping the offline-vendored workspace honest.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod admission;
mod control_plane;
pub mod http;
mod json;
mod metrics;
mod query;
mod server;
mod tenant;

pub use admission::{AdmissionError, AdmissionQueue, RunPermit};
pub use control_plane::{ControlPlane, PlaneHandle};
pub use http::{
    fetch, fetch_with_headers, ClientResponse, HttpClient, HttpError, Request, Response,
};
pub use json::Json;
pub use metrics::ServerMetrics;
pub use query::{parse_query, Breakdown, QueryEngine, QueryOutcome, WorkloadSpec};
pub use server::{install_sigint_handler, sigint_requested, Server, ServerConfig, ENDPOINTS};
