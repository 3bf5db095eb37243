//! `ccp-flight`: flight recorder.
//!
//! Post-hoc observability for the cache-partitioning server. A
//! partitioning decision that hurt tail latency is only debuggable if
//! the metrics *around* the decision survive it, so this crate keeps a
//! fixed-memory on-board record of everything `ccp-obs` knows:
//!
//! * `recorder` — the sampling loop over a [`ccp_obs::Registry`]:
//!   counters and gauges verbatim, histograms as *windowed*
//!   `:p50`/`:p95`/`:p99` quantile series via
//!   [`ccp_obs::HistogramSnapshot::delta_since`], each kept in
//!   preallocated rings with two-tier retention (raw window +
//!   downsampled history), plus a bounded deque of control-plane
//!   [`Event`]s (repartition / revert / degraded / breaker trip / epoch
//!   bump) stamped with recorder ticks so they align with series
//!   points. All of it sits behind one mutex, so a reader sees whole
//!   ticks. Served by the server as `GET /timeline` and rendered as the
//!   self-contained `GET /dashboard`.
//!
//! CPU profiles are not this crate's job: sample the process from the
//! outside (`perf record -g`).

#![forbid(unsafe_code)]

mod events;
mod recorder;
mod ring;

pub use events::Event;
pub use recorder::{FlightHandle, FlightRecorder, RecorderConfig, Sampler, Timeline};
