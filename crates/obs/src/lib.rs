//! # ccp-obs
//!
//! The workspace's observability core: lock-free metric primitives, a
//! process-wide registry, and Prometheus text-format exposition — with
//! **zero dependencies**, so every crate (engine, resctrl driver,
//! workload harness) can afford to be instrumented unconditionally.
//!
//! The paper's whole argument rests on *measuring* cache interference
//! (CMT/MBM occupancy, the sub-100 µs mask-switch overhead, normalized
//! throughput); LFOC and Com-CAS (see PAPERS.md) both show that
//! lightweight *online* monitoring is what turns static partitioning
//! into a policy loop. This crate is that telemetry spine: the executor,
//! scheduler, resctrl controller and native workload driver all publish
//! through it, and the bench harness and any future serving front end
//! scrape identical families.
//!
//! ## Primitives
//!
//! * [`Counter`] — monotone `u64`, lock-free.
//! * [`Gauge`] — `f64` point-in-time value, lock-free (bit-cast CAS).
//! * [`Histogram`] — log-linear buckets (powers of two, linearly
//!   subdivided), lock-free recording, p50/p95/p99 quantile estimates.
//! * [`Family`] — a metric name fanned out over label sets.
//! * [`Registry`] — owns families, renders the Prometheus text format.
//!
//! ## Example
//!
//! ```
//! use ccp_obs::{Registry, unit};
//!
//! let registry = Registry::new();
//! let jobs = registry.counter_family("jobs_total", "Jobs executed");
//! jobs.get_or_create(&[("pool", "olap")]).inc();
//!
//! let latency = registry.histogram_family_with(
//!     "job_seconds", "Job latency", unit::latency_seconds(),
//! );
//! latency.get_or_create(&[("pool", "olap")]).observe(0.002);
//! let text = registry.render_prometheus();
//! assert!(text.contains("jobs_total{pool=\"olap\"} 1"));
//! ```

mod histogram;
mod metrics;
mod registry;

pub use histogram::{unit, BucketSpec, Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::{series_name, Family, FamilySample, Labels, MetricSample, Registry};
