//! # ccp-trace
//!
//! Query-level tracing for the whole workspace: where did query #4217
//! spend its 38 ms?  `ccp-obs` answers *how often* and *how long on
//! average* (counters, histograms); this crate answers *when exactly and
//! in what order* — one co-run of a polluting scan and a cache-sensitive
//! aggregation renders as a complete timeline in Perfetto or
//! `chrome://tracing`, with spans from admission wait, scheduler
//! decision, executor dispatch, resctrl mask-bind and operator execution
//! stacked per thread.
//!
//! ## Design
//!
//! * **Per-thread rings, one lock each.** Each traced thread owns a
//!   bounded, preallocated ring of fixed-size records behind its own
//!   mutex. A push takes that lock, writes one record and releases it;
//!   only its own thread pushes, and only a scrape reads, so the lock is
//!   almost never contended. A snapshot copies each ring under its lock,
//!   and [`snapshot_and_clear`] copies and empties it in the same hold,
//!   so a scrape-then-clear loop sees every record exactly once.
//! * **Completed spans, not raw begin/end.** A [`SpanGuard`] captures
//!   the start timestamp on creation and writes one record (start +
//!   duration) when dropped. The exporter re-derives begin/end pairs,
//!   which makes the Chrome output balanced by construction even when
//!   the ring wraps mid-burst.
//! * **Bounded with drop counting.** When a ring wraps, the oldest
//!   record is overwritten and a drop counter increments; the `/trace`
//!   snapshot reports the total so truncation is visible, never silent.
//! * **Bounded across thread churn.** A ring whose owner thread exited
//!   stays snapshottable (late scrapes still see its final events) until
//!   the small dead-ring retention budget fills up; after that, each new
//!   thread recycles the longest-dead ring — its leftover records are
//!   counted as dropped, never discarded uncounted. Memory is therefore
//!   bounded by the peak number of *concurrently* traced threads plus
//!   that budget, even for servers that spawn one short-lived thread per
//!   connection.
//! * **Zero-cost when disabled.** Every recording call first reads one
//!   process-global relaxed [`AtomicBool`]; when tracing is off nothing
//!   else happens — no thread-local access, no timestamp, no allocation.
//!   The `micro_alloc` perf gate runs with tracing disabled and must not
//!   move.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool
//!
//! ## Example
//!
//! ```
//! use ccp_trace::{self as trace, TraceCat, TraceConfig};
//!
//! trace::enable(TraceConfig::default());
//! {
//!     let _outer = trace::span_id(TraceCat::Op, "column_scan", 42);
//!     trace::instant(TraceCat::Admission, "bypass");
//! } // span recorded on drop
//! let snap = trace::snapshot();
//! assert_eq!(snap.events.len(), 2);
//! let json = snap.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! trace::disable();
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod export;
mod ring;
mod tracer;

pub use export::{escape_json_into, ThreadInfo, TraceEvent, TraceEventKind, TraceSnapshot};
pub use tracer::{
    clear, disable, dropped, enable, enabled, instant, instant_id, snapshot, snapshot_and_clear,
    span, span_id, stats, SpanGuard, TraceConfig, TracerStats,
};

/// Category a trace event belongs to; becomes the Chrome `cat` field so
/// Perfetto can filter one layer of the stack at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCat {
    /// HTTP service layer: request handling, response writing.
    Server,
    /// Admission queue: enqueue, wait, bypass, timeout.
    Admission,
    /// Scheduler decision: slot acquisition, co-run admissibility.
    Sched,
    /// resctrl mask-bind on an executor worker (the paper's <100 µs
    /// fast path).
    Bind,
    /// Operator execution: scan, aggregate, join phases.
    Op,
    /// Whole-query envelope spans.
    Query,
    /// Reuse cache: artifact hit/miss/install/evict instants.
    Reuse,
}

impl TraceCat {
    /// Stable lowercase label used in exported JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCat::Server => "server",
            TraceCat::Admission => "admission",
            TraceCat::Sched => "sched",
            TraceCat::Bind => "bind",
            TraceCat::Op => "op",
            TraceCat::Query => "query",
            TraceCat::Reuse => "reuse",
        }
    }
}
