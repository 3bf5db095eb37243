//! # ccp-engine
//!
//! The execution engine with integrated cache partitioning — the paper's
//! primary contribution (Section V).
//!
//! ## Architecture
//!
//! Like SAP HANA, the engine executes **jobs** through a pool of *job
//! worker* threads; a job encapsulates (a slice of) one operator. Every job
//! carries a **cache usage identifier** ([`job::CacheUsageClass`], the
//! paper's CUID): *polluting* (class *i*, e.g. column scans), *sensitive*
//! (class *ii*, e.g. hash aggregation — the default, to avoid regressions),
//! or *mixed* (class *iii*, e.g. the FK join, whose class depends on its
//! bit-vector size).
//!
//! Before a worker runs a job, the executor maps the CUID to an LLC way
//! mask through a [`partition::PartitionPolicy`] and applies it via a
//! [`alloc::CacheAllocator`] backend:
//!
//! * [`alloc::ResctrlAllocator`] — binds the worker thread to a resctrl
//!   group (real Intel CAT);
//! * [`alloc::NoopAllocator`] — no partitioning (the paper's baseline);
//! * [`alloc::RecordingAllocator`] — test double that records every call.
//!
//! Mask changes are skipped when the worker already has the right mask —
//! the paper's Section V-C fast path (measured overhead < 100 µs even when
//! the kernel is involved).
//!
//! ## Native vs. simulated operators
//!
//! [`ops`] contains the *native* operators: they really process
//! `ccp-storage` data and are what you would run under resctrl on CAT
//! hardware. [`sim`] contains their *simulated twins*: the same algorithms
//! expressed as memory-access patterns over `ccp-cachesim`, which is what
//! regenerates the paper's figures on machines without CAT. The twins are
//! validated against the native operators' access counts in the test suite.

pub mod alloc;
mod dual_pool;
mod executor;
pub mod job;
mod masks;
mod metrics;
pub mod ops;
pub mod partition;
pub mod scheduler;
pub mod sim;

pub use alloc::{AllocError, CacheAllocator, NoopAllocator, RecordingAllocator, ResctrlAllocator};
pub use dual_pool::DualPoolExecutor;
pub use executor::{BatchHandle, JobExecutor};
pub use job::{with_query_ctx, CacheUsageClass, Job, Phase, Plan, QueryCtx};
pub use masks::LiveMasks;
pub use metrics::{class_label, ExecutorMetrics, SchedulerMetrics};
pub use partition::{PartitionPolicy, PAPER_POLLUTER_MASK};
pub use scheduler::{Admission, CacheAwareScheduler};
