//! # ccp-workloads
//!
//! The paper's workloads and measurement protocol:
//!
//! * [`paper`] — builders for the exact micro-benchmark configurations of
//!   Sections III/VI: Query 1 (column scan), Query 2 (aggregation with
//!   grouping, dictionary 4/40/400 MiB × 10²..10⁶ groups), Query 3
//!   (foreign-key join, 10⁶..10⁹ primary keys).
//! * [`s4hana`] — the ACDOCA-style OLTP point query of Section VI-E,
//!   including the 13-column / 6-column projections of Figure 12 and the
//!   2..13-column working-set sweep.
//! * [`experiment`] — the measurement protocol: isolated baselines, LLC
//!   sweeps (Figures 4–6) and concurrent normalized-throughput runs
//!   (Figures 1, 9–12), each returning ready-to-print rows.
//!
//! Native co-runs go through `ccp serve`: its `/metrics` and `/timeline`
//! report what the engine actually ran.

pub mod experiment;
pub mod paper;
pub mod s4hana;

pub use experiment::{Experiment, MaskChoice, NormalizedOutcome, QuerySpec, SweepPoint};
