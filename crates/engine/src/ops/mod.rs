//! Native database operators.
//!
//! These actually process `ccp-storage` data through the job executor, so
//! their worker threads carry real CAT masks when the engine runs with the
//! resctrl allocator on CAT hardware. Each operator mirrors one of the
//! paper's three micro-benchmark queries plus the S/4HANA-style OLTP point
//! select:
//!
//! * [`scan::column_scan`] — Query 1, `SELECT COUNT(*) FROM A WHERE A.X > ?`
//! * [`aggregate::grouped_aggregate`] — Query 2,
//!   `SELECT MAX(B.V), B.G FROM B GROUP BY B.G`
//! * [`join::fk_join_count`] — Query 3,
//!   `SELECT COUNT(*) FROM R, S WHERE R.P = S.F`
//! * [`oltp::point_select_sum`] — the ACDOCA-style indexed point query
//!   `ccp serve` runs

pub mod aggregate;
pub mod join;
pub mod oltp;
pub mod scan;

/// Rows per job of a chunked operator (scan, aggregation fold, join
/// probe): the one granularity at which operators hand work to the pool.
pub(crate) const CHUNK_ROWS: usize = 64 * 1024;

/// Opens an operator-phase trace span on the calling thread, tagged with
/// the current query id (if inside a
/// [`with_query_ctx`](crate::job::with_query_ctx) scope). Inert — one
/// relaxed atomic load — while tracing is disabled.
pub(crate) fn op_span(name: &str) -> ccp_trace::SpanGuard {
    let id = crate::job::current_query_ctx().map_or(0, |c| c.id);
    ccp_trace::span_id(ccp_trace::TraceCat::Op, name, id)
}
