//! An embedded-database facade over the whole stack.
//!
//! [`Database`] wires the pieces together the way the paper's prototype
//! does: a table registry over the column store, a partitioned job executor
//! for OLAP operators, a dedicated full-cache pool for OLTP statements, and
//! the CUID-based partition policy in between. It is the five-minute entry
//! point for library users; everything it does can also be assembled by
//! hand from the sub-crates (see `examples/htap_mixed.rs`).

use ccp_cachesim::HierarchyConfig;
use ccp_engine::alloc::{host_allocator, CacheAllocator};
use ccp_engine::dual_pool::DualPoolExecutor;
use ccp_engine::job::Job;
use ccp_engine::ops::{aggregate, join, oltp, scan};
use ccp_engine::partition::PartitionPolicy;
use ccp_storage::{AggHashTable, Aggregate, Column, DictColumn, Table};
use std::collections::HashMap;
use std::sync::Arc;

/// Errors surfaced by the facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// No table with that name is registered.
    NoSuchTable(String),
    /// The table has no column with that name.
    NoSuchColumn {
        /// Table searched.
        table: String,
        /// Missing column.
        column: String,
    },
    /// The column exists but has the wrong type for the operation.
    WrongColumnType {
        /// Table searched.
        table: String,
        /// Offending column.
        column: String,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t:?}"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no column {column:?} in table {table:?}")
            }
            DbError::WrongColumnType { table, column } => {
                write!(
                    f,
                    "column {table}.{column} has the wrong type for this operation"
                )
            }
        }
    }
}

impl std::error::Error for DbError {}

/// A small in-memory column-store database with cache-partitioned
/// execution.
pub struct Database {
    tables: HashMap<String, Arc<Table>>,
    pools: DualPoolExecutor,
    policy: PartitionPolicy,
    cat_live: bool,
}

impl Database {
    /// Opens a database with `olap_workers`/`oltp_workers` threads,
    /// partitioning through real CAT when the host supports it and falling
    /// back to no-op allocation otherwise — the engine never refuses to
    /// run.
    pub fn open(olap_workers: usize, oltp_workers: usize) -> Self {
        let (allocator, cat_live) = host_allocator();
        Self::open_with(olap_workers, oltp_workers, allocator, cat_live)
    }

    /// Opens with an explicit allocator (tests use the recording one).
    pub fn open_with(
        olap_workers: usize,
        oltp_workers: usize,
        allocator: Arc<dyn CacheAllocator>,
        cat_live: bool,
    ) -> Self {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        Database {
            tables: HashMap::new(),
            pools: DualPoolExecutor::new(olap_workers, oltp_workers, policy, allocator),
            policy,
            cat_live,
        }
    }

    /// Whether masks reach real CAT hardware (vs. no-op fallback).
    pub fn cat_is_live(&self) -> bool {
        self.cat_live
    }

    /// The active partition policy.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Registers a table (replacing any previous one of the same name).
    pub fn register_table(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Names of registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    fn table(&self, name: &str) -> Result<&Arc<Table>, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn int_column(&self, table: &str, column: &str) -> Result<Arc<DictColumn<i64>>, DbError> {
        let t = self.table(table)?;
        match t.column(column) {
            Some(Column::Int(c)) => Ok(Arc::new(c.clone())),
            Some(_) => Err(DbError::WrongColumnType {
                table: table.to_string(),
                column: column.to_string(),
            }),
            None => Err(DbError::NoSuchColumn {
                table: table.to_string(),
                column: column.to_string(),
            }),
        }
    }

    /// `SELECT COUNT(*) FROM table WHERE column > threshold` — the paper's
    /// Query 1, executed as polluting (mask-confined) scan jobs.
    ///
    /// # Errors
    /// [`DbError`] on unknown table/column or a non-integer column.
    pub fn count_where_greater(
        &self,
        table: &str,
        column: &str,
        threshold: i64,
    ) -> Result<u64, DbError> {
        let col = self.int_column(table, column)?;
        Ok(scan::column_scan(self.pools.olap(), &col, threshold))
    }

    /// `SELECT agg(value_column), group_column FROM table GROUP BY
    /// group_column` — the paper's Query 2, executed as cache-sensitive
    /// jobs with the full cache.
    ///
    /// # Errors
    /// [`DbError`] on unknown table/column or a non-integer column.
    pub fn aggregate_by(
        &self,
        table: &str,
        value_column: &str,
        group_column: &str,
        agg: Aggregate,
    ) -> Result<AggHashTable, DbError> {
        let v = self.int_column(table, value_column)?;
        let g = self.int_column(table, group_column)?;
        Ok(aggregate::grouped_aggregate(self.pools.olap(), &v, &g, agg))
    }

    /// `SELECT COUNT(*) FROM pk_table, fk_table WHERE pk = fk` — the
    /// paper's Query 3; the job class (polluting vs 60 %-confined) follows
    /// the bit-vector size automatically.
    ///
    /// # Errors
    /// [`DbError`] on unknown table/column or a non-integer column.
    pub fn fk_join_count(
        &self,
        pk_table: &str,
        pk_column: &str,
        fk_table: &str,
        fk_column: &str,
    ) -> Result<u64, DbError> {
        let pk = self.int_column(pk_table, pk_column)?;
        let fk = self.int_column(fk_table, fk_column)?;
        Ok(join::fk_join_count(self.pools.olap(), &pk, &fk))
    }

    /// Indexed point select, run on the dedicated OLTP pool (full cache,
    /// paper §V-C). Returns the projected rows for `key`.
    ///
    /// # Errors
    /// [`DbError`] on unknown table/columns.
    ///
    /// # Panics
    /// Panics if an OLTP worker dies (propagated executor failure).
    pub fn point_select(
        &self,
        table: &str,
        key_column: &str,
        key: i64,
        projected: &[&str],
    ) -> Result<Vec<oltp::ProjectedRow>, DbError> {
        let t = self.table(table)?.clone();
        // Validate columns eagerly so the job cannot panic on bad schema.
        if t.column(key_column).is_none() {
            return Err(DbError::NoSuchColumn {
                table: table.to_string(),
                column: key_column.to_string(),
            });
        }
        for p in projected {
            if t.column(p).is_none() {
                return Err(DbError::NoSuchColumn {
                    table: table.to_string(),
                    column: p.to_string(),
                });
            }
        }
        let key_column = key_column.to_string();
        let projected: Vec<String> = projected.iter().map(|s| s.to_string()).collect();
        let result: Arc<parking_lot::Mutex<Vec<oltp::ProjectedRow>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let out = result.clone();
        self.pools
            .submit_oltp(Job::unannotated("point_select", move || {
                let refs: Vec<&str> = projected.iter().map(|s| s.as_str()).collect();
                let stmt = oltp::PointSelect::prepare(&t, &key_column, &refs);
                *out.lock() = stmt.execute_int(key);
            }));
        self.pools.wait_idle();
        Ok(Arc::try_unwrap(result)
            .map(|m| m.into_inner())
            .unwrap_or_default())
    }

    /// Toggles OLAP-side cache partitioning (the paper's evaluation knob).
    pub fn set_partitioning(&self, on: bool) {
        self.pools.set_partitioning(on);
    }

    /// `(olap mask switches, oltp mask switches)` — observability for the
    /// §V-C fast-path guarantee.
    pub fn mask_switches(&self) -> (u64, u64) {
        self.pools.mask_switches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_engine::alloc::{NoopAllocator, RecordingAllocator};
    use ccp_storage::gen;

    fn sample_db(alloc: Arc<dyn CacheAllocator>) -> Database {
        let mut db = Database::open_with(2, 1, alloc, false);
        let mut sales = Table::new("sales");
        sales.add_column(
            "AMOUNT",
            Column::Int(DictColumn::build(&gen::uniform_ints(50_000, 10_000, 1))),
        );
        sales.add_column(
            "REGION",
            Column::Int(DictColumn::build(&gen::uniform_ints(50_000, 50, 2))),
        );
        sales.add_column(
            "ORDER_FK",
            Column::Int(DictColumn::build(&gen::foreign_keys(50_000, 5_000, 3))),
        );
        db.register_table(sales);
        let mut orders = Table::new("orders");
        orders.add_column(
            "ID",
            Column::Int(DictColumn::build(&gen::primary_keys(5_000, 4))),
        );
        db.register_table(orders);
        db
    }

    #[test]
    fn end_to_end_query_mix() {
        let db = sample_db(Arc::new(NoopAllocator));
        assert_eq!(db.table_names(), vec!["orders", "sales"]);

        let n = db.count_where_greater("sales", "AMOUNT", 5_000).unwrap();
        assert!(
            n > 20_000 && n < 30_000,
            "uniform data: ~half qualify, got {n}"
        );

        let groups = db
            .aggregate_by("sales", "AMOUNT", "REGION", Aggregate::Max)
            .unwrap();
        assert_eq!(groups.len(), 50);

        let matches = db
            .fk_join_count("orders", "ID", "sales", "ORDER_FK")
            .unwrap();
        assert_eq!(matches, 50_000);

        let rows = db.point_select("orders", "ID", 42, &["ID"]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], ("ID".to_string(), "42".to_string()));
    }

    #[test]
    fn errors_are_typed() {
        let db = sample_db(Arc::new(NoopAllocator));
        assert_eq!(
            db.count_where_greater("nope", "AMOUNT", 0),
            Err(DbError::NoSuchTable("nope".into()))
        );
        assert!(matches!(
            db.count_where_greater("sales", "NOPE", 0),
            Err(DbError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            db.point_select("sales", "AMOUNT", 1, &["NOPE"]),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn scan_jobs_are_confined_and_oltp_is_not() {
        let rec = Arc::new(RecordingAllocator::new());
        let db = sample_db(rec.clone());
        db.count_where_greater("sales", "AMOUNT", 5_000).unwrap();
        db.point_select("orders", "ID", 7, &["ID"]).unwrap();
        let masks: Vec<u32> = rec.calls().iter().map(|(_, m)| m.bits()).collect();
        assert!(masks.contains(&0x3), "scan must be confined");
        assert!(masks.contains(&0xfffff), "OLTP must keep the full cache");
    }

    #[test]
    fn cat_flag_reflects_backend() {
        let db = Database::open(1, 1);
        // In this container there is no CAT; the facade must fall back.
        let _ = db.cat_is_live(); // no panic; value depends on host
        assert!(db.table_names().is_empty());
    }
}
