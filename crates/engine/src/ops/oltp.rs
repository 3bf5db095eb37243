//! Native OLTP point select (the S/4HANA-style query of Section VI-E).
//!
//! Locates rows through the inverted index of a key column, then projects
//! `k` payload columns by decoding each through its dictionary. The paper
//! runs such queries in a dedicated thread pool that always keeps the full
//! cache, so the operator is [`CacheUsageClass::Sensitive`](crate::job::CacheUsageClass::Sensitive).
//! The served statement, [`point_select_sum`], runs on the calling thread:
//! a connection thread never binds, so it already has the full cache.

use ccp_storage::{Column, DictColumn, InvertedIndex, Table};

/// The served OLTP statement: finds the rows whose `keys` value is `key`
/// through `index` (built over `keys`' codes) and sums their `amounts`.
/// Returns `(rows, sum)`; an absent key is `(0, 0)`.
///
/// Runs inline on the caller's thread under an `op` span named
/// `point_select`, so a traced query shows its operator.
pub fn point_select_sum(
    keys: &DictColumn<i64>,
    index: &InvertedIndex,
    amounts: &DictColumn<i64>,
    key: i64,
) -> (u64, i64) {
    let _span = super::op_span("point_select");
    let Some(code) = keys.dict().encode(&key) else {
        return (0, 0);
    };
    let rows = index.lookup(code);
    let sum = rows
        .iter()
        .map(|&row| *amounts.value_at(row as usize))
        .sum();
    (rows.len() as u64, sum)
}

/// A prepared point-select statement over one table: equality on the key
/// column, projection of a fixed set of payload columns.
#[derive(Debug)]
pub struct PointSelect<'t> {
    table: &'t Table,
    key_index: InvertedIndex,
    key_column: String,
    projected: Vec<String>,
}

/// One projected row: column name → rendered value.
pub type ProjectedRow = Vec<(String, String)>;

impl<'t> PointSelect<'t> {
    /// Prepares the statement: builds the inverted index on `key_column`
    /// and validates the projection list.
    ///
    /// # Panics
    /// Panics when a referenced column does not exist — statement
    /// preparation is schema-checked.
    pub fn prepare(table: &'t Table, key_column: &str, projected: &[&str]) -> Self {
        let key_col = table
            .column(key_column)
            .unwrap_or_else(|| panic!("no key column {key_column:?}"));
        for p in projected {
            assert!(table.column(p).is_some(), "no projected column {p:?}");
        }
        PointSelect {
            table,
            key_index: key_col.build_index(),
            key_column: key_column.to_string(),
            projected: projected.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The key column name.
    pub fn key_column(&self) -> &str {
        &self.key_column
    }

    /// Executes the query for `key`, returning the projected rows (empty
    /// when the key is absent).
    pub fn execute_int(&self, key: i64) -> Vec<ProjectedRow> {
        let _span = super::op_span("point_select");
        let Column::Int(kc) = self
            .table
            .column(&self.key_column)
            .expect("validated in prepare")
        else {
            panic!(
                "execute_int on non-integer key column {:?}",
                self.key_column
            )
        };
        let Some(code) = kc.dict().encode(&key) else {
            return Vec::new();
        };
        self.key_index
            .lookup(code)
            .iter()
            .map(|&row| self.project(row as usize))
            .collect()
    }

    /// Projects one row: each projected column performs a code fetch plus a
    /// dictionary decode — the dictionary-heavy access pattern that makes
    /// OLTP queries cache-sensitive (Section VI-E/VI-F).
    fn project(&self, row: usize) -> ProjectedRow {
        self.projected
            .iter()
            .map(|name| {
                let rendered = match self.table.column(name).expect("validated in prepare") {
                    Column::Int(c) => c.value_at(row).to_string(),
                    Column::Str(c) => c.value_at(row).clone(),
                };
                (name.clone(), rendered)
            })
            .collect()
    }

    /// Total bytes of the dictionaries this statement touches (index key
    /// column + projected columns) — the OLTP working-set size that decides
    /// its cache sensitivity.
    pub fn working_set_bytes(&self) -> u64 {
        let mut total = self.key_index.size_bytes();
        for name in std::iter::once(&self.key_column).chain(&self.projected) {
            total += self
                .table
                .column(name)
                .expect("validated in prepare")
                .dict_bytes();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acdoca_mini() -> Table {
        let mut t = Table::new("ACDOCA-mini");
        let keys: Vec<i64> = (0..1000).map(|i| i % 250).collect(); // 4 rows per key
        let amounts: Vec<i64> = (0..1000).map(|i| i * 10).collect();
        let texts: Vec<String> = (0..1000).map(|i| format!("doc-{:04}", i % 50)).collect();
        t.add_column("BELNR", Column::Int(DictColumn::build(&keys)));
        t.add_column("WRBTR", Column::Int(DictColumn::build(&amounts)));
        t.add_column("SGTXT", Column::Str(DictColumn::build(&texts)));
        t
    }

    #[test]
    fn finds_all_rows_for_key() {
        let t = acdoca_mini();
        let q = PointSelect::prepare(&t, "BELNR", &["WRBTR", "SGTXT"]);
        let rows = q.execute_int(42);
        assert_eq!(rows.len(), 4); // rows 42, 292, 542, 792
                                   // First matching row is row 42: WRBTR = 420.
        assert_eq!(rows[0][0], ("WRBTR".to_string(), "420".to_string()));
        assert_eq!(rows[0][1], ("SGTXT".to_string(), "doc-0042".to_string()));
    }

    #[test]
    fn missing_key_returns_empty() {
        let t = acdoca_mini();
        let q = PointSelect::prepare(&t, "BELNR", &["WRBTR"]);
        assert!(q.execute_int(99_999).is_empty());
    }

    #[test]
    fn working_set_grows_with_projection_width() {
        let t = acdoca_mini();
        let narrow = PointSelect::prepare(&t, "BELNR", &["WRBTR"]);
        let wide = PointSelect::prepare(&t, "BELNR", &["WRBTR", "SGTXT"]);
        assert!(wide.working_set_bytes() > narrow.working_set_bytes());
    }

    #[test]
    #[should_panic(expected = "no projected column")]
    fn unknown_projection_rejected_at_prepare() {
        let t = acdoca_mini();
        let _ = PointSelect::prepare(&t, "BELNR", &["NOPE"]);
    }
}
