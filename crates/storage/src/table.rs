//! Column tables: named collections of dictionary-encoded columns.

use crate::column::DictColumn;

/// A column of either integer or string type.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integer column.
    Int(DictColumn<i64>),
    /// String column (models the paper's NVARCHAR attributes).
    Str(DictColumn<String>),
}

impl Column {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Str(c) => c.len(),
        }
    }
}

/// A named table of columns, all with the same row count.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Adds a column.
    ///
    /// # Panics
    /// Panics when the row count differs from existing columns or the name
    /// is duplicated — schema construction errors.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> &mut Self {
        let name = name.into();
        assert!(
            self.columns.iter().all(|(n, _)| *n != name),
            "duplicate column name {name:?} in table {:?}",
            self.name
        );
        if let Some((_, first)) = self.columns.first() {
            assert_eq!(
                first.len(),
                col.len(),
                "column {name:?} row count mismatch in table {:?}",
                self.name
            );
        }
        self.columns.push((name, col));
        self
    }

    /// Number of rows (0 for a table without columns).
    pub fn row_count(&self) -> usize {
        self.columns.first().map(|(_, c)| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invindex::InvertedIndex;

    fn int_col(values: &[i64]) -> Column {
        Column::Int(DictColumn::build(values))
    }

    #[test]
    fn schema_construction() {
        let mut t = Table::new("A");
        t.add_column("X", int_col(&[1, 2, 3]));
        t.add_column("Y", int_col(&[4, 5, 6]));
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 2);
        assert!(t.column("X").is_some());
        assert!(t.column("Z").is_none());
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_row_counts_rejected() {
        let mut t = Table::new("A");
        t.add_column("X", int_col(&[1, 2, 3]));
        t.add_column("Y", int_col(&[4]));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        let mut t = Table::new("A");
        t.add_column("X", int_col(&[1]));
        t.add_column("X", int_col(&[2]));
    }

    #[test]
    fn string_columns_and_dict_totals() {
        let mut t = Table::new("ACDOCA-mini");
        t.add_column("K", int_col(&[1, 2, 3]));
        t.add_column(
            "TXT",
            Column::Str(DictColumn::build(&[
                "aaa".to_string(),
                "bbb".to_string(),
                "aaa".to_string(),
            ])),
        );
        let Some(Column::Str(txt)) = t.column("TXT") else {
            panic!("TXT is a string column");
        };
        let idx = InvertedIndex::build(txt.codes().iter(), txt.dict().len());
        assert_eq!(idx.lookup(0), &[0, 2]); // "aaa" rows
    }
}
