//! Table schemas.

/// A column definition. Types are dynamic ([`common::Value`]); the schema
/// only needs names and roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, e.g. `W_ID`.
    pub name: String,
}

impl Column {
    /// Shorthand constructor.
    pub fn new(name: &str) -> Self {
        Column { name: name.to_owned() }
    }
}

/// A table schema: name, columns, primary key, and the partitioning column.
///
/// Horizontal partitioning is by a single column (the paper partitions TPC-C
/// by warehouse id, §2.1). Tables whose partitioning column is `None` are
/// *replicated* to every partition (read-anywhere, write-everywhere); TATP's
/// broadcast-first procedures exercise the non-partitioning-column lookup
/// path instead, so replication here is used only for small read-mostly
/// dimension tables (e.g. TPC-C `ITEM`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
    /// Indices (into `columns`) of the primary-key columns, in key order.
    pub primary_key: Vec<usize>,
    /// Index of the partitioning column, or `None` for replicated tables.
    pub partitioning_column: Option<usize>,
}

impl Schema {
    /// Builds a schema. Panics on an empty key or out-of-range indices —
    /// schemas are static catalog data, so this is a programming error.
    pub fn new(
        name: &str,
        columns: &[&str],
        primary_key: &[usize],
        partitioning_column: Option<usize>,
    ) -> Self {
        assert!(!primary_key.is_empty(), "table {name} needs a primary key");
        for &k in primary_key {
            assert!(k < columns.len(), "pk column {k} out of range in {name}");
        }
        if let Some(pc) = partitioning_column {
            assert!(pc < columns.len(), "partitioning column out of range in {name}");
        }
        Schema {
            name: name.to_owned(),
            columns: columns.iter().map(|c| Column::new(c)).collect(),
            primary_key: primary_key.to_vec(),
            partitioning_column,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let s = Schema::new("WAREHOUSE", &["W_ID", "W_NAME", "W_YTD"], &[0], Some(0));
        assert_eq!(s.arity(), 3);
        assert_eq!(s.columns[1], Column::new("W_NAME"));
        assert_eq!(s.partitioning_column, Some(0));
    }

    #[test]
    #[should_panic(expected = "primary key")]
    fn empty_pk_panics() {
        Schema::new("X", &["A"], &[], None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pk_panics() {
        Schema::new("X", &["A"], &[3], None);
    }
}
