//! A single partition's slice of one table.

use crate::index::SecondaryIndex;
use crate::schema::Schema;
use common::{Error, FxHashMap, Result, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// A primary-key value (one `Value` per key column, in schema key order).
/// Shared: a row's key is stored once, and every secondary index entry for
/// the row points at that copy.
pub type Key = Arc<[Value]>;
/// A row (one `Value` per column, in schema order).
pub type Row = Vec<Value>;

/// One partition's rows for one table, indexed by primary key, plus any
/// secondary indexes. All access is single-threaded by construction — the
/// engine guarantees a partition is touched by one transaction at a time,
/// which is exactly the H-Store execution model the paper builds on.
#[derive(Debug, Default)]
pub struct Table {
    rows: FxHashMap<Key, Row>,
    secondary: Vec<SecondaryIndex>,
    /// The indexed columns' values before an update that keeps no
    /// pre-image, one per secondary index; a field so its buffer is reused.
    indexed_before: Vec<Value>,
}

impl Table {
    /// Creates an empty table slice.
    pub fn new() -> Self {
        Table::default()
    }

    /// Adds a secondary index on `column`. Must be called before rows are
    /// inserted (catalog setup time).
    pub fn add_secondary_index(&mut self, column: usize) {
        assert!(self.rows.is_empty(), "add indexes before loading");
        self.secondary.push(SecondaryIndex::new(column));
    }

    /// Extracts the primary key of `row` under `schema`.
    pub fn key_of(schema: &Schema, row: &Row) -> Key {
        schema.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Number of rows stored in this slice.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the slice holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row and returns its stored key; errors on duplicate
    /// primary key.
    pub fn insert(&mut self, schema: &Schema, row: Row) -> Result<Key> {
        if row.len() != schema.arity() {
            return Err(Error::Constraint(format!(
                "row arity {} != schema arity {} for {}",
                row.len(),
                schema.arity(),
                schema.name
            )));
        }
        match self.rows.entry(Self::key_of(schema, &row)) {
            Entry::Occupied(slot) => Err(Error::Constraint(format!(
                "duplicate primary key {:?} in {}",
                slot.key(),
                schema.name
            ))),
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                for idx in &mut self.secondary {
                    idx.insert(&row, &key);
                }
                slot.insert(row);
                Ok(key)
            }
        }
    }

    /// Point lookup by primary key.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Updates the row at `key` in place via `f` and returns it, with a
    /// copy of the row as it was if `preimage` is set (the undo pre-image);
    /// `None` if no row has `key`. Secondary indexes are kept consistent
    /// even if `f` modifies indexed columns; without a pre-image only the
    /// indexed columns' values are copied for that.
    pub fn update(
        &mut self,
        key: &[Value],
        preimage: bool,
        f: impl FnOnce(&mut Row),
    ) -> Option<(&Row, Option<Row>)> {
        let row = self.rows.get_mut(key)?;
        let before = preimage.then(|| row.clone());
        self.indexed_before.clear();
        if before.is_none() {
            self.indexed_before.extend(self.secondary.iter().map(|idx| row[idx.column()].clone()));
        }
        f(row);
        for (i, idx) in self.secondary.iter_mut().enumerate() {
            let old = match &before {
                Some(before) => &before[idx.column()],
                None => &self.indexed_before[i],
            };
            idx.update(old, &row[idx.column()], key);
        }
        Some((row, before))
    }

    /// Overwrites the row stored at `key` (used by undo). Inserts if absent.
    pub fn put(&mut self, key: Key, row: Row) {
        match self.rows.get_mut(&key) {
            Some(slot) => {
                for idx in &mut self.secondary {
                    idx.update(&slot[idx.column()], &row[idx.column()], &key);
                }
                *slot = row;
            }
            None => {
                for idx in &mut self.secondary {
                    idx.insert(&row, &key);
                }
                self.rows.insert(key, row);
            }
        }
    }

    /// Deletes a row; returns its stored key and pre-image if present.
    pub fn delete(&mut self, key: &[Value]) -> Option<(Key, Row)> {
        let (key, row) = self.rows.remove_entry(key)?;
        for idx in &mut self.secondary {
            idx.remove(&row, &key);
        }
        Some((key, row))
    }

    /// Looks up rows whose `column` equals `value`, in primary-key order:
    /// via a secondary index if one exists (its keys are already in that
    /// order), otherwise by a full scan of this slice and a sort.
    pub fn lookup_by(&self, column: usize, value: &Value) -> Vec<&Row> {
        if let Some(idx) = self.secondary.iter().find(|i| i.column() == column) {
            idx.get(value).into_iter().flatten().filter_map(|k| self.rows.get(k)).collect()
        } else {
            let mut matches: Vec<(&Key, &Row)> =
                self.rows.iter().filter(|(_, r)| &r[column] == value).collect();
            matches.sort_by(|a, b| a.0.cmp(b.0));
            matches.into_iter().map(|(_, r)| r).collect()
        }
    }

    /// True if a secondary index covers `column`, so `lookup_by` on it
    /// takes no scan.
    pub fn is_indexed(&self, column: usize) -> bool {
        self.secondary.iter().any(|i| i.column() == column)
    }

    /// Iterates all rows (test/loader support; deterministic order not
    /// guaranteed).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Row)> {
        self.rows.iter()
    }

    /// All rows cloned in sorted order — the deterministic serialization
    /// a snapshot writes.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self.rows.values().cloned().collect();
        rows.sort();
        rows
    }

    /// Replaces this slice's contents wholesale with `rows`, rebuilding
    /// every secondary index from scratch (snapshot restore).
    pub fn restore(&mut self, schema: &Schema, rows: Vec<Row>) {
        self.rows.clear();
        let columns: Vec<usize> = self.secondary.iter().map(SecondaryIndex::column).collect();
        self.secondary = columns.into_iter().map(SecondaryIndex::new).collect();
        for row in rows {
            let key = Self::key_of(schema, &row);
            for idx in &mut self.secondary {
                idx.insert(&row, &key);
            }
            self.rows.insert(key, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("T", &["ID", "GRP", "VAL"], &[0], Some(0))
    }

    fn row(id: i64, grp: i64, val: i64) -> Row {
        vec![Value::Int(id), Value::Int(grp), Value::Int(val)]
    }

    #[test]
    fn insert_get_delete() {
        let s = schema();
        let mut t = Table::new();
        t.insert(&s, row(1, 10, 100)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[Value::Int(1)]).unwrap()[2], Value::Int(100));
        assert!(t.delete(&[Value::Int(1)]).is_some());
        assert!(t.is_empty());
        assert!(t.delete(&[Value::Int(1)]).is_none());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let s = schema();
        let mut t = Table::new();
        t.insert(&s, row(1, 10, 100)).unwrap();
        assert!(matches!(t.insert(&s, row(1, 11, 101)), Err(Error::Constraint(_))));
    }

    #[test]
    fn arity_checked() {
        let s = schema();
        let mut t = Table::new();
        assert!(t.insert(&s, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn update_returns_preimage() {
        let s = schema();
        let mut t = Table::new();
        t.insert(&s, row(1, 10, 100)).unwrap();
        let (after, before) = t.update(&[Value::Int(1)], true, |r| r[2] = Value::Int(999)).unwrap();
        assert_eq!(after[2], Value::Int(999));
        assert_eq!(before.unwrap()[2], Value::Int(100));
        assert_eq!(t.get(&[Value::Int(1)]).unwrap()[2], Value::Int(999));
        let (_, before) = t.update(&[Value::Int(1)], false, |r| r[2] = Value::Int(5)).unwrap();
        assert!(before.is_none(), "no pre-image was asked for");
        assert!(t.update(&[Value::Int(7)], true, |_| {}).is_none());
    }

    #[test]
    fn lookup_by_full_scan() {
        let s = schema();
        let mut t = Table::new();
        for i in 0..10 {
            t.insert(&s, row(i, i % 2, i * 10)).unwrap();
        }
        let evens = t.lookup_by(1, &Value::Int(0));
        assert_eq!(evens.len(), 5);
    }

    #[test]
    fn lookup_by_secondary_index_matches_scan() {
        let s = schema();
        let mut indexed = Table::new();
        indexed.add_secondary_index(1);
        let mut plain = Table::new();
        for i in 0..20 {
            indexed.insert(&s, row(i, i % 3, i)).unwrap();
            plain.insert(&s, row(i, i % 3, i)).unwrap();
        }
        for g in 0..3 {
            let a: Vec<Row> = indexed.lookup_by(1, &Value::Int(g)).into_iter().cloned().collect();
            let b: Vec<Row> = plain.lookup_by(1, &Value::Int(g)).into_iter().cloned().collect();
            assert_eq!(a, b, "group {g}");
        }
    }

    #[test]
    fn index_follows_updates_and_deletes() {
        let s = schema();
        let mut t = Table::new();
        t.add_secondary_index(1);
        t.insert(&s, row(1, 5, 0)).unwrap();
        t.update(&[Value::Int(1)], true, |r| r[1] = Value::Int(6)).unwrap();
        assert!(t.lookup_by(1, &Value::Int(5)).is_empty());
        assert_eq!(t.lookup_by(1, &Value::Int(6)).len(), 1);
        t.update(&[Value::Int(1)], false, |r| r[1] = Value::Int(5)).unwrap();
        assert!(t.lookup_by(1, &Value::Int(6)).is_empty());
        t.update(&[Value::Int(1)], false, |r| r[1] = Value::Int(6)).unwrap();
        assert_eq!(t.lookup_by(1, &Value::Int(6)).len(), 1);
        t.delete(&[Value::Int(1)]);
        assert!(t.lookup_by(1, &Value::Int(6)).is_empty());
    }

    #[test]
    fn put_restores_row_and_index() {
        let s = schema();
        let mut t = Table::new();
        t.add_secondary_index(1);
        t.insert(&s, row(1, 5, 0)).unwrap();
        let key: Key = [Value::Int(1)].into();
        let pre = t.get(&key).unwrap().clone();
        t.update(&key, false, |r| r[1] = Value::Int(9)).unwrap();
        t.put(key.clone(), pre);
        assert_eq!(t.lookup_by(1, &Value::Int(5)).len(), 1);
        assert!(t.lookup_by(1, &Value::Int(9)).is_empty());
    }
}
