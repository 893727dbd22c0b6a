//! Ordered secondary (non-unique) indexes.
//!
//! An index entry shares its row's primary key with the table, and moving
//! a row between buckets takes only the indexed column's old and new
//! values. An OP3 write (undo off), which copies no pre-image, therefore
//! still keeps every index consistent.

use crate::table::{Key, Row};
use common::{FxHashMap, Value};
use std::collections::BTreeSet;

/// A non-unique index from one column's value to the primary keys holding
/// it, each value's keys kept in primary-key order. TATP's `SUB_NBR → S_ID`
/// lookup, TPC-C's undelivered-order and order-line lookups and
/// AuctionMark's seller-items lookup use these; without one, `lookup_by`
/// falls back to a partition-local scan.
///
/// The order is the one every lookup result is defined in, so an indexed
/// lookup maps the keys straight to rows and never sorts.
#[derive(Debug)]
pub struct SecondaryIndex {
    column: usize,
    map: FxHashMap<Value, BTreeSet<Key>>,
}

impl SecondaryIndex {
    /// New empty index on `column`.
    pub fn new(column: usize) -> Self {
        SecondaryIndex { column, map: FxHashMap::default() }
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Registers `row` (stored under `key`, which the index shares).
    pub fn insert(&mut self, row: &Row, key: &Key) {
        self.add(&row[self.column], key.clone());
    }

    /// Unregisters `row`.
    pub fn remove(&mut self, row: &Row, key: &[Value]) {
        self.take(&row[self.column], key);
    }

    /// Moves `key` from `before`'s bucket to `after`'s if the indexed
    /// column's value changed; both are that column's values, not rows.
    pub fn update(&mut self, before: &Value, after: &Value, key: &[Value]) {
        if before != after {
            if let Some(key) = self.take(before, key) {
                self.add(after, key);
            }
        }
    }

    /// All keys whose indexed column equals `value`, in primary-key order.
    pub fn get(&self, value: &Value) -> Option<impl Iterator<Item = &Key>> {
        self.map.get(value).map(|s| s.iter())
    }

    /// Number of distinct indexed values.
    pub fn cardinality(&self) -> usize {
        self.map.len()
    }

    fn add(&mut self, value: &Value, key: Key) {
        match self.map.get_mut(value) {
            Some(set) => {
                set.insert(key);
            }
            None => {
                self.map.insert(value.clone(), BTreeSet::from([key]));
            }
        }
    }

    /// Removes `key` from `value`'s bucket, returning the shared key.
    fn take(&mut self, value: &Value, key: &[Value]) -> Option<Key> {
        let set = self.map.get_mut(value)?;
        let key = set.take(key);
        if set.is_empty() {
            self.map.remove(value);
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> Key {
        [Value::Int(v)].into()
    }

    #[test]
    fn insert_get_remove() {
        let mut idx = SecondaryIndex::new(1);
        let r1 = vec![Value::Int(1), Value::from("a")];
        let r2 = vec![Value::Int(2), Value::from("a")];
        idx.insert(&r1, &k(1));
        idx.insert(&r2, &k(2));
        assert_eq!(idx.get(&Value::from("a")).unwrap().count(), 2);
        assert_eq!(idx.cardinality(), 1);
        idx.remove(&r1, &k(1));
        assert_eq!(idx.get(&Value::from("a")).unwrap().count(), 1);
        idx.remove(&r2, &k(2));
        assert!(idx.get(&Value::from("a")).is_none());
        assert_eq!(idx.cardinality(), 0);
    }

    #[test]
    fn update_moves_buckets() {
        let mut idx = SecondaryIndex::new(1);
        let before = vec![Value::Int(1), Value::Int(10)];
        idx.insert(&before, &k(1));
        idx.update(&before[1], &Value::Int(20), &k(1));
        assert!(idx.get(&Value::Int(10)).is_none());
        assert_eq!(idx.get(&Value::Int(20)).unwrap().count(), 1);
    }

    #[test]
    fn update_same_value_is_noop() {
        let mut idx = SecondaryIndex::new(0);
        let r = vec![Value::Int(5)];
        idx.insert(&r, &k(5));
        idx.update(&r[0], &r[0], &k(5));
        assert_eq!(idx.get(&Value::Int(5)).unwrap().count(), 1);
    }

    #[test]
    fn keys_come_in_primary_key_order() {
        let mut idx = SecondaryIndex::new(1);
        for id in [7, 3, 11, 5, 2] {
            idx.insert(&vec![Value::Int(id), Value::Int(0)], &k(id));
        }
        let keys: Vec<&Key> = idx.get(&Value::Int(0)).unwrap().collect();
        assert_eq!(keys, [&k(2), &k(3), &k(5), &k(7), &k(11)]);
    }
}
