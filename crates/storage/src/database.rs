//! The partitioned database: all table slices across all partitions.
//!
//! Physically the database is a set of [`Shard`]s — one per partition, each
//! owning that partition's slice of every table. The [`Database`] facade
//! keeps the whole-cluster API the simulator and loaders use; the live
//! runtime calls [`Database::into_shards`] to hand each worker thread
//! exclusive ownership of its shard (shards are `Send`), and
//! [`Database::from_shards`] to reassemble the cluster afterwards.

use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::undo::{UndoLog, UndoRecord};
use common::{Error, FxHashMap, PartitionId, Result, Value};
use std::sync::Arc;

/// Cluster-wide immutable metadata shared by every shard.
#[derive(Debug)]
pub struct DbMeta {
    schemas: Vec<Schema>,
    by_name: FxHashMap<String, usize>,
    num_partitions: u32,
}

impl DbMeta {
    /// Number of partitions in the cluster.
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// Table id for `name`.
    pub fn table_id(&self, name: &str) -> Result<usize> {
        self.by_name.get(name).copied().ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// Schema of table `id`.
    pub fn schema(&self, id: usize) -> &Schema {
        &self.schemas[id]
    }

    /// All schemas.
    pub fn schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// Maps a partitioning-column value to its home partition — the shared
    /// routing rule [`Value::home_partition`], the deterministic stand-in
    /// for H-Store's hash partitioning.
    pub fn partition_for_value(&self, v: &Value) -> PartitionId {
        v.home_partition(self.num_partitions)
    }
}

/// One partition's horizontal slice of every table, owned by exactly one
/// execution engine at a time. `Send` so the live runtime can move each
/// shard onto its worker thread (paper §2, Fig. 1: single-threaded engines
/// with exclusive data access).
#[derive(Debug)]
pub struct Shard {
    partition: PartitionId,
    tables: Vec<Table>,
    meta: Arc<DbMeta>,
}

impl Shard {
    /// The partition this shard stores.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Shared cluster metadata (schemas, routing).
    pub fn meta(&self) -> &Arc<DbMeta> {
        &self.meta
    }

    /// Raw access to one table slice.
    pub fn table(&self, table: usize) -> &Table {
        &self.tables[table]
    }

    /// Inserts `row` into `table`, logging undo.
    pub fn insert(&mut self, table: usize, row: Row, undo: &mut UndoLog) -> Result<()> {
        let schema = &self.meta.schemas[table];
        let key = self.tables[table].insert(schema, row)?;
        undo.record(UndoRecord::Inserted { partition: self.partition, table, key });
        Ok(())
    }

    /// Point read by primary key.
    pub fn get(&self, table: usize, key: &[Value]) -> Option<&Row> {
        self.tables[table].get(key)
    }

    /// In-place update by primary key, logging the pre-image.
    pub fn update(
        &mut self,
        table: usize,
        key: &[Value],
        f: impl FnOnce(&mut Row),
        undo: &mut UndoLog,
    ) -> Result<()> {
        let before = self.tables[table].update(key, f)?;
        undo.record(UndoRecord::Updated {
            partition: self.partition,
            table,
            key: key.to_vec(),
            before,
        });
        Ok(())
    }

    /// Delete by primary key, logging the pre-image.
    pub fn delete(&mut self, table: usize, key: &[Value], undo: &mut UndoLog) -> Result<Row> {
        let before = self.tables[table]
            .delete(key)
            .ok_or_else(|| Error::NotFound(format!("key {key:?}")))?;
        undo.record(UndoRecord::Deleted {
            partition: self.partition,
            table,
            key: key.to_vec(),
            before: before.clone(),
        });
        Ok(before)
    }

    /// Equality lookup on an arbitrary column.
    pub fn lookup_by(&self, table: usize, column: usize, value: &Value) -> Vec<Row> {
        self.tables[table].lookup_by(column, value).into_iter().cloned().collect()
    }

    /// Rolls back every change recorded in `undo`, in reverse order. Every
    /// record must belong to this shard's partition — the live runtime keeps
    /// one undo log per participating shard.
    pub fn rollback(&mut self, undo: &mut UndoLog) -> Result<()> {
        if !undo.can_rollback() {
            return Err(Error::UnrecoverableAbort { txn: 0 });
        }
        let records: Vec<UndoRecord> = undo.drain_for_rollback().collect();
        for rec in records {
            apply_undo(&mut self.tables, self.partition, rec);
        }
        Ok(())
    }

    /// Every table's rows, cloned in sorted order: the shard's snapshot
    /// payload, deterministic for a given shard state.
    pub fn snapshot_rows(&self) -> Vec<Vec<Row>> {
        self.tables.iter().map(Table::sorted_rows).collect()
    }

    /// Replaces every table's contents with the given rows, rebuilding
    /// secondary indexes (recovery: load a snapshot image under this
    /// shard's existing catalog).
    pub fn restore_tables(&mut self, tables: Vec<Vec<Row>>) {
        assert_eq!(tables.len(), self.tables.len(), "snapshot table count mismatch");
        for (id, rows) in tables.into_iter().enumerate() {
            self.tables[id].restore(&self.meta.schemas[id], rows);
        }
    }
}

fn apply_undo(tables: &mut [Table], shard_partition: PartitionId, rec: UndoRecord) {
    match rec {
        UndoRecord::Inserted { partition, table, key } => {
            debug_assert_eq!(partition, shard_partition, "undo record crossed shards");
            tables[table].delete(&key);
        }
        UndoRecord::Updated { partition, table, key, before }
        | UndoRecord::Deleted { partition, table, key, before } => {
            debug_assert_eq!(partition, shard_partition, "undo record crossed shards");
            tables[table].put(key, before);
        }
    }
}

/// A shared-nothing, horizontally partitioned in-memory database.
///
/// Layout is `shards[partition].tables[table]`. Every mutation takes an
/// [`UndoLog`] so the caller (the execution engine) can roll back aborts;
/// loaders pass a throwaway log.
pub struct Database {
    meta: Arc<DbMeta>,
    shards: Vec<Shard>,
}

impl Database {
    /// Creates an empty database with the given schemas and partition count.
    /// `secondary_indexes` lists `(table_name, column)` pairs to index.
    pub fn new(
        schemas: Vec<Schema>,
        num_partitions: u32,
        secondary_indexes: &[(&str, usize)],
    ) -> Self {
        assert!((1..=common::PartitionSet::MAX_PARTITIONS).contains(&num_partitions));
        let by_name: FxHashMap<String, usize> =
            schemas.iter().enumerate().map(|(i, s)| (s.name.clone(), i)).collect();
        assert_eq!(by_name.len(), schemas.len(), "duplicate table names");
        let meta = Arc::new(DbMeta { schemas, by_name, num_partitions });
        let mut shards = Vec::with_capacity(num_partitions as usize);
        for p in 0..num_partitions {
            let mut tables: Vec<Table> = (0..meta.schemas.len()).map(|_| Table::new()).collect();
            for (name, col) in secondary_indexes {
                let id = meta.by_name[*name];
                tables[id].add_secondary_index(*col);
            }
            shards.push(Shard { partition: p, tables, meta: Arc::clone(&meta) });
        }
        Database { meta, shards }
    }

    /// Splits the database into its per-partition shards (live runtime:
    /// one worker thread takes ownership of each).
    pub fn into_shards(self) -> Vec<Shard> {
        self.shards
    }

    /// Reassembles a database from the shards of one cluster. Shards may
    /// arrive in any order; they must form exactly the partitions
    /// `0..num_partitions` of the same database.
    pub fn from_shards(mut shards: Vec<Shard>) -> Self {
        assert!(!shards.is_empty(), "no shards");
        shards.sort_by_key(Shard::partition);
        let meta = Arc::clone(&shards[0].meta);
        assert_eq!(shards.len() as u32, meta.num_partitions, "missing shards");
        for (p, s) in shards.iter().enumerate() {
            assert_eq!(s.partition, p as PartitionId, "duplicate or foreign shard");
            assert!(Arc::ptr_eq(&s.meta, &meta), "shards from different databases");
        }
        Database { meta, shards }
    }

    /// Shared cluster metadata (schemas, partition routing).
    pub fn meta(&self) -> &Arc<DbMeta> {
        &self.meta
    }

    /// Borrow of one shard (assertions, diagnostics).
    pub fn shard(&self, partition: PartitionId) -> &Shard {
        &self.shards[partition as usize]
    }

    /// Mutable borrow of one shard: the per-partition query executor runs
    /// against a [`Shard`], whether a worker owns it or the whole
    /// `Database` does.
    pub fn shard_mut(&mut self, partition: PartitionId) -> &mut Shard {
        &mut self.shards[partition as usize]
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u32 {
        self.meta.num_partitions
    }

    /// Table id for `name`.
    pub fn table_id(&self, name: &str) -> Result<usize> {
        self.meta.table_id(name)
    }

    /// Schema of table `id`.
    pub fn schema(&self, id: usize) -> &Schema {
        self.meta.schema(id)
    }

    /// All schemas.
    pub fn schemas(&self) -> &[Schema] {
        self.meta.schemas()
    }

    /// Maps a partitioning-column value to its home partition (see
    /// [`DbMeta::partition_for_value`]).
    pub fn partition_for_value(&self, v: &Value) -> PartitionId {
        self.meta.partition_for_value(v)
    }

    /// Raw access to one table slice (loaders, assertions).
    pub fn table(&self, partition: PartitionId, table: usize) -> &Table {
        self.shards[partition as usize].table(table)
    }

    /// Inserts `row` into `table` at `partition`, logging undo.
    pub fn insert(
        &mut self,
        partition: PartitionId,
        table: usize,
        row: Row,
        undo: &mut UndoLog,
    ) -> Result<()> {
        self.shards[partition as usize].insert(table, row, undo)
    }

    /// Point read by primary key.
    pub fn get(&self, partition: PartitionId, table: usize, key: &[Value]) -> Option<&Row> {
        self.shards[partition as usize].get(table, key)
    }

    /// In-place update by primary key, logging the pre-image.
    pub fn update(
        &mut self,
        partition: PartitionId,
        table: usize,
        key: &[Value],
        f: impl FnOnce(&mut Row),
        undo: &mut UndoLog,
    ) -> Result<()> {
        self.shards[partition as usize].update(table, key, f, undo)
    }

    /// Delete by primary key, logging the pre-image.
    pub fn delete(
        &mut self,
        partition: PartitionId,
        table: usize,
        key: &[Value],
        undo: &mut UndoLog,
    ) -> Result<Row> {
        self.shards[partition as usize].delete(table, key, undo)
    }

    /// Equality lookup on an arbitrary column within one partition.
    pub fn lookup_by(
        &self,
        partition: PartitionId,
        table: usize,
        column: usize,
        value: &Value,
    ) -> Vec<Row> {
        self.shards[partition as usize].lookup_by(table, column, value)
    }

    /// Rolls back every change recorded in `undo`, in reverse order. Unlike
    /// [`Shard::rollback`] the records may span partitions.
    pub fn rollback(&mut self, undo: &mut UndoLog) -> Result<()> {
        if !undo.can_rollback() {
            return Err(Error::UnrecoverableAbort { txn: 0 });
        }
        let records: Vec<UndoRecord> = undo.drain_for_rollback().collect();
        for rec in records {
            let p = match &rec {
                UndoRecord::Inserted { partition, .. }
                | UndoRecord::Updated { partition, .. }
                | UndoRecord::Deleted { partition, .. } => *partition,
            };
            let shard = &mut self.shards[p as usize];
            apply_undo(&mut shard.tables, p, rec);
        }
        Ok(())
    }

    /// Total row count of one table across all partitions.
    pub fn total_rows(&self, table: usize) -> usize {
        self.shards.iter().map(|s| s.tables[table].len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let schemas = vec![
            Schema::new("A", &["ID", "V"], &[0], Some(0)),
            Schema::new("B", &["ID", "REF", "V"], &[0], Some(1)),
        ];
        Database::new(schemas, 4, &[("B", 1)])
    }

    #[test]
    fn partition_for_int_is_modulo() {
        let d = db();
        assert_eq!(d.partition_for_value(&Value::Int(0)), 0);
        assert_eq!(d.partition_for_value(&Value::Int(5)), 1);
        assert_eq!(d.partition_for_value(&Value::Int(7)), 3);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut d = db();
        let mut undo = UndoLog::new();
        let t = d.table_id("A").unwrap();
        d.insert(0, t, vec![Value::Int(1), Value::Int(10)], &mut undo).unwrap();
        assert_eq!(d.get(0, t, &[Value::Int(1)]).unwrap()[1], Value::Int(10));
        assert!(d.get(1, t, &[Value::Int(1)]).is_none(), "other partition empty");
    }

    #[test]
    fn rollback_restores_everything() {
        let mut d = db();
        let t = d.table_id("A").unwrap();
        let mut setup = UndoLog::new();
        d.insert(0, t, vec![Value::Int(1), Value::Int(10)], &mut setup).unwrap();
        d.insert(0, t, vec![Value::Int(2), Value::Int(20)], &mut setup).unwrap();

        let mut undo = UndoLog::new();
        d.insert(0, t, vec![Value::Int(3), Value::Int(30)], &mut undo).unwrap();
        d.update(0, t, &[Value::Int(1)], |r| r[1] = Value::Int(99), &mut undo).unwrap();
        d.delete(0, t, &[Value::Int(2)], &mut undo).unwrap();

        d.rollback(&mut undo).unwrap();
        assert!(d.get(0, t, &[Value::Int(3)]).is_none());
        assert_eq!(d.get(0, t, &[Value::Int(1)]).unwrap()[1], Value::Int(10));
        assert_eq!(d.get(0, t, &[Value::Int(2)]).unwrap()[1], Value::Int(20));
    }

    #[test]
    fn rollback_without_undo_is_fatal() {
        let mut d = db();
        let t = d.table_id("A").unwrap();
        let mut undo = UndoLog::disabled();
        d.insert(0, t, vec![Value::Int(1), Value::Int(10)], &mut undo).unwrap();
        assert!(matches!(d.rollback(&mut undo), Err(Error::UnrecoverableAbort { .. })));
    }

    #[test]
    fn secondary_lookup() {
        let mut d = db();
        let t = d.table_id("B").unwrap();
        let mut undo = UndoLog::new();
        for i in 0..6i64 {
            d.insert(
                (i % 4) as u32,
                t,
                vec![Value::Int(i), Value::Int(i % 2), Value::Int(i)],
                &mut undo,
            )
            .unwrap();
        }
        // partition 0 holds ids 0 and 4, both with REF = 0.
        let rows = d.lookup_by(0, t, 1, &Value::Int(0));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn total_rows_sums_partitions() {
        let mut d = db();
        let t = d.table_id("A").unwrap();
        let mut undo = UndoLog::new();
        for i in 0..10i64 {
            let p = d.partition_for_value(&Value::Int(i));
            d.insert(p, t, vec![Value::Int(i), Value::Int(0)], &mut undo).unwrap();
        }
        assert_eq!(d.total_rows(t), 10);
    }

    #[test]
    fn shards_split_and_reassemble() {
        let mut d = db();
        let t = d.table_id("A").unwrap();
        let mut undo = UndoLog::new();
        for i in 0..8i64 {
            let p = d.partition_for_value(&Value::Int(i));
            d.insert(p, t, vec![Value::Int(i), Value::Int(i)], &mut undo).unwrap();
        }
        let mut shards = d.into_shards();
        assert_eq!(shards.len(), 4);
        // Shards are independently ownable: mutate one in isolation.
        let mut frag_undo = UndoLog::new();
        shards[2].update(t, &[Value::Int(2)], |r| r[1] = Value::Int(77), &mut frag_undo).unwrap();
        // Out-of-order reassembly is fine.
        shards.reverse();
        let d = Database::from_shards(shards);
        assert_eq!(d.get(2, t, &[Value::Int(2)]).unwrap()[1], Value::Int(77));
        assert_eq!(d.total_rows(t), 8);
    }

    #[test]
    fn shard_rollback_is_local() {
        let mut d = db();
        let t = d.table_id("A").unwrap();
        let mut undo = UndoLog::new();
        d.insert(1, t, vec![Value::Int(1), Value::Int(10)], &mut undo).unwrap();
        let mut shards = d.into_shards();
        let mut frag = UndoLog::new();
        shards[1].update(t, &[Value::Int(1)], |r| r[1] = Value::Int(0), &mut frag).unwrap();
        shards[1].rollback(&mut frag).unwrap();
        let d = Database::from_shards(shards);
        assert_eq!(d.get(1, t, &[Value::Int(1)]).unwrap()[1], Value::Int(10));
    }

    #[test]
    fn shards_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard>();
    }
}
