//! The stored-procedure catalog: named parameterized queries with enough
//! metadata for the engine to execute them and for the partition-estimation
//! API (paper §3.1, reference \[5\]) to predict what they touch.

use common::{PartitionSet, ProcId, QueryId, Value};
use storage::Database;
use trace::PartitionResolver;

/// How a query's target partitions are derived from its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionHint {
    /// The parameter at this index holds the partitioning-column value; the
    /// query touches exactly that value's home partition.
    Param(usize),
    /// The query must run on every partition (e.g. TATP's lookup on a
    /// column the table is not partitioned on).
    Broadcast,
}

/// A column mutation inside an update query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnOp {
    /// `SET col = ?`
    Set { column: usize, param: usize },
    /// `SET col = col + ?`
    Add { column: usize, param: usize },
}

/// What a query does to its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOp {
    /// Point select by primary key; `key_params[i]` is the parameter index
    /// holding the i-th primary-key column.
    GetByKey { key_params: Vec<usize> },
    /// Equality select on a non-key column (parameter `param`).
    LookupBy { column: usize, param: usize },
    /// Insert; the parameters *are* the row, in schema column order.
    InsertRow,
    /// Update by primary key, applying `sets`.
    UpdateByKey { key_params: Vec<usize>, sets: Vec<ColumnOp> },
    /// Delete by primary key.
    DeleteByKey { key_params: Vec<usize> },
}

impl QueryOp {
    /// True if the operation mutates rows.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            QueryOp::InsertRow | QueryOp::UpdateByKey { .. } | QueryOp::DeleteByKey { .. }
        )
    }
}

/// One named parameterized query inside a stored procedure.
#[derive(Debug, Clone)]
pub struct QueryDef {
    /// Unique name within the procedure (e.g. `GetWarehouse`).
    pub name: String,
    /// Target table id in the [`storage::Database`].
    pub table: usize,
    /// Row operation.
    pub op: QueryOp,
    /// Partition derivation rule.
    pub hint: PartitionHint,
}

impl QueryDef {
    /// Shorthand constructor.
    pub fn new(name: &str, table: usize, op: QueryOp, hint: PartitionHint) -> Self {
        QueryDef { name: name.into(), table, op, hint }
    }

    /// True if the query writes.
    pub fn is_write(&self) -> bool {
        self.op.is_write()
    }

    /// The partitions this invocation would touch, given its parameters —
    /// this is the engine's internal partition-estimation API.
    pub fn estimate_partitions(&self, db: &Database, params: &[Value]) -> PartitionSet {
        self.estimate_partitions_n(db.num_partitions(), params)
    }

    /// [`QueryDef::estimate_partitions`] from the cluster size alone —
    /// partition routing ([`Value::home_partition`]) depends only on
    /// parameter values, so callers that do not hold the database (live
    /// coordinators, workers) get identical answers.
    pub fn estimate_partitions_n(&self, num_partitions: u32, params: &[Value]) -> PartitionSet {
        match &self.hint {
            PartitionHint::Param(i) => {
                PartitionSet::single(params[*i].home_partition(num_partitions))
            }
            PartitionHint::Broadcast => PartitionSet::all(num_partitions),
        }
    }
}

/// A stored-procedure definition: its queries plus behavioural metadata.
#[derive(Debug, Clone)]
pub struct ProcDef {
    /// Procedure name (e.g. `NewOrder`).
    pub name: String,
    /// The parameterized queries the control code may invoke.
    pub queries: Vec<QueryDef>,
    /// True if the control code never issues a write.
    pub read_only: bool,
    /// True if the control code contains an abort path (e.g. TPC-C NewOrder
    /// rolls back on an invalid item). Used by ground-truth evaluation.
    pub can_abort: bool,
}

impl ProcDef {
    /// Looks up a query id by name.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.queries.iter().position(|q| q.name == name).map(|i| i as QueryId)
    }

    /// The query definition for `id`.
    pub fn query(&self, id: QueryId) -> &QueryDef {
        &self.queries[id as usize]
    }
}

/// A benchmark's full catalog of stored procedures.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Procedure definitions, indexed by [`ProcId`].
    pub procs: Vec<ProcDef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a procedure, returning its id.
    pub fn add_proc(&mut self, def: ProcDef) -> ProcId {
        self.procs.push(def);
        (self.procs.len() - 1) as ProcId
    }

    /// Procedure id by name.
    pub fn proc_id(&self, name: &str) -> Option<ProcId> {
        self.procs.iter().position(|p| p.name == name).map(|i| i as ProcId)
    }

    /// Procedure definition by id.
    pub fn proc(&self, id: ProcId) -> &ProcDef {
        &self.procs[id as usize]
    }

    /// Number of procedures.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if no procedures are registered.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

/// Adapts a [`Catalog`] plus a cluster size into the [`PartitionResolver`]
/// interface that model generation consumes. Partition math is
/// [`Value::home_partition`] — the same rule storage routing uses, by
/// construction.
pub struct CatalogResolver<'a> {
    catalog: &'a Catalog,
    num_partitions: u32,
}

impl<'a> CatalogResolver<'a> {
    /// Wraps `catalog` for a cluster of `num_partitions` partitions.
    pub fn new(catalog: &'a Catalog, num_partitions: u32) -> Self {
        CatalogResolver { catalog, num_partitions }
    }
}

impl PartitionResolver for CatalogResolver<'_> {
    fn partitions(&self, proc: ProcId, query: QueryId, params: &[Value]) -> PartitionSet {
        let def = self.catalog.proc(proc).query(query);
        def.estimate_partitions_n(self.num_partitions, params)
    }

    fn is_write(&self, proc: ProcId, query: QueryId) -> bool {
        self.catalog.proc(proc).query(query).is_write()
    }

    fn query_name(&self, proc: ProcId, query: QueryId) -> String {
        self.catalog.proc(proc).query(query).name.clone()
    }

    fn num_partitions(&self) -> u32 {
        self.num_partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_proc(ProcDef {
            name: "P".into(),
            queries: vec![
                QueryDef {
                    name: "Get".into(),
                    table: 0,
                    op: QueryOp::GetByKey { key_params: vec![0] },
                    hint: PartitionHint::Param(0),
                },
                QueryDef {
                    name: "Find".into(),
                    table: 0,
                    op: QueryOp::LookupBy { column: 1, param: 0 },
                    hint: PartitionHint::Broadcast,
                },
                QueryDef {
                    name: "Ins".into(),
                    table: 0,
                    op: QueryOp::InsertRow,
                    hint: PartitionHint::Param(0),
                },
            ],
            read_only: false,
            can_abort: false,
        });
        c
    }

    #[test]
    fn lookup_by_name() {
        let c = catalog();
        assert_eq!(c.proc_id("P"), Some(0));
        assert_eq!(c.proc(0).query_id("Find"), Some(1));
        assert_eq!(c.proc(0).query_id("Nope"), None);
    }

    #[test]
    fn write_detection() {
        let c = catalog();
        assert!(!c.proc(0).query(0).is_write());
        assert!(c.proc(0).query(2).is_write());
    }

    #[test]
    fn resolver_param_and_broadcast() {
        let c = catalog();
        let r = CatalogResolver::new(&c, 4);
        assert_eq!(r.partitions(0, 0, &[Value::Int(5)]), PartitionSet::single(1));
        assert_eq!(r.partitions(0, 1, &[Value::Int(5)]), PartitionSet::all(4));
        assert_eq!(r.num_partitions(), 4);
        assert!(r.is_write(0, 2));
        assert_eq!(r.query_name(0, 0), "Get");
    }

    #[test]
    fn resolver_matches_database_routing() {
        let c = catalog();
        let r = CatalogResolver::new(&c, 8);
        let schemas = vec![storage::Schema::new("T", &["ID", "X"], &[0], Some(0))];
        let db = Database::new(schemas, 8, &[]);
        for v in [Value::Int(0), Value::Int(13), Value::from("abc")] {
            assert_eq!(
                r.partitions(0, 0, std::slice::from_ref(&v)),
                PartitionSet::single(db.partition_for_value(&v)),
                "value {v}"
            );
        }
    }
}
