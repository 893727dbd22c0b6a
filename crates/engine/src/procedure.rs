//! Batch-structured stored procedures.
//!
//! H-Store control code submits batches of parameterized queries and blocks
//! for their results (paper §2, Fig. 2). We model each procedure as an
//! explicit state machine: [`ProcInstance::next`] receives the previous
//! batch's results and returns either another batch, `Commit`, or `Abort`.
//! This is deterministic, allocation-light, and drives both the timed
//! simulator and the offline trace executor with identical semantics.
//!
//! A [`Procedure`] is its catalog definition plus a `start` function that
//! turns input parameters into a running instance. Control code that is a
//! fixed list of batches needs no state machine of its own — [`Linear`]
//! runs it:
//!
//! ```
//! use engine::{Linear, PartitionHint, ProcDef, Procedure, QueryDef, QueryInvocation, QueryOp};
//!
//! // GetKV(id): one point read on table 0, routed by `id`, then commit.
//! let get_kv = Procedure {
//!     def: ProcDef {
//!         name: "GetKV".into(),
//!         queries: vec![QueryDef::new(
//!             "GetKV",
//!             0,
//!             QueryOp::GetByKey { key_params: vec![0] },
//!             PartitionHint::Param(0),
//!         )],
//!         read_only: true,
//!         can_abort: false,
//!     },
//!     start: |args| Box::new(Linear::one(vec![QueryInvocation::new(0, args.to_vec())])),
//! };
//! assert_eq!(get_kv.def.query_id("GetKV"), Some(0));
//! ```
//!
//! A procedure that branches on what it read implements [`ProcInstance`]
//! on its own run state and boxes that from `start`.

use crate::catalog::ProcDef;
use common::{ProcId, QueryId, Value};
use storage::Row;

/// One query invocation inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryInvocation {
    /// Query id within the procedure's catalog entry.
    pub query: QueryId,
    /// Parameter values for this invocation.
    pub params: Vec<Value>,
}

impl QueryInvocation {
    /// Shorthand constructor.
    pub fn new(query: QueryId, params: Vec<Value>) -> Self {
        QueryInvocation { query, params }
    }
}

/// What the control code wants to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Execute these queries (conceptually in parallel) and hand back the
    /// results.
    Queries(Vec<QueryInvocation>),
    /// Commit the transaction.
    Commit,
    /// Abort the transaction (user/application abort, e.g. TPC-C invalid
    /// item).
    Abort(String),
}

/// A running invocation of a stored procedure: the control code plus its
/// local variables.
pub trait ProcInstance {
    /// Advances the control code. `results` is `None` on the first call;
    /// afterwards it holds one `Vec<Row>` per query of the previous batch,
    /// in batch order.
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step;
}

/// A stored procedure: catalog metadata plus the function that starts a
/// running instance from the input parameters.
pub struct Procedure {
    /// The procedure's catalog definition (queries, names, flags).
    pub def: ProcDef,
    /// Starts a new invocation with the given input parameters.
    pub start: fn(&[Value]) -> Box<dyn ProcInstance>,
}

/// Control code that is a fixed list of batches: hands them out in order,
/// then commits.
pub struct Linear {
    /// The opening batch, until it is issued.
    first: Option<Vec<QueryInvocation>>,
    /// The batches after it, last first, each flagged to abort instead of
    /// running when the batch before it found no rows with its first query.
    rest: Vec<(Vec<QueryInvocation>, bool)>,
}

impl Linear {
    /// Runs `batches` in order. A batch flagged `true` aborts the
    /// transaction instead if the batch before it found no rows with its
    /// first query; the opening batch's flag is never read.
    pub fn new(mut batches: Vec<(Vec<QueryInvocation>, bool)>) -> Self {
        batches.reverse();
        let first = batches.pop().map(|(batch, _)| batch);
        Linear { first, rest: batches }
    }

    /// One batch, then commit — allocates nothing beyond the batch.
    pub fn one(batch: Vec<QueryInvocation>) -> Self {
        Linear { first: Some(batch), rest: Vec::new() }
    }
}

impl ProcInstance for Linear {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        if let Some(batch) = self.first.take() {
            return Step::Queries(batch);
        }
        match self.rest.pop() {
            None => Step::Commit,
            Some((_, true)) if results.is_some_and(|rs| rs.first().is_none_or(Vec::is_empty)) => {
                Step::Abort("empty prerequisite".into())
            }
            Some((batch, _)) => Step::Queries(batch),
        }
    }
}

/// The set of procedures a benchmark registers with the engine. Procedure
/// ids index into this registry and into the matching [`crate::Catalog`].
pub struct ProcedureRegistry {
    procs: Vec<Procedure>,
}

impl ProcedureRegistry {
    /// Builds a registry; the procedures' order defines their ids.
    pub fn new(procs: Vec<Procedure>) -> Self {
        ProcedureRegistry { procs }
    }

    /// The procedure registered under `id`.
    pub fn get(&self, id: ProcId) -> &Procedure {
        &self.procs[id as usize]
    }

    /// Number of procedures.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Builds the [`crate::Catalog`] matching this registry.
    pub fn catalog(&self) -> crate::Catalog {
        crate::Catalog { procs: self.procs.iter().map(|p| p.def.clone()).collect() }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! A tiny single-table benchmark used by engine unit tests.

    use super::*;
    use crate::catalog::{ColumnOp, PartitionHint, QueryDef, QueryOp};
    use storage::{Database, Schema};

    /// Builds a 1-table database: `KV(ID, GRP, VAL)` partitioned on `ID`,
    /// pre-loaded with `rows_per_partition * parts` rows (ID = 0..n).
    pub fn kv_database(parts: u32, rows_per_partition: u32) -> Database {
        let schemas = vec![Schema::new("KV", &["ID", "GRP", "VAL"], &[0], Some(0))];
        let mut db = Database::new(schemas, parts, &[("KV", 1)]);
        let mut undo = storage::UndoLog::new();
        let n = parts * rows_per_partition;
        for i in 0..n {
            let p = db.partition_for_value(&Value::Int(i as i64));
            db.insert(
                p,
                0,
                vec![Value::Int(i as i64), Value::Int((i % 10) as i64), Value::Int(0)],
                &mut undo,
            )
            .unwrap();
        }
        db
    }

    /// Generator issuing `MultiGet` over ids that map to `spread`
    /// partitions — shared by the simulator's and the live runtime's tests.
    pub struct KvGen {
        pub spread: u32,
        pub parts: u32,
        pub counter: u64,
    }

    impl crate::sim::RequestGenerator for KvGen {
        fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
            self.counter += 1;
            let start = (client * 13 + self.counter * 7) % u64::from(self.parts);
            let ids: Vec<Value> = (0..self.spread)
                .map(|k| Value::Int(((start + u64::from(k)) % u64::from(self.parts)) as i64))
                .collect();
            (0, vec![Value::Array(ids)])
        }
    }

    /// `MultiGet` reads `ids[0..]`, then increments `VAL` on each, then
    /// commits; aborts instead if any id is missing. Query 0 = `GetKV`,
    /// query 1 = `BumpKV`.
    pub fn multi_get() -> Procedure {
        let bump = QueryOp::UpdateByKey {
            key_params: vec![0],
            sets: vec![ColumnOp::Add { column: 2, param: 1 }],
        };
        Procedure {
            def: ProcDef {
                name: "MultiGet".into(),
                queries: vec![
                    QueryDef::new(
                        "GetKV",
                        0,
                        QueryOp::GetByKey { key_params: vec![0] },
                        PartitionHint::Param(0),
                    ),
                    QueryDef::new("BumpKV", 0, bump, PartitionHint::Param(0)),
                ],
                read_only: false,
                can_abort: true,
            },
            start: |args| {
                let ids = args[0].as_array().expect("arg 0 is id array");
                let ids = ids.iter().map(Value::expect_int).collect();
                Box::new(MultiGetInstance { ids, stage: 0 })
            },
        }
    }

    struct MultiGetInstance {
        ids: Vec<i64>,
        stage: u8,
    }

    impl ProcInstance for MultiGetInstance {
        fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
            match self.stage {
                0 => {
                    self.stage = 1;
                    Step::Queries(
                        self.ids
                            .iter()
                            .map(|&id| QueryInvocation::new(0, vec![Value::Int(id)]))
                            .collect(),
                    )
                }
                1 => {
                    let results = results.unwrap();
                    if results.iter().any(|r| r.is_empty()) {
                        return Step::Abort("missing id".into());
                    }
                    self.stage = 2;
                    Step::Queries(
                        self.ids
                            .iter()
                            .map(|&id| QueryInvocation::new(1, vec![Value::Int(id), Value::Int(1)]))
                            .collect(),
                    )
                }
                _ => Step::Commit,
            }
        }
    }

    /// Registry with just `MultiGet`.
    pub fn kv_registry() -> ProcedureRegistry {
        ProcedureRegistry::new(vec![multi_get()])
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;

    #[test]
    fn registry_and_catalog_agree() {
        let reg = kv_registry();
        assert_eq!(reg.len(), 1);
        let cat = reg.catalog();
        assert_eq!(cat.proc(0).name, "MultiGet");
        assert_eq!(cat.proc(0).query_id("BumpKV"), Some(1));
    }

    #[test]
    fn state_machine_walkthrough() {
        let reg = kv_registry();
        let mut inst = (reg.get(0).start)(&[Value::Array(vec![Value::Int(1), Value::Int(2)])]);
        let s0 = inst.next(None);
        match s0 {
            Step::Queries(qs) => assert_eq!(qs.len(), 2),
            _ => panic!("expected queries"),
        }
        // Fake non-empty results.
        let fake = vec![vec![vec![Value::Int(1)]], vec![vec![Value::Int(2)]]];
        let s1 = inst.next(Some(&fake));
        assert!(matches!(s1, Step::Queries(ref qs) if qs[0].query == 1));
        let s2 = inst.next(Some(&fake));
        assert_eq!(s2, Step::Commit);
    }

    #[test]
    fn linear_issues_batches_in_order_and_checks_prerequisites() {
        let batch = |q| vec![QueryInvocation::new(q, vec![])];
        let mut lin = Linear::new(vec![(batch(0), true), (batch(1), false), (batch(2), true)]);
        let found = vec![vec![vec![Value::Int(1)]]];
        assert_eq!(lin.next(None), Step::Queries(batch(0)));
        assert_eq!(lin.next(Some(&[vec![]])), Step::Queries(batch(1)));
        assert_eq!(lin.next(Some(&found)), Step::Queries(batch(2)));
        assert_eq!(lin.next(Some(&found)), Step::Commit);

        let mut lin = Linear::new(vec![(batch(0), false), (batch(1), true)]);
        lin.next(None);
        assert!(matches!(lin.next(Some(&[vec![]])), Step::Abort(_)));
        let mut one = Linear::one(batch(0));
        assert_eq!(one.next(None), Step::Queries(batch(0)));
        assert_eq!(one.next(Some(&[vec![]])), Step::Commit);
    }

    #[test]
    fn abort_on_missing() {
        let reg = kv_registry();
        let mut inst = (reg.get(0).start)(&[Value::Array(vec![Value::Int(1)])]);
        inst.next(None);
        let empty = vec![vec![]];
        assert!(matches!(inst.next(Some(&empty)), Step::Abort(_)));
    }
}
