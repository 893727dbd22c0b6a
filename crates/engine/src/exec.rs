//! Query execution against storage, shared by the timed simulator and the
//! offline trace executor.

use crate::catalog::{Catalog, ColumnOp, QueryDef, QueryOp};
use crate::procedure::{ProcedureRegistry, Step};
use crate::sim::RequestGenerator;
use crate::txn::Cursor;
use common::{PartitionSet, ProcId, Result, Value};
use storage::{Database, Row, Shard, UndoLog};
use trace::{QueryRecord, TraceRecord, Workload};

/// A query the transaction actually executed: parameters plus the partitions
/// it touched. The advisor's runtime-update hook receives these.
#[derive(Debug, Clone)]
pub struct ExecutedQuery {
    /// Query id within the procedure.
    pub query: common::QueryId,
    /// Invocation parameters.
    pub params: Vec<Value>,
    /// Partitions the invocation touched.
    pub partitions: PartitionSet,
    /// True if it wrote.
    pub is_write: bool,
}

/// Runs `def` against one partition's shard, appending result rows.
fn run_on_partition(
    shard: &mut Shard,
    def: &QueryDef,
    params: &[Value],
    undo: &mut UndoLog,
    rows: &mut Vec<Row>,
) -> Result<()> {
    match &def.op {
        QueryOp::GetByKey { key_params } => with_key(key_params, params, |key| {
            rows.extend(shard.get(def.table, key).cloned());
        }),
        QueryOp::LookupBy { column, param } => {
            rows.extend(shard.lookup_by(def.table, *column, &params[*param]));
        }
        QueryOp::InsertRow => {
            shard.insert(def.table, params.to_vec(), undo)?;
            rows.push(params.to_vec());
        }
        QueryOp::UpdateByKey { key_params, sets } => with_key(key_params, params, |key| {
            let updated = shard.update(def.table, key, |row| apply_sets(row, sets, params), undo);
            rows.extend(updated.cloned());
        }),
        QueryOp::DeleteByKey { key_params } => with_key(key_params, params, |key| {
            rows.extend(shard.delete(def.table, key, undo));
        }),
    }
    Ok(())
}

/// Runs `f` on the primary key that `key_params` names in `params`: a slice
/// of `params` itself when the key's parameters are contiguous and in key
/// order, else a fresh copy.
fn with_key<R>(key_params: &[usize], params: &[Value], f: impl FnOnce(&[Value]) -> R) -> R {
    let first = key_params.first().copied().unwrap_or(0);
    if key_params.iter().enumerate().all(|(i, &p)| p == first + i) {
        return f(&params[first..first + key_params.len()]);
    }
    f(&key_params.iter().map(|&p| params[p].clone()).collect::<Vec<_>>())
}

/// Executes one query invocation against the database, returning the result
/// rows and the partitions touched. Writes are undo-logged into `undo`.
///
/// Missing keys on update/delete affect zero rows (empty result) rather than
/// erroring; a point select that finds nothing returns an empty result. The
/// control code decides whether that is an abort condition.
pub fn execute_query(
    db: &mut Database,
    def: &QueryDef,
    params: &[Value],
    undo: &mut UndoLog,
) -> Result<(Vec<Row>, PartitionSet)> {
    let targets = def.estimate_partitions(db, params);
    let mut rows = Vec::new();
    for p in targets.iter() {
        run_on_partition(db.shard_mut(p), def, params, undo, &mut rows)?;
    }
    Ok((rows, targets))
}

/// Executes the slice of one query invocation that targets `shard`'s
/// partition — the fragment a live worker runs. The caller (coordinator or
/// fast path) has already established that the shard is among the query's
/// target partitions. Returns this partition's result rows in partition-
/// local order; the coordinator merges fragments in ascending partition
/// order, matching [`execute_query`]'s whole-cluster row order.
pub fn execute_fragment(
    shard: &mut Shard,
    def: &QueryDef,
    params: &[Value],
    undo: &mut UndoLog,
) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    run_on_partition(shard, def, params, undo, &mut rows)?;
    Ok(rows)
}

fn apply_sets(row: &mut Row, sets: &[ColumnOp], params: &[Value]) {
    for s in sets {
        match s {
            ColumnOp::Set { column, param } => row[*column] = params[*param].clone(),
            ColumnOp::Add { column, param } => {
                let cur = row[*column].expect_int();
                row[*column] = Value::Int(cur + params[*param].expect_int());
            }
        }
    }
}

/// Outcome of an offline (untimed) execution.
#[derive(Debug, Clone)]
pub struct OfflineOutcome {
    /// The trace record: procedure args plus executed queries (paper §3.1).
    pub record: TraceRecord,
    /// Partitions the transaction touched, in aggregate.
    pub touched: PartitionSet,
    /// True if the transaction committed (false = control-code abort).
    pub committed: bool,
}

/// Runs a procedure to completion against the database with no timing — the
/// workhorse of workload-trace collection and of the Oracle advisor's
/// dry-runs. If `keep_effects` is false (dry-run) or the control code
/// aborts, all changes are rolled back.
pub fn run_offline(
    db: &mut Database,
    registry: &ProcedureRegistry,
    catalog: &Catalog,
    proc: ProcId,
    args: &[Value],
    keep_effects: bool,
) -> Result<OfflineOutcome> {
    let mut cursor = Cursor::new(registry, proc, args);
    let mut undo = UndoLog::new();
    let mut queries = Vec::new();
    // Each batch's end but the last's, pushed when the next batch starts.
    let (mut batch_ends, mut first) = (Vec::new(), true);
    let mut touched = PartitionSet::EMPTY;
    let committed = loop {
        match cursor.next() {
            Step::Queries(batch) => {
                if !std::mem::take(&mut first) {
                    batch_ends.push(queries.len());
                }
                let mut batch_results = Vec::with_capacity(batch.len());
                for inv in batch {
                    let def = catalog.proc(proc).query(inv.query);
                    let (rows, parts) = match execute_query(db, def, &inv.params, &mut undo) {
                        Ok(v) => v,
                        Err(common::Error::Constraint(msg)) => {
                            cursor.constraint(msg);
                            break;
                        }
                        Err(e) => return Err(e),
                    };
                    touched = touched.union(parts);
                    queries.push(QueryRecord { query: inv.query, params: inv.params });
                    batch_results.push(rows);
                }
                cursor.resume(batch_results);
            }
            Step::Commit => break true,
            Step::Abort(_) => break false,
        }
    };
    if !committed || !keep_effects {
        db.rollback(&mut undo)?;
    }
    let record =
        TraceRecord { proc, params: args.to_vec(), queries, batch_ends, aborted: !committed };
    Ok(OfflineOutcome { record, touched, committed })
}

/// Collects a workload trace (paper §3.1: procedure inputs plus executed
/// queries) by running `gen`'s next `n` requests offline against `db`,
/// keeping their effects. Request `i` is drawn for client `i % clients`.
/// Aborted transactions are recorded (`aborted: true`) and rolled back.
pub fn collect_trace(
    db: &mut Database,
    registry: &ProcedureRegistry,
    gen: &mut impl RequestGenerator,
    n: usize,
    clients: u64,
) -> Workload {
    let catalog = registry.catalog();
    let records = (0..n as u64)
        .map(|i| {
            let (proc, args) = gen.next_request(i % clients);
            run_offline(db, registry, &catalog, proc, &args, true)
                .expect("offline trace execution")
                .record
        })
        .collect();
    Workload { records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{PartitionHint, QueryDef, QueryOp};
    use crate::procedure::testing::{kv_database, kv_registry, multi_get};
    use crate::procedure::{Linear, QueryInvocation};

    #[test]
    fn offline_commit_mutates_when_keeping_effects() {
        let mut db = kv_database(4, 4);
        let reg = kv_registry();
        let cat = reg.catalog();
        let args = vec![Value::Array(vec![Value::Int(1), Value::Int(2)])];
        let out = run_offline(&mut db, &reg, &cat, 0, &args, true).unwrap();
        assert!(out.committed);
        assert!(!out.record.aborted);
        assert_eq!(out.record.queries.len(), 4); // 2 gets + 2 bumps
        assert_eq!(out.record.batch_ends, [2]);
        assert_eq!(out.touched, PartitionSet::from_iter([1u32, 2]));
        assert_eq!(db.get(1, 0, &[Value::Int(1)]).unwrap()[2], Value::Int(1));
    }

    #[test]
    fn offline_dry_run_rolls_back() {
        let mut db = kv_database(4, 4);
        let reg = kv_registry();
        let cat = reg.catalog();
        let args = vec![Value::Array(vec![Value::Int(1)])];
        let out = run_offline(&mut db, &reg, &cat, 0, &args, false).unwrap();
        assert!(out.committed);
        assert_eq!(db.get(1, 0, &[Value::Int(1)]).unwrap()[2], Value::Int(0));
    }

    #[test]
    fn offline_abort_rolls_back_and_flags() {
        let mut db = kv_database(4, 4);
        let reg = kv_registry();
        let cat = reg.catalog();
        // id 999 does not exist -> control code aborts after the read batch.
        let args = vec![Value::Array(vec![Value::Int(1), Value::Int(999)])];
        let out = run_offline(&mut db, &reg, &cat, 0, &args, true).unwrap();
        assert!(!out.committed);
        assert!(out.record.aborted);
        assert_eq!(db.get(1, 0, &[Value::Int(1)]).unwrap()[2], Value::Int(0));
    }

    #[test]
    fn a_constraint_abort_ends_the_last_batch_at_the_failing_query() {
        // Batch two reads id 2, then re-inserts id 0 and fails: its read of
        // id 3 never runs, and the last batch ends where the insert would be.
        let mut proc = multi_get();
        let put = QueryDef::new("PutKV", 0, QueryOp::InsertRow, PartitionHint::Param(0));
        proc.def.queries.push(put);
        proc.start = |_args| {
            let q = |query, params: &[i64]| {
                QueryInvocation::new(query, params.iter().map(|&v| Value::Int(v)).collect())
            };
            let second = vec![q(0, &[2]), q(2, &[0, 0, 0]), q(0, &[3])];
            Box::new(Linear::new(vec![(vec![q(0, &[1])], false), (second, false)]))
        };
        let reg = ProcedureRegistry::new(vec![proc]);
        let out = run_offline(&mut kv_database(4, 4), &reg, &reg.catalog(), 0, &[], true).unwrap();
        assert!(out.record.aborted);
        assert_eq!(out.record.queries.iter().map(|q| q.query).collect::<Vec<_>>(), [0, 0]);
        assert_eq!(out.record.batch_ends, [1]);
        assert_eq!(out.record.batches().map(<[_]>::len).collect::<Vec<_>>(), [1, 1]);
    }

    #[test]
    fn executed_partitions_match_resolver() {
        use trace::PartitionResolver;
        let mut db = kv_database(8, 2);
        let reg = kv_registry();
        let cat = reg.catalog();
        let resolver = crate::catalog::CatalogResolver::new(&cat, 8);
        let args = vec![Value::Array(vec![Value::Int(3), Value::Int(11)])];
        let out = run_offline(&mut db, &reg, &cat, 0, &args, true).unwrap();
        for q in &out.record.queries {
            let predicted = resolver.partitions(0, q.query, &q.params);
            assert!(predicted.is_subset(out.touched));
        }
    }

    #[test]
    fn update_on_missing_key_affects_zero_rows() {
        let mut db = kv_database(2, 2);
        let reg = kv_registry();
        let cat = reg.catalog();
        let def = cat.proc(0).query(1); // BumpKV
        let mut undo = UndoLog::new();
        let (rows, _) =
            execute_query(&mut db, def, &[Value::Int(777), Value::Int(1)], &mut undo).unwrap();
        assert!(rows.is_empty());
        assert!(undo.is_empty());
    }

    /// Requests the id equal to the client it is asked for, plus the
    /// missing id 999 (→ control-code abort) on every third call.
    struct ClientEcho {
        calls: Vec<u64>,
    }

    impl RequestGenerator for ClientEcho {
        fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
            self.calls.push(client);
            let mut ids = vec![Value::Int(client as i64)];
            if self.calls.len().is_multiple_of(3) {
                ids.push(Value::Int(999));
            }
            (0, vec![Value::Array(ids)])
        }
    }

    #[test]
    fn collect_trace_cycles_clients_and_records_aborts() {
        let mut db = kv_database(4, 4);
        let mut gen = ClientEcho { calls: Vec::new() };
        let wl = collect_trace(&mut db, &kv_registry(), &mut gen, 12, 4);
        assert_eq!(wl.len(), 12);
        assert_eq!(gen.calls, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        for (i, r) in wl.records.iter().enumerate() {
            assert_eq!(r.aborted, i % 3 == 2, "record {i}");
            assert_eq!(r.params[0].as_array().unwrap()[0], Value::Int(i as i64 % 4));
        }
        // Each id 0..4 was requested three times and aborted once: only the
        // two committed bumps are in the table.
        for id in 0..4 {
            assert_eq!(db.get(id as u32, 0, &[Value::Int(id)]).unwrap()[2], Value::Int(2));
        }
    }
}
