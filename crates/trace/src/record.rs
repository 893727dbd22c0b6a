//! Trace record types and the partition-resolution hook.

use common::{PartitionSet, ProcId, QueryId, Value};

/// One query invocation inside a transaction record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query id within the stored procedure's catalog entry.
    pub query: QueryId,
    /// The query input parameter values for this invocation.
    pub params: Vec<Value>,
}

/// One transaction in a workload trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Stored procedure id within the benchmark catalog.
    pub proc: ProcId,
    /// The procedure input parameters sent by the client.
    pub params: Vec<Value>,
    /// The queries the transaction executed, in order.
    pub queries: Vec<QueryRecord>,
    /// Where each batch of `queries` but the last ends (exclusive), in
    /// order; the last batch runs to the end of `queries`. A one-batch
    /// record, or a hand-built one, leaves this empty.
    pub batch_ends: Vec<usize>,
    /// True if the transaction ended in the abort state.
    pub aborted: bool,
}

impl TraceRecord {
    /// Number of queries executed.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the transaction executed no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, batch by batch, as the control code submitted them.
    pub fn batches(&self) -> impl Iterator<Item = &[QueryRecord]> {
        let ends = self.batch_ends.iter().copied().chain([self.len()]);
        ends.scan(0, |start, end| Some(&self.queries[std::mem::replace(start, end)..end]))
    }
}

/// Resolves which partitions a query invocation touches under the *current*
/// cluster configuration — the paper's "DBMS internal API" (\[5\], §3.1). The
/// engine's catalog implements this; model generation and Houdini both call
/// it.
pub trait PartitionResolver {
    /// The set of partitions `query` of `proc` accesses given `params`.
    fn partitions(&self, proc: ProcId, query: QueryId, params: &[Value]) -> PartitionSet;
    /// True if the query writes (insert/update/delete).
    fn is_write(&self, proc: ProcId, query: QueryId) -> bool;
    /// Human-readable query name (for model display/DOT export).
    fn query_name(&self, proc: ProcId, query: QueryId) -> String;
    /// Number of partitions in the configuration being resolved against.
    fn num_partitions(&self) -> u32;
}

/// A full sample workload: many transaction records, possibly spanning many
/// procedures.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The transaction records, in collection order.
    pub records: Vec<TraceRecord>,
}

impl Workload {
    /// Number of transaction records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the workload holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records belonging to one stored procedure, in order.
    pub fn for_proc(&self, proc: ProcId) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.proc == proc).collect()
    }

    /// Distinct procedure ids present, ascending.
    pub fn procs(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.records.iter().map(|r| r.proc).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(proc: ProcId, n: usize) -> TraceRecord {
        TraceRecord {
            proc,
            params: vec![Value::Int(proc as i64)],
            queries: (0..n)
                .map(|i| QueryRecord { query: i as QueryId, params: vec![Value::Int(i as i64)] })
                .collect(),
            batch_ends: vec![1],
            aborted: false,
        }
    }

    #[test]
    fn workload_filtering() {
        let w = Workload { records: vec![rec(0, 1), rec(1, 2), rec(0, 3)] };
        assert_eq!(w.len(), 3);
        assert_eq!(w.for_proc(0).len(), 2);
        assert_eq!(w.for_proc(1).len(), 1);
        assert_eq!(w.procs(), vec![0, 1]);
    }

    #[test]
    fn record_len() {
        assert_eq!(rec(0, 4).len(), 4);
        assert!(!rec(0, 4).is_empty());
    }

    #[test]
    fn the_last_batch_runs_to_the_end_of_the_queries() {
        let lens = |r: &TraceRecord| r.batches().map(<[_]>::len).collect::<Vec<_>>();
        assert_eq!(lens(&rec(0, 4)), [1, 3]);
        assert_eq!(lens(&TraceRecord { batch_ends: vec![1, 1], ..rec(0, 4) }), [1, 0, 3]);
        assert_eq!(lens(&TraceRecord { batch_ends: Vec::new(), ..rec(0, 4) }), [4]);
    }
}
