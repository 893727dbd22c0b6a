//! Model generation from a workload trace (paper §3.2, construction phase).

use crate::model::{MarkovModel, VertexCursor};
use crate::ptable::compute_tables;
use common::ProcId;
use trace::{PartitionResolver, TraceRecord};

/// Builds one stored procedure's Markov model from its trace records.
///
/// Construction phase: every record's query sequence is re-resolved against
/// the target cluster configuration (the resolver implements the DBMS's
/// internal partition-estimation API) and walked through the graph, creating
/// vertices and counting edges. Processing phase: edge probabilities are
/// normalized and the per-vertex probability tables pre-computed.
pub fn build_model(
    proc: ProcId,
    records: &[&TraceRecord],
    resolver: &dyn PartitionResolver,
) -> MarkovModel {
    let mut model = MarkovModel::new(proc, resolver.num_partitions());
    for rec in records {
        add_record(&mut model, rec, resolver);
    }
    model.recompute_probabilities();
    compute_tables(&mut model);
    model
}

/// Walks one record through the model, creating vertices/edges as needed.
/// Exposed for incremental/maintenance use.
pub fn add_record(model: &mut MarkovModel, rec: &TraceRecord, resolver: &dyn PartitionResolver) {
    debug_assert_eq!(rec.proc, model.proc);
    let mut cursor = VertexCursor::default();
    let mut cur = model.begin();
    for q in &rec.queries {
        let partitions = resolver.partitions(rec.proc, q.query, &q.params);
        let key = cursor.next_key(q.query, partitions);
        let name = resolver.query_name(rec.proc, q.query);
        let is_write = resolver.is_write(rec.proc, q.query);
        let next = model.intern(key, name, is_write);
        model.add_transition(cur, next, 1);
        cur = next;
    }
    let terminal = if rec.aborted { model.abort() } else { model.commit() };
    model.add_transition(cur, terminal, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{PartitionSet, QueryId, Value};
    use trace::QueryRecord;

    /// A resolver for a toy procedure: query 0 routes on param 0 (modulo),
    /// query 1 broadcasts; query 2 writes on param 0.
    struct ToyResolver {
        parts: u32,
    }

    impl PartitionResolver for ToyResolver {
        fn partitions(&self, _p: ProcId, q: QueryId, params: &[Value]) -> PartitionSet {
            match q {
                1 => PartitionSet::all(self.parts),
                _ => PartitionSet::single(
                    (params[0].expect_int().unsigned_abs() % u64::from(self.parts)) as u32,
                ),
            }
        }
        fn is_write(&self, _p: ProcId, q: QueryId) -> bool {
            q == 2
        }
        fn query_name(&self, _p: ProcId, q: QueryId) -> String {
            format!("Q{q}")
        }
        fn num_partitions(&self) -> u32 {
            self.parts
        }
    }

    fn rec(queries: Vec<(QueryId, i64)>, aborted: bool) -> TraceRecord {
        TraceRecord {
            proc: 0,
            params: vec![],
            queries: queries
                .into_iter()
                .map(|(q, v)| QueryRecord { query: q, params: vec![Value::Int(v)] })
                .collect(),
            batch_ends: Vec::new(),
            aborted,
        }
    }

    #[test]
    fn single_record_linear_chain() {
        let r = rec(vec![(0, 1), (2, 1)], false);
        let m = build_model(0, &[&r], &ToyResolver { parts: 4 });
        // begin, commit, abort + 2 query states.
        assert_eq!(m.len(), 5);
        // begin -> Q0 with probability 1.
        let b = m.vertex(m.begin());
        assert_eq!(b.edges.len(), 1);
        assert!((b.edges[0].prob - 1.0).abs() < 1e-12);
        // Chain ends at commit.
        let q2 = m.vertices().iter().position(|v| v.name == "Q2").unwrap() as u32;
        assert!(m.vertex(q2).edge_to(m.commit()).is_some());
        assert!(m.vertex(q2).is_write);
    }

    #[test]
    fn counter_distinguishes_repeats() {
        let r = rec(vec![(0, 1), (0, 1)], false);
        let m = build_model(0, &[&r], &ToyResolver { parts: 4 });
        let q0s: Vec<_> = m.vertices().iter().filter(|v| v.name == "Q0").collect();
        assert_eq!(q0s.len(), 2);
        let counters: Vec<u16> = q0s.iter().map(|v| v.key.counter).collect();
        assert!(counters.contains(&0) && counters.contains(&1));
    }

    #[test]
    fn partitions_distinguish_states() {
        // Same query, different partition -> different vertices; the
        // begin vertex's edge probabilities split accordingly.
        let r1 = rec(vec![(0, 0)], false);
        let r2 = rec(vec![(0, 1)], false);
        let r3 = rec(vec![(0, 0)], false);
        let m = build_model(0, &[&r1, &r2, &r3], &ToyResolver { parts: 4 });
        let b = m.vertex(m.begin());
        assert_eq!(b.edges.len(), 2);
        let mut probs: Vec<f64> = b.edges.iter().map(|e| e.prob).collect();
        probs.sort_by(f64::total_cmp);
        assert!((probs[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((probs[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn previous_set_accumulates() {
        let r = rec(vec![(0, 0), (0, 1)], false);
        let m = build_model(0, &[&r], &ToyResolver { parts: 4 });
        let second = m.vertices().iter().find(|v| v.name == "Q0" && v.key.counter == 1).unwrap();
        assert_eq!(second.key.previous, PartitionSet::single(0));
        assert_eq!(second.key.partitions, PartitionSet::single(1));
    }

    #[test]
    fn aborted_record_edges_to_abort() {
        let r = rec(vec![(0, 1)], true);
        let m = build_model(0, &[&r], &ToyResolver { parts: 4 });
        let q = m.vertices().iter().position(|v| v.name == "Q0").unwrap() as u32;
        assert!(m.vertex(q).edge_to(m.abort()).is_some());
        // Abort probability propagates into begin's table.
        assert!((m.vertex(m.begin()).table.abort - 1.0).abs() < 1e-12);
    }

    #[test]
    fn broadcast_query_touches_all() {
        let r = rec(vec![(1, 0), (0, 2)], false);
        let m = build_model(0, &[&r], &ToyResolver { parts: 4 });
        let bq = m.vertices().iter().find(|v| v.name == "Q1").unwrap();
        assert_eq!(bq.key.partitions.len(), 4);
        let follow = m.vertices().iter().find(|v| v.name == "Q0").unwrap();
        assert_eq!(follow.key.previous.len(), 4);
    }

    #[test]
    fn empty_transaction_goes_straight_to_terminal() {
        let r = rec(vec![], false);
        let m = build_model(0, &[&r], &ToyResolver { parts: 2 });
        assert!(m.vertex(m.begin()).edge_to(m.commit()).is_some());
    }

    #[test]
    fn hundreds_of_records_stay_compact() {
        // NewOrder-style: the state space is bounded by distinct
        // (query, counter, partitions, previous) combinations, not by the
        // number of records.
        let records: Vec<TraceRecord> =
            (0..500).map(|i| rec(vec![(0, i % 2), (2, i % 2)], false)).collect();
        let refs: Vec<&TraceRecord> = records.iter().collect();
        let m = build_model(0, &refs, &ToyResolver { parts: 2 });
        assert_eq!(m.len(), 3 + 4);
    }
}
