//! Per-vertex probability tables (paper §3.1 Fig. 5, §3.2).
//!
//! Each vertex is annotated with a table of event probabilities used to make
//! initial predictions and to refine them as the transaction executes. The
//! tables are pre-computed bottom-up (children before parents, in ascending
//! longest-path-to-terminal order) so that on-line estimation never has to
//! traverse the graph — the paper measures this optional step as saving an
//! average of 24% of on-line computation time.

use crate::model::{MarkovModel, QueryKind, VertexId};

/// Per-partition event probabilities.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionProbs {
    /// P(some future query reads data at this partition).
    pub read: f64,
    /// P(some future query writes data at this partition).
    pub write: f64,
    /// P(the transaction is finished with this partition).
    pub finish: f64,
}

/// A vertex's probability table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbTable {
    /// P(all remaining queries execute on the transaction's single partition
    /// — i.e. the transaction stays single-partitioned) (OP1).
    pub single_partition: f64,
    /// P(the transaction eventually aborts) (OP3).
    pub abort: f64,
    /// Per-partition read/write/finish probabilities (OP2, OP4).
    pub partitions: Vec<PartitionProbs>,
}

impl ProbTable {
    /// An all-zero table for `n` partitions.
    pub fn zeroed(n: u32) -> Self {
        ProbTable {
            single_partition: 0.0,
            abort: 0.0,
            partitions: vec![PartitionProbs::default(); n as usize],
        }
    }

    /// The finish probability for partition `p`.
    pub fn finish(&self, p: u32) -> f64 {
        self.partitions[p as usize].finish
    }

    /// P(partition `p` is read or written in the future).
    pub fn access(&self, p: u32) -> f64 {
        let pp = &self.partitions[p as usize];
        pp.read.max(pp.write)
    }
}

/// Computes every vertex's probability table (the §3.2 processing phase).
///
/// Terminal defaults: the commit vertex has `finish = 1` for every partition
/// and `abort = 0`; the abort vertex additionally has `abort = 1`. Interior
/// vertices combine their children's tables weighted by edge probability,
/// then override the entries for the partitions their own query touches
/// (accessed ⇒ read/write probability one, finish probability zero).
pub fn compute_tables(model: &mut MarkovModel) {
    let order = model.topological_order();
    // Children before parents.
    for &id in order.iter().rev() {
        let table = table_for(model, id);
        model.vertex_mut(id).table = table;
    }
}

fn table_for(model: &MarkovModel, id: VertexId) -> ProbTable {
    let n = model.num_partitions;
    let v = model.vertex(id);
    match v.key.kind {
        QueryKind::Commit => {
            let mut t = ProbTable::zeroed(n);
            t.single_partition = 1.0;
            for p in &mut t.partitions {
                p.finish = 1.0;
            }
            t
        }
        QueryKind::Abort => {
            let mut t = ProbTable::zeroed(n);
            t.abort = 1.0;
            t.single_partition = 1.0;
            for p in &mut t.partitions {
                p.finish = 1.0;
            }
            t
        }
        QueryKind::Begin | QueryKind::Query(_) => {
            let mut t = ProbTable::zeroed(n);
            let seen = v.key.seen();
            // Weighted sum of the children's tables.
            for e in &v.edges {
                if e.prob == 0.0 {
                    continue;
                }
                let child = model.vertex(e.to);
                let ct = &child.table;
                t.abort += e.prob * ct.abort;
                for p in 0..n as usize {
                    t.partitions[p].read += e.prob * ct.partitions[p].read;
                    t.partitions[p].write += e.prob * ct.partitions[p].write;
                    t.partitions[p].finish += e.prob * ct.partitions[p].finish;
                }
                // Single-partition recurrence: the continuation stays
                // single-partitioned iff the child terminates, or the child
                // stays inside the partitions seen so far (still at most
                // one) and itself remains single-partitioned.
                let contrib = match child.key.kind {
                    QueryKind::Commit | QueryKind::Abort => {
                        if seen.len() <= 1 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    _ => {
                        let within = if seen.is_empty() {
                            child.key.partitions.is_single()
                        } else {
                            child.key.partitions.is_subset(seen)
                        };
                        if within && seen.len() <= 1 {
                            ct.single_partition
                        } else {
                            0.0
                        }
                    }
                };
                t.single_partition += e.prob * contrib;
            }
            // Override for the partitions this vertex's query accesses.
            for p in v.key.partitions.iter() {
                let pp = &mut t.partitions[p as usize];
                if v.is_write {
                    pp.write = 1.0;
                } else {
                    pp.read = 1.0;
                }
                pp.finish = 0.0;
            }
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VertexKey;
    use common::PartitionSet;

    /// begin -> Q(p0) -> {commit 0.9, abort 0.1}
    fn linear_model() -> MarkovModel {
        let mut m = MarkovModel::new(0, 2);
        let q = m.intern(
            VertexKey {
                kind: QueryKind::Query(0),
                counter: 0,
                partitions: PartitionSet::single(0),
                previous: PartitionSet::EMPTY,
            },
            "Q".into(),
            true,
        );
        m.add_transition(m.begin(), q, 10);
        m.add_transition(q, m.commit(), 9);
        m.add_transition(q, m.abort(), 1);
        m.recompute_probabilities();
        compute_tables(&mut m);
        m
    }

    #[test]
    fn terminal_defaults() {
        let m = linear_model();
        let c = m.vertex(m.commit());
        assert_eq!(c.table.abort, 0.0);
        assert_eq!(c.table.finish(0), 1.0);
        let a = m.vertex(m.abort());
        assert_eq!(a.table.abort, 1.0);
    }

    #[test]
    fn accessed_partition_overridden() {
        let m = linear_model();
        let q = m.vertices().iter().position(|v| v.name == "Q").unwrap() as VertexId;
        let t = &m.vertex(q).table;
        assert_eq!(t.partitions[0].write, 1.0, "query writes partition 0");
        assert_eq!(t.partitions[0].finish, 0.0);
        // Partition 1 is never touched downstream: finish = 1 via children.
        assert!((t.partitions[1].finish - 1.0).abs() < 1e-12);
        assert!((t.abort - 0.1).abs() < 1e-12);
        assert!((t.single_partition - 1.0).abs() < 1e-12);
    }

    #[test]
    fn begin_aggregates_children() {
        let m = linear_model();
        let b = m.vertex(m.begin());
        assert!((b.table.abort - 0.1).abs() < 1e-12);
        // From begin, partition 0 will be written with certainty.
        assert!((b.table.partitions[0].write - 1.0).abs() < 1e-12);
        assert!((b.table.single_partition - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distributed_path_kills_single_partition_prob() {
        let mut m = MarkovModel::new(0, 2);
        let q0 = m.intern(
            VertexKey {
                kind: QueryKind::Query(0),
                counter: 0,
                partitions: PartitionSet::single(0),
                previous: PartitionSet::EMPTY,
            },
            "A".into(),
            false,
        );
        let q1 = m.intern(
            VertexKey {
                kind: QueryKind::Query(1),
                counter: 0,
                partitions: PartitionSet::single(1),
                previous: PartitionSet::single(0),
            },
            "B".into(),
            false,
        );
        m.add_transition(m.begin(), q0, 2);
        m.add_transition(q0, q1, 1);
        m.add_transition(q0, m.commit(), 1);
        m.add_transition(q1, m.commit(), 1);
        m.recompute_probabilities();
        compute_tables(&mut m);
        // From q0: 50% commit (single) + 50% go distributed.
        let t = &m.vertex(q0).table;
        assert!((t.single_partition - 0.5).abs() < 1e-12);
        // q1 was reached having seen two partitions: not single any more.
        assert_eq!(m.vertex(q1).table.single_partition, 0.0);
        // Begin's read prob for partition 1 is 0.5.
        assert!((m.vertex(m.begin()).table.partitions[1].read - 0.5).abs() < 1e-12);
    }
}
