//! Initial execution-path estimation (paper §4.2).
//!
//! Given a new transaction's procedure arguments, Houdini walks the Markov
//! model from `begin`. At each state it enumerates the successor states and
//! predicts each candidate query's partitions through the parameter mapping:
//!
//! * If the mapping resolves the query's routing parameter, the partitions
//!   are *known* regardless of which partition-variant vertices the training
//!   trace happened to contain — so all successor vertices of the same
//!   `(query, counter)` shape merge into one candidate whose probability is
//!   their sum and whose partitions come from the mapping. This is what lets
//!   a model trained on a finite trace generalize to partition combinations
//!   it never saw (the §4.6 state-space explosion would otherwise dead-end
//!   the walk).
//! * If the mapping proves the invocation impossible (an array parameter
//!   shorter than the invocation counter), the transition is invalid.
//! * If the parameter is unmapped (derived from query results, like TATP's
//!   broadcast-then-lookup), the candidate keeps the model's historical
//!   partitions and is only followed when nothing better exists — the
//!   uncertainty the paper discusses in §4.6.
//!
//! Valid candidates win over uncertain ones; within a class the heaviest
//! (renormalized) edge is followed, which makes the confidence coefficient
//! the product of `P(chosen | feasible)` along the path — always-single-
//! partition procedures therefore keep confidence 1.0 and survive any
//! threshold below one (Fig. 13).

use crate::model::{MarkovModel, QueryKind, VertexId};
use common::{FxHashMap, PartitionId, PartitionSet, QueryId, Value};
use mapping::{ProcMapping, Resolve};

/// How a model query maps its parameters to partitions — the slice of the
/// engine catalog that path estimation needs. Implemented by Houdini over
/// the engine's catalog; tests provide toy rules.
pub trait QueryPartitionRule {
    /// `Some(param index)` if the query routes on one parameter; `None` if
    /// it broadcasts to every partition.
    fn partition_param(&self, query: QueryId) -> Option<usize>;
    /// Home partition of a concrete routing value.
    fn partition_of(&self, v: &Value) -> PartitionId;
    /// Cluster size.
    fn num_partitions(&self) -> u32;
}

/// Estimation knobs.
#[derive(Debug, Clone)]
pub struct EstimateConfig {
    /// Hard cap on path length; §4.6 puts the practical limit near 175–200
    /// queries per transaction.
    pub max_states: usize,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig { max_states: 500 }
    }
}

/// The initial path estimate and everything the optimization selection
/// (§4.3) derives from it.
#[derive(Debug, Clone)]
pub struct PathEstimate {
    /// Model vertices visited. When the exact `(query, counter, partitions,
    /// previous)` state is missing from the model, the shape-matching proxy
    /// vertex is recorded instead (its probability table still describes
    /// the control flow from that point).
    pub vertices: Vec<VertexId>,
    /// Product of `P(chosen | feasible)` along the path — the confidence
    /// coefficient.
    pub confidence: f64,
    /// Partitions the transaction is predicted to touch.
    pub touched: PartitionSet,
    /// Per-partition confidence at first touch (OP2's lock-set confidence).
    pub partition_confidence: FxHashMap<PartitionId, f64>,
    /// Number of accesses per partition along the path (OP1's base-partition
    /// vote).
    pub access_counts: FxHashMap<PartitionId, u32>,
    /// Greatest abort probability across the visited states' tables (OP3).
    pub abort_prob: f64,
    /// True if the path reached the commit vertex.
    pub reached_commit: bool,
    /// True if the path reached the abort vertex.
    pub reached_abort: bool,
    /// Transitions chosen by edge weight alone because no candidate could
    /// be validated through the mapping.
    pub uncertain_steps: u32,
    /// Partitions of feasible-but-not-taken candidate states: alternative
    /// branches the transaction could still take (the §4.6 ambiguity). Undo
    /// logging must stay on while these can leave the predicted lock set.
    pub alt_partitions: PartitionSet,
    /// Candidate transitions examined — the work measure used to charge
    /// simulated estimation time.
    pub states_examined: u32,
    /// Query id of each estimated step, aligned with `vertices[1..]`
    /// (terminal steps excluded).
    pub step_queries: Vec<QueryId>,
    /// Predicted partitions of each estimated step, aligned with
    /// `step_queries`.
    pub step_partitions: Vec<PartitionSet>,
}

impl PathEstimate {
    /// The partition accessed most along the path (OP1's base choice),
    /// lowest id on ties.
    pub fn best_base(&self) -> Option<PartitionId> {
        self.access_counts.iter().max_by_key(|(p, c)| (**c, u32::MAX - **p)).map(|(p, _)| *p)
    }
}

/// A merged candidate transition.
struct Candidate {
    kind: QueryKind,
    /// Predicted partitions (mapping-derived when resolved, the model's
    /// historical partitions otherwise; empty for terminals).
    partitions: PartitionSet,
    /// Summed probability over the merged successor vertices.
    prob: f64,
    /// Representative vertex (exact-match preferred, else first edge).
    proxy: VertexId,
    /// Whether an exact vertex match exists for the predicted partitions.
    exact: Option<VertexId>,
    valid: bool,
}

fn merge_candidate(cands: &mut Vec<Candidate>, new: Candidate) {
    if let Some(c) = cands
        .iter_mut()
        .find(|c| c.kind == new.kind && c.partitions == new.partitions && c.valid == new.valid)
    {
        c.prob += new.prob;
        if c.exact.is_none() {
            if let Some(id) = new.exact {
                c.exact = Some(id);
                c.proxy = id;
            }
        }
        return;
    }
    cands.push(new);
}

/// Maps NaN below every real number for `f64::total_cmp`-based max
/// selection, so degenerate probabilities lose rather than crash or win.
/// (`total_cmp` alone would rank positive NaN above +∞.)
pub(crate) fn nan_as_lowest(p: f64) -> f64 {
    if p.is_nan() {
        f64::NEG_INFINITY
    } else {
        p
    }
}

/// Tie-break rank: queries > commit > abort.
fn rank(kind: QueryKind) -> u8 {
    match kind {
        QueryKind::Query(_) => 2,
        QueryKind::Commit => 1,
        QueryKind::Begin | QueryKind::Abort => 0,
    }
}

/// Walks the model to produce the initial path estimate for `args`.
pub fn estimate_path(
    model: &MarkovModel,
    rule: &dyn QueryPartitionRule,
    mapping: &ProcMapping,
    args: &[Value],
    cfg: &EstimateConfig,
) -> PathEstimate {
    let mut est = PathEstimate {
        vertices: vec![model.begin()],
        confidence: 1.0,
        touched: PartitionSet::EMPTY,
        partition_confidence: FxHashMap::default(),
        access_counts: FxHashMap::default(),
        abort_prob: model.vertex(model.begin()).table.abort,
        reached_commit: false,
        reached_abort: false,
        uncertain_steps: 0,
        alt_partitions: PartitionSet::EMPTY,
        states_examined: 0,
        step_queries: Vec::new(),
        step_partitions: Vec::new(),
    };
    let mut counters: FxHashMap<QueryId, u16> = FxHashMap::default();
    let mut prev = PartitionSet::EMPTY;
    let mut cur = model.begin();

    for _ in 0..cfg.max_states {
        let v = model.vertex(cur);
        // Successor edges come from the current vertex plus, when the
        // current vertex is not itself the best-observed state of its
        // shape, from that shape proxy: control flow is shape-determined,
        // and an exact vertex trained from a handful of records can miss
        // skeleton edges (e.g. "InsertOrder follows the 6th CheckStock")
        // that other partition-variants of the same position have.
        let proxy_edges: &[crate::model::Edge] = model
            .shape_proxy_any(v.key.kind, v.key.counter)
            .filter(|&pid| pid != cur)
            .map(|pid| model.vertex(pid).edges.as_slice())
            .unwrap_or(&[]);
        // Build merged candidates from the successor edges.
        let mut cands: Vec<Candidate> = Vec::new();
        for e in v.edges.iter().chain(proxy_edges.iter()) {
            // Skip untrained edges: live placeholders (§4.4) carry no
            // probabilities or tables until maintenance folds them in.
            if e.prob == 0.0 {
                continue;
            }
            est.states_examined += 1;
            let child = model.vertex(e.to);
            match child.key.kind {
                QueryKind::Begin => {}
                QueryKind::Commit | QueryKind::Abort => {
                    merge_candidate(
                        &mut cands,
                        Candidate {
                            kind: child.key.kind,
                            partitions: PartitionSet::EMPTY,
                            prob: e.prob,
                            proxy: e.to,
                            exact: Some(e.to),
                            valid: true,
                        },
                    );
                }
                QueryKind::Query(q) => {
                    let expected = counters.get(&q).copied().unwrap_or(0);
                    if child.key.counter != expected {
                        continue;
                    }
                    match rule.partition_param(q) {
                        None => {
                            // Broadcast: partitions known without mapping.
                            let all = PartitionSet::all(rule.num_partitions());
                            let exact = (child.key.partitions == all && child.key.previous == prev)
                                .then_some(e.to);
                            merge_candidate(
                                &mut cands,
                                Candidate {
                                    kind: child.key.kind,
                                    partitions: all,
                                    prob: e.prob,
                                    proxy: e.to,
                                    exact,
                                    valid: true,
                                },
                            );
                        }
                        Some(pi) => {
                            match mapping.resolve_detail(q, u32::from(expected), pi, args) {
                                Resolve::Value(val) => {
                                    let predicted = PartitionSet::single(rule.partition_of(&val));
                                    let exact = (child.key.partitions == predicted
                                        && child.key.previous == prev)
                                        .then_some(e.to);
                                    merge_candidate(
                                        &mut cands,
                                        Candidate {
                                            kind: child.key.kind,
                                            partitions: predicted,
                                            prob: e.prob,
                                            proxy: e.to,
                                            exact,
                                            valid: true,
                                        },
                                    );
                                }
                                Resolve::OutOfRange => {}
                                Resolve::Unmapped => {
                                    // Historical partitions; each variant is its
                                    // own uncertain candidate, and path
                                    // consistency still applies.
                                    if child.key.previous == prev {
                                        merge_candidate(
                                            &mut cands,
                                            Candidate {
                                                kind: child.key.kind,
                                                partitions: child.key.partitions,
                                                prob: e.prob,
                                                proxy: e.to,
                                                exact: Some(e.to),
                                                valid: false,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Valid candidates preempt uncertain ones; within the class, pick
        // the heaviest, breaking ties towards continuing, then commit.
        let any_valid = cands.iter().any(|c| c.valid);
        let denom: f64 = cands.iter().filter(|c| c.valid == any_valid).map(|c| c.prob).sum();
        let chosen = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.valid == any_valid)
            .max_by(|(_, a), (_, b)| {
                // total_cmp so a degenerate (NaN) probability table cannot
                // abort the estimate; NaN sorts below every real weight.
                nan_as_lowest(a.prob)
                    .total_cmp(&nan_as_lowest(b.prob))
                    .then_with(|| rank(a.kind).cmp(&rank(b.kind)))
            })
            .map(|(i, _)| i);
        let Some(chosen_idx) = chosen else {
            break; // dead end: incomplete estimate
        };
        let chosen = &cands[chosen_idx];
        if !chosen.valid {
            est.uncertain_steps += 1;
        }
        est.confidence *= if denom > 0.0 { chosen.prob / denom } else { 0.0 };
        // Alternative feasible branches that were not taken.
        let chosen_parts = chosen.partitions;
        let chosen_kind = chosen.kind;
        for c in cands.iter().filter(|c| c.valid == any_valid) {
            if c.kind != chosen_kind || c.partitions != chosen_parts {
                est.alt_partitions = est.alt_partitions.union(c.partitions);
            }
        }
        est.alt_partitions = est.alt_partitions.difference(chosen_parts);

        let next = chosen.exact.unwrap_or(chosen.proxy);
        est.vertices.push(next);
        est.abort_prob = est.abort_prob.max(model.vertex(next).table.abort);
        match chosen_kind {
            QueryKind::Commit => {
                est.reached_commit = true;
                break;
            }
            QueryKind::Abort => {
                est.reached_abort = true;
                break;
            }
            QueryKind::Query(q) => {
                *counters.entry(q).or_insert(0) += 1;
                est.step_queries.push(q);
                est.step_partitions.push(chosen_parts);
                for p in chosen_parts.iter() {
                    *est.access_counts.entry(p).or_insert(0) += 1;
                    est.partition_confidence.entry(p).or_insert(est.confidence);
                }
                est.touched = est.touched.union(chosen_parts);
                prev = prev.union(chosen_parts);
            }
            QueryKind::Begin => unreachable!("begin has no incoming edges"),
        }
        cur = next;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_model;
    use common::ProcId;
    use mapping::build_mapping;
    use trace::{PartitionResolver, QueryRecord, TraceRecord};

    /// Toy NewOrder: q0 = GetW(w), q1 = Check(i, w_i) repeated, q2 = Ins(w).
    struct ToyRule {
        parts: u32,
    }

    impl QueryPartitionRule for ToyRule {
        fn partition_param(&self, query: QueryId) -> Option<usize> {
            match query {
                0 => Some(0),
                1 => Some(1),
                2 => Some(0),
                _ => None,
            }
        }
        fn partition_of(&self, v: &Value) -> PartitionId {
            (v.expect_int().unsigned_abs() % u64::from(self.parts)) as PartitionId
        }
        fn num_partitions(&self) -> u32 {
            self.parts
        }
    }

    struct ToyResolver {
        parts: u32,
    }

    impl PartitionResolver for ToyResolver {
        fn partitions(&self, _p: ProcId, q: QueryId, params: &[Value]) -> PartitionSet {
            let rule = ToyRule { parts: self.parts };
            match rule.partition_param(q) {
                Some(pi) => PartitionSet::single(rule.partition_of(&params[pi])),
                None => PartitionSet::all(self.parts),
            }
        }
        fn is_write(&self, _p: ProcId, q: QueryId) -> bool {
            q == 2
        }
        fn query_name(&self, _p: ProcId, q: QueryId) -> String {
            ["GetW", "Check", "Ins"][q as usize].into()
        }
        fn num_partitions(&self) -> u32 {
            self.parts
        }
    }

    fn record(w: i64, item_ws: &[i64], aborted: bool) -> TraceRecord {
        let mut queries = vec![QueryRecord { query: 0, params: vec![Value::Int(w)] }];
        for (k, &iw) in item_ws.iter().enumerate() {
            queries.push(QueryRecord {
                query: 1,
                params: vec![Value::Int(1000 + k as i64), Value::Int(iw)],
            });
        }
        if !aborted {
            queries.push(QueryRecord { query: 2, params: vec![Value::Int(w)] });
        }
        TraceRecord {
            proc: 0,
            params: vec![
                Value::Int(w),
                Value::Array((0..item_ws.len()).map(|k| Value::Int(1000 + k as i64)).collect()),
                Value::Array(item_ws.iter().map(|&x| Value::Int(x)).collect()),
            ],
            queries,
            batch_ends: Vec::new(),
            aborted,
        }
    }

    fn fixture(parts: u32) -> (MarkovModel, ProcMapping) {
        // Mostly local single-item and two-item orders, some remote.
        let mut records = Vec::new();
        for t in 0..120i64 {
            let w = t % i64::from(parts);
            // t % 5 cycles against t % parts so every warehouse sees every
            // behaviour: 20% remote orders, 20% aborts, 60% local.
            match t % 5 {
                0 => records.push(record(w, &[w, (w + 1) % i64::from(parts)], false)),
                1 => records.push(record(w, &[w], true)),
                _ => records.push(record(w, &[w, w], false)),
            }
        }
        let refs: Vec<&TraceRecord> = records.iter().collect();
        let model = build_model(0, &refs, &ToyResolver { parts });
        let mapping = build_mapping(&refs);
        (model, mapping)
    }

    fn args(w: i64, item_ws: &[i64]) -> Vec<Value> {
        vec![
            Value::Int(w),
            Value::Array((0..item_ws.len()).map(|k| Value::Int(1000 + k as i64)).collect()),
            Value::Array(item_ws.iter().map(|&x| Value::Int(x)).collect()),
        ]
    }

    #[test]
    fn local_order_estimated_single_partition() {
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(2, &[2, 2]), &EstimateConfig::default());
        assert!(est.reached_commit);
        assert_eq!(est.touched, PartitionSet::single(2));
        assert_eq!(est.best_base(), Some(2));
        assert!(est.confidence > 0.3, "confidence {}", est.confidence);
        assert_eq!(est.uncertain_steps, 0);
    }

    #[test]
    fn remote_item_estimated_distributed() {
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(1, &[1, 2]), &EstimateConfig::default());
        assert!(est.reached_commit);
        assert_eq!(est.touched, PartitionSet::from_iter([1u32, 2]));
        assert_eq!(est.best_base(), Some(1), "w=1 accessed most");
    }

    #[test]
    fn generalizes_to_unseen_partition_combination() {
        // Training only contains remote items at (w+1) % parts; a request
        // with a remote item two partitions away has no exact vertex, but
        // the mapping pins the partitions, so the estimate must still be
        // complete and correct (the §4.6 state-space-explosion case).
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(1, &[1, 3]), &EstimateConfig::default());
        assert!(est.reached_commit, "walk must not dead-end");
        assert_eq!(est.touched, PartitionSet::from_iter([1u32, 3]));
        assert_eq!(est.uncertain_steps, 0);
    }

    #[test]
    fn array_length_bounds_loop() {
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(3, &[3]), &EstimateConfig::default());
        assert!(est.reached_commit || est.reached_abort);
        let names: Vec<&str> =
            est.vertices.iter().map(|&v| model.vertex(v).name.as_str()).collect();
        let checks = names.iter().filter(|n| **n == "Check").count();
        assert_eq!(checks, 1, "path {names:?}");
    }

    #[test]
    fn abort_probability_from_tables() {
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(0, &[0, 0]), &EstimateConfig::default());
        // ~20% of training records aborted (after the first Check).
        assert!(est.abort_prob > 0.05 && est.abort_prob < 0.5, "{}", est.abort_prob);
    }

    #[test]
    fn partition_confidence_monotone() {
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(1, &[1, 2]), &EstimateConfig::default());
        let c1 = est.partition_confidence[&1];
        let c2 = est.partition_confidence[&2];
        assert!(c1 >= c2, "earlier-touched partition has higher confidence");
        assert!(est.confidence <= c2);
    }

    #[test]
    fn max_states_caps_walk() {
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est = estimate_path(
            &model,
            &rule,
            &mapping,
            &args(1, &[1, 1]),
            &EstimateConfig { max_states: 1 },
        );
        assert!(!est.reached_commit);
        assert_eq!(est.vertices.len(), 2); // begin + one state
    }

    #[test]
    fn merged_candidates_sum_probabilities() {
        // From Check(c0), the training distribution splits between local
        // and remote second items plus aborts. With the mapping resolving
        // the second item to one partition, the Check variants merge: the
        // chosen Check candidate's renormalized probability must exceed
        // any single variant's raw edge probability.
        let (model, mapping) = fixture(4);
        let rule = ToyRule { parts: 4 };
        let est =
            estimate_path(&model, &rule, &mapping, &args(0, &[0, 1]), &EstimateConfig::default());
        assert!(est.reached_commit);
        // Confidence = P(Check | feasible) at the branch point; Check takes
        // 0.8 of the mass (0.2 abort), so the confidence stays well above
        // the raw remote-variant edge probability (0.2).
        assert!(est.confidence > 0.5, "confidence {}", est.confidence);
    }

    #[test]
    fn nan_edge_probabilities_do_not_abort_estimation() {
        // Regression: the candidate-selection comparator panicked on NaN.
        let (mut model, mapping) = fixture(4);
        let n = model.len() as VertexId;
        for id in 0..n {
            for e in &mut model.vertex_mut(id).edges {
                e.prob = f64::NAN;
            }
        }
        let rule = ToyRule { parts: 4 };
        // Must terminate without panicking; the walk still traverses the
        // graph (candidates all tie at the NaN floor) or dead-ends.
        let est =
            estimate_path(&model, &rule, &mapping, &args(1, &[1]), &EstimateConfig::default());
        assert!(est.states_examined > 0);
    }
}
