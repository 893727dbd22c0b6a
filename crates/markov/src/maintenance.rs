//! On-line model maintenance (paper §4.5).
//!
//! As transactions execute, Houdini tracks their actual paths through the
//! model and increments per-edge visit counters. As long as the observed
//! transition choices stay close to the model's expectations, nothing
//! happens; once accuracy over the recent window drops below a threshold
//! (the paper uses 75%), the edge probabilities and probability tables are
//! recomputed from the live counters — a cheap (≤ 5 ms in the paper)
//! operation that adapts the model to workload drift without regeneration.

use crate::model::{MarkovModel, QueryKind, VertexCursor, VertexId, VertexKey};
use crate::ptable::compute_tables;
use common::{FxHashMap, PartitionSet, QueryId};
use trace::PartitionResolver;

/// A state observed live but absent from the trained model: interned as a
/// placeholder vertex into the *next* epoch's model by
/// [`ModelMonitor::recompute`] (the live model itself is never mutated).
#[derive(Debug, Clone)]
pub struct PendingState {
    /// Display name of the query.
    pub name: String,
    /// Whether the query writes data.
    pub is_write: bool,
}

/// Tracks one model's on-line accuracy and triggers recomputation.
///
/// There is one §4.5 regime, shared by the simulator and the live runtime:
/// the maintainer replays each transaction's feedback path against the
/// current *read-only* predictor epoch ([`ModelMonitor::observe_walk`]),
/// accumulating transition deltas and pending placeholder states on the
/// side. When [`ModelMonitor::is_stale`] fires, the maintainer clones the
/// drifted model and calls [`ModelMonitor::recompute`] on the clone, which
/// interns the placeholders, folds the deltas, recomputes every
/// probability and table, and leaves the clone ready to publish as the
/// next epoch. The live runtime drives this from its maintenance thread;
/// the simulator drives the same maintainer synchronously at teardown.
#[derive(Debug, Clone)]
pub struct ModelMonitor {
    /// Observed transitions since the last recomputation.
    observed: u64,
    /// Of those, how many took the model's argmax edge.
    matched: u64,
    /// Accuracy floor below which probabilities are recomputed.
    pub threshold: f64,
    /// Minimum observations before accuracy is judged.
    pub min_window: u64,
    /// Recomputations performed so far.
    pub recomputations: u64,
    /// Live-feedback transition deltas since the last recomputation, keyed
    /// by vertex-key pair so they can be replayed into *any* future clone
    /// of the model (vertex ids are epoch-local, keys are not).
    live_transitions: FxHashMap<(VertexKey, VertexKey), u64>,
    /// States observed live that the trained model lacks, waiting to be
    /// interned into the next epoch.
    pending: FxHashMap<VertexKey, PendingState>,
}

impl Default for ModelMonitor {
    fn default() -> Self {
        ModelMonitor {
            observed: 0,
            matched: 0,
            threshold: 0.75,
            min_window: 200,
            recomputations: 0,
            live_transitions: FxHashMap::default(),
            pending: FxHashMap::default(),
        }
    }
}

/// A transaction's live walk through its model, used both to detect
/// deviation from the initial estimate and to feed maintenance counters.
#[derive(Debug)]
pub struct PathTracker {
    cur: VertexId,
    cursor: VertexCursor,
    path: Vec<VertexId>,
}

impl PathTracker {
    /// Starts a walk at `begin`.
    pub fn new(model: &MarkovModel) -> Self {
        PathTracker {
            cur: model.begin(),
            cursor: VertexCursor::default(),
            path: vec![model.begin()],
        }
    }

    /// Current vertex.
    pub fn current(&self) -> VertexId {
        self.cur
    }

    /// Vertices visited so far.
    pub fn path(&self) -> &[VertexId] {
        &self.path
    }

    /// Advances the walk with an actually-executed query, creating a
    /// placeholder vertex if the state was never seen in training (§4.4).
    /// Returns the new vertex id.
    pub fn advance(
        &mut self,
        model: &mut MarkovModel,
        query: QueryId,
        partitions: PartitionSet,
        resolver: &dyn PartitionResolver,
    ) -> VertexId {
        let key = self.cursor.next_key(query, partitions);
        let name = resolver.query_name(model.proc, query);
        let is_write = resolver.is_write(model.proc, query);
        let next = model.intern(key, name, is_write);
        model.observe_transition(self.cur, next);
        self.path.push(next);
        self.cur = next;
        next
    }

    /// Ends the walk at commit or abort.
    pub fn finish(&mut self, model: &mut MarkovModel, committed: bool) {
        let terminal = if committed { model.commit() } else { model.abort() };
        model.observe_transition(self.cur, terminal);
        self.path.push(terminal);
        self.cur = terminal;
    }
}

impl ModelMonitor {
    /// Creates a monitor with the paper's 75% threshold.
    pub fn new() -> Self {
        ModelMonitor::default()
    }

    /// Creates a monitor with the paper's 75% threshold and an explicit
    /// window.
    pub fn with_min_window(min_window: u64) -> Self {
        ModelMonitor { min_window, ..ModelMonitor::default() }
    }

    /// Fraction of observed transitions matching the model's expectation.
    pub fn accuracy(&self) -> f64 {
        if self.observed == 0 {
            1.0
        } else {
            self.matched as f64 / self.observed as f64
        }
    }

    /// Replays one transaction's executed path against a *read-only* model
    /// snapshot: accuracy counters advance,
    /// transition deltas accumulate by vertex key, and states the model has
    /// never seen become pending placeholders for the next epoch.
    ///
    /// A transition counts as *matched* when the model **covers** it: both
    /// states exist and the edge between them carries trained (or
    /// previously folded-in) counts. This is deliberately looser than an
    /// argmax test ("did the transaction take the most probable edge?"):
    /// workloads with genuine data-dependent branching (TATP's per-partition first queries) sit
    /// near 1/partitions argmax accuracy forever, which would read as
    /// permanent drift and thrash the rebuild path; coverage stays ~100%
    /// while the workload matches training and collapses toward 0 exactly
    /// when the workload shifts into states or transitions the model has
    /// never seen — the §4.5 signal worth a rebuild.
    ///
    /// `path` is the executed `(query, partitions)` sequence; `terminal` is
    /// `Some(committed)` for a finished transaction and `None` for a
    /// mispredict-aborted attempt (whose executed prefix is still real
    /// maintenance signal, but which took no commit/abort edge). Returns the `(observed,
    /// matched)` accuracy delta this walk contributed.
    pub fn observe_walk(
        &mut self,
        model: &MarkovModel,
        path: &[(QueryId, PartitionSet)],
        terminal: Option<bool>,
        resolver: &dyn PartitionResolver,
    ) -> (u64, u64) {
        let mut cursor = VertexCursor::default();
        let mut cur = Some(model.begin());
        let mut cur_key = model.vertex(model.begin()).key;
        let (mut observed, mut matched) = (0u64, 0u64);
        let mut step = |from: Option<VertexId>,
                        from_key: VertexKey,
                        to_key: VertexKey,
                        live_transitions: &mut FxHashMap<(VertexKey, VertexKey), u64>|
         -> Option<VertexId> {
            let to = model.find(&to_key);
            observed += 1;
            if let (Some(f), Some(t)) = (from, to) {
                if model.vertex(f).edge_to(t).is_some_and(|e| e.count > 0) {
                    matched += 1;
                }
            }
            *live_transitions.entry((from_key, to_key)).or_insert(0) += 1;
            to
        };
        for &(query, partitions) in path {
            let key = cursor.next_key(query, partitions);
            let to = step(cur, cur_key, key, &mut self.live_transitions);
            if to.is_none() {
                self.pending.entry(key).or_insert_with(|| PendingState {
                    name: resolver.query_name(model.proc, query),
                    is_write: resolver.is_write(model.proc, query),
                });
            }
            cur = to;
            cur_key = key;
        }
        if let Some(committed) = terminal {
            let kind = if committed { QueryKind::Commit } else { QueryKind::Abort };
            let _ = step(cur, cur_key, VertexKey::special(kind), &mut self.live_transitions);
        }
        self.observed += observed;
        self.matched += matched;
        (observed, matched)
    }

    /// True once the accuracy window is full and below the floor — the
    /// signal for the maintenance thread to rebuild this model.
    pub fn is_stale(&self) -> bool {
        self.observed >= self.min_window && self.accuracy() < self.threshold
    }

    /// Folds everything [`ModelMonitor::observe_walk`] accumulated into
    /// `model` — a clone of the snapshot those walks were observed against,
    /// destined to be published as the next epoch. Pending placeholder
    /// states are interned (§4.4), transition deltas become real counts,
    /// and edge probabilities plus probability tables are recomputed from
    /// scratch (§4.5). Clears the accumulator and accuracy window.
    pub fn recompute(&mut self, model: &mut MarkovModel) {
        // Deterministic fold order: hash-map iteration order depends on
        // insertion order, so sort by key before interning and folding —
        // the rebuilt model is then identical for any feedback
        // interleaving that produced the same multiset of observations.
        fn key_ord(k: &VertexKey) -> (u8, u32, u16, u64, u64) {
            let (kind, q) = match k.kind {
                QueryKind::Begin => (0, 0),
                QueryKind::Commit => (1, 0),
                QueryKind::Abort => (2, 0),
                QueryKind::Query(q) => (3, q),
            };
            (kind, q, k.counter, k.partitions.0, k.previous.0)
        }
        let mut pending: Vec<(VertexKey, PendingState)> = self.pending.drain().collect();
        pending.sort_by_key(|(k, _)| key_ord(k));
        for (key, p) in pending {
            model.intern(key, p.name, p.is_write);
        }
        let mut deltas: Vec<((VertexKey, VertexKey), u64)> =
            self.live_transitions.drain().collect();
        deltas.sort_by_key(|&((from, to), _)| (key_ord(&from), key_ord(&to)));
        for ((from, to), n) in deltas {
            // Both endpoints exist: `from`/`to` are special states, trained
            // states, or placeholders interned above. `find` can only miss
            // if the caller recomputed into a model that never saw these
            // walks; skip defensively rather than corrupt it.
            let (Some(f), Some(t)) = (model.find(&from), model.find(&to)) else {
                continue;
            };
            model.add_transition(f, t, n);
        }
        model.recompute_probabilities();
        compute_tables(model);
        self.observed = 0;
        self.matched = 0;
        self.recomputations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_model;
    use common::{ProcId, Value};
    use trace::{QueryRecord, TraceRecord};

    struct ModResolver {
        parts: u32,
    }

    impl PartitionResolver for ModResolver {
        fn partitions(&self, _p: ProcId, _q: QueryId, params: &[Value]) -> PartitionSet {
            PartitionSet::single(
                (params[0].expect_int().unsigned_abs() % u64::from(self.parts)) as u32,
            )
        }
        fn is_write(&self, _p: ProcId, _q: QueryId) -> bool {
            false
        }
        fn query_name(&self, _p: ProcId, q: QueryId) -> String {
            format!("Q{q}")
        }
        fn num_partitions(&self) -> u32 {
            self.parts
        }
    }

    fn model_one_path() -> MarkovModel {
        let rec = TraceRecord {
            proc: 0,
            params: vec![],
            queries: vec![QueryRecord { query: 0, params: vec![Value::Int(0)] }],
            batch_ends: Vec::new(),
            aborted: false,
        };
        build_model(0, &[&rec], &ModResolver { parts: 2 })
    }

    #[test]
    fn tracker_follows_known_path() {
        let mut model = model_one_path();
        let r = ModResolver { parts: 2 };
        let before = model.len();
        let mut t = PathTracker::new(&model);
        t.advance(&mut model, 0, PartitionSet::single(0), &r);
        t.finish(&mut model, true);
        assert_eq!(model.len(), before, "no new states for a known path");
        assert_eq!(t.path().len(), 3);
    }

    #[test]
    fn tracker_adds_placeholder_for_new_state() {
        let mut model = model_one_path();
        let r = ModResolver { parts: 2 };
        let before = model.len();
        let mut t = PathTracker::new(&model);
        // Partition 1 was never seen in training.
        t.advance(&mut model, 0, PartitionSet::single(1), &r);
        t.finish(&mut model, true);
        assert_eq!(model.len(), before + 1);
    }

    #[test]
    fn monitor_recomputes_on_drift() {
        let mut model = model_one_path();
        let r = ModResolver { parts: 2 };
        let mut mon = ModelMonitor { min_window: 50, ..ModelMonitor::default() };
        // Drift: every transaction now goes to partition 1's state. The
        // maintainer's loop: replay, and rebuild whenever the window fills
        // below the floor.
        for _ in 0..100 {
            mon.observe_walk(&model, &[(0, PartitionSet::single(1))], Some(true), &r);
            if mon.is_stale() {
                mon.recompute(&mut model);
            }
        }
        assert_eq!(mon.recomputations, 1, "one rebuild heals the drift; no thrash after it");
        // After recomputation the argmax from begin points at the new state.
        let begin = model.begin();
        let best = model.vertex(begin).argmax_edge().unwrap().to;
        assert_eq!(model.vertex(best).key.partitions, PartitionSet::single(1));
    }

    #[test]
    fn observe_walk_accumulates_without_mutating_the_snapshot() {
        let model = model_one_path();
        let r = ModResolver { parts: 2 };
        let mut mon = ModelMonitor { min_window: 10, ..ModelMonitor::default() };
        let before = model.len();
        // Drifted walks: partition 1 was never trained.
        for _ in 0..10 {
            mon.observe_walk(&model, &[(0, PartitionSet::single(1))], Some(true), &r);
        }
        assert_eq!(model.len(), before, "snapshot must stay untouched");
        assert!(mon.accuracy() < 0.5, "dark states cannot match argmax");
        assert!(mon.is_stale());
    }

    #[test]
    fn recompute_interns_pending_states_into_the_next_epoch() {
        let model = model_one_path();
        let r = ModResolver { parts: 2 };
        let mut mon = ModelMonitor { min_window: 10, ..ModelMonitor::default() };
        for _ in 0..20 {
            mon.observe_walk(&model, &[(0, PartitionSet::single(1))], Some(true), &r);
        }
        assert!(mon.is_stale());
        let mut next = model.clone();
        mon.recompute(&mut next);
        assert_eq!(mon.recomputations, 1);
        assert_eq!(next.len(), model.len() + 1, "placeholder interned");
        // The rebuilt model routes begin's argmax to the drifted state...
        let best = next.vertex(next.begin()).argmax_edge().unwrap().to;
        assert_eq!(next.vertex(best).key.partitions, PartitionSet::single(1));
        // ...and the accumulator/window are clean: the same walks now match.
        let (obs, matched) =
            mon.observe_walk(&next, &[(0, PartitionSet::single(1))], Some(true), &r);
        assert_eq!((obs, matched), (2, 2), "healed model predicts the walk");
        assert!(!mon.is_stale());
    }

    #[test]
    fn observe_walk_mispredict_prefix_has_no_terminal_edge() {
        let model = model_one_path();
        let r = ModResolver { parts: 2 };
        let mut mon = ModelMonitor { min_window: 4, ..ModelMonitor::default() };
        for _ in 0..8 {
            mon.observe_walk(&model, &[(0, PartitionSet::single(1))], None, &r);
        }
        let mut next = model.clone();
        mon.recompute(&mut next);
        // The interned placeholder has no commit/abort edge: the aborted
        // attempts' prefixes were recorded, their rollback was not.
        let dark = next
            .vertices()
            .iter()
            .position(|v| v.key.partitions == PartitionSet::single(1))
            .expect("placeholder interned");
        assert!(next.vertex(dark as VertexId).edges.is_empty());
    }

    #[test]
    fn recompute_is_interleaving_independent() {
        let model = model_one_path();
        let r = ModResolver { parts: 2 };
        let walks: Vec<Vec<(QueryId, PartitionSet)>> = vec![
            vec![(0, PartitionSet::single(1))],
            vec![(0, PartitionSet::single(0))],
            vec![(0, PartitionSet::single(1))],
        ];
        let rebuild = |order: &[usize]| {
            let mut mon = ModelMonitor { min_window: 1, ..ModelMonitor::default() };
            for &i in order {
                mon.observe_walk(&model, &walks[i], Some(true), &r);
            }
            let mut next = model.clone();
            mon.recompute(&mut next);
            next
        };
        assert_eq!(rebuild(&[0, 1, 2]), rebuild(&[2, 1, 0]), "order must not matter");
    }

    #[test]
    fn monitor_quiet_when_accurate() {
        let model = model_one_path();
        let r = ModResolver { parts: 2 };
        let mut mon = ModelMonitor { min_window: 20, ..ModelMonitor::default() };
        for _ in 0..100 {
            let walk = mon.observe_walk(&model, &[(0, PartitionSet::single(0))], Some(true), &r);
            assert_eq!(walk, (2, 2), "the trained path is fully covered");
            assert!(!mon.is_stale());
        }
        assert_eq!(mon.recomputations, 0);
        assert!(mon.accuracy() > 0.99);
    }
}
