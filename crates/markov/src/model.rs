//! The model graph: vertices, edges, lookups.

use crate::ptable::ProbTable;
use common::{Error, FxHashMap, PartitionSet, ProcId, QueryId, Result};

/// Identifies what a vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// The transaction has not executed anything yet.
    Begin,
    /// Terminal: committed.
    Commit,
    /// Terminal: aborted.
    Abort,
    /// An invocation of the procedure's query with this id.
    Query(QueryId),
}

/// A vertex key — the paper's four-part execution-state identity (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VertexKey {
    /// The query (or begin/commit/abort).
    pub kind: QueryKind,
    /// How many times this query executed previously in the transaction.
    pub counter: u16,
    /// Partitions this invocation accesses.
    pub partitions: PartitionSet,
    /// Partitions the transaction accessed before this state.
    pub previous: PartitionSet,
}

impl VertexKey {
    /// Key for a special state.
    pub fn special(kind: QueryKind) -> Self {
        VertexKey {
            kind,
            counter: 0,
            partitions: PartitionSet::EMPTY,
            previous: PartitionSet::EMPTY,
        }
    }

    /// All partitions seen once this state is reached.
    pub fn seen(&self) -> PartitionSet {
        self.partitions.union(self.previous)
    }
}

/// The vertex-identity rule of §3.1 as a walk cursor: per-query invocation
/// counters plus the partitions seen so far turn each executed
/// `(query, partitions)` into the [`VertexKey`] of the state it reaches.
/// Model construction, the advisor's per-transaction walk, and the
/// maintenance replay all derive keys through this one type, so the three
/// cannot disagree about which state a transaction is in.
#[derive(Debug, Clone, Default)]
pub struct VertexCursor {
    counters: FxHashMap<QueryId, u16>,
    previous: PartitionSet,
}

impl VertexCursor {
    /// Key of the state reached by executing `query` at `partitions` next;
    /// advances the cursor past it.
    #[inline]
    pub fn next_key(&mut self, query: QueryId, partitions: PartitionSet) -> VertexKey {
        let c = self.counters.entry(query).or_insert(0);
        let key = VertexKey {
            kind: QueryKind::Query(query),
            counter: *c,
            partitions,
            previous: self.previous,
        };
        *c += 1;
        self.previous = self.previous.union(partitions);
        key
    }

    /// Rewinds to the begin state, keeping the counter map's capacity.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.previous = PartitionSet::EMPTY;
    }
}

/// Vertex id within one model.
pub type VertexId = u32;

/// An outgoing edge with its trace count and derived probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Destination vertex.
    pub to: VertexId,
    /// Times the transition was taken in the training trace (plus any
    /// maintenance recomputations folded in).
    pub count: u64,
    /// Transition probability from the parent.
    pub prob: f64,
    /// On-line visit counter since the last probability recomputation
    /// (model maintenance, §4.5).
    pub live: u64,
}

/// One execution state plus its outgoing distribution and probability table.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    /// Identity.
    pub key: VertexKey,
    /// Display name of the query ("GetWarehouse", or "begin"/"commit"/"abort").
    pub name: String,
    /// True if the vertex's query writes data.
    pub is_write: bool,
    /// Outgoing edges.
    pub edges: Vec<Edge>,
    /// Times this vertex was reached in the training trace.
    pub hits: u64,
    /// Pre-computed event probabilities (Fig. 5).
    pub table: ProbTable,
}

impl Vertex {
    fn new(key: VertexKey, name: String, is_write: bool, num_partitions: u32) -> Self {
        Vertex {
            key,
            name,
            is_write,
            edges: Vec::new(),
            hits: 0,
            table: ProbTable::zeroed(num_partitions),
        }
    }

    /// The edge to `to`, if present.
    pub fn edge_to(&self, to: VertexId) -> Option<&Edge> {
        self.edges.iter().find(|e| e.to == to)
    }

    /// The highest-probability outgoing edge. A degenerate probability
    /// (NaN, e.g. from a zeroed-out recomputation) sorts below every real
    /// one instead of aborting the run.
    pub fn argmax_edge(&self) -> Option<&Edge> {
        self.edges.iter().max_by(|a, b| {
            crate::estimate::nan_as_lowest(a.prob)
                .total_cmp(&crate::estimate::nan_as_lowest(b.prob))
        })
    }
}

/// A stored procedure's transaction Markov model.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    /// The procedure modeled.
    pub proc: ProcId,
    /// Cluster size the model was resolved against. Models must be
    /// regenerated when the partitioning scheme changes (§3.1).
    pub num_partitions: u32,
    vertices: Vec<Vertex>,
    index: FxHashMap<VertexKey, VertexId>,
    begin: VertexId,
    commit: VertexId,
    abort: VertexId,
}

impl MarkovModel {
    /// Creates an empty model containing only the three special vertices.
    pub fn new(proc: ProcId, num_partitions: u32) -> Self {
        let mut m = MarkovModel {
            proc,
            num_partitions,
            vertices: Vec::new(),
            index: FxHashMap::default(),
            begin: 0,
            commit: 0,
            abort: 0,
        };
        m.begin = m.intern(VertexKey::special(QueryKind::Begin), "begin".into(), false);
        m.commit = m.intern(VertexKey::special(QueryKind::Commit), "commit".into(), false);
        m.abort = m.intern(VertexKey::special(QueryKind::Abort), "abort".into(), false);
        m
    }

    /// Reassembles a model from its stored parts (a loaded predictor
    /// bundle), rebuilding the key index. Refuses any model a later lookup
    /// would panic on or misread: a special state or an edge pointing past
    /// the vertex list, a special state of the wrong kind, a probability
    /// table not sized for `num_partitions`, a key naming a partition
    /// outside the cluster, or two vertices with one key.
    pub fn from_parts(
        proc: ProcId,
        num_partitions: u32,
        vertices: Vec<Vertex>,
        begin: VertexId,
        commit: VertexId,
        abort: VertexId,
    ) -> Result<Self> {
        let bad = |msg: String| Err(Error::Other(format!("model of procedure {proc}: {msg}")));
        let n = vertices.len();
        let specials =
            [(begin, QueryKind::Begin), (commit, QueryKind::Commit), (abort, QueryKind::Abort)];
        for (id, kind) in specials {
            match vertices.get(id as usize) {
                None => return bad(format!("{kind:?} state {id} past {n} vertices")),
                Some(v) if v.key.kind != kind => return bad(format!("state {id} is not {kind:?}")),
                Some(_) => {}
            }
        }
        let cluster = PartitionSet::all(num_partitions);
        for (id, v) in vertices.iter().enumerate() {
            if let Some(e) = v.edges.iter().find(|e| e.to as usize >= n) {
                return bad(format!("vertex {id} has an edge to {} past {n} vertices", e.to));
            }
            if v.table.partitions.len() != num_partitions as usize {
                return bad(format!(
                    "vertex {id} has {} table entries for {num_partitions} partitions",
                    v.table.partitions.len()
                ));
            }
            if !v.key.seen().is_subset(cluster) {
                return bad(format!("vertex {id} names a partition outside {num_partitions}"));
            }
        }
        let index: FxHashMap<VertexKey, VertexId> =
            vertices.iter().enumerate().map(|(i, v)| (v.key, i as VertexId)).collect();
        if index.len() != n {
            return bad("two vertices share a key".into());
        }
        Ok(MarkovModel { proc, num_partitions, vertices, index, begin, commit, abort })
    }

    /// The begin vertex.
    pub fn begin(&self) -> VertexId {
        self.begin
    }

    /// The commit vertex.
    pub fn commit(&self) -> VertexId {
        self.commit
    }

    /// The abort vertex.
    pub fn abort(&self) -> VertexId {
        self.abort
    }

    /// Number of vertices (including the three special states).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Never true — a model always holds its special states.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Immutable vertex access.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id as usize]
    }

    /// Mutable vertex access (builder/maintenance use).
    pub fn vertex_mut(&mut self, id: VertexId) -> &mut Vertex {
        &mut self.vertices[id as usize]
    }

    /// All vertices, indexable by [`VertexId`].
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// Finds an existing vertex by key.
    pub fn find(&self, key: &VertexKey) -> Option<VertexId> {
        self.index.get(key).copied()
    }

    /// Finds or creates the vertex for `key`. New vertices start as
    /// probability-less placeholders (§4.4).
    pub fn intern(&mut self, key: VertexKey, name: String, is_write: bool) -> VertexId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = self.vertices.len() as VertexId;
        self.vertices.push(Vertex::new(key, name, is_write, self.num_partitions));
        self.index.insert(key, id);
        id
    }

    /// Adds `n` observations of the transition `from -> to`.
    pub fn add_transition(&mut self, from: VertexId, to: VertexId, n: u64) {
        let v = &mut self.vertices[from as usize];
        v.hits += n;
        if let Some(e) = v.edges.iter_mut().find(|e| e.to == to) {
            e.count += n;
        } else {
            v.edges.push(Edge { to, count: n, prob: 0.0, live: 0 });
        }
    }

    /// Records an on-line visit of `from -> to` (maintenance counters),
    /// creating the edge as a placeholder if it never appeared in training.
    pub fn observe_transition(&mut self, from: VertexId, to: VertexId) {
        let v = &mut self.vertices[from as usize];
        if let Some(e) = v.edges.iter_mut().find(|e| e.to == to) {
            e.live += 1;
        } else {
            v.edges.push(Edge { to, count: 0, prob: 0.0, live: 1 });
        }
    }

    /// Recomputes every edge probability from `count` (training) plus
    /// `live` (on-line) observations, folding the live counts in and
    /// clearing them. Called at build time and by model maintenance (§4.5).
    pub fn recompute_probabilities(&mut self) {
        for v in &mut self.vertices {
            let mut total = 0u64;
            for e in &mut v.edges {
                e.count += e.live;
                e.live = 0;
                total += e.count;
            }
            v.hits = v.hits.max(total);
            for e in &mut v.edges {
                e.prob = if total == 0 { 0.0 } else { e.count as f64 / total as f64 };
            }
        }
    }

    /// The most-observed trained vertex with the given query and counter,
    /// regardless of partitions — used by path estimation to enumerate
    /// successor *shapes* when the exact vertex's own edges are incomplete
    /// (a consequence of the §4.6 state-space explosion on finite traces).
    pub fn shape_proxy_any(&self, kind: QueryKind, counter: u16) -> Option<VertexId> {
        self.vertices
            .iter()
            .enumerate()
            .filter(|(_, v)| v.key.kind == kind && v.key.counter == counter && v.hits > 0)
            .max_by_key(|(_, v)| v.hits)
            .map(|(i, _)| i as VertexId)
    }

    /// Vertices in a best-effort topological order (parents before
    /// children).
    ///
    /// The paper calls the model an acyclic graph (§3.1), and for
    /// procedures whose control code issues queries in a fixed order that
    /// holds. But a trace in which two invocations interleave the *same*
    /// queries differently (A-B-A in one transaction, A-A-B in another)
    /// produces a genuine cycle between the shared states. This routine
    /// therefore runs Kahn's algorithm and appends any cycle members in
    /// index order at the end, so downstream passes (probability-table
    /// computation) still visit every vertex; table values inside a cycle
    /// become one-pass approximations.
    pub fn topological_order(&self) -> Vec<VertexId> {
        let n = self.vertices.len();
        let mut indegree = vec![0u32; n];
        for v in &self.vertices {
            for e in &v.edges {
                indegree[e.to as usize] += 1;
            }
        }
        let mut stack: Vec<VertexId> =
            (0..n as VertexId).filter(|&i| indegree[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut emitted = vec![false; n];
        while let Some(id) = stack.pop() {
            order.push(id);
            emitted[id as usize] = true;
            for e in &self.vertices[id as usize].edges {
                let d = &mut indegree[e.to as usize];
                *d -= 1;
                if *d == 0 {
                    stack.push(e.to);
                }
            }
        }
        if order.len() < n {
            for (i, done) in emitted.iter().enumerate() {
                if !done {
                    order.push(i as VertexId);
                }
            }
        }
        order
    }

    /// True if the model contains a cycle (see [`Self::topological_order`]).
    pub fn has_cycle(&self) -> bool {
        let n = self.vertices.len();
        let mut indegree = vec![0u32; n];
        for v in &self.vertices {
            for e in &v.edges {
                indegree[e.to as usize] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(id) = stack.pop() {
            seen += 1;
            for e in &self.vertices[id].edges {
                let d = &mut indegree[e.to as usize];
                *d -= 1;
                if *d == 0 {
                    stack.push(e.to as usize);
                }
            }
        }
        seen < n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_states_exist() {
        let m = MarkovModel::new(0, 4);
        assert_eq!(m.len(), 3);
        assert_ne!(m.begin(), m.commit());
        assert_ne!(m.commit(), m.abort());
        assert_eq!(m.vertex(m.begin()).name, "begin");
    }

    #[test]
    fn intern_deduplicates() {
        let mut m = MarkovModel::new(0, 4);
        let key = VertexKey {
            kind: QueryKind::Query(0),
            counter: 0,
            partitions: PartitionSet::single(1),
            previous: PartitionSet::EMPTY,
        };
        let a = m.intern(key, "Q".into(), false);
        let b = m.intern(key, "Q".into(), false);
        assert_eq!(a, b);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn from_parts_rebuilds_the_model_and_refuses_what_would_panic() {
        let mut m = MarkovModel::new(0, 2);
        let key = VertexKey {
            kind: QueryKind::Query(0),
            counter: 0,
            partitions: PartitionSet::single(1),
            previous: PartitionSet::EMPTY,
        };
        let q = m.intern(key, "Q".into(), false);
        m.add_transition(m.begin(), q, 1);
        m.add_transition(q, m.commit(), 1);
        let parts = |m: &MarkovModel| (m.vertices.clone(), m.begin, m.commit, m.abort);
        let (vs, b, c, a) = parts(&m);
        let back = MarkovModel::from_parts(0, 2, vs.clone(), b, c, a).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.find(&key), Some(q));

        // Each special state out of range, or of the wrong kind.
        for (b, c, a) in [(99, c, a), (b, 99, a), (b, c, 99), (c, b, a)] {
            assert!(MarkovModel::from_parts(0, 2, vs.clone(), b, c, a).is_err());
        }
        let edits: [fn(&mut Vec<Vertex>); 4] = [
            |vs| vs[0].edges[0].to = 1_000_000,
            |vs| vs[3].table.partitions.truncate(1),
            |vs| vs[3].key.previous = PartitionSet::single(5),
            |vs| {
                let dup = vs[3].clone();
                vs.push(dup);
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut vs = vs.clone();
            edit(&mut vs);
            assert!(MarkovModel::from_parts(0, 2, vs, b, c, a).is_err(), "edit {i}");
        }
    }

    #[test]
    fn transitions_accumulate_and_normalize() {
        let mut m = MarkovModel::new(0, 4);
        let key = VertexKey {
            kind: QueryKind::Query(0),
            counter: 0,
            partitions: PartitionSet::single(0),
            previous: PartitionSet::EMPTY,
        };
        let q = m.intern(key, "Q".into(), false);
        let (b, c, a) = (m.begin(), m.commit(), m.abort());
        m.add_transition(b, q, 3);
        m.add_transition(q, c, 2);
        m.add_transition(q, a, 1);
        m.recompute_probabilities();
        let v = m.vertex(q);
        assert!((v.edge_to(c).unwrap().prob - 2.0 / 3.0).abs() < 1e-12);
        assert!((v.edge_to(a).unwrap().prob - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(v.argmax_edge().unwrap().to, c);
    }

    #[test]
    fn live_counts_fold_in() {
        let mut m = MarkovModel::new(0, 2);
        let key = VertexKey {
            kind: QueryKind::Query(0),
            counter: 0,
            partitions: PartitionSet::single(0),
            previous: PartitionSet::EMPTY,
        };
        let q = m.intern(key, "Q".into(), false);
        let c = m.commit();
        m.add_transition(q, c, 1);
        m.recompute_probabilities();
        m.observe_transition(q, m.abort());
        m.observe_transition(q, m.abort());
        m.recompute_probabilities();
        let v = m.vertex(q);
        assert!((v.edge_to(m.abort()).unwrap().prob - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_edge_survives_nan_probabilities() {
        // Regression: the comparator used `partial_cmp(..).expect(..)` and
        // aborted the whole run on a degenerate probability table.
        let mut m = MarkovModel::new(0, 2);
        let mk = |q: u32| VertexKey {
            kind: QueryKind::Query(q),
            counter: 0,
            partitions: PartitionSet::single(0),
            previous: PartitionSet::EMPTY,
        };
        let a = m.intern(mk(0), "A".into(), false);
        let b = m.intern(mk(1), "B".into(), false);
        m.add_transition(m.begin(), a, 3);
        m.add_transition(m.begin(), b, 1);
        m.recompute_probabilities();
        // Poison one edge.
        m.vertex_mut(m.begin()).edges[1].prob = f64::NAN;
        let best = m.vertex(m.begin()).argmax_edge().expect("edges exist");
        assert_eq!(best.to, a, "NaN must lose, not win or panic");
        // All-NaN still answers something instead of panicking.
        m.vertex_mut(m.begin()).edges[0].prob = f64::NAN;
        assert!(m.vertex(m.begin()).argmax_edge().is_some());
    }

    #[test]
    fn topological_order_is_valid() {
        let mut m = MarkovModel::new(0, 2);
        let mk = |q: u32, prev: PartitionSet| VertexKey {
            kind: QueryKind::Query(q),
            counter: 0,
            partitions: PartitionSet::single(0),
            previous: prev,
        };
        let a = m.intern(mk(0, PartitionSet::EMPTY), "A".into(), false);
        let b = m.intern(mk(1, PartitionSet::single(0)), "B".into(), false);
        m.add_transition(m.begin(), a, 1);
        m.add_transition(a, b, 1);
        m.add_transition(b, m.commit(), 1);
        let order = m.topological_order();
        let pos = |id: VertexId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(m.begin()) < pos(a));
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(m.commit()));
    }
}
