//! The on-line advisor: Houdini as the engine's [`LiveAdvisor`] (paper §4).
//!
//! One plan → track → update → maintain loop serves both engines. The
//! trained predictors live in a single epoch cell: every transaction pins
//! the snapshot it planned against and walks it read-only, teardown hands
//! the executed path back as [`TxnFeedback`], and the one §4.5 regime
//! (the [`LiveMaintainer`] behind [`LiveAdvisor::maintainer`]) replays that
//! feedback, rebuilds drifted models and publishes them as the next epoch
//! — on the live runtime's background thread, or inline in the simulator.

use crate::modelset::{lock_set_for, CatalogRule};
use crate::train::ProcPredictor;
use common::{EpochCell, FxHashMap, PartitionSet, ProcId, QueryId, Value};
use engine::{
    last_access_finish_plan, Catalog, CatalogResolver, ExecutedQuery, LiveAdvisor, LiveMaintainer,
    MaintenanceReport, PartitionHint, PlanContext, Request, TxnFeedback, TxnOutcome, TxnPlan,
    Updates,
};
use mapping::ParamSource;
use markov::{
    estimate_path, EstimateConfig, ModelMonitor, QueryKind, QueryPartitionRule, VertexCursor,
    VertexId,
};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Minimum training observations before a state's finish table is trusted
/// for OP4: a state observed once or twice (e.g. only in an aborted record)
/// produces finish probabilities that trigger early prepares the
/// transaction later violates, and each violation is an abort-and-restart.
const MIN_FINISH_HITS: u64 = 4;

/// Near-certainty bar for *table-driven* OP4 releases (the confidence
/// threshold plays no part here: any finish probability clearing this bar
/// clears every threshold in (0, 1)). The cost asymmetry demands it: releasing a
/// partition early saves micro-seconds of lock hold, while re-touching a
/// released partition aborts and restarts the whole transaction. A finish
/// probability like 0.7 (common at
/// loop states such as NewOrder's per-item stock updates, where the state
/// cannot see the total item count) is therefore a terrible bet; only
/// states whose training history *always* finished the partition qualify.
/// Request-specific releases keep flowing through the estimate-derived
/// finish plan, which knows this request's actual loop bounds.
const FINISH_TABLE_CERTAINTY: f64 = 1.0 - 1e-9;

/// True if `model` has no query-loop states (no vertex at invocation
/// counter > 0). A static per-model property; callers cache it per
/// transaction so the hot `updates_at_state` path reads a bool instead of
/// rescanning the vertex table per executed query.
fn model_is_loop_free(model: &markov::MarkovModel) -> bool {
    !model.vertices().iter().any(|v| v.key.counter > 0)
}

/// Simulated µs charged per candidate state examined during the initial
/// path estimate.
const EST_COST_PER_STATE_US: f64 = 1.2;

/// Simulated µs charged per runtime update (§4.4).
const UPDATE_COST_US: f64 = 4.0;

/// On-line knobs.
#[derive(Debug, Clone)]
pub struct HoudiniConfig {
    /// The confidence-coefficient threshold of §4.3 / Fig. 13. Estimations
    /// whose confidence falls below it are pruned (conservative fallback).
    pub threshold: f64,
    /// Emit OP4 finished-partition declarations (early prepare). Off is
    /// the OP4 ablation: plans are produced identically but
    /// `TxnPlan::early_prepare` stays false, so the engine never releases
    /// a partition before 2PC.
    pub early_prepare: bool,
    /// Learn from traffic (§4.5), in the simulator and the live runtime
    /// alike: emit per-transaction path feedback at session teardown and
    /// drive the engine's maintainer, which rebuilds drifted models and
    /// epoch-swaps them in without stopping traffic. Off is the
    /// frozen-model ablation of the `live-drift` experiment.
    pub maintenance: bool,
    /// Observations per model before its accuracy is judged against the
    /// monitors' floor (the paper's 75%).
    pub maintenance_min_window: u64,
}

impl Default for HoudiniConfig {
    fn default() -> Self {
        HoudiniConfig {
            threshold: 0.5,
            early_prepare: true,
            maintenance: true,
            maintenance_min_window: 200,
        }
    }
}

/// Per-transaction decision state (inside [`LiveTxn`]), kept apart from
/// the session's pinned predictor snapshot so `updates_at_state` can read
/// the one while mutating the other.
#[derive(Debug, Default, PartialEq)]
struct TxnCore {
    lock_set: PartitionSet,
    declared: PartitionSet,
    undo_disabled: bool,
    /// Whether this model's abort estimates are sound (see
    /// [`ProcPredictor::trust_abort_estimates`]).
    trust_abort: bool,
    /// The initial estimate reached commit, every step was validated
    /// through the parameter mapping, and no feasible alternative branch
    /// leaves the lock set. Only then are runtime OP3 updates safe: an OP2
    /// mispredict after disabling undo logging is unrecoverable.
    est_complete: bool,
    /// Per-step query ids of the initial estimate (deviation detection).
    step_queries: Vec<QueryId>,
    /// Per-step partition sets of the initial estimate. A transaction that
    /// issues the estimated query sequence through *different* partitions
    /// (a feasible alternative branch inside the lock set) has deviated
    /// just as surely as one issuing different queries — its finish plan
    /// no longer describes reality and applying it causes release-then-
    /// re-touch abort-restarts.
    step_partitions: Vec<PartitionSet>,
    /// Per-step finish sets: partitions whose predicted last access is that
    /// step (the Oracle-style OP4 plan derived from the estimate, §4.4).
    finish_plan: Vec<PartitionSet>,
    /// Position along the estimated path; `None` once the transaction has
    /// deviated from the estimate.
    est_pos: Option<usize>,
    /// Whether the selected model is free of query loops (no state at
    /// invocation counter > 0) — computed once per transaction at plan
    /// time; release decisions (estimate plan *and* tables) are only
    /// trusted on loop-free models, where the trained closures genuinely
    /// enumerate the continuations (see the release-policy comments in
    /// `updates_at_state` and `plan_from_estimate`).
    model_loop_free: bool,
    /// Houdini switched off (disabled procedure or restart fallback):
    /// no tracking, no updates.
    passive: bool,
}

impl Clone for TxnCore {
    fn clone(&self) -> Self {
        TxnCore {
            step_queries: self.step_queries.clone(),
            step_partitions: self.step_partitions.clone(),
            finish_plan: self.finish_plan.clone(),
            ..*self
        }
    }

    /// Copies into the three step vectors rather than replacing them, so
    /// they keep their capacity: a plan served from a [`PlanTable`]
    /// allocates nothing.
    fn clone_from(&mut self, src: &Self) {
        let mut step_queries = std::mem::take(&mut self.step_queries);
        let mut step_partitions = std::mem::take(&mut self.step_partitions);
        let mut finish_plan = std::mem::take(&mut self.finish_plan);
        step_queries.clone_from(&src.step_queries);
        step_partitions.clone_from(&src.step_partitions);
        finish_plan.clone_from(&src.finish_plan);
        *self = TxnCore { step_queries, step_partitions, finish_plan, ..*src };
    }
}

/// Plans one procedure's table holds before it starts over empty.
const PLAN_TABLE_CAPACITY: usize = 256;

/// Signature word of a scalar routing argument the request does not carry.
const SIG_MISSING: u64 = u64::MAX;

/// Signature word of an array routing argument that is not an array.
const SIG_NOT_ARRAY: u64 = u64::MAX - 1;

/// One procedure's finished plans under one predictor epoch, shared by
/// every client and the simulator. `estimate_path` reads a request's
/// arguments only through the parameter mapping, and then only as a
/// partition, an out-of-range array index or an unmapped parameter. The
/// knobs `plan_from_estimate` reads are fixed when the [`Houdini`] is
/// built. So within an epoch a plan is a pure function of the model index
/// and the *partition signature* of the routing arguments, which together
/// form the key. A request whose key was planned before reuses the
/// finished plan and decision state without estimating. Plans that drew on
/// `random_local_partition` are never stored.
///
/// The table lives in its epoch's [`ProcPredictor`], and cloning one (which
/// is how the maintainer builds the next epoch) yields an empty table, so
/// a table is never consulted under models other than its own.
#[derive(Default)]
pub(crate) struct PlanTable {
    /// The routing arguments: the mapped source of every query's
    /// partitioning parameter, deduplicated. Computed on first use.
    sources: OnceLock<Vec<ParamSource>>,
    plans: RwLock<FxHashMap<Vec<u64>, (TxnPlan, TxnCore)>>,
}

impl Clone for PlanTable {
    fn clone(&self) -> Self {
        PlanTable::default()
    }
}

impl PlanTable {
    /// The plan stored under `key`, its decision state copied into
    /// `core`'s buffers (under the read lock, so a hit allocates nothing).
    fn get_into(&self, key: &[u64], core: &mut TxnCore) -> Option<TxnPlan> {
        let plans = self.plans.read().unwrap_or_else(PoisonError::into_inner);
        let (plan, cached) = plans.get(key)?;
        core.clone_from(cached);
        Some(*plan)
    }

    /// Stores a finished plan under `key`. Clients that race on one key
    /// computed the same plan, so the first one stored stays.
    fn insert(&self, key: &[u64], plan: TxnPlan, core: &TxnCore) {
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
        if plans.contains_key(key) {
            return;
        }
        if plans.len() >= PLAN_TABLE_CAPACITY {
            plans.clear();
        }
        plans.insert(key.to_vec(), (plan, core.clone()));
    }
}

/// OP3/OP4 runtime updates (§4.4) at the state `to` reached by executing
/// `q`. `to` is `None` when the transaction reached a state absent from
/// the pinned epoch's model (the walk is read-only, so such states stay
/// dark until maintenance interns them into a later epoch).
fn updates_at_state(
    cfg: &HoudiniConfig,
    num_partitions: u32,
    pred: &ProcPredictor,
    model: &markov::MarkovModel,
    core: &mut TxnCore,
    to: Option<VertexId>,
    q: &ExecutedQuery,
) -> Updates {
    let mut upd = Updates { cost_us: UPDATE_COST_US, ..Default::default() };
    // OP3 runtime update: no path from here to the abort state. Only models
    // that have actually witnessed this procedure's aborts may assert that
    // no such path exists, the state must be a trained one (not a live
    // placeholder), the transaction must be single-partition (§4.3), and no
    // continuation may leave the lock set — otherwise an OP2 mispredict
    // after disabling undo would be unrecoverable. The query must appear at
    // no counter up to this one in any aborting training prefix: a loop
    // that ran longer than every aborting record did can still abort after
    // its last iteration. The unsafe set is downward closed per query, so
    // that is counter 0.
    if let Some(to) = to {
        let vtx = model.vertex(to);
        let table = &vtx.table;
        let sig_safe = match vtx.key.kind {
            QueryKind::Query(qid) => {
                !pred.can_abort
                    || (pred.abort_rate > 0.0 && !pred.unsafe_signatures.contains(&(qid, 0)))
            }
            _ => false,
        };
        if sig_safe
            && core.trust_abort
            && core.est_complete
            && !core.undo_disabled
            && core.lock_set.is_single()
            && vtx.hits > 0
            && table.abort < 1e-9
            && 1.0 - table.abort > cfg.threshold
            && (0..num_partitions).all(|p| core.lock_set.contains(p) || table.access(p) < 1e-9)
        {
            core.undo_disabled = true;
            upd.disable_undo = true;
        }
    }
    // OP4: partitions whose finish probability clears the threshold are
    // handed back for early prepare. Only *exact* well-observed states
    // qualify: a shape proxy (same query, counter, seen set but different
    // partition binding) carries per-partition finish entries for *its*
    // binding, which systematically mispredicts release decisions — and a
    // wrong release is an abort-restart, far costlier than a kept lock.
    let mut finished = PartitionSet::EMPTY;
    // Loop gate: a procedure with query loops (any state at invocation
    // counter > 0) executes data-dependent trip counts the closure behind
    // `finish` cannot see — a model (or cluster, under partitioned models)
    // whose trained loops are shorter or more local than this request's
    // yields finish = 1.0 *with certainty* and still lies, and every such
    // release is an abort-restart. Loop-free
    // procedures (all of TATP, TPC-C's Payment) have closures that
    // genuinely enumerate their continuations, so only they may release
    // through tables. (Computed once per transaction at plan time.)
    let finish_table =
        to.filter(|&v| model.vertex(v).hits >= MIN_FINISH_HITS).filter(|_| core.model_loop_free);
    // A complete request-specific estimate outranks the generalized
    // tables: its finish plan knows this request's actual loop bounds and
    // partition bindings, while the table closure averages over every
    // trained request and lies wherever the model is sparse. Mixing the
    // two turns loop-heavy procedures (NewOrder's per-item stock updates)
    // into release-then-re-touch abort-restart storms, so estimated
    // transactions release through their plan alone.
    if let Some(ft) = finish_table.filter(|_| !core.est_complete) {
        let table = &model.vertex(ft).table;
        for p in core.lock_set.iter() {
            if !core.declared.contains(p)
                && !q.partitions.contains(p)
                && table.finish(p) >= FINISH_TABLE_CERTAINTY
            {
                finished.insert(p);
            }
        }
    }
    // While the transaction follows its initial estimate, the Oracle-style
    // finish plan derived from the estimate also applies (and generalizes
    // to partition combinations the trace never produced).
    if let Some(pos) = core.est_pos {
        let on_plan = core.step_queries.get(pos).is_some_and(|&eq| eq == q.query)
            && core.step_partitions.get(pos).is_some_and(|&ep| ep == q.partitions)
            && pos < core.finish_plan.len();
        if on_plan {
            let step_fin = core.finish_plan[pos];
            for p in step_fin.iter() {
                if core.lock_set.contains(p) && !core.declared.contains(p) {
                    finished.insert(p);
                }
            }
            core.est_pos = Some(pos + 1);
        } else {
            core.est_pos = None; // deviated: stop trusting the plan
        }
    }
    core.declared = core.declared.union(finished);
    upd.finished = finished;
    upd
}

/// The Houdini advisor: trained predictors plus on-line tracking.
///
/// The predictors live in one epoch-swapped cell: every transaction pins
/// the snapshot it planned against, and the maintainer publishes rebuilt
/// predictors as new epochs (clone-on-write: only drifted models are
/// deep-copied).
pub struct Houdini {
    /// Predictor epochs (§4.5; see DESIGN.md §5).
    epochs: EpochCell<Vec<ProcPredictor>>,
    pub(crate) catalog: Catalog,
    pub(crate) num_partitions: u32,
    /// Knobs, fixed at construction: every plan table relies on it.
    cfg: HoudiniConfig,
}

impl Houdini {
    /// Wraps trained predictors for on-line use.
    pub fn new(
        procs: Vec<ProcPredictor>,
        catalog: Catalog,
        num_partitions: u32,
        cfg: HoudiniConfig,
    ) -> Self {
        Houdini { epochs: EpochCell::new(procs), catalog, num_partitions, cfg }
    }

    /// The current predictor epoch number (0 until the maintainer
    /// publishes a rebuild).
    pub fn live_epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    /// Snapshot of the current predictors — what a fresh plan would plan
    /// against right now.
    pub fn live_predictors(&self) -> Arc<Vec<ProcPredictor>> {
        self.epochs.load()
    }

    /// Conservative fallback: lock every partition, keep undo logging, but
    /// still track the model (unless the procedure is disabled outright)
    /// so OP4 can release partitions the tables say are finished — a
    /// lock-all transaction that never lets go would serialize the cluster.
    fn passive_plan(
        &self,
        pred: &ProcPredictor,
        model_idx: usize,
        base: u32,
    ) -> (TxnPlan, TxnCore) {
        let track = !pred.disabled;
        let lock_set = PartitionSet::all(self.num_partitions);
        let core = TxnCore {
            lock_set,
            model_loop_free: model_is_loop_free(pred.models.model(model_idx)),
            passive: !track,
            ..TxnCore::default()
        };
        let plan = TxnPlan {
            base_partition: base,
            lock_set,
            disable_undo: false,
            early_prepare: track && self.cfg.early_prepare,
            estimate_cost_us: 0.0,
            estimate_reused: false,
        };
        (plan, core)
    }

    /// Derives the OP1–OP4 plan and decision state from a completed path
    /// estimate (the caller charges `estimate_cost_us`).
    fn plan_from_estimate(
        &self,
        pred: &ProcPredictor,
        model_idx: usize,
        est: markov::PathEstimate,
        random_local_partition: u32,
    ) -> (TxnPlan, TxnCore) {
        let model = pred.models.model(model_idx);
        // OP2: partitions whose access estimate clears the threshold.
        let mut lock_set = lock_set_for(&est, model, self.cfg.threshold, self.num_partitions);
        // OP1: most-accessed partition along the estimate.
        let base = est
            .best_base()
            .filter(|p| lock_set.contains(*p))
            .or_else(|| est.best_base())
            .unwrap_or(random_local_partition);
        lock_set.insert(base);
        // OP3: only committing, never-aborting, single-partition estimates
        // qualify; the strict comparison stops disabling as the threshold
        // approaches one (Fig. 13's right edge). A model that never saw an
        // abort for an aborting procedure is not trusted — mispredicting
        // here is unrecoverable (§4.3).
        let trust_abort = pred.trust_abort_estimates(model_idx);
        let est_complete = est.reached_commit
            && est.uncertain_steps == 0
            && est.alt_partitions.is_subset(lock_set);
        // The whole transaction may skip undo only if its control code
        // cannot abort (§4.3).
        let disable_undo = !pred.can_abort
            && trust_abort
            && est_complete
            && est.abort_prob < 1e-9
            && lock_set.is_single()
            && 1.0 - est.abort_prob > self.cfg.threshold;

        // Oracle-style OP4 plan from the estimate: partitions whose last
        // predicted access is step i can early-prepare once step i has
        // executed — provided the transaction follows the estimate.
        let finish_plan = last_access_finish_plan(&est.step_partitions);
        // Loop gate, mirroring the table-finish rule: a model with query
        // loops (any state at counter > 0) may have reached commit through
        // a *shorter* trained iteration path than this request will
        // actually take — the plan's "last access" steps then release
        // partitions the remaining iterations still need, and every such
        // release is an abort-restart. Loop-free
        // models cannot under-run, so only they may drive early prepares.
        let model_loop_free = model_is_loop_free(model);
        let follow_plan = est_complete && model_loop_free && est.confidence >= self.cfg.threshold;
        let core = TxnCore {
            lock_set,
            declared: PartitionSet::EMPTY,
            undo_disabled: disable_undo,
            trust_abort,
            est_complete,
            step_queries: est.step_queries,
            step_partitions: est.step_partitions,
            finish_plan,
            est_pos: follow_plan.then_some(0),
            model_loop_free,
            passive: false,
        };
        let plan = TxnPlan {
            base_partition: base,
            lock_set,
            disable_undo,
            early_prepare: self.cfg.early_prepare,
            estimate_cost_us: 0.0,
            estimate_reused: false,
        };
        (plan, core)
    }

    /// Fills `key` for a request that selected `model_idx`: the model
    /// index, then per routing source its partition, or an array's length
    /// and then each element's partition, or a marker (see [`PlanTable`]).
    fn fill_key(
        &self,
        key: &mut Vec<u64>,
        pred: &ProcPredictor,
        model_idx: usize,
        req: &Request,
        rule: &CatalogRule<'_>,
    ) {
        let sources = pred.plans.sources.get_or_init(|| {
            let mut sources = Vec::new();
            for (q, def) in self.catalog.proc(req.proc).queries.iter().enumerate() {
                let PartitionHint::Param(param) = def.hint else { continue };
                if let Some(m) = pred.mapping.get(q as QueryId, param) {
                    if !sources.contains(&m.source) {
                        sources.push(m.source);
                    }
                }
            }
            sources
        });
        key.clear();
        key.push(model_idx as u64);
        for source in sources {
            match *source {
                ParamSource::Scalar(k) => {
                    key.push(req.args.get(k).map_or(SIG_MISSING, |v| rule.partition_of(v).into()));
                }
                ParamSource::ArrayElement(k) => match req.args.get(k).and_then(Value::as_array) {
                    Some(elems) => {
                        key.push(elems.len() as u64);
                        key.extend(elems.iter().map(|v| u64::from(rule.partition_of(v))));
                    }
                    None => key.push(SIG_NOT_ARRAY),
                },
            }
        }
    }

    /// The planning body (§4.3): select the model, then serve the plan
    /// from the epoch's [`PlanTable`] or estimate the path and derive the
    /// OP1–OP4 decisions. Returns the plan and the model index, and leaves
    /// the decision state in `core` and the table key in `key`, both the
    /// session's buffers.
    fn plan_into(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        pred: &ProcPredictor,
        key: &mut Vec<u64>,
        core: &mut TxnCore,
    ) -> (TxnPlan, usize) {
        if pred.disabled {
            let (plan, passive) = self.passive_plan(pred, 0, ctx.random_local_partition);
            *core = passive;
            return (plan, 0);
        }
        let model_idx = pred.models.select(&req.args);
        let rule = CatalogRule::new(&self.catalog, req.proc, self.num_partitions);
        self.fill_key(key, pred, model_idx, req, &rule);
        if let Some(plan) = pred.plans.get_into(key, core) {
            return (TxnPlan { estimate_reused: true, ..plan }, model_idx);
        }
        let model = pred.models.model(model_idx);
        let est = estimate_path(model, &rule, &pred.mapping, &req.args, &EstimateConfig::default());
        let cost = f64::from(est.states_examined) * EST_COST_PER_STATE_US;
        if !est.reached_commit && !est.reached_abort {
            // The walk dead-ended (a state never seen in training, §4.4):
            // the lock set cannot be trusted. Fall back to lock-all with
            // tracking rather than gamble on a mispredict restart, based at
            // the partial walk's most-accessed partition, or at this
            // request's random draw when the walk took no query step. Not
            // stored: the plan table holds the plans of complete estimates.
            let base = est.best_base().unwrap_or(ctx.random_local_partition);
            let (mut plan, passive) = self.passive_plan(pred, model_idx, base);
            plan.estimate_cost_us = cost;
            *core = passive;
            return (plan, model_idx);
        }
        // An estimate with no query step has no best base, so its plan's
        // base is the random draw too.
        let store = est.best_base().is_some();
        let (mut plan, fresh) =
            self.plan_from_estimate(pred, model_idx, est, ctx.random_local_partition);
        plan.estimate_cost_us = cost;
        if store {
            pred.plans.insert(key, plan, &fresh);
        }
        *core = fresh;
        (plan, model_idx)
    }
}

/// Per-transaction scratch state: the `TxnCore` decision state plus a
/// *read-only* model walk against the predictor epoch the transaction
/// planned with. The session pins that epoch's snapshot, so a maintenance
/// swap mid-transaction never moves the model under an in-flight walk;
/// states the snapshot has never seen turn the walk dark, and the executed
/// path is handed back as [`TxnFeedback`] at teardown so the maintainer
/// can intern them into the *next* epoch (§4.5).
pub struct LiveTxn {
    proc: ProcId,
    model_idx: usize,
    /// Predictor epoch this transaction planned against.
    epoch: u64,
    /// The pinned predictor snapshot (epoch `epoch`).
    procs: Arc<Vec<ProcPredictor>>,
    /// Where the walk stands (vertex identity, §3.1).
    cursor: VertexCursor,
    /// Executed `(query, partitions)` path, for teardown feedback.
    steps: Vec<(QueryId, PartitionSet)>,
    core: TxnCore,
    /// The request's [`PlanTable`] key.
    key: Vec<u64>,
}

impl LiveAdvisor for Houdini {
    type Session = LiveTxn;

    fn name(&self) -> &str {
        "houdini"
    }

    fn plan_live_reusing(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        spare: Option<LiveTxn>,
    ) -> (TxnPlan, LiveTxn) {
        // Pin the current predictor epoch for this whole transaction.
        let (epoch, procs) = self.epochs.load_with_epoch();
        // The spare is raw capacity: its walk cursor and step vector are
        // emptied, and its decision state and key are overwritten.
        let (mut cursor, mut steps, mut core, mut key) = match spare {
            Some(old) => (old.cursor, old.steps, old.core, old.key),
            None => Default::default(),
        };
        cursor.reset();
        steps.clear();
        let (plan, model_idx) =
            self.plan_into(req, ctx, &procs[req.proc as usize], &mut key, &mut core);
        (plan, LiveTxn { proc: req.proc, model_idx, epoch, procs, cursor, steps, core, key })
    }

    fn on_query_live(&self, cur: &mut LiveTxn, q: &ExecutedQuery) -> Updates {
        if cur.core.passive {
            return Updates::default();
        }
        let pred = &cur.procs[cur.proc as usize];
        let model = pred.models.model(cur.model_idx);
        // Read-only walk against the pinned epoch: follow the trained
        // vertex if it exists; a state never seen in training turns the
        // walk dark here, and teardown feedback lets the maintainer intern
        // it into the next epoch (§4.4/§4.5).
        let to = model.find(&cur.cursor.next_key(q.query, q.partitions));
        cur.steps.push((q.query, q.partitions));
        updates_at_state(&self.cfg, self.num_partitions, pred, model, &mut cur.core, to, q)
    }

    fn replan_live(
        &self,
        req: &Request,
        observed: PartitionSet,
        _attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, LiveTxn) {
        // A transaction that touched an unpredicted partition restarts as a
        // multi-partition transaction locking all partitions (§6.4),
        // re-pinning whatever epoch is current now.
        let base = observed.first().unwrap_or(ctx.random_local_partition);
        let (epoch, procs) = self.epochs.load_with_epoch();
        let pred = &procs[req.proc as usize];
        let model_idx = if pred.disabled { 0 } else { pred.models.select(&req.args) };
        let (plan, core) = self.passive_plan(pred, model_idx, base);
        let session = LiveTxn {
            proc: req.proc,
            model_idx,
            epoch,
            procs,
            cursor: VertexCursor::default(),
            steps: Vec::new(),
            core,
            key: Vec::new(),
        };
        (plan, session)
    }

    fn end_live_reclaim(
        &self,
        mut session: LiveTxn,
        outcome: TxnOutcome,
    ) -> (Option<TxnFeedback>, Option<LiveTxn>) {
        // Model maintenance (§4.5) runs beside the transaction path: hand
        // back the executed path so the maintainer can update accuracy
        // windows and rebuild drifted models into the next epoch.
        let feedback = (self.cfg.maintenance && !session.core.passive).then(|| TxnFeedback {
            proc: session.proc,
            model: session.model_idx as u32,
            epoch: session.epoch,
            path: std::mem::take(&mut session.steps),
            terminal: match outcome {
                TxnOutcome::Committed => Some(true),
                TxnOutcome::UserAborted => Some(false),
                // A mispredict-aborted attempt: the executed prefix is real
                // signal, but no commit/abort edge was taken.
                TxnOutcome::Mispredicted => None,
            },
        });
        // The session goes back to the caller as its spare. When
        // feedback was emitted, `steps` left with it (the maintainer owns
        // the path), so only the cursor's capacity is recycled on that
        // path; with maintenance off, both buffers survive.
        (feedback, Some(session))
    }

    fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
        if !self.cfg.maintenance {
            return None;
        }
        let monitors = self
            .epochs
            .load()
            .iter()
            .map(|pred| {
                vec![
                    ModelMonitor::with_min_window(self.cfg.maintenance_min_window);
                    pred.models.len()
                ]
            })
            .collect();
        Some(Box::new(HoudiniMaintainer {
            houdini: self,
            monitors,
            report: MaintenanceReport::default(),
        }))
    }
}

/// Houdini's §4.5 maintenance driver, owned by whichever engine runs the
/// advisor (the live runtime's background thread, or the simulator's event
/// loop). It consumes the feedback stream record by record:
/// each executed path is replayed against the *current* predictor epoch
/// (read-only) through that model's [`ModelMonitor`]; when a monitor's
/// accuracy window fills below the floor, the maintainer clones the
/// current epoch (cheap — models are `Arc`-shared), deep-copies only the
/// drifted model, folds the accumulated live counts and dark-state
/// placeholders into the copy ([`ModelMonitor::recompute`]), and publishes
/// the result as the next epoch. Traffic never stops: in-flight sessions
/// keep their pinned snapshot, fresh plans pick up the rebuilt models.
struct HoudiniMaintainer<'a> {
    houdini: &'a Houdini,
    /// Accuracy monitors/accumulators, per procedure per model.
    monitors: Vec<Vec<ModelMonitor>>,
    report: MaintenanceReport,
}

impl LiveMaintainer for HoudiniMaintainer<'_> {
    fn absorb(&mut self, fb: TxnFeedback) {
        self.report.feedback_records += 1;
        let h = self.houdini;
        let (_, procs) = h.epochs.load_with_epoch();
        let pred = &procs[fb.proc as usize];
        if pred.disabled {
            return;
        }
        // Model count per procedure is fixed at training time (swaps only
        // replace model contents), so the session's index stays valid
        // across epochs; clamp defensively all the same.
        let idx = (fb.model as usize).min(pred.models.len() - 1);
        let monitor = &mut self.monitors[fb.proc as usize][idx];
        let resolver = CatalogResolver::new(&h.catalog, h.num_partitions);
        let (observed, matched) =
            monitor.observe_walk(pred.models.model(idx), &fb.path, fb.terminal, &resolver);
        // Accuracy is attributed to the epoch the transaction planned
        // with: a swap shows up as a fresh epoch entry whose accuracy
        // recovers.
        engine::EpochAccuracy::merge_into(
            &mut self.report.epoch_accuracy,
            fb.epoch,
            observed,
            matched,
        );
        if monitor.is_stale() {
            // Rebuild only the drifted model: snapshot-clone the epoch
            // (pointer bumps), deep-copy the one model, fold the live
            // counts in, publish.
            let mut next: Vec<ProcPredictor> = (*procs).clone();
            let model = Arc::make_mut(next[fb.proc as usize].models.model_arc_mut(idx));
            monitor.recompute(model);
            h.epochs.store(next);
            self.report.model_swaps += 1;
        }
    }

    fn report(&self) -> MaintenanceReport {
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainingConfig};
    use common::Value;
    use engine::{run_offline, CostModel, RequestGenerator, SimConfig, Simulation};
    use mapping::ProcMapping;
    use trace::{TraceRecord, Workload};
    use workloads::{tpcc, Bench};

    fn trained(parts: u32, n: usize, partitioned: bool) -> (Houdini, Catalog) {
        let reg = Bench::Tpcc.registry();
        let catalog = reg.catalog();
        let mut gen = tpcc::Generator::new(parts, 7);
        let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &reg, &mut gen, n, 8);
        let cfg = TrainingConfig { partitioned };
        let preds = train(&catalog, parts, &wl, &cfg);
        (Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default()), catalog)
    }

    /// A second advisor over `h`'s current predictors, with knobs `cfg`.
    fn rebuilt(h: &Houdini, cfg: HoudiniConfig) -> Houdini {
        Houdini::new((*h.live_predictors()).clone(), h.catalog.clone(), h.num_partitions, cfg)
    }

    fn new_order_req(w: i64, o: i64, item_ws: &[i64]) -> Request {
        Request {
            proc: 1,
            args: vec![
                Value::Int(w),
                Value::Int(o),
                Value::Int(3),
                Value::Array((0..item_ws.len()).map(|k| Value::Int(k as i64 + 1)).collect()),
                Value::Array(item_ws.iter().map(|&x| Value::Int(x)).collect()),
                Value::Array(item_ws.iter().map(|_| Value::Int(1)).collect()),
            ],
            origin_node: 0,
        }
    }

    /// 2-partition planning context over `catalog`.
    fn ctx(catalog: &Catalog) -> PlanContext<'_> {
        PlanContext { catalog, num_partitions: 2, random_local_partition: 0 }
    }

    #[test]
    fn plans_local_new_order_single_partition() {
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(1, 90_000, &[1, 1, 1]);
        let (plan, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert_eq!(plan.base_partition, 1);
        assert_eq!(plan.lock_set, PartitionSet::single(1));
        assert!(plan.estimate_cost_us > 0.0);
    }

    #[test]
    fn plans_remote_new_order_distributed() {
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_001, &[0, 0, 1]);
        let (plan, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert_eq!(plan.lock_set, PartitionSet::all(2));
        assert_eq!(plan.base_partition, 0, "home warehouse accessed most");
    }

    #[test]
    fn never_disables_undo_for_abortable_path() {
        // NewOrder can abort (invalid item, ~1%): its estimated abort
        // probability is nonzero, so OP3 must stay off initially.
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_002, &[0, 0, 0]);
        let (plan, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert!(!plan.disable_undo);
    }

    #[test]
    fn never_disables_undo_in_a_loop_longer_than_any_aborting_record() {
        // NewOrder aborts after its CheckStock batch when its last item is
        // invalid. Training keeps only the aborting orders of up to 7
        // items, so an 8-item local order whose last item is invalid
        // reaches a CheckStock counter no aborting record reached.
        let reg = Bench::Tpcc.registry();
        let catalog = reg.catalog();
        let mut gen = tpcc::Generator::new(2, 7);
        let mut wl = engine::collect_trace(&mut Bench::Tpcc.database(2), &reg, &mut gen, 600, 8);
        wl.records.retain(|r| !(r.proc == 1 && r.aborted && r.queries.len() > 8));
        let preds = train(&catalog, 2, &wl, &TrainingConfig { partitioned: false });
        assert!(preds[1].abort_rate > 0.0, "no aborting order left in training");
        let h = Houdini::new(preds, catalog.clone(), 2, HoudiniConfig::default());
        let mut req = new_order_req(1, 90_013, &[1; 8]);
        let Value::Array(items) = &mut req.args[3] else { unreachable!() };
        items[7] = Value::Int(tpcc::INVALID_ITEM);
        let out = run_offline(&mut Bench::Tpcc.database(2), &reg, &catalog, 1, &req.args, true)
            .expect("offline run");
        assert!(out.record.aborted);
        let (plan, mut session) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert_eq!(plan.lock_set, PartitionSet::single(1));
        assert!(!plan.disable_undo);
        let resolver = CatalogResolver::new(&catalog, 2);
        for (i, q) in out.record.queries.iter().enumerate() {
            use trace::PartitionResolver as _;
            let executed = ExecutedQuery {
                query: q.query,
                params: q.params.clone(),
                partitions: resolver.partitions(1, q.query, &q.params),
                is_write: catalog.proc(1).query(q.query).is_write(),
            };
            let upd = h.on_query_live(&mut session, &executed);
            assert!(!upd.disable_undo, "undo logging off at query {i} of an aborting order");
        }
    }

    #[test]
    fn replan_locks_all_and_goes_passive() {
        let (h, catalog) = trained(2, 400, false);
        let req = new_order_req(0, 90_003, &[0, 0, 0]);
        let (plan, mut session) = h.replan_live(&req, PartitionSet::single(1), 1, &ctx(&catalog));
        assert_eq!(plan.lock_set, PartitionSet::all(2));
        assert!(!plan.disable_undo);
        // The retry keeps undo logging on no matter what it observes.
        let upd = h.on_query_live(
            &mut session,
            &ExecutedQuery {
                query: 0,
                params: vec![Value::Int(0)],
                partitions: PartitionSet::single(0),
                is_write: false,
            },
        );
        assert!(!upd.disable_undo);
    }

    #[test]
    fn threshold_zero_locks_everything() {
        let (h, catalog) = trained(2, 400, false);
        let req = new_order_req(1, 90_004, &[1, 1, 1]);
        // `h`'s table holds the plan made at the default threshold, which
        // must not serve an advisor built from the same predictors.
        let _ = h.plan_live_reusing(&req, &ctx(&catalog), None);
        let h = rebuilt(&h, HoudiniConfig { threshold: 0.0, ..HoudiniConfig::default() });
        let (plan, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert_eq!(
            plan.lock_set,
            PartitionSet::all(2),
            "threshold 0 admits every access estimation (Fig. 13)"
        );
        assert!(!plan.disable_undo);
    }

    #[test]
    fn early_prepare_knob_gates_op4_plans() {
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_005, &[0, 0, 1]);
        let (on, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert!(on.early_prepare);
        // Built from predictors whose table held the OP4-on plan.
        let h = rebuilt(&h, HoudiniConfig { early_prepare: false, ..HoudiniConfig::default() });
        let (off, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert!(!off.early_prepare, "OP4 ablation must not early-prepare");
        // The rest of the plan is unchanged by the ablation.
        assert_eq!(off.lock_set, on.lock_set);
    }

    #[test]
    fn trained_advisor_is_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Houdini>();
        fn assert_session_send<T: Send>() {}
        assert_session_send::<LiveTxn>();
    }

    #[test]
    fn runtime_updates_declare_finished_partitions() {
        let (h, catalog) = trained(2, 800, false);
        let mut db = Bench::Tpcc.database(2);
        let reg = Bench::Tpcc.registry();
        // Remote payment: customer at partition 1, warehouse at 0.
        let req = Request {
            proc: 3,
            args: vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(5),
                Value::Int(100),
                Value::Int(77_000),
            ],
            origin_node: 0,
        };
        let (plan, mut session) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert_eq!(plan.lock_set.len(), 2, "payment locks buyer+warehouse");
        // Execute the real queries and feed them back; by the final history
        // insert, the customer partition should be declared finished.
        let out = run_offline(&mut db, &reg, &catalog, 3, &req.args, true).unwrap();
        let resolver = CatalogResolver::new(&catalog, 2);
        let mut declared = PartitionSet::EMPTY;
        for q in &out.record.queries {
            use trace::PartitionResolver as _;
            let parts = resolver.partitions(3, q.query, &q.params);
            let upd = h.on_query_live(
                &mut session,
                &ExecutedQuery {
                    query: q.query,
                    params: q.params.clone(),
                    partitions: parts,
                    is_write: catalog.proc(3).query(q.query).is_write(),
                },
            );
            declared = declared.union(upd.finished);
        }
        let _ = h.end_live_reclaim(session, TxnOutcome::Committed);
        assert!(
            declared.contains(1),
            "customer partition declared finished (OP4), declared = {declared}"
        );
    }

    /// A Houdini with partitioned models (the default training), trained on
    /// `n` requests of `bench`'s own generator at 2 partitions.
    fn trained_on(bench: Bench, n: usize) -> (Houdini, Catalog) {
        let reg = bench.registry();
        let catalog = reg.catalog();
        let mut gen = bench.client_generator(2, 7, 0);
        let wl = engine::collect_trace(&mut bench.database(2), &reg, &mut gen, n, 8);
        let preds = train(&catalog, 2, &wl, &TrainingConfig::default());
        (Houdini::new(preds, catalog.clone(), 2, HoudiniConfig::default()), catalog)
    }

    /// 2-partition planning context whose random draw is `draw`.
    fn ctx_drawing(catalog: &Catalog, draw: u32) -> PlanContext<'_> {
        PlanContext { random_local_partition: draw, ..ctx(catalog) }
    }

    /// Houdini planning every request from scratch, against a copy of the
    /// predictor, whose table is empty. Everything else is `.0`'s own.
    struct Untabled<'a>(&'a Houdini);

    impl LiveAdvisor for Untabled<'_> {
        type Session = LiveTxn;

        fn name(&self) -> &str {
            "houdini-untabled"
        }

        fn plan_live_reusing(
            &self,
            req: &Request,
            ctx: &PlanContext<'_>,
            _spare: Option<LiveTxn>,
        ) -> (TxnPlan, LiveTxn) {
            let (epoch, procs) = self.0.epochs.load_with_epoch();
            let pred = procs[req.proc as usize].clone();
            let (mut key, mut core) = Default::default();
            let (plan, model_idx) = self.0.plan_into(req, ctx, &pred, &mut key, &mut core);
            assert!(!plan.estimate_reused, "a copied predictor's table must be empty");
            let (cursor, steps) = Default::default();
            (plan, LiveTxn { proc: req.proc, model_idx, epoch, procs, cursor, steps, core, key })
        }

        fn on_query_live(&self, session: &mut LiveTxn, q: &ExecutedQuery) -> Updates {
            self.0.on_query_live(session, q)
        }

        fn replan_live(
            &self,
            req: &Request,
            observed: PartitionSet,
            attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, LiveTxn) {
            self.0.replan_live(req, observed, attempt, ctx)
        }

        fn end_live_reclaim(
            &self,
            session: LiveTxn,
            outcome: TxnOutcome,
        ) -> (Option<TxnFeedback>, Option<LiveTxn>) {
            self.0.end_live_reclaim(session, outcome)
        }

        fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
            self.0.maintainer()
        }
    }

    /// Plans `req` from `spare` (the epoch's table may serve it) and from
    /// scratch, asserts that the two agree in the plan, the model index and
    /// every decision field, and returns the first.
    fn plan_checked(
        h: &Houdini,
        req: &Request,
        ctx: &PlanContext<'_>,
        spare: Option<LiveTxn>,
    ) -> (TxnPlan, LiveTxn) {
        let (plan, session) = h.plan_live_reusing(req, ctx, spare);
        let (fresh, fresh_session) = Untabled(h).plan_live_reusing(req, ctx, None);
        assert_eq!(TxnPlan { estimate_reused: false, ..plan }, fresh, "plan for {req:?}");
        assert_eq!(session.model_idx, fresh_session.model_idx, "model for {req:?}");
        assert_eq!(session.core, fresh_session.core, "decisions for {req:?}");
        (plan, session)
    }

    #[test]
    fn memo_serves_exactly_the_fresh_plan_on_every_benchmark() {
        for bench in Bench::ALL {
            let (h, catalog) = trained_on(bench, 1500);
            // One spare for every procedure, as a client keeps it.
            let mut spare = None;
            let (mut hits, mut plans) = (0u32, 0u32);
            for seed in [99, 5] {
                let mut gen = bench.client_generator(2, seed, 0);
                for i in 0..600u32 {
                    let (proc, args) = gen.next_request(0);
                    let req = Request { proc, args, origin_node: 0 };
                    // The draw alternates, so a plan that used it cannot
                    // hide in the table.
                    let ctx = ctx_drawing(&catalog, i % 2);
                    let (plan, session) = plan_checked(&h, &req, &ctx, spare.take());
                    hits += u32::from(plan.estimate_reused);
                    plans += 1;
                    let (_, reclaimed) = h.end_live_reclaim(session, TxnOutcome::Committed);
                    spare = reclaimed;
                }
            }
            assert!(hits * 2 > plans, "{}: {hits} table hits in {plans} plans", bench.name());
        }
    }

    #[test]
    fn table_serves_callers_without_a_spare() {
        // Two clients, or the simulator, which keeps no spare at all.
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_012, &[0, 0, 1]);
        let (first, _) = plan_checked(&h, &req, &ctx(&catalog), None);
        assert!(!first.estimate_reused && first.estimate_cost_us > 0.0);
        let (again, _) = plan_checked(&h, &req, &ctx(&catalog), None);
        assert!(again.estimate_reused);
        assert_eq!(again.estimate_cost_us, first.estimate_cost_us, "a hit is charged as before");
    }

    #[test]
    fn threads_sharing_a_table_get_identical_plans() {
        for bench in [Bench::Tatp, Bench::Tpcc] {
            let (h, catalog) = trained_on(bench, 1500);
            let mut gen = bench.client_generator(2, 13, 0);
            let reqs: Vec<Request> = (0..400)
                .map(|_| {
                    let (proc, args) = gen.next_request(0);
                    Request { proc, args, origin_node: 0 }
                })
                .collect();
            let run = || {
                let mut spare = None;
                let mut out = Vec::new();
                for req in &reqs {
                    let (plan, session) = plan_checked(&h, req, &ctx(&catalog), spare.take());
                    out.push((TxnPlan { estimate_reused: false, ..plan }, session.core.clone()));
                    spare = h.end_live_reclaim(session, TxnOutcome::Committed).1;
                }
                out
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(run);
                let b = s.spawn(run);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(a == b, "{}: the two threads planned differently", bench.name());
        }
    }

    /// Outcome counters, Table 4 counters, latency quantiles and Fig. 11
    /// bucket totals of one short 2-partition simulation of `bench`.
    fn simulated<A: LiveAdvisor>(bench: Bench, advisor: &A) -> (String, u64) {
        let mut db = bench.database(2);
        let reg = bench.registry();
        let mut gen = bench.generator(2, 11);
        let cfg = SimConfig {
            num_partitions: 2,
            warmup_us: 10_000.0,
            measure_us: 60_000.0,
            ..Default::default()
        };
        let sim = Simulation::new(&mut db, &reg, advisor, &mut gen, CostModel::default(), cfg);
        let m = sim.run().expect("simulation must not halt");
        let profile = &m.profile;
        let mut by_proc: Vec<_> = m.committed_by_proc.into_iter().collect();
        by_proc.sort_unstable();
        let mut ops: Vec<_> = m.ops.into_iter().map(|(p, o)| (p, format!("{o:?}"))).collect();
        ops.sort_unstable();
        let buckets = engine::Bucket::ALL.map(|b| profile.overall_share(b).to_bits());
        let outcome = format!(
            "{:?}",
            (
                (m.committed, m.user_aborts, m.restarts, m.distributed, m.single_partition),
                (m.speculative, m.no_undo, m.model_swaps, by_proc, ops),
                (m.latency.p50_ms(), m.latency.p99_ms(), profile.grand_total_us().to_bits()),
                buckets,
            )
        );
        (outcome, m.est_reused_by_proc.values().sum())
    }

    #[test]
    fn simulator_reuses_plans_without_moving_an_outcome() {
        let (h, _) = trained_on(Bench::Tatp, 1500);
        let twin = rebuilt(&h, HoudiniConfig::default());
        let (tabled, reused) = simulated(Bench::Tatp, &h);
        let (fresh, _) = simulated(Bench::Tatp, &Untabled(&twin));
        assert!(reused > 0, "the simulator never planned from the table");
        assert_eq!(tabled, fresh);
    }

    #[test]
    fn memo_key_counts_array_lengths() {
        // PostAuction routes on two arrays, sellers (0) and buyers (2). At
        // 2 partitions both requests read partitions 0, 1, 0, 1 from them,
        // split 2 + 2 in `a` and 1 + 3 in `b`: only the lengths tell the
        // two apart.
        let (h, catalog) = trained_on(Bench::AuctionMark, 1500);
        let proc = catalog.proc_id("PostAuction").expect("AuctionMark proc");
        let ints = |v: &[i64]| Value::Array(v.iter().map(|&x| Value::Int(x)).collect());
        let a = Request {
            proc,
            args: vec![ints(&[2, 3]), ints(&[20, 30]), ints(&[4, 5])],
            origin_node: 0,
        };
        let b =
            Request { proc, args: vec![ints(&[2]), ints(&[20]), ints(&[3, 4, 5])], origin_node: 0 };
        let ctx = ctx(&catalog);
        let (_, session) = plan_checked(&h, &a, &ctx, None);
        let (again, session) = plan_checked(&h, &a, &ctx, Some(session));
        assert!(again.estimate_reused, "`a` is in the table");
        let (other, _) = plan_checked(&h, &b, &ctx, Some(session));
        assert!(!other.estimate_reused, "`b` has a key of its own");
    }

    #[test]
    fn memo_never_serves_a_dead_end() {
        // NewOrder without items: training never saw a NewOrder commit
        // before its first item, so the walk dead-ends and the plan falls
        // back to lock-all, based where the partial walk went most: the
        // home warehouse's partition 0, not the request's draw of 1.
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_010, &[]);
        let (first, session) = plan_checked(&h, &req, &ctx_drawing(&catalog, 1), None);
        assert!(first.estimate_cost_us > 0.0, "an estimate was attempted");
        assert_eq!(first.lock_set, PartitionSet::all(2), "the dead end locks everything");
        assert!(session.core.step_queries.is_empty());
        assert_eq!(first.base_partition, 0, "the partial walk's most-accessed partition");
        let (again, _) = plan_checked(&h, &req, &ctx_drawing(&catalog, 1), Some(session));
        assert!(!again.estimate_reused);
        assert_eq!(again.base_partition, 0);
    }

    #[test]
    fn memo_never_serves_an_estimate_without_a_query_step() {
        // Every training record of OrderStatus committed without a query,
        // so its estimate goes straight from begin to commit: no partition
        // is accessed and the base is the request's random draw.
        let catalog = Bench::Tpcc.registry().catalog();
        let proc = catalog.proc_id("OrderStatus").expect("TPC-C proc");
        let records: Vec<TraceRecord> = (0..20)
            .map(|i| TraceRecord {
                proc,
                params: vec![Value::Int(i)],
                queries: Vec::new(),
                batch_ends: Vec::new(),
                aborted: false,
            })
            .collect();
        let preds = train(&catalog, 2, &Workload { records }, &TrainingConfig::default());
        let h = Houdini::new(preds, catalog.clone(), 2, HoudiniConfig::default());
        let req = Request { proc, args: vec![Value::Int(3)], origin_node: 0 };
        let (first, session) = plan_checked(&h, &req, &ctx_drawing(&catalog, 0), None);
        assert!(!session.core.passive && session.core.step_queries.is_empty());
        assert_eq!(first.base_partition, 0);
        let (again, _) = plan_checked(&h, &req, &ctx_drawing(&catalog, 1), Some(session));
        assert!(!again.estimate_reused);
        assert_eq!(again.base_partition, 1, "the base is this request's own draw");
    }

    #[test]
    fn epoch_swap_empties_the_memo() {
        let (h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_011, &[0, 0, 1]);
        let ctx = ctx(&catalog);
        let (_, session) = plan_checked(&h, &req, &ctx, None);
        let (old, session) = plan_checked(&h, &req, &ctx, Some(session));
        assert!(old.estimate_reused);
        let old_core = session.core.clone();
        // The next epoch forgets NewOrder's parameter mapping, so its walk
        // can only follow the trained edges' own partitions.
        let mut next = (*h.live_predictors()).clone();
        next[req.proc as usize].mapping = ProcMapping::empty();
        let table_len =
            |procs: &[ProcPredictor]| procs[req.proc as usize].plans.plans.read().unwrap().len();
        assert_eq!(table_len(&next), 0, "a published epoch starts with an empty table");
        h.epochs.store(next);
        // `session` is still in flight: it keeps its epoch, whose table
        // still serves its plan.
        assert_eq!((session.epoch, h.live_epoch()), (0, 1));
        assert_eq!(table_len(&session.procs), 1);
        let mut core = TxnCore::default();
        let pinned = session.procs[req.proc as usize].plans.get_into(&session.key, &mut core);
        assert_eq!(pinned, Some(TxnPlan { estimate_reused: false, ..old }));
        assert_eq!(core, old_core);
        let (new, session) = plan_checked(&h, &req, &ctx, Some(session));
        assert!(!new.estimate_reused, "a plan from the previous epoch was served");
        assert!(
            TxnPlan { estimate_reused: true, ..new } != old || session.core != old_core,
            "the swap must change the plan for this test to mean anything"
        );
    }
}
