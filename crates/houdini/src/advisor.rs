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
use common::{EpochCell, PartitionSet, ProcId, QueryId, Value};
use engine::{
    Catalog, CatalogResolver, ExecutedQuery, LiveAdvisor, LiveMaintainer, MaintenanceReport,
    PlanContext, Request, TxnFeedback, TxnOutcome, TxnPlan, Updates,
};
use markov::{estimate_path, EstimateConfig, ModelMonitor, QueryKind, VertexCursor, VertexId};
use std::sync::Arc;

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
    /// The transaction had a followed estimate and left it (§4.4
    /// deviation) — reported in feedback as a drift signal.
    deviated: bool,
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
    // after disabling undo would be unrecoverable.
    if let Some(to) = to {
        let vtx = model.vertex(to);
        let table = &vtx.table;
        let sig_safe = match vtx.key.kind {
            QueryKind::Query(qid) => {
                !pred.can_abort
                    || (pred.abort_rate > 0.0
                        && !pred.unsafe_signatures.contains(&(qid, vtx.key.counter)))
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
            core.deviated = true;
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
    catalog: Catalog,
    num_partitions: u32,
    /// Knobs.
    pub cfg: HoudiniConfig,
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
    fn passive_live(
        &self,
        epoch: u64,
        procs: &Arc<Vec<ProcPredictor>>,
        proc: ProcId,
        args: &[Value],
        base: u32,
    ) -> (TxnPlan, LiveTxn) {
        let pred = &procs[proc as usize];
        let model_idx = if pred.disabled { 0 } else { pred.models.select(args) };
        let track = !pred.disabled;
        let lock_set = PartitionSet::all(self.num_partitions);
        let core = TxnCore {
            lock_set,
            declared: PartitionSet::EMPTY,
            undo_disabled: false,
            trust_abort: false,
            est_complete: false,
            step_queries: Vec::new(),
            step_partitions: Vec::new(),
            finish_plan: Vec::new(),
            est_pos: None,
            model_loop_free: model_is_loop_free(pred.models.model(model_idx)),
            passive: !track,
            deviated: false,
        };
        let plan = TxnPlan {
            base_partition: base,
            lock_set,
            disable_undo: false,
            early_prepare: track && self.cfg.early_prepare,
            estimate_cost_us: 0.0,
        };
        (plan, LiveTxn::begin(proc, model_idx, epoch, procs, core))
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
        let disable_undo = pred.abort_safe_initial()
            && trust_abort
            && est_complete
            && est.abort_prob < 1e-9
            && lock_set.is_single()
            && 1.0 - est.abort_prob > self.cfg.threshold;

        // Oracle-style OP4 plan from the estimate: partitions whose last
        // predicted access is step i can early-prepare once step i has
        // executed — provided the transaction follows the estimate.
        let mut finish_plan = vec![PartitionSet::EMPTY; est.step_partitions.len()];
        let mut later = PartitionSet::EMPTY;
        for i in (0..est.step_partitions.len()).rev() {
            finish_plan[i] = est.step_partitions[i].difference(later);
            later = later.union(est.step_partitions[i]);
        }
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
            deviated: false,
        };
        let plan = TxnPlan {
            base_partition: base,
            lock_set,
            disable_undo,
            early_prepare: self.cfg.early_prepare,
            estimate_cost_us: 0.0,
        };
        (plan, core)
    }

    /// The planning body (§4.3): pin the current epoch, estimate the path,
    /// derive the OP1–OP4 decisions.
    fn plan(&self, req: &Request, ctx: &PlanContext<'_>) -> (TxnPlan, LiveTxn) {
        let proc = req.proc;
        // Pin the current predictor epoch for this whole transaction.
        let (epoch, procs) = self.epochs.load_with_epoch();
        let pred = &procs[proc as usize];
        if pred.disabled {
            return self.passive_live(epoch, &procs, proc, &req.args, ctx.random_local_partition);
        }
        let model_idx = pred.models.select(&req.args);
        let model = pred.models.model(model_idx);
        let rule = CatalogRule::new(&self.catalog, proc, self.num_partitions);
        let est = estimate_path(model, &rule, &pred.mapping, &req.args, &EstimateConfig::default());
        let cost = f64::from(est.states_examined) * EST_COST_PER_STATE_US;
        if !est.reached_commit && !est.reached_abort {
            // The walk dead-ended (a state never seen in training, §4.4):
            // the lock set cannot be trusted. Fall back to lock-all with
            // tracking rather than gamble on a mispredict restart.
            let (mut plan, session) =
                self.passive_live(epoch, &procs, proc, &req.args, ctx.random_local_partition);
            plan.estimate_cost_us = cost;
            return (plan, session);
        }
        let (mut plan, core) =
            self.plan_from_estimate(pred, model_idx, est, ctx.random_local_partition);
        plan.estimate_cost_us = cost;
        (plan, LiveTxn::begin(proc, model_idx, epoch, &procs, core))
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
}

impl LiveTxn {
    /// A fresh session at the begin state of `procs[proc]`'s model.
    fn begin(
        proc: ProcId,
        model_idx: usize,
        epoch: u64,
        procs: &Arc<Vec<ProcPredictor>>,
        core: TxnCore,
    ) -> Self {
        LiveTxn {
            proc,
            model_idx,
            epoch,
            procs: procs.clone(),
            cursor: VertexCursor::default(),
            steps: Vec::new(),
            core,
        }
    }
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
        let (plan, mut session) = self.plan(req, ctx);
        if let Some(mut old) = spare {
            // Graft only raw capacity into the fresh session: the walk
            // cursor and step vector are cleared, and every prediction
            // field (epoch snapshot, core decisions) was already rebuilt by
            // `plan` against the current epoch, so no stale state can
            // survive. This is what makes the repeat-proc fast path
            // allocation-free in steady state.
            old.cursor.reset();
            session.cursor = std::mem::take(&mut old.cursor);
            old.steps.clear();
            session.steps = std::mem::take(&mut old.steps);
        }
        (plan, session)
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
        self.passive_live(epoch, &procs, req.proc, &req.args, base)
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
            deviated: session.core.deviated,
            predicted: session.core.lock_set,
        });
        // The session goes back to the caller's per-procedure cache. When
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
    use engine::run_offline;
    use workloads::{tpcc, Bench};

    fn trained(parts: u32, n: usize, partitioned: bool) -> (Houdini, Catalog) {
        let reg = Bench::Tpcc.registry();
        let catalog = reg.catalog();
        let mut gen = tpcc::Generator::new(parts, 7);
        let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &reg, &mut gen, n, 8);
        let cfg = TrainingConfig { partitioned, ..Default::default() };
        let preds = train(&catalog, parts, &wl, &cfg);
        (Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default()), catalog)
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
        let (mut h, catalog) = trained(2, 400, false);
        h.cfg.threshold = 0.0;
        let req = new_order_req(1, 90_004, &[1, 1, 1]);
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
        let (mut h, catalog) = trained(2, 600, false);
        let req = new_order_req(0, 90_005, &[0, 0, 1]);
        let (on, _) = h.plan_live_reusing(&req, &ctx(&catalog), None);
        assert!(on.early_prepare);
        h.cfg.early_prepare = false;
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
}
