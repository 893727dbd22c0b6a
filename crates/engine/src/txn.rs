//! The transaction-step kernel: the per-transaction protocol decisions every
//! driver makes the same way, written once. The drivers are the simulator
//! ([`crate::Simulation`], every paper figure), the live fast path
//! (`runtime::worker::run_single`) and the live coordinator
//! (`runtime::coord::run_distributed` under `Client::call`); the offline
//! executor ([`crate::run_offline`]) steps the same [`Cursor`].
//!
//! * [`Cursor`] steps the procedure's control code batch by batch.
//! * [`Footprint::check_batch`] is the mispredict rule (§6.4): a batch may
//!   only target locked partitions that were not released early.
//! * [`Footprint::observe`] folds one executed query into the attempt's
//!   footprint and applies the advisor's runtime updates (§4.4): OP3 turns
//!   undo logging off, OP4 declares partitions finished.
//! * [`Footprint::releasable`] is OP4's batch-end release; [`replan`] the
//!   mispredict fallback, and `RunMetrics::record_txn` the outcome record.
//!
//! [`replay`] is the fourth caller: Table 3 (`houdini::accuracy`) replays
//! each recorded transaction's batches through these steps.
//!
//! What stays with each driver: how a batch executes (the whole database,
//! one shard, or `ExecBatch` shipping), time (virtual `CostModel` charges or
//! the wall clock), write bookkeeping, durability and reply routing.

use crate::advisor::{LiveAdvisor, PlanContext, Request, TxnOutcome, TxnPlan, Updates};
use crate::catalog::{ProcDef, QueryDef};
use crate::exec::ExecutedQuery;
use crate::procedure::{ProcInstance, ProcedureRegistry, QueryInvocation, Step};
use common::{FxHashMap, PartitionId, PartitionSet, ProcId, Value};
use storage::{Row, UndoLog};
use trace::{QueryRecord, TraceRecord};

/// The control code of one attempt: the procedure instance, the last
/// batch's results, and a pending constraint abort.
pub(crate) struct Cursor {
    inst: Box<dyn ProcInstance>,
    results: Option<Vec<Vec<Row>>>,
    abort: Option<String>,
}

impl Cursor {
    /// Instantiates `proc` with `args`.
    pub(crate) fn new(registry: &ProcedureRegistry, proc: ProcId, args: &[Value]) -> Self {
        Cursor { inst: (registry.get(proc).start)(args), results: None, abort: None }
    }

    /// The control code's next step, fed the last batch's results — or
    /// `Step::Abort` if that batch hit a constraint violation.
    pub(crate) fn next(&mut self) -> Step {
        match self.abort.take() {
            Some(msg) => Step::Abort(msg),
            None => self.inst.next(self.results.as_deref()),
        }
    }

    /// Hands a finished batch's per-query rows to the next step.
    pub(crate) fn resume(&mut self, results: Vec<Vec<Row>>) {
        self.results = Some(results);
    }

    /// A query hit a constraint violation (duplicate key, bad arity): the
    /// transaction aborts like on any SQL error, at the next step.
    pub(crate) fn constraint(&mut self, msg: String) {
        self.abort = Some(msg);
    }
}

/// The partitions a run of queries touched, with the number of queries
/// that touched each.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Accesses {
    /// Partitions touched.
    pub touched: PartitionSet,
    /// Queries per touched partition.
    pub counts: FxHashMap<PartitionId, u32>,
}

impl Accesses {
    /// What `queries` of `def` touch on `num_partitions` partitions.
    pub fn of(def: &ProcDef, num_partitions: u32, queries: &[QueryRecord]) -> Self {
        let mut acc = Accesses::default();
        for q in queries {
            acc.add(def.query(q.query).estimate_partitions_n(num_partitions, &q.params));
        }
        acc
    }

    fn add(&mut self, partitions: PartitionSet) {
        self.touched = self.touched.union(partitions);
        for p in partitions.iter() {
            *self.counts.entry(p).or_insert(0) += 1;
        }
    }

    /// The OP1 rule (§6.2, §6.4): whether `base` is among the partitions
    /// accessed most; `None`, not applicable, when nothing was accessed or
    /// all `num_partitions` partitions were accessed equally often.
    pub fn base_is_best(&self, base: PartitionId, num_partitions: u32) -> Option<bool> {
        let max = self.counts.values().copied().max().unwrap_or(0);
        let uniform =
            self.touched.len() == num_partitions && self.counts.values().all(|&c| c == max);
        (max > 0 && !uniform).then(|| self.counts.get(&base) == Some(&max))
    }
}

/// What one attempt has done so far — what the mispredict rule and the
/// outcome record read.
#[derive(Debug, Default)]
pub struct Footprint {
    /// What the executed queries touched (OP1's "accessed most").
    pub accessed: Accesses,
    /// Some or all of the work ran without undo logging (OP3).
    pub undo_disabled_ever: bool,
    /// Partitions released by OP4's early prepare.
    pub early_released: PartitionSet,
}

impl Footprint {
    /// A fresh attempt's footprint and undo log, per OP3's initial decision.
    pub(crate) fn begin(plan: &TxnPlan) -> (Footprint, UndoLog) {
        let no_undo = plan.disable_undo;
        let fp = Footprint { undo_disabled_ever: no_undo, ..Footprint::default() };
        (fp, if no_undo { UndoLog::disabled() } else { UndoLog::new() })
    }

    /// The mispredict rule, checked before a batch touches storage: every
    /// target must lie inside the plan's lock set and outside the
    /// early-released set. A clean batch leaves each query's targets in
    /// `targets`. On a violation the attempt learns only the partitions of
    /// the queries up to and including the first offending one — it aborts
    /// there, like a real engine that discovers the violation when the
    /// query is dispatched — and `Err` carries `observed`: those plus
    /// `accessed`.
    ///
    /// Every driver runs each batch through here, so this is also where
    /// the advisor contract's base rule holds: a plan whose lock set omits
    /// its base partition is refused (a panic, in every build).
    pub(crate) fn check_batch(
        &self,
        def: &ProcDef,
        num_partitions: u32,
        batch: &[QueryInvocation],
        plan: &TxnPlan,
        targets: &mut Vec<PartitionSet>,
    ) -> Result<(), PartitionSet> {
        let lock_set = plan.lock_set;
        assert!(lock_set.contains(plan.base_partition), "{plan:?}: lock set omits its base");
        targets.clear();
        targets.reserve(batch.len());
        let mut seen = self.accessed.touched;
        for inv in batch {
            let t = def.query(inv.query).estimate_partitions_n(num_partitions, &inv.params);
            seen = seen.union(t);
            if !t.is_subset(lock_set) || !t.intersect(self.early_released).is_empty() {
                return Err(seen);
            }
            targets.push(t);
        }
        Ok(())
    }

    /// Folds one executed query into the footprint and reports it to the
    /// advisor (§4.4). OP3 turns undo logging off for the rest of the
    /// attempt; `undo` is `None` on the live
    /// coordinator, whose participants always keep theirs. OP4: the
    /// returned `finished` set is empty unless the plan early-prepares.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe<A: LiveAdvisor>(
        &mut self,
        advisor: &A,
        session: &mut A::Session,
        plan: &TxnPlan,
        undo: Option<&mut UndoLog>,
        def: &QueryDef,
        inv: QueryInvocation,
        partitions: PartitionSet,
    ) -> Updates {
        self.accessed.add(partitions);
        let q = ExecutedQuery {
            query: inv.query,
            params: inv.params,
            partitions,
            is_write: def.is_write(),
        };
        let mut upd = advisor.on_query_live(session, &q);
        if let Some(undo) = undo {
            if upd.disable_undo && undo.is_enabled() {
                undo.disable();
                self.undo_disabled_ever = true;
            }
        }
        if !plan.early_prepare {
            upd.finished = PartitionSet::EMPTY;
        }
        upd
    }

    /// OP4's release at a batch's end (§4.4): of the partitions the batch
    /// declared `finished`, those still held — locked, not yet released,
    /// and not `kept` (the simulator keeps its base, which runs the control
    /// code until commit).
    pub(crate) fn releasable(
        &self,
        finished: PartitionSet,
        lock_set: PartitionSet,
        kept: PartitionSet,
    ) -> PartitionSet {
        finished.intersect(lock_set).difference(self.early_released.union(kept))
    }
}

/// Mispredict restarts, in either engine, before a transaction falls back
/// to a lock-all plan.
pub(crate) const MAX_RESTARTS: u32 = 2;

/// The mispredict fallback: counts the attempt and replans from `observed`.
/// Past [`MAX_RESTARTS`] the *plan* is lock-all at `observed.first()`
/// whatever the advisor answered, guaranteeing termination for any
/// advisor; the replanned session still rides along.
pub(crate) fn replan<A: LiveAdvisor>(
    advisor: &A,
    req: &Request,
    ctx: &PlanContext<'_>,
    observed: PartitionSet,
    attempt: &mut u32,
    plan: &mut TxnPlan,
) -> A::Session {
    *attempt += 1;
    let (replanned, session) = advisor.replan_live(req, observed, *attempt, ctx);
    *plan = if *attempt > MAX_RESTARTS {
        TxnPlan::lock_all(observed.first().unwrap_or(plan.base_partition), ctx.num_partitions)
    } else {
        replanned
    };
    session
}

/// One attempt's decision record: the advisor's decisions, what the attempt
/// did and how it ended, and what the whole transaction touches.
#[derive(Debug)]
pub struct Decision {
    /// The plan, its lock set holding the base partition.
    pub plan: TxnPlan,
    /// What the attempt did, up to its end.
    pub footprint: Footprint,
    /// On a mispredict, the `observed` set of the mispredict rule.
    pub observed: Option<PartitionSet>,
    /// How the attempt ended.
    pub outcome: TxnOutcome,
    /// What the whole recorded transaction touches.
    pub record: Accesses,
}

/// Replays `rec`'s first attempt under `advisor` as the live runtime runs
/// it: one plan, then for each recorded batch the mispredict rule, each
/// query's runtime updates and, on a distributed plan only (the fast path
/// never releases), the batch-end release, base included. OP3's updates
/// count on every plan, as in the simulator. `spare` is the caller's
/// reclaimed session, taken and refilled.
pub fn replay<A: LiveAdvisor>(
    advisor: &A,
    ctx: &PlanContext<'_>,
    rec: &TraceRecord,
    spare: &mut Option<A::Session>,
) -> Decision {
    let def = ctx.catalog.proc(rec.proc);
    let req = Request { proc: rec.proc, args: rec.params.clone(), origin_node: 0 };
    let (plan, mut session) = advisor.plan_live_reusing(&req, ctx, spare.take());
    let (mut fp, mut undo) = Footprint::begin(&plan);
    let mut targets = Vec::new();
    let mut observed = None;
    for batch in rec.batches() {
        let batch: Vec<_> =
            batch.iter().map(|q| QueryInvocation::new(q.query, q.params.clone())).collect();
        let checked = fp.check_batch(def, ctx.num_partitions, &batch, &plan, &mut targets);
        if let Err(seen) = checked {
            observed = Some(seen);
            break;
        }
        let mut finished = PartitionSet::EMPTY;
        for (inv, &t) in batch.into_iter().zip(&targets) {
            let qdef = def.query(inv.query);
            let upd = fp.observe(advisor, &mut session, &plan, Some(&mut undo), qdef, inv, t);
            finished = finished.union(upd.finished);
        }
        if !plan.lock_set.is_single() {
            let released = fp.releasable(finished, plan.lock_set, PartitionSet::EMPTY);
            fp.early_released = fp.early_released.union(released);
        }
    }
    let outcome = match (observed, rec.aborted) {
        (Some(_), _) => TxnOutcome::Mispredicted,
        (None, true) => TxnOutcome::UserAborted,
        (None, false) => TxnOutcome::Committed,
    };
    *spare = advisor.end_live_reclaim(session, outcome).1;
    let record = Accesses::of(def, ctx.num_partitions, &rec.queries);
    Decision { plan, footprint: fp, observed, outcome, record }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::procedure::testing::kv_registry;

    /// `GetKV` reads of `ids` (id `i` lives at partition `i % 4`).
    fn reads(ids: &[i64]) -> Vec<QueryInvocation> {
        ids.iter().map(|&id| QueryInvocation::new(0, vec![Value::Int(id)])).collect()
    }

    fn check(
        fp: &Footprint,
        ids: &[i64],
        lock_set: &[u32],
    ) -> Result<Vec<PartitionSet>, PartitionSet> {
        let catalog = kv_registry().catalog();
        let mut targets = Vec::new();
        let locks = PartitionSet::from_iter(lock_set.iter().copied());
        let plan = TxnPlan { lock_set: locks, ..TxnPlan::single(lock_set[0]) };
        fp.check_batch(catalog.proc(0), 4, &reads(ids), &plan, &mut targets).map(|()| targets)
    }

    #[test]
    fn clean_batch_returns_per_query_targets() {
        let got = check(&Footprint::default(), &[1, 2, 5], &[1, 2]);
        let want = [1u32, 2, 1].map(PartitionSet::single);
        assert_eq!(got, Ok(want.to_vec()));
    }

    #[test]
    fn target_outside_lock_set_is_a_mispredict_observed_up_to_the_offender() {
        let accessed = Accesses { touched: PartitionSet::single(3), ..Accesses::default() };
        let fp = Footprint { accessed, ..Footprint::default() };
        // Query 2 (partition 2) offends; query 3 (partition 0) is never learned.
        let got = check(&fp, &[1, 2, 4], &[1, 3]);
        assert_eq!(got, Err(PartitionSet::from_iter([1u32, 2, 3])));
    }

    #[test]
    fn target_in_early_released_partition_is_a_mispredict() {
        let fp = Footprint { early_released: PartitionSet::single(1), ..Footprint::default() };
        assert_eq!(check(&fp, &[1], &[0, 1]), Err(PartitionSet::single(1)));
    }

    /// Plans `plan` with early prepare on, and declares a partition
    /// finished as soon as a read touched it — AuctionMark's `GetUserInfo`
    /// shape, where one batch reads a partition twice.
    struct ReleaseAfterRead(TxnPlan);

    impl LiveAdvisor for ReleaseAfterRead {
        type Session = ();

        fn name(&self) -> &str {
            "release-after-read"
        }

        fn plan_live_reusing(
            &self,
            _: &Request,
            _: &PlanContext<'_>,
            _: Option<()>,
        ) -> (TxnPlan, ()) {
            (TxnPlan { early_prepare: true, ..self.0 }, ())
        }

        fn on_query_live(&self, _session: &mut (), q: &ExecutedQuery) -> Updates {
            let finished = if q.is_write { PartitionSet::EMPTY } else { q.partitions };
            Updates { finished, ..Updates::default() }
        }

        fn replan_live(
            &self,
            _: &Request,
            _: PartitionSet,
            _: u32,
            _: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            unreachable!("a replay replays one attempt")
        }
    }

    /// Replays `GetKV` reads of `batches`' ids, one recorded batch each,
    /// under `plan` on 4 partitions.
    fn replay_reads(plan: TxnPlan, batches: &[&[i64]]) -> Decision {
        let catalog = kv_registry().catalog();
        let ctx = PlanContext { catalog: &catalog, num_partitions: 4, random_local_partition: 0 };
        let mut rec = TraceRecord {
            proc: 0,
            params: Vec::new(),
            queries: Vec::new(),
            batch_ends: Vec::new(),
            aborted: false,
        };
        for (i, ids) in batches.iter().enumerate() {
            if i > 0 {
                rec.batch_ends.push(rec.queries.len());
            }
            let reads = reads(ids).into_iter();
            rec.queries.extend(reads.map(|q| QueryRecord { query: q.query, params: q.params }));
        }
        replay(&ReleaseAfterRead(plan), &ctx, &rec, &mut None)
    }

    #[test]
    fn a_release_takes_effect_from_the_next_batch() {
        // Partition 1 is declared finished after the first read; the second
        // read of it is in the same batch, before the release.
        let d = replay_reads(TxnPlan::lock_all(0, 4), &[&[1, 5]]);
        assert_eq!((d.outcome, d.observed), (TxnOutcome::Committed, None));
        assert_eq!(d.footprint.early_released, PartitionSet::single(1));
        assert_eq!(d.record.counts, FxHashMap::from_iter([(1, 2)]));
    }

    #[test]
    fn touching_a_released_partition_in_a_later_batch_is_a_restart() {
        // The second batch reads partition 2, then released partition 1;
        // its read of partition 3 is never learned.
        let d = replay_reads(TxnPlan::lock_all(0, 4), &[&[1], &[2, 5, 3]]);
        assert_eq!(d.outcome, TxnOutcome::Mispredicted);
        assert_eq!(d.observed, Some(PartitionSet::from_iter([1u32, 2])));
        assert_eq!(d.footprint.accessed.touched, PartitionSet::single(1));
        assert_eq!(d.record.touched, PartitionSet::from_iter([1u32, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "lock set omits its base")]
    fn a_plan_whose_lock_set_omits_its_base_is_refused() {
        let plan = TxnPlan { lock_set: PartitionSet::from_iter([1u32, 2]), ..TxnPlan::single(0) };
        replay_reads(plan, &[&[1]]);
    }

    #[test]
    fn a_single_partition_plan_never_releases() {
        let d = replay_reads(TxnPlan::single(1), &[&[1], &[5]]);
        assert_eq!((d.outcome, d.observed), (TxnOutcome::Committed, None));
        assert_eq!(d.footprint.early_released, PartitionSet::EMPTY);
    }

    #[test]
    fn out_of_window_commit_counts_in_ops_but_not_in_committed() {
        let mut m = RunMetrics::default();
        let plan = TxnPlan::lock_all(0, 2);
        let accessed = Accesses { touched: PartitionSet::all(2), ..Accesses::default() };
        let fp = Footprint { accessed, ..Footprint::default() };
        m.record_txn(0, &plan, true, &fp, 2, None);
        assert_eq!((m.distributed, m.ops[&0].txns, m.ops[&0].op2), (1, 1, 1));
        assert_eq!((m.committed, m.latency.count()), (0, 0));
        assert!(m.committed_by_proc.is_empty());
        m.record_txn(0, &plan, true, &fp, 2, Some(250.0));
        assert_eq!((m.committed, m.latency.count(), m.distributed), (1, 1, 2));
    }
}
