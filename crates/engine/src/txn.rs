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
//! * [`replan`] is the mispredict fallback, and `RunMetrics::record_txn`
//!   the outcome record.
//!
//! What stays with each driver: how a batch executes (the whole database,
//! one shard, or `ExecBatch` shipping), time (virtual `CostModel` charges or
//! the wall clock), write bookkeeping, which finished partitions may
//! release, durability and reply routing.

use crate::advisor::{LiveAdvisor, PlanContext, Request, TxnPlan, Updates};
use crate::catalog::{ProcDef, QueryDef};
use crate::exec::ExecutedQuery;
use crate::procedure::{ProcInstance, ProcedureRegistry, QueryInvocation, Step};
use common::{FxHashMap, PartitionId, PartitionSet, ProcId, Value};
use storage::{Row, UndoLog};

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

/// What one attempt has done so far — what the mispredict rule and the
/// outcome record read.
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// Partitions the executed queries touched.
    pub(crate) accessed: PartitionSet,
    /// Executed queries per touched partition (OP1's "accessed most").
    pub(crate) access_counts: FxHashMap<PartitionId, u32>,
    /// Some or all of the work ran without undo logging (OP3).
    pub(crate) undo_disabled_ever: bool,
    /// Partitions released by OP4's early prepare.
    pub(crate) early_released: PartitionSet,
}

impl Footprint {
    /// A fresh attempt's footprint and undo log, per OP3's initial decision.
    pub(crate) fn begin(plan: &TxnPlan) -> (Footprint, UndoLog) {
        let no_undo = plan.disable_undo;
        let fp = Footprint { undo_disabled_ever: no_undo, ..Footprint::default() };
        (fp, if no_undo { UndoLog::disabled() } else { UndoLog::new() })
    }

    /// The mispredict rule, checked before a batch touches storage: every
    /// target must lie inside `lock_set` and outside the early-released
    /// set. A clean batch leaves each query's targets in `targets`. On a
    /// violation the attempt learns only the partitions of the queries up
    /// to and including the first offending one — it aborts there, like a
    /// real engine that discovers the violation when the query is
    /// dispatched — and `Err` carries `observed`: those plus `accessed`.
    pub(crate) fn check_batch(
        &self,
        def: &ProcDef,
        num_partitions: u32,
        batch: &[QueryInvocation],
        lock_set: PartitionSet,
        targets: &mut Vec<PartitionSet>,
    ) -> Result<(), PartitionSet> {
        targets.clear();
        targets.reserve(batch.len());
        let mut seen = self.accessed;
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
        self.accessed = self.accessed.union(partitions);
        for p in partitions.iter() {
            *self.access_counts.entry(p).or_insert(0) += 1;
        }
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
        fp.check_batch(catalog.proc(0), 4, &reads(ids), locks, &mut targets).map(|()| targets)
    }

    #[test]
    fn clean_batch_returns_per_query_targets() {
        let got = check(&Footprint::default(), &[1, 2, 5], &[1, 2]);
        let want = [1u32, 2, 1].map(PartitionSet::single);
        assert_eq!(got, Ok(want.to_vec()));
    }

    #[test]
    fn target_outside_lock_set_is_a_mispredict_observed_up_to_the_offender() {
        let fp = Footprint { accessed: PartitionSet::single(3), ..Footprint::default() };
        // Query 2 (partition 2) offends; query 3 (partition 0) is never learned.
        let got = check(&fp, &[1, 2, 4], &[1, 3]);
        assert_eq!(got, Err(PartitionSet::from_iter([1u32, 2, 3])));
    }

    #[test]
    fn target_in_early_released_partition_is_a_mispredict() {
        let fp = Footprint { early_released: PartitionSet::single(1), ..Footprint::default() };
        assert_eq!(check(&fp, &[1], &[0, 1]), Err(PartitionSet::single(1)));
    }

    #[test]
    fn out_of_window_commit_counts_in_ops_but_not_in_committed() {
        let mut m = RunMetrics::default();
        let plan = TxnPlan::lock_all(0, 2);
        let fp = Footprint { accessed: PartitionSet::all(2), ..Footprint::default() };
        m.record_txn(0, &plan, true, &fp, 2, None);
        assert_eq!((m.distributed, m.ops[&0].txns, m.ops[&0].op2), (1, 1, 1));
        assert_eq!((m.committed, m.latency.count()), (0, 0));
        assert!(m.committed_by_proc.is_empty());
        m.record_txn(0, &plan, true, &fp, 2, Some(250.0));
        assert_eq!((m.committed, m.latency.count(), m.distributed), (1, 1, 2));
    }
}
