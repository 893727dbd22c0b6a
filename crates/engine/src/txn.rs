//! The transaction-step kernel: one execution attempt, written once and
//! stepped by every driver. An [`Attempt`] owns the footprint, the undo
//! log, the written set, the batch-check scratch and the batch's pending
//! finish declarations, and exposes the protocol as steps:
//! [`Attempt::check`] (the mispredict rule, §6.4), [`Attempt::fold`] (one
//! executed query: the advisor's runtime updates, §4.4 — OP3 turns undo
//! off, OP4 declares partitions finished — then the written set),
//! [`Attempt::end_batch`] (OP4's release rule), [`Attempt::reserved`] and
//! [`Attempt::end`] (commit, or roll back or halt, §2 OP3, into a
//! [`Decision`]). [`check_plan`] is the advisor contract's base rule and
//! [`replan`] the mispredict fallback.
//!
//! What stays with each driver is how a query executes and what it costs:
//! one shard on the fast path (`runtime::worker::run_single`); `ExecBatch`
//! shipping and the reply merge on the coordinator
//! (`runtime::coord::run_distributed`, whose `Hold` keeps the locks,
//! connections and hold samples); the checked targets and `CostModel`
//! time in the simulator ([`crate::Simulation`]); nothing in [`replay`]
//! (Table 3). The offline executor ([`crate::run_offline`]) steps the same
//! [`Cursor`] without a plan.

use crate::advisor::{LiveAdvisor, PlanContext, Request, TxnOutcome, TxnPlan};
use crate::catalog::{ProcDef, QueryDef};
use crate::exec::ExecutedQuery;
use crate::procedure::{ProcInstance, ProcedureRegistry, QueryInvocation, Step};
use common::{Error, FxHashMap, PartitionId, PartitionSet, ProcId, Result, Value};
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

/// What one attempt has done — what the mispredict rule, the release rule
/// and the outcome record read.
#[derive(Debug, Default)]
pub struct Footprint {
    /// What the executed queries touched (OP1's "accessed most").
    pub accessed: Accesses,
    /// Some or all of the work ran without undo logging (OP3).
    pub undo_disabled_ever: bool,
    /// Partitions released by OP4's early prepare.
    pub early_released: PartitionSet,
    /// Partitions written: by an executed write or, on the live
    /// coordinator, by any write shipped to them.
    pub wrote: PartitionSet,
}

/// Where an attempt's queries run, which fixes three of its rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// On the driving thread's storage, or nowhere (a replay): undo
    /// follows OP3, a write counts once executed, OP4 may release the base.
    Local,
    /// As `Local`, but the base runs the control code until commit, so OP4
    /// never releases it.
    Simulated,
    /// At the live coordinator's participants, which always keep undo. A
    /// batch ships whole, and a participant may run a write past the
    /// batch's abort point, so each write counts from the check on.
    Coordinated,
}

/// One execution attempt of a transaction under one plan. A driver
/// begins it, then per batch [`check`](Attempt::check)s it,
/// [`fold`](Attempt::fold)s each executed query and ends the batch, and
/// finally [`end`](Attempt::end)s it.
pub(crate) struct Attempt {
    site: Site,
    proc: ProcId,
    plan: TxnPlan,
    fp: Footprint,
    undo: UndoLog,
    /// The checked batch's per-query targets; `folded` of them are folded.
    targets: Vec<PartitionSet>,
    folded: usize,
    /// OP4's finish declarations of the current batch.
    finished: PartitionSet,
    /// Set by a failed check: the mispredict rule's observed set.
    observed: Option<PartitionSet>,
}

impl Attempt {
    /// An attempt of `proc` under `plan`, run at `site`, with undo logging
    /// per OP3's initial decision.
    pub(crate) fn new(site: Site, proc: ProcId, plan: &TxnPlan) -> Self {
        let no_undo = plan.disable_undo && site != Site::Coordinated;
        Attempt {
            site,
            proc,
            plan: *plan,
            fp: Footprint { undo_disabled_ever: no_undo, ..Footprint::default() },
            undo: if no_undo { UndoLog::disabled() } else { UndoLog::new() },
            targets: Vec::new(),
            folded: 0,
            finished: PartitionSet::EMPTY,
            observed: None,
        }
    }

    /// Starts a new attempt in place, for a driver that keeps one across
    /// transactions: only the scratch's capacity carries over.
    pub(crate) fn begin(&mut self, site: Site, proc: ProcId, plan: &TxnPlan) {
        let targets = std::mem::take(&mut self.targets);
        *self = Attempt { targets, ..Attempt::new(site, proc, plan) };
    }

    /// The mispredict rule, checked before `batch` of `def` touches
    /// storage: every target must lie inside the plan's lock set and
    /// outside the early-released set. A clean batch returns `true` and
    /// leaves each query's targets in [`Attempt::targets`]. On a violation
    /// the attempt is a mispredict: it learns only the partitions of the
    /// queries up to and including the first offending one (a real engine
    /// discovers the violation when it dispatches that query), and
    /// observes those plus what it accessed before.
    pub(crate) fn check(
        &mut self,
        def: &ProcDef,
        num_partitions: u32,
        batch: &[QueryInvocation],
    ) -> bool {
        self.targets.clear();
        self.targets.reserve(batch.len());
        self.folded = 0;
        let mut seen = self.fp.accessed.touched;
        let mut writes = PartitionSet::EMPTY;
        for inv in batch {
            let query = def.query(inv.query);
            let t = query.estimate_partitions_n(num_partitions, &inv.params);
            seen = seen.union(t);
            if !t.is_subset(self.plan.lock_set) || !t.intersect(self.fp.early_released).is_empty() {
                self.observed = Some(seen);
                return false;
            }
            if query.is_write() {
                writes = writes.union(t);
            }
            self.targets.push(t);
        }
        if self.site == Site::Coordinated {
            self.fp.wrote = self.fp.wrote.union(writes);
        }
        true
    }

    /// The checked batch's per-query targets.
    pub(crate) fn targets(&self) -> &[PartitionSet] {
        &self.targets
    }

    /// The undo log the driver's storage writes into.
    pub(crate) fn undo(&mut self) -> &mut UndoLog {
        &mut self.undo
    }

    /// What the attempt has done so far.
    pub(crate) fn footprint(&self) -> &Footprint {
        &self.fp
    }

    /// Folds the checked batch's next query, `inv` of `def`, once it ran,
    /// and reports it to the advisor (§4.4). OP3 turns undo logging off
    /// for the rest of the attempt; OP4's finish declarations count only
    /// when the plan early-prepares, and wait for the batch's end. Then the
    /// write is recorded. Returns the advisor's modeled cost of the update.
    pub(crate) fn fold<A: LiveAdvisor>(
        &mut self,
        advisor: &A,
        session: &mut A::Session,
        def: &QueryDef,
        inv: QueryInvocation,
    ) -> f64 {
        let partitions = self.targets[self.folded];
        self.folded += 1;
        self.fp.accessed.add(partitions);
        let is_write = def.is_write();
        let q = ExecutedQuery { query: inv.query, params: inv.params, partitions, is_write };
        let upd = advisor.on_query_live(session, &q);
        let local = self.site != Site::Coordinated;
        if upd.disable_undo && local && self.undo.is_enabled() {
            self.undo.disable();
            self.fp.undo_disabled_ever = true;
        }
        if self.plan.early_prepare {
            self.finished = self.finished.union(upd.finished);
        }
        if is_write && local {
            self.fp.wrote = self.fp.wrote.union(partitions);
        }
        upd.cost_us
    }

    /// OP4's release at a batch's end (§4.4): the partitions the batch
    /// declared finished that are still held are released, effective from
    /// the next batch, and returned for the driver to let go. A
    /// single-partition plan never releases, and the simulator keeps its
    /// base.
    pub(crate) fn end_batch(&mut self) -> PartitionSet {
        let finished = std::mem::take(&mut self.finished);
        let lock_set = self.plan.lock_set;
        if lock_set.is_single() {
            return PartitionSet::EMPTY;
        }
        let mut held = lock_set.difference(self.fp.early_released);
        if self.site == Site::Simulated {
            held.remove(self.plan.base_partition);
        }
        let released = finished.intersect(held);
        self.fp.early_released = self.fp.early_released.union(released);
        released
    }

    /// The partitions the attempt still reserves: those not released, and
    /// those released after a write, which wait for the outcome.
    pub(crate) fn reserved(&self) -> PartitionSet {
        self.plan.lock_set.difference(self.fp.early_released.difference(self.fp.wrote))
    }

    /// Ends the attempt in its [`Decision`]. A commit (`committed`, with no
    /// failed check) discards the undo log; an abort or a mispredict hands
    /// it to `rollback` (storage's, or a no-op where nothing ran here).
    /// Storage refuses a log that missed writes: the node must halt (§2
    /// OP3), and the error is `UnrecoverableAbort`, its `txn` the
    /// procedure id.
    pub(crate) fn end(
        &mut self,
        committed: bool,
        rollback: impl FnOnce(&mut UndoLog) -> Result<()>,
    ) -> Result<Decision> {
        let outcome = match (self.observed, committed) {
            (Some(_), _) => TxnOutcome::Mispredicted,
            (None, true) => TxnOutcome::Committed,
            (None, false) => TxnOutcome::UserAborted,
        };
        if outcome == TxnOutcome::Committed {
            self.undo.clear();
        } else {
            let txn = u64::from(self.proc);
            rollback(&mut self.undo).map_err(|e| match e {
                Error::UnrecoverableAbort { .. } => Error::UnrecoverableAbort { txn },
                e => e,
            })?;
        }
        let footprint = std::mem::take(&mut self.fp);
        Ok(Decision { plan: self.plan, footprint, observed: self.observed, outcome })
    }
}

/// The advisor contract's base rule, checked once where each plan is made,
/// on the planning thread: a plan's lock set must hold its base partition,
/// or the transaction of `proc` fails with `Error::PartitionViolation`.
pub(crate) fn check_plan(proc: ProcId, plan: &TxnPlan) -> Result<()> {
    if plan.lock_set.contains(plan.base_partition) {
        return Ok(());
    }
    Err(Error::PartitionViolation { txn: u64::from(proc), partition: plan.base_partition })
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

/// How one attempt ended: the advisor's decisions, what the attempt did,
/// and its outcome. Every driver's attempt ends in one (`Attempt::end`).
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
}

/// Replays `rec`'s first attempt under `advisor` as the live runtime runs
/// it: one plan, then each recorded batch through the attempt's steps
/// (OP3's updates count on every plan, as in the simulator). `spare` is
/// the caller's reclaimed session, taken and refilled. `Err` is a plan
/// that breaks the base rule.
pub fn replay<A: LiveAdvisor>(
    advisor: &A,
    ctx: &PlanContext<'_>,
    rec: &TraceRecord,
    spare: &mut Option<A::Session>,
) -> Result<Decision> {
    let def = ctx.catalog.proc(rec.proc);
    let req = Request { proc: rec.proc, args: rec.params.clone(), origin_node: 0 };
    let (plan, mut session) = advisor.plan_live_reusing(&req, ctx, spare.take());
    check_plan(rec.proc, &plan)?;
    let mut att = Attempt::new(Site::Local, rec.proc, &plan);
    for batch in rec.batches() {
        let batch: Vec<_> =
            batch.iter().map(|q| QueryInvocation::new(q.query, q.params.clone())).collect();
        if !att.check(def, ctx.num_partitions, &batch) {
            break;
        }
        for inv in batch {
            att.fold(advisor, &mut session, def.query(inv.query), inv);
        }
        att.end_batch();
    }
    // A replay executes nothing, so it has nothing to roll back.
    let d = att.end(!rec.aborted, |_| Ok(()))?;
    *spare = advisor.end_live_reclaim(session, d.outcome).1;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::Updates;
    use crate::metrics::tests::decision;
    use crate::metrics::RunMetrics;
    use crate::procedure::testing::{kv_database, kv_registry, multi_get};
    use crate::procedure::Linear;
    use crate::runtime::{LiveConfig, LiveRuntime};
    use crate::sim::{RequestGenerator, SimConfig, Simulation};
    use crate::CostModel;

    /// `GetKV` reads of `ids` (id `i` lives at partition `i % 4`).
    fn reads(ids: &[i64]) -> Vec<QueryInvocation> {
        ids.iter().map(|&id| QueryInvocation::new(0, vec![Value::Int(id)])).collect()
    }

    /// Checks reads of `ids` under a plan locking `lock_set`, based at its
    /// first partition, with `released` already released early.
    fn check(
        released: PartitionSet,
        accessed: Accesses,
        ids: &[i64],
        lock_set: &[u32],
    ) -> std::result::Result<Vec<PartitionSet>, PartitionSet> {
        let catalog = kv_registry().catalog();
        let locks = PartitionSet::from_iter(lock_set.iter().copied());
        let plan = TxnPlan { lock_set: locks, ..TxnPlan::single(lock_set[0]) };
        let mut att = Attempt::new(Site::Local, 0, &plan);
        att.fp = Footprint { accessed, early_released: released, ..Footprint::default() };
        if att.check(catalog.proc(0), 4, &reads(ids)) {
            Ok(att.targets().to_vec())
        } else {
            Err(att.observed.expect("a failed check observes"))
        }
    }

    #[test]
    fn clean_batch_returns_per_query_targets() {
        let got = check(PartitionSet::EMPTY, Accesses::default(), &[1, 2, 5], &[1, 2]);
        let want = [1u32, 2, 1].map(PartitionSet::single);
        assert_eq!(got, Ok(want.to_vec()));
    }

    #[test]
    fn target_outside_lock_set_is_a_mispredict_observed_up_to_the_offender() {
        let accessed = Accesses { touched: PartitionSet::single(3), ..Accesses::default() };
        // Query 2 (partition 2) offends; query 3 (partition 0) is never learned.
        let got = check(PartitionSet::EMPTY, accessed, &[1, 2, 4], &[1, 3]);
        assert_eq!(got, Err(PartitionSet::from_iter([1u32, 2, 3])));
    }

    #[test]
    fn target_in_early_released_partition_is_a_mispredict() {
        let got = check(PartitionSet::single(1), Accesses::default(), &[1], &[0, 1]);
        assert_eq!(got, Err(PartitionSet::single(1)));
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
    /// under `plan` on 4 partitions; with what the whole record touches.
    fn replay_reads(plan: TxnPlan, batches: &[&[i64]]) -> Result<(Decision, Accesses)> {
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
        let d = replay(&ReleaseAfterRead(plan), &ctx, &rec, &mut None)?;
        Ok((d, Accesses::of(catalog.proc(0), 4, &rec.queries)))
    }

    #[test]
    fn a_release_takes_effect_from_the_next_batch() {
        // Partition 1 is declared finished after the first read; the second
        // read of it is in the same batch, before the release.
        let (d, record) = replay_reads(TxnPlan::lock_all(0, 4), &[&[1, 5]]).unwrap();
        assert_eq!((d.outcome, d.observed), (TxnOutcome::Committed, None));
        assert_eq!(d.footprint.early_released, PartitionSet::single(1));
        assert_eq!(record.counts, FxHashMap::from_iter([(1, 2)]));
    }

    #[test]
    fn touching_a_released_partition_in_a_later_batch_is_a_restart() {
        // The second batch reads partition 2, then released partition 1;
        // its read of partition 3 is never learned.
        let (d, record) = replay_reads(TxnPlan::lock_all(0, 4), &[&[1], &[2, 5, 3]]).unwrap();
        assert_eq!(d.outcome, TxnOutcome::Mispredicted);
        assert_eq!(d.observed, Some(PartitionSet::from_iter([1u32, 2])));
        assert_eq!(d.footprint.accessed.touched, PartitionSet::single(1));
        assert_eq!(record.touched, PartitionSet::from_iter([1u32, 2, 3]));
    }

    #[test]
    fn a_plan_whose_lock_set_omits_its_base_is_refused() {
        let plan = TxnPlan { lock_set: PartitionSet::from_iter([1u32, 2]), ..TxnPlan::single(0) };
        let err = replay_reads(plan, &[&[1]]).expect_err("the plan omits its base");
        assert_eq!(err, Error::PartitionViolation { txn: 0, partition: 0 });
    }

    #[test]
    fn a_single_partition_plan_never_releases() {
        let (d, _) = replay_reads(TxnPlan::single(1), &[&[1], &[5]]).unwrap();
        assert_eq!((d.outcome, d.observed), (TxnOutcome::Committed, None));
        assert_eq!(d.footprint.early_released, PartitionSet::EMPTY);
    }

    /// Plans every call at partition 0 alone, with undo logging off (OP3).
    struct NoUndoAtZero;

    impl LiveAdvisor for NoUndoAtZero {
        type Session = ();

        fn name(&self) -> &str {
            "no-undo-at-zero"
        }

        fn plan_live_reusing(
            &self,
            _: &Request,
            _: &PlanContext<'_>,
            _: Option<()>,
        ) -> (TxnPlan, ()) {
            (TxnPlan { disable_undo: true, ..TxnPlan::single(0) }, ())
        }

        fn replan_live(
            &self,
            _: &Request,
            _: PartitionSet,
            _: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            (TxnPlan::lock_all(0, ctx.num_partitions), ())
        }
    }

    /// `MultiGet` (procedure 0), and procedure 1 over its queries: bump id
    /// 0, read id `args[0]`, then abort if that read found nothing.
    fn bump_then_read_registry() -> ProcedureRegistry {
        let mut bump_then_read = multi_get();
        bump_then_read.start = |args| {
            let get = |id: Value| vec![QueryInvocation::new(0, vec![id])];
            Box::new(Linear::new(vec![
                (vec![QueryInvocation::new(1, vec![Value::Int(0), Value::Int(1)])], false),
                (get(args[0].clone()), false),
                (get(Value::Int(0)), true),
            ]))
        };
        ProcedureRegistry::new(vec![multi_get(), bump_then_read])
    }

    /// Issues procedure 1 with one argument, for every client.
    struct Always(Value);

    impl RequestGenerator for Always {
        fn next_request(&mut self, _client: u64) -> (ProcId, Vec<Value>) {
            (1, vec![self.0.clone()])
        }
    }

    /// Runs procedure 1 of [`bump_then_read_registry`] on `arg` under
    /// [`NoUndoAtZero`], whose bump of id 0 is an unlogged write, in the
    /// simulator and live: both must fail with the same halt error. The
    /// live worker answers and keeps serving with the write still applied
    /// (the paper's halt of the node is not implemented live yet).
    fn halts_alike(arg: i64) {
        let want = Err(Error::UnrecoverableAbort { txn: 1 });
        let (mut db, reg) = (kv_database(2, 8), bump_then_read_registry());
        let mut gen = Always(Value::Int(arg));
        let cfg = SimConfig { num_partitions: 2, ..SimConfig::default() };
        let sim =
            Simulation::new(&mut db, &reg, &NoUndoAtZero, &mut gen, CostModel::default(), cfg);
        assert_eq!(sim.run().map(|_| ()), want.clone());
        let rt = LiveRuntime::start(db, reg, NoUndoAtZero, LiveConfig::default());
        let mut client = rt.client();
        assert_eq!(client.call(1, vec![Value::Int(arg)]).map(|_| ()), want);
        let bump0 = vec![Value::Array(vec![Value::Int(0)])];
        assert_eq!(client.call(0, bump0), Ok(TxnOutcome::Committed));
        drop(client);
        let (_, db) = rt.shutdown();
        // The simulator's unlogged bump, the live one, then the commit.
        assert_eq!(db.get(0, 0, &[Value::Int(0)]).expect("id 0")[2], Value::Int(3));
    }

    #[test]
    fn a_user_abort_after_an_unlogged_write_halts_both_engines_alike() {
        halts_alike(100); // id 100 lives at partition 0, and is missing
    }

    #[test]
    fn a_mispredict_after_an_unlogged_write_halts_both_engines_alike() {
        halts_alike(1); // id 1 lives at partition 1, outside the lock set
    }

    #[test]
    fn out_of_window_commit_counts_in_ops_but_not_in_committed() {
        let mut m = RunMetrics::default();
        let mut d = decision(TxnPlan::lock_all(0, 2), TxnOutcome::Committed);
        d.footprint.accessed.touched = PartitionSet::all(2);
        m.record_txn(0, &d, 2, None);
        assert_eq!((m.distributed, m.ops[&0].txns, m.ops[&0].op2), (1, 1, 1));
        assert_eq!((m.committed, m.latency.count()), (0, 0));
        assert!(m.committed_by_proc.is_empty());
        m.record_txn(0, &d, 2, Some(250.0));
        assert_eq!((m.committed, m.latency.count(), m.distributed), (1, 1, 2));
    }
}
