//! The coordinator side of a distributed transaction (runs on the client).
//!
//! [`run_distributed`] drives one attempt: atomic lock acquisition,
//! batched fragment shipping, OP4's early prepares and the 2PC outcome. A
//! [`Hold`] owns everything the attempt holds, and resolving it is the one
//! way out: a commit, a user abort, a mispredict, a fatal error after
//! shipping or at an early prepare each end in one [`Hold::finish`], and an
//! unwind in the guard's drop.

use super::lifecycle::{Durable, Shared};
use super::lock::LockGuard;
use super::wire::{us_since, BatchItem, Call, Conns, FragCmd, Reply};
use crate::advisor::{LiveAdvisor, Request, TxnPlan};
use crate::procedure::Step;
use crate::profiler::{Bucket, CoordSub};
use crate::txn::{Cursor, Footprint};
use common::{Error, PartitionId, PartitionSet, QueryId, Result, Value};
use std::time::Instant;

/// One `Client::call`'s Fig. 11 row, accumulated across its attempts and
/// folded into `RunMetrics::profile` once the call resolves.
pub(super) use crate::profiler::ProcTimes as StageAcc;

/// How one execution attempt ended, from the client's point of view.
pub(super) enum Attempt<S> {
    Done { committed: bool, fp: Footprint, session: S },
    Mispredict { observed: PartitionSet, session: S },
    Fatal(Error),
}

/// Everything one distributed attempt holds: its lock set, the client's
/// connections (a participant whose fragment wrote stays reserved on its
/// connection until it hears the outcome), what the attempt released and
/// wrote, and when it took the locks. [`Hold::release`] lets one partition
/// go early; [`Hold::finish`] resolves the attempt. Dropped while the
/// thread unwinds instead (a panic in the control code or the advisor,
/// which the caller may catch), it closes the connection to every
/// partition of the lock set before the locks release: each reserved
/// participant then rolls back and serves everyone else again.
struct Hold<'a, A: LiveAdvisor> {
    env: &'a Shared<A>,
    conns: &'a mut Conns<A::Session>,
    lock_set: PartitionSet,
    locks: LockGuard<'a>,
    t_locked: Instant,
    /// What the attempt has done: `fp.early_released` is the released set
    /// the mispredict rule and metrics see.
    fp: Footprint,
    /// Partitions any write query was shipped to so far — a participant
    /// may over-execute a write past the batch's constraint abort point,
    /// and its undo must still be resolved by the outcome. A released
    /// partition in this set is still reserved at its worker.
    wrote: PartitionSet,
    /// The client's lock-hold samples, folded under the metrics lock once
    /// per call.
    holds: &'a mut Vec<f64>,
}

impl<'a, A: LiveAdvisor> Hold<'a, A> {
    /// Takes `lock_set`, charging the wait to `acc`'s LockWait.
    fn acquire(
        env: &'a Shared<A>,
        lock_set: PartitionSet,
        conns: &'a mut Conns<A::Session>,
        holds: &'a mut Vec<f64>,
        acc: &mut StageAcc,
    ) -> Self {
        let t_acquire = Instant::now();
        let locks = env.locks.guard(lock_set);
        acc.add_coord(CoordSub::LockWait, us_since(t_acquire));
        let (fp, wrote) = (Footprint::default(), PartitionSet::EMPTY);
        Hold { env, conns, lock_set, locks, t_locked: Instant::now(), fp, wrote, holds }
    }

    /// OP4's early prepare of `p`. A read-only participant gets `Prepare`,
    /// unacknowledged by design (the paper's unsolicited vote): the worker
    /// serves this connection's commands in order, so it observes the
    /// prepare before anything a later lock holder pushes, and not waiting
    /// for an ack keeps the coordinator off the scheduler's critical path
    /// (one round trip per released partition is measurable on small
    /// hosts). A participant whose fragment wrote gets nothing: its worker
    /// stays on this connection until [`Hold::finish`]'s `VoteFinish`, so
    /// the later lock holder waits for the outcome. Then `p`'s lock goes,
    /// with its hold sample.
    fn release(&mut self, p: PartitionId) -> Result<()> {
        if !self.wrote.contains(p) {
            self.conns.send(&self.env.workers, p as usize, Call::Frag(FragCmd::Prepare))?;
        }
        self.fp.early_released.insert(p);
        self.holds.push(self.t_locked.elapsed().as_secs_f64() * 1e6);
        self.locks.release_early(p);
        Ok(())
    }

    /// Resolves the attempt and hands back its footprint. Coalesced 2PC
    /// (§2): each participant still reserved — not released, or released
    /// after a write — gets one `VoteFinish` carrying the flush-and-vote
    /// *and* the decision. A split Vote round would buy no information
    /// (participants always vote yes; fragment errors surfaced at
    /// execution), only an extra message round of lock-hold time per
    /// participant. All sends go out before any ack is awaited, so
    /// participant-side work and modeled delays overlap.
    ///
    /// With the acks in hand (abort: every effect undone; commit: kept),
    /// every partition still locked records its hold sample, and a durable
    /// commit that wrote takes its sequencer ticket: every participant's
    /// begin and decision appends happen-before it, so one `write+fsync`
    /// covers them all. Then the locks go, and only then does the client
    /// wait for the device: effects are visible the moment the locks
    /// release, and only this client's acknowledgement stalls on the
    /// device (DESIGN.md §7).
    fn finish(mut self, commit: bool, acc: &mut StageAcc) -> Result<Footprint> {
        let t_fin = Instant::now();
        let mut failure = None;
        let mut sent = PartitionSet::EMPTY;
        let reserved = self.lock_set.difference(self.fp.early_released.difference(self.wrote));
        for p in reserved.iter() {
            let vote = Call::Frag(FragCmd::VoteFinish { commit });
            match self.conns.send(&self.env.workers, p as usize, vote) {
                Ok(()) => sent.insert(p),
                Err(e) => failure = Some(e),
            }
        }
        for p in sent.iter() {
            match self.conns.recv(p as usize) {
                Some(Reply::Finished) => {}
                Some(Reply::Fatal(e)) => failure = Some(e),
                Some(_) => failure = Some(Error::Other("fragment protocol violation".into())),
                None => failure = Some(Error::Other(format!("worker {p} hung up"))),
            }
        }
        acc.add_coord(CoordSub::TwoPc, us_since(t_fin));
        let held_us = self.t_locked.elapsed().as_secs_f64() * 1e6;
        for _ in self.lock_set.difference(self.fp.early_released).iter() {
            self.holds.push(held_us);
        }
        let durable = self.env.durable.as_ref();
        let ticket = match durable {
            Some(d) if commit && failure.is_none() && !self.wrote.is_empty() => {
                Some((d, d.seq.enqueue()))
            }
            _ => None,
        };
        let fp = std::mem::take(&mut self.fp);
        drop(self);
        if let Some((d, t)) = ticket {
            d.wait_durable(t, acc);
        }
        failure.map_or(Ok(fp), Err)
    }
}

impl<A: LiveAdvisor> Drop for Hold<'_, A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for p in self.lock_set.iter() {
                self.conns.close(p as usize);
            }
        }
    }
}

/// Coordinates one distributed transaction from the client thread: lock
/// acquisition, batched fragment shipping over the client's connections,
/// early prepares (OP4), and the 2PC outcome with (durable mode) the one
/// sequenced commit flush, all resolved through one [`Hold`]. A
/// connection's request ring holds at most an unacknowledged read-only
/// `Prepare` plus the next transaction's `LogBegin` and opening
/// `ExecBatch`; a written participant gets no message at its early
/// release, so it adds nothing.
#[allow(clippy::too_many_lines)]
pub(super) fn run_distributed<A: LiveAdvisor>(
    env: &Shared<A>,
    req: &Request,
    plan: &TxnPlan,
    mut session: A::Session,
    lock_holds: &mut Vec<f64>,
    conns: &mut Conns<A::Session>,
    acc: &mut StageAcc,
) -> Attempt<A::Session> {
    let workers = &env.workers;
    let lock_set = plan.lock_set;
    let mut hold = Hold::acquire(env, lock_set, conns, lock_holds, acc);
    // Durable mode: this transaction's command-log id, and the participants
    // whose logs already hold its `DistBegin` (shipped once per partition,
    // before its first fragment).
    let dist_id = env.durable.as_ref().map(Durable::next_id);
    let mut began = PartitionSet::EMPTY;
    // No reservation step: holding a partition's lock entitles this client
    // to send fragment commands on its connection, and the first one opens
    // service at the worker. The base partition is a fragment
    // executor like the others — control code runs here on the
    // coordinator.
    let n = env.num_partitions as usize;
    let mut cursor = Cursor::new(&env.registry, req.proc, &req.args);
    let proc_def = env.catalog.proc(req.proc);
    // Each batch query's targets, reused across batch steps.
    let mut q_targets: Vec<PartitionSet> = Vec::new();
    // Per-participant reply cursors for the current batch, reused across
    // batch steps (entries are taken by the merge and cleared after it).
    let mut per_part: Vec<Option<std::vec::IntoIter<BatchItem>>> = (0..n).map(|_| None).collect();
    // How the control code ended, as on the fast path: `Ok(committed)`, or
    // a mispredict's `Err(observed)`; or a fatal error.
    let end = 'attempt: loop {
        // Control code runs here on the coordinator: Execution time.
        let t_step = Instant::now();
        let step = cursor.next();
        acc.add(Bucket::Execution, us_since(t_step));
        match step {
            Step::Queries(batch) => {
                let t_batch = Instant::now();
                let mut batch_est_us = 0.0f64;
                let checked =
                    hold.fp.check_batch(proc_def, env.num_partitions, &batch, plan, &mut q_targets);
                if let Err(observed) = checked {
                    break Ok(Err(observed));
                }
                // Ship each participant's share of the batch as ONE
                // `ExecBatch` — one ring push, one modeled network hop and
                // one reply per participant per batch step, where the
                // per-query path paid all three per query. Participants
                // execute their sub-batches concurrently, each stopping at
                // its own first constraint violation; all pushes go out
                // before any reply is awaited.
                let mut to_ship: Vec<Vec<(QueryId, Vec<Value>)>> = vec![Vec::new(); n];
                for (inv, &targets) in batch.iter().zip(&q_targets) {
                    for p in targets.iter() {
                        to_ship[p as usize].push((inv.query, inv.params.clone()));
                    }
                    if proc_def.query(inv.query).is_write() {
                        hold.wrote = hold.wrote.union(targets);
                    }
                }
                let mut fatal: Option<Error> = None;
                let mut shipped = PartitionSet::EMPTY;
                for p in lock_set.iter() {
                    let queries = std::mem::take(&mut to_ship[p as usize]);
                    if queries.is_empty() {
                        continue;
                    }
                    if let Some(id) = dist_id {
                        if !began.contains(p) {
                            // The begin record precedes the partition's
                            // first fragment in ring order, so the worker
                            // logs it at exactly the position the fragments
                            // serialize at.
                            let begin = FragCmd::LogBegin {
                                txn_id: id,
                                proc: req.proc,
                                args: req.args.clone(),
                            };
                            if let Err(e) = hold.conns.send(workers, p as usize, Call::Frag(begin))
                            {
                                fatal = Some(e);
                                continue;
                            }
                            began.insert(p);
                        }
                    }
                    let batch = FragCmd::ExecBatch { proc: req.proc, queries };
                    match hold.conns.send(workers, p as usize, Call::Frag(batch)) {
                        Ok(()) => shipped.insert(p),
                        // Keep shipping to the survivors: their replies and
                        // rollbacks still need collecting below.
                        Err(e) => fatal = Some(e),
                    }
                }
                // One reply per shipped participant, ascending partition
                // order; each is the participant's item list for its whole
                // sub-batch.
                for p in shipped.iter() {
                    match hold.conns.recv(p as usize) {
                        Some(Reply::Batch(items)) => {
                            per_part[p as usize] = Some(items.into_iter());
                        }
                        Some(Reply::Fatal(e)) => fatal = Some(e),
                        Some(_) => {
                            fatal = Some(Error::Other("fragment protocol violation".into()));
                        }
                        None => fatal = Some(Error::Other(format!("worker {p} hung up"))),
                    }
                }
                if let Some(e) = fatal {
                    break Err(e);
                }
                // Merge per query in ascending partition order — identical
                // row order and abort choice to the per-query path. The
                // first query with any constraint reply is the batch-global
                // abort point: no participant stopped before it (an earlier
                // local constraint would be an earlier global one), so
                // every target of every query up to and including it
                // reports an item, and items past it stay unread — the 2PC
                // rollback erases whatever a participant over-executed.
                let mut pending_release = PartitionSet::EMPTY;
                let mut batch_results = Vec::with_capacity(batch.len());
                for (inv, &targets) in batch.into_iter().zip(&q_targets) {
                    let def = proc_def.query(inv.query);
                    let mut rows = Vec::new();
                    let mut constraint: Option<String> = None;
                    for p in targets.iter() {
                        match per_part[p as usize].as_mut().and_then(Iterator::next) {
                            Some(BatchItem::Rows(mut r)) => rows.append(&mut r),
                            Some(BatchItem::Constraint(msg)) => constraint = Some(msg),
                            None => {
                                // Unreachable by the argument above; kept
                                // defensive so a protocol bug aborts the
                                // transaction instead of desyncing cursors.
                                constraint = Some("fragment batch underrun".into());
                            }
                        }
                    }
                    if let Some(msg) = constraint {
                        cursor.constraint(msg);
                        break;
                    }
                    // Runtime updates: OP3 is ignored on the distributed
                    // path (undo stays on at every participant), but OP4
                    // finish declarations accumulate for the end-of-batch
                    // early prepare.
                    let t_est = Instant::now();
                    let upd =
                        hold.fp.observe(&env.advisor, &mut session, plan, None, def, inv, targets);
                    batch_est_us += us_since(t_est);
                    pending_release = pending_release.union(upd.finished);
                    batch_results.push(rows);
                }
                for leftover in &mut per_part {
                    *leftover = None;
                }
                // Early prepare (OP4): release finished partitions at batch
                // granularity — the same point the simulator applies
                // `pending_release`, so a later query in this batch never
                // sees a partition released mid-batch there but live here.
                // Unlike the simulator, the *base* partition is releasable
                // too: live control code runs on the coordinating client,
                // so the base is just another fragment executor (the
                // simulator's base runs the control code and stays busy to
                // commit).
                let to_release = hold.fp.releasable(pending_release, lock_set, PartitionSet::EMPTY);
                for p in to_release.iter() {
                    if let Err(e) = hold.release(p) {
                        break 'attempt Err(e);
                    }
                }
                cursor.resume(batch_results);
                // Everything in this arm except the advisor calls —
                // fragment shipping, participant execution, reply
                // collection, early-prepare sends — counts as Execution;
                // the advisor share is Estimation.
                acc.add(Bucket::Estimation, batch_est_us);
                acc.add(Bucket::Execution, (us_since(t_batch) - batch_est_us).max(0.0));
            }
            Step::Commit => break Ok(Ok(true)),
            Step::Abort(_) => break Ok(Ok(false)),
        }
    };
    // Every exit, fatal ones included, resolves the attempt the same way;
    // only a commit commits.
    let fin = hold.finish(matches!(end, Ok(Ok(true))), acc);
    match (end, fin) {
        (Err(e), _) | (_, Err(e)) => Attempt::Fatal(e),
        (Ok(Err(observed)), Ok(_)) => Attempt::Mispredict { observed, session },
        (Ok(Ok(committed)), Ok(fp)) => Attempt::Done { committed, fp, session },
    }
}

#[cfg(test)]
mod tests {
    use super::super::lifecycle::tests::durability_dir;
    use super::super::worker::tests::{
        bump_id0, committed, drive_worker, reply_within, shard_zero_of_two, single_call,
        test_env_with, Driver, WAIT,
    };
    use super::super::{LiveConfig, LiveRuntime};
    use super::*;
    use crate::advisor::{PlanContext, TxnOutcome, Updates};
    use crate::baselines::AssumeDistributed;
    use crate::catalog::{PartitionHint, QueryDef, QueryOp};
    use crate::durability::DurabilityConfig;
    use crate::exec::ExecutedQuery;
    use crate::procedure::testing::{kv_database, kv_registry, multi_get};
    use crate::procedure::{Linear, ProcedureRegistry, QueryInvocation};
    use crate::profiler::CoordSub;
    use std::time::Duration;

    /// Plans `{0, 1}` for every request regardless of its true target, so
    /// work on partition 2 mispredicts on every attempt until the forced
    /// lock-all fallback.
    struct WrongLockSet;

    impl LiveAdvisor for WrongLockSet {
        type Session = ();

        fn name(&self) -> &str {
            "wrong-lock-set"
        }

        fn plan_live_reusing(
            &self,
            _req: &Request,
            _ctx: &PlanContext<'_>,
            _spare: Option<()>,
        ) -> (TxnPlan, ()) {
            (
                TxnPlan {
                    base_partition: 0,
                    lock_set: PartitionSet::from_iter([0u32, 1]),
                    disable_undo: false,
                    early_prepare: false,
                    estimate_cost_us: 0.0,
                    estimate_reused: false,
                },
                (),
            )
        }

        fn replan_live(
            &self,
            req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            self.plan_live_reusing(req, ctx, None)
        }
    }

    #[test]
    fn lock_hold_recorded_on_mispredict_and_commit_releases() {
        // MultiGet over id 2 (partition 2 of 4) under a {0,1} plan: three
        // mispredicted attempts (`MAX_RESTARTS` = 2) each release two held
        // partitions without reaching a commit, then the lock-all fallback
        // commits holding four. Before the fix only the commit path
        // recorded, so exactly the contended attempts went missing.
        let rt = LiveRuntime::start(
            kv_database(4, 8),
            kv_registry(),
            WrongLockSet,
            LiveConfig::default(),
        );
        let mut client = rt.client();
        let outcome = client.call(0, vec![Value::Array(vec![Value::Int(2)])]).unwrap();
        assert!(matches!(outcome, TxnOutcome::Committed));
        let (m, _) = rt.shutdown();
        assert_eq!(m.restarts, 3);
        assert_eq!(
            m.lock_hold.count(),
            3 * 2 + 4,
            "every release path must record one sample per held partition"
        );
    }

    #[test]
    fn durable_commit_waits_for_the_device_after_releasing_its_locks() {
        // The test holds a device flush open on the runtime's sequencer,
        // then lets one lock-all write commit. Its ticket names a later
        // epoch than the open flush, so its durable wait must park behind
        // it. `run_distributed` takes the ticket, releases the lock set,
        // *then* waits: so while the writer is parked, the test must be
        // able to take the whole lock set itself. Holding the device a
        // further HOLD then shows up in the writer's Flush sub-bucket,
        // while even the longest lock hold stays below it.
        const HOLD: Duration = Duration::from_millis(20);
        let dir = durability_dir("hold");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt =
            LiveRuntime::start(kv_database(2, 8), kv_registry(), AssumeDistributed::new(), cfg);
        let shared = rt.shared();
        let seq = &shared.durable.as_ref().expect("durable runtime").seq;
        let mut client = rt.client();
        let locks_free = std::thread::scope(|s| {
            let (in_device, in_device_rx) = std::sync::mpsc::channel();
            let (release, release_rx) = std::sync::mpsc::channel::<()>();
            s.spawn(move || {
                seq.wait_durable_with(seq.enqueue(), |_| {
                    in_device.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            });
            in_device_rx.recv().unwrap();
            let writer = s.spawn(move || {
                client.call(0, vec![Value::Array(vec![Value::Int(0), Value::Int(1)])]).unwrap()
            });
            // The open flush is one sequencer wait; the writer's commit is
            // the second.
            while seq.counters().0 < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let (got, got_rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let _all = shared.locks.guard(PartitionSet::all(2));
                let _ = got.send(());
            });
            let locks_free = got_rx.recv_timeout(Duration::from_secs(10)).is_ok();
            std::thread::sleep(HOLD);
            release.send(()).unwrap();
            assert!(matches!(writer.join().unwrap(), TxnOutcome::Committed));
            locks_free
        });
        assert!(locks_free, "the writer held its lock set into the durable wait");
        let (m, _) = rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let hold_us = HOLD.as_secs_f64() * 1e6;
        let flush_us = m.profile.coord_us(0, CoordSub::Flush);
        assert!(flush_us >= hold_us, "durable wait {flush_us:.0} µs, device held {hold_us:.0} µs");
        assert_eq!(m.lock_hold.count(), 2, "two partitions held by the one write");
        let top_hold_us = m.lock_hold.quantile_us(1.0).expect("lock holds within histogram range");
        assert!(
            top_hold_us < hold_us,
            "longest lock hold {top_hold_us:.0} µs: the locks were held into the durable wait"
        );
    }

    /// One batch on the two-partition KV: read id 1, insert a row whose
    /// key duplicates id 0 (a constraint violation at partition 0), bump
    /// id 1. The transaction aborts after partition 1 already executed its
    /// whole share of the batch, bump included.
    fn read_insert_bump_registry() -> ProcedureRegistry {
        let mut proc = multi_get();
        proc.def.name = "ReadInsertBump".into();
        let put = QueryDef::new("PutKV", 0, QueryOp::InsertRow, PartitionHint::Param(0));
        proc.def.queries.insert(1, put);
        proc.start = |_args| {
            Box::new(Linear::one(vec![
                QueryInvocation::new(0, vec![Value::Int(1)]),
                QueryInvocation::new(1, vec![Value::Int(0), Value::Int(0), Value::Int(0)]),
                QueryInvocation::new(2, vec![Value::Int(1), Value::Int(1)]),
            ]))
        };
        ProcedureRegistry::new(vec![proc])
    }

    /// Locks `{0, 1}` with early prepare on, and declares a partition
    /// finished as soon as a read touched it.
    struct ReleaseAfterRead;

    impl LiveAdvisor for ReleaseAfterRead {
        type Session = ();

        fn name(&self) -> &str {
            "release-after-read"
        }

        fn plan_live_reusing(
            &self,
            _req: &Request,
            ctx: &PlanContext<'_>,
            _spare: Option<()>,
        ) -> (TxnPlan, ()) {
            let lock_all = TxnPlan::lock_all(0, ctx.num_partitions);
            (TxnPlan { early_prepare: true, ..lock_all }, ())
        }

        fn on_query_live(&self, _session: &mut (), q: &ExecutedQuery) -> Updates {
            let finished = if q.is_write { PartitionSet::EMPTY } else { q.partitions };
            Updates { finished, ..Updates::default() }
        }

        fn replan_live(
            &self,
            req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            self.plan_live_reusing(req, ctx, None)
        }
    }

    #[test]
    fn a_write_shipped_past_the_abort_point_is_undone_at_a_released_partition() {
        // Partition 1 is released after the read merges, in the batch whose
        // constraint aborts the transaction. Its bump was shipped, and ran,
        // past that abort point: partition 1 must count as written, stay
        // reserved, and roll the bump back on the abort outcome.
        let cfg = LiveConfig::default();
        let rt = LiveRuntime::start(
            kv_database(2, 4),
            read_insert_bump_registry(),
            ReleaseAfterRead,
            cfg,
        );
        let mut client = rt.client();
        let outcome = client.call(0, Vec::new()).unwrap();
        assert!(matches!(outcome, TxnOutcome::UserAborted));
        drop(client);
        let (_, db) = rt.shutdown();
        let id1 = db.get(1, 0, &[Value::Int(1)]).expect("id 1 lives at partition 1");
        assert_eq!(id1[2], Value::Int(0), "the aborted transaction's bump leaked");
    }

    /// Bumps every id of `args[0]` in one batch, then commits; given a
    /// second argument, the control code panics after that batch instead.
    struct BumpThenPanic {
        bumps: Option<Vec<QueryInvocation>>,
        panics: bool,
    }

    impl crate::procedure::ProcInstance for BumpThenPanic {
        fn next(&mut self, _results: Option<&[Vec<storage::Row>]>) -> Step {
            match self.bumps.take() {
                Some(batch) => Step::Queries(batch),
                None if self.panics => panic!("control-code marker"),
                None => Step::Commit,
            }
        }
    }

    #[test]
    fn a_call_unwound_mid_transaction_rolls_back_its_participants() {
        // The marked call bumps ids 0 and 1 at partitions 0 and 1, then its
        // control code panics on the coordinating client, whose caller
        // catches the panic and keeps the handle. Both participants wrote,
        // so each is reserved on that client's connection until the
        // connection closes: another client's call must still be served,
        // and no later transaction may see the abandoned bumps.
        let mut proc = multi_get();
        proc.start = |args| {
            let ids = args[0].as_array().expect("arg 0 is id array");
            let bumps =
                ids.iter().map(|id| QueryInvocation::new(1, vec![id.clone(), Value::Int(1)]));
            Box::new(BumpThenPanic { bumps: Some(bumps.collect()), panics: args.len() > 1 })
        };
        let registry = ProcedureRegistry::new(vec![proc]);
        let rt = LiveRuntime::start(
            kv_database(2, 8),
            registry,
            AssumeDistributed::new(),
            LiveConfig::default(),
        );
        let ids = |ids: &[i64]| vec![Value::Array(ids.iter().map(|&id| Value::Int(id)).collect())];
        let mut client = rt.client();
        let mut marked = ids(&[0, 1]);
        marked.push(Value::Int(0));
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client.call(0, marked)));
        assert!(unwound.is_err(), "the marked call did not unwind");
        let mut other = rt.client();
        let (done, done_rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let outcome = other.call(0, ids(&[0]));
            let _ = done.send(());
            (outcome, other)
        });
        if done_rx.recv_timeout(WAIT).is_err() {
            // Tearing the runtime down would wait on the wedged worker too.
            std::mem::forget(rt);
            panic!("another client's call to the abandoned partition was not served");
        }
        let (outcome, other) = caller.join().expect("the other client's thread");
        assert_eq!(outcome.expect("the other client's call"), TxnOutcome::Committed);
        assert_eq!(client.call(0, ids(&[0, 1])).expect("same client"), TxnOutcome::Committed);
        drop((client, other));
        let (_, db) = rt.shutdown();
        let val = |id| db.get(id as u32 % 2, 0, &[Value::Int(id)]).expect("row")[2].clone();
        assert_eq!((val(0), val(1)), (Value::Int(2), Value::Int(1)), "an abandoned bump survived");
    }

    /// Plans the home partitions of `args[0]`'s ids, based at the first
    /// id's.
    struct ByIds;

    impl LiveAdvisor for ByIds {
        type Session = ();

        fn name(&self) -> &str {
            "by-ids"
        }

        fn plan_live_reusing(
            &self,
            req: &Request,
            ctx: &PlanContext<'_>,
            _spare: Option<()>,
        ) -> (TxnPlan, ()) {
            let ids = req.args[0].as_array().expect("arg 0 is id array");
            let home = |id: &Value| id.home_partition(ctx.num_partitions);
            let lock_set = PartitionSet::from_iter(ids.iter().map(home));
            (TxnPlan { lock_set, ..TxnPlan::single(home(&ids[0])) }, ())
        }

        fn replan_live(
            &self,
            req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            self.plan_live_reusing(req, ctx, None)
        }
    }

    /// Bumps each id of `args[0]` by the matching delta of `args[1]` in one
    /// batch, then reads the first id back and commits only if its value
    /// is `args[2]`.
    struct BumpThenCheck {
        bumps: Option<Vec<QueryInvocation>>,
        read: Option<QueryInvocation>,
        want: Value,
    }

    impl crate::procedure::ProcInstance for BumpThenCheck {
        fn next(&mut self, results: Option<&[Vec<storage::Row>]>) -> Step {
            if let Some(batch) = self.bumps.take() {
                return Step::Queries(batch);
            }
            if let Some(read) = self.read.take() {
                return Step::Queries(vec![read]);
            }
            match results {
                Some([rows]) if rows.first().map(|row| &row[2]) == Some(&self.want) => Step::Commit,
                _ => Step::Abort("unexpected value".into()),
            }
        }
    }

    #[test]
    fn a_participant_dying_mid_batch_leaves_the_survivors_rolled_back() {
        // The doomed call bumps id 0 at partition 0 and id 1 at partition
        // 1, whose non-integer delta kills worker 1 while it executes the
        // batch. The coordinator sees worker 1 hang up after shipping, so
        // the attempt fails and partition 0 must roll its bump back and
        // serve everyone again: another client's bump of id 0 then reads 1,
        // and the coordinator's own next one reads 2.
        let mut proc = multi_get();
        proc.start = |args| {
            let (ids, deltas) =
                (args[0].as_array().expect("ids"), args[1].as_array().expect("deltas"));
            let bumps = ids
                .iter()
                .zip(deltas)
                .map(|(id, d)| QueryInvocation::new(1, vec![id.clone(), d.clone()]));
            let read = QueryInvocation::new(0, vec![ids[0].clone()]);
            Box::new(BumpThenCheck {
                bumps: Some(bumps.collect()),
                read: Some(read),
                want: args[2].clone(),
            })
        };
        let registry = ProcedureRegistry::new(vec![proc]);
        let rt = LiveRuntime::start(kv_database(2, 8), registry, ByIds, LiveConfig::default());
        let ints = |vs: &[i64]| Value::Array(vs.iter().map(|&v| Value::Int(v)).collect());
        let bump0 = move |want| vec![ints(&[0]), ints(&[1]), Value::Int(want)];
        let mut client = rt.client();
        let doomed = vec![
            ints(&[0, 1]),
            Value::Array(vec![Value::Int(1), Value::Str("x".into())]),
            Value::Int(0),
        ];
        let err = client.call(0, doomed).expect_err("the call whose participant died returned Ok");
        assert!(err.to_string().contains("worker 1 hung up"), "{err}");
        let mut other = rt.client();
        let (done, done_rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let outcome = other.call(0, bump0(1));
            let _ = done.send(());
            (outcome, other)
        });
        if done_rx.recv_timeout(WAIT).is_err() {
            // Tearing the runtime down would wait on the wedged worker too.
            std::mem::forget(rt);
            panic!("another client's call to the surviving participant was not served");
        }
        let (outcome, other) = caller.join().expect("the other client's thread");
        assert_eq!(outcome.expect("the other client's call"), TxnOutcome::Committed);
        assert_eq!(client.call(0, bump0(2)).expect("same client"), TxnOutcome::Committed);
        drop((client, other));
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown()));
        let panic = joined.err().expect("shutdown must re-raise worker 1's panic");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("expected Int"), "{msg}");
    }

    /// Locks both partitions with early prepare on, and declares partition
    /// 1 finished after every query.
    struct ReleaseOne;

    impl LiveAdvisor for ReleaseOne {
        type Session = ();

        fn name(&self) -> &str {
            "release-one"
        }

        fn plan_live_reusing(
            &self,
            _req: &Request,
            ctx: &PlanContext<'_>,
            _spare: Option<()>,
        ) -> (TxnPlan, ()) {
            let lock_all = TxnPlan::lock_all(0, ctx.num_partitions);
            (TxnPlan { early_prepare: true, ..lock_all }, ())
        }

        fn on_query_live(&self, _session: &mut (), _q: &ExecutedQuery) -> Updates {
            Updates { finished: PartitionSet::single(1), ..Updates::default() }
        }

        fn replan_live(
            &self,
            req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            self.plan_live_reusing(req, ctx, None)
        }
    }

    #[test]
    fn a_failed_early_prepare_leaves_no_participant_reserved() {
        // Worker 1 is gone. The transaction reads id 0 at worker 0, which
        // opens a reservation there; then its early prepare of partition
        // 1 fails. The abort must reach worker 0, or worker 0 stays
        // reserved on this client's connection: the client's next call
        // would land inside the stale reservation, and another client's
        // call would wait behind it.
        let (env, ctrl_rx) = test_env_with(ReleaseOne, 2);
        let (_, (own_call, other_call)) =
            drive_worker(ctrl_rx, shard_zero_of_two(), Driver::new(&env), |d| {
                let args = vec![Value::Array(vec![Value::Int(0)])];
                let req = Request { proc: 0, args, origin_node: 0 };
                let plan = TxnPlan { early_prepare: true, ..TxnPlan::lock_all(0, 2) };
                let mut acc = StageAcc::default();
                let attempt =
                    run_distributed(&env, &req, &plan, (), &mut Vec::new(), &mut d.coord, &mut acc);
                let Attempt::Fatal(e) = attempt else { panic!("the prepare to worker 1 failed") };
                assert!(e.to_string().contains("worker 1 is gone"), "{e}");
                d.coord.send(&env.workers, 0, single_call(bump_id0(), false)).expect("push");
                let own_call = committed(reply_within(&mut d.coord, WAIT));
                d.single(bump_id0(), false);
                (own_call, committed(d.single_reply(WAIT)))
            });
        assert!(own_call, "the coordinator's next call was not served");
        assert!(other_call, "another client's call was not served");
    }
}
