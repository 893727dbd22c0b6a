//! The coordinator side of a distributed transaction (runs on the client).

use super::lifecycle::{Durable, Shared};
use super::wire::{us_since, BatchItem, Call, Conns, FragCmd, Reply, StageTimes};
use crate::advisor::{LiveAdvisor, Request, TxnPlan};
use crate::procedure::Step;
use crate::txn::{Cursor, Footprint};
use common::{Error, PartitionSet, QueryId, Result, Value};
use std::time::Instant;

/// How one execution attempt ended, from the client's point of view.
pub(super) enum Attempt<S> {
    Done { committed: bool, fp: Footprint, session: S },
    Mispredict { observed: PartitionSet, session: S },
    Fatal(Error),
}

/// Client-side Fig. 11 stage accumulator for one `Client::call`: folded
/// into `RunMetrics::profile` once the call resolves, with the residual
/// against total wall time reported as `Other`.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct StageAcc {
    pub(super) est_us: f64,
    pub(super) exec_us: f64,
    pub(super) coord_us: f64,
    pub(super) queue_us: f64,
    /// Sub-buckets *of* `coord_us` (each amount below is also added to
    /// `coord_us`), splitting the distributed path's coordination cost the
    /// way Fig. 11's analysis needs it: time blocked acquiring the lock
    /// set, time in the 2PC finish round (outcome sends + acks), and time
    /// waiting on the shared commit-flush sequencer (durable mode, on both
    /// paths: `Durable::wait_durable`). The fast path's residual
    /// coordination (channel hops) lands in none of them.
    pub(super) lock_us: f64,
    pub(super) twopc_us: f64,
    pub(super) flush_us: f64,
}

impl StageAcc {
    /// Folds one fast-path round trip: the stages the worker measured,
    /// plus the round trip's unexplained remainder (channel hops) as
    /// coordination.
    pub(super) fn fold_reply(&mut self, times: StageTimes, round_trip_us: f64) {
        self.queue_us += times.queued_us;
        self.est_us += times.est_us;
        self.exec_us += times.exec_us;
        self.coord_us += (round_trip_us - times.queued_us - times.est_us - times.exec_us).max(0.0);
    }
}

/// Records one lock-hold sample (acquisition → now) for every partition
/// still held in `lock_set` minus `released`, into the client's reused
/// sample buffer (folded under the metrics lock once per call).
fn record_remaining_hold(
    samples: &mut Vec<f64>,
    lock_set: PartitionSet,
    released: PartitionSet,
    t_locked: Instant,
) {
    let us = t_locked.elapsed().as_secs_f64() * 1e6;
    for _ in lock_set.difference(released).iter() {
        samples.push(us);
    }
}

/// Closes the client's connection to every partition of an attempt's lock
/// set if the coordination unwinds (a panic in the control code or the
/// advisor, which the caller may catch). A participant whose fragment
/// wrote is reserved on that connection until it hears the outcome; once
/// the connection closes it rolls back and serves everyone else again. On
/// a normal return the guard does nothing.
struct CloseOnUnwind<'a, S> {
    conns: &'a mut Conns<S>,
    lock_set: PartitionSet,
}

impl<S> Drop for CloseOnUnwind<'_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for p in self.lock_set.iter() {
                self.conns.close(p as usize);
            }
        }
    }
}

/// Coordinates one distributed transaction from the client thread: atomic
/// lock acquisition, batched fragment shipping over the client's
/// connections, early prepares (OP4), 2PC outcome, and (durable mode) the
/// one sequenced commit flush. A connection's request ring holds at most
/// an unacknowledged read-only `Prepare` plus the next transaction's
/// `LogBegin` and opening `ExecBatch`; a written participant gets no
/// message at its early release, so it adds nothing.
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
    // Held for the whole coordination; the drop guard also releases on an
    // unwind, after `unwind` (declared later, dropped first) has closed the
    // lock set's connections, so a panicking coordinator cannot wedge later
    // transactions: its participants roll back.
    let t_acquire = Instant::now();
    let mut locks_held = env.locks.guard(lock_set);
    let unwind = CloseOnUnwind { conns, lock_set };
    let conns = &mut *unwind.conns;
    let lock_wait = us_since(t_acquire);
    acc.coord_us += lock_wait;
    acc.lock_us += lock_wait;
    let t_locked = Instant::now();
    // Early-released partitions: `fp.early_released` is the set the
    // mispredict rule and metrics see. Those that `wrote_parts` also holds
    // are still reserved at their workers and owe the 2PC outcome; the
    // rest were read-only participants and are completely done with this
    // txn.
    let mut fp = Footprint::default();
    // Partitions any write query was shipped to so far — a participant
    // may over-execute a write past the batch's constraint abort point, and
    // its undo must still be resolved by the outcome.
    let mut wrote_parts = PartitionSet::EMPTY;
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
    // Sends the 2PC outcome everywhere and waits for every ack (timing the
    // round into `acc`'s 2PC share); every call site returns immediately
    // afterwards, so the lock guard releases only
    // after all fragment effects are final (abort: undone; commit: kept —
    // durability is the caller's sequenced flush after this returns).
    // Coalesced 2PC (§2): each still-reserved participant gets one
    // `VoteFinish` carrying the flush-and-vote *and* the decision — the
    // split Vote round bought no information (participants always vote
    // yes; fragment errors surfaced at execution), only an extra message
    // round of lock-hold time per participant. Still reserved means not
    // early-released, or early-released after a write (that worker is
    // still serving this connection); read-only released participants hear
    // nothing (they are already out). All sends go out before any
    // acknowledgement is awaited, so participant-side work and modeled
    // delays overlap in wall-clock time.
    let finish_all = |conns: &mut Conns<A::Session>,
                      acc: &mut StageAcc,
                      released: PartitionSet,
                      wrote: PartitionSet,
                      commit: bool|
     -> Result<()> {
        let t_fin = Instant::now();
        let mut failure = None;
        let mut sent = PartitionSet::EMPTY;
        let reserved = lock_set.difference(released.difference(wrote));
        for p in reserved.iter() {
            match conns.send(workers, p as usize, Call::Frag(FragCmd::VoteFinish { commit })) {
                Ok(()) => sent.insert(p),
                Err(e) => failure = Some(e),
            }
        }
        for p in sent.iter() {
            match conns.recv(p as usize) {
                Some(Reply::Finished) => {}
                Some(Reply::Fatal(e)) => failure = Some(e),
                Some(_) => failure = Some(Error::Other("fragment protocol violation".into())),
                None => failure = Some(Error::Other(format!("worker {p} hung up"))),
            }
        }
        let tw = us_since(t_fin);
        acc.coord_us += tw;
        acc.twopc_us += tw;
        failure.map_or(Ok(()), Err)
    };

    let mut cursor = Cursor::new(&env.registry, req.proc, &req.args);
    let proc_def = env.catalog.proc(req.proc);
    // Each batch query's targets, reused across batch steps.
    let mut q_targets: Vec<PartitionSet> = Vec::new();
    // Per-participant reply cursors for the current batch, reused across
    // batch steps (entries are taken by the merge and cleared after it).
    let mut per_part: Vec<Option<std::vec::IntoIter<BatchItem>>> = (0..n).map(|_| None).collect();
    let (fin, committed) = loop {
        // Control code runs here on the coordinator: Execution time.
        let t_step = Instant::now();
        let step = cursor.next();
        acc.exec_us += us_since(t_step);
        match step {
            Step::Queries(batch) => {
                let t_batch = Instant::now();
                let mut batch_est_us = 0.0f64;
                let checked =
                    fp.check_batch(proc_def, env.num_partitions, &batch, lock_set, &mut q_targets);
                if let Err(observed) = checked {
                    let fin = finish_all(conns, acc, fp.early_released, wrote_parts, false);
                    record_remaining_hold(lock_holds, lock_set, fp.early_released, t_locked);
                    return match fin {
                        Ok(()) => Attempt::Mispredict { observed, session },
                        Err(e) => Attempt::Fatal(e),
                    };
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
                        wrote_parts = wrote_parts.union(targets);
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
                            if let Err(e) = conns.send(workers, p as usize, Call::Frag(begin)) {
                                fatal = Some(e);
                                continue;
                            }
                            began.insert(p);
                        }
                    }
                    let batch = FragCmd::ExecBatch { proc: req.proc, queries };
                    match conns.send(workers, p as usize, Call::Frag(batch)) {
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
                    match conns.recv(p as usize) {
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
                    let _ = finish_all(conns, acc, fp.early_released, wrote_parts, false);
                    record_remaining_hold(lock_holds, lock_set, fp.early_released, t_locked);
                    return Attempt::Fatal(e);
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
                    let upd = fp.observe(&env.advisor, &mut session, plan, None, def, inv, targets);
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
                let to_release = fp.releasable(pending_release, lock_set, PartitionSet::EMPTY);
                for p in to_release.iter() {
                    // A read-only participant gets the prepare, unacknowledged
                    // by design (the paper's unsolicited vote): the worker
                    // serves this connection's commands in order, so it observes
                    // the prepare before anything a later lock holder
                    // pushes — releasing the lock immediately after the
                    // push is safe, and not blocking here keeps the
                    // coordinator off the scheduler's critical path (one
                    // ack round trip per released partition is measurable
                    // on small hosts). A participant whose fragment wrote
                    // gets nothing: its worker stays on this connection until
                    // `finish_all`'s `VoteFinish`, so the later lock holder
                    // waits for the outcome.
                    let prepared = if wrote_parts.contains(p) {
                        Ok(())
                    } else {
                        conns.send(workers, p as usize, Call::Frag(FragCmd::Prepare))
                    };
                    if let Err(e) = prepared {
                        // Abort like every other fatal exit, so no
                        // participant stays reserved on this client's
                        // connections. The guard drop releases everything
                        // still held — record the hold time for those
                        // partitions (this one is still held too:
                        // `early_released` not yet updated).
                        let _ = finish_all(conns, acc, fp.early_released, wrote_parts, false);
                        record_remaining_hold(lock_holds, lock_set, fp.early_released, t_locked);
                        return Attempt::Fatal(e);
                    }
                    fp.early_released.insert(p);
                    lock_holds.push(t_locked.elapsed().as_secs_f64() * 1e6);
                    locks_held.release_early(p);
                }
                cursor.resume(batch_results);
                // Everything in this arm except the advisor calls —
                // fragment shipping, participant execution, reply
                // collection, early-prepare sends — counts as Execution;
                // the advisor share is Estimation.
                acc.est_us += batch_est_us;
                acc.exec_us += (us_since(t_batch) - batch_est_us).max(0.0);
            }
            Step::Commit => {
                let fin = finish_all(conns, acc, fp.early_released, wrote_parts, true);
                // Durable mode: one durability wait per distributed write
                // commit, through the shared sequencer — and *after* the
                // lock guard drops. The ticket is taken first, while every
                // participant's ack is in hand (their begin and decision
                // appends happen-before it), so one `write+fsync` covers
                // all of them; effects are visible the moment the locks
                // release, only this client's acknowledgement stalls on
                // the device (DESIGN.md §7 has the ordering argument).
                let ticket = match &env.durable {
                    Some(d) if fin.is_ok() && !wrote_parts.is_empty() => Some((d, d.seq.enqueue())),
                    _ => None,
                };
                record_remaining_hold(lock_holds, lock_set, fp.early_released, t_locked);
                drop(locks_held);
                if let Some((d, t)) = ticket {
                    d.wait_durable(t, acc);
                }
                break (fin, true);
            }
            Step::Abort(_) => {
                let fin = finish_all(conns, acc, fp.early_released, wrote_parts, false);
                record_remaining_hold(lock_holds, lock_set, fp.early_released, t_locked);
                break (fin, false);
            }
        }
    };
    match fin {
        Ok(()) => Attempt::Done { committed, fp, session },
        Err(e) => Attempt::Fatal(e),
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
