//! The participant side of a distributed transaction, and OP4 speculation.

use super::lifecycle::Shared;
use super::wire::{BatchItem, FragCmd, FragReply, SingleMsg, SingleReply, SingleSlot};
use super::worker::{release_group, run_single, stamp_times, DeferredAck, Intake};
use super::SPEC_WATCHDOG;
use crate::advisor::{LiveAdvisor, Request};
use crate::exec::execute_fragment;
use crate::txn::table_bit;
use common::sync::Arc;
use common::Error;
use std::time::Instant;
use storage::{Shard, SpeculationStack, UndoLog};
use wal::LogRecord;

/// A speculation window opened by an early-prepared distributed
/// transaction: its coordinator's fragment lane plus the shard's undo
/// stack and the conflict mask.
pub(super) struct SpecSession {
    /// Index of the coordinator's lane in the worker's fragment lanes
    /// (stable — lanes are only retired between transactions, never while
    /// a window is open).
    lane: usize,
    stack: SpeculationStack,
    /// `table_bit` mask of tables written inside the window
    /// so far: the early-prepared fragment's writes plus every deferred
    /// speculative commit's. A speculative transaction whose touched set is
    /// disjoint from this cannot depend on contingent state (§2 OP4).
    written_tables: u64,
    /// The distributed transaction's command-log id (durable mode): its
    /// `DistBegin` is already on this partition's log, and the window's
    /// resolution appends the matching `Decision`.
    dist_id: Option<u64>,
}

/// Parks the worker for one distributed transaction: execute its fragments
/// against the owned shard until the coordinator sends the 2PC outcome —
/// or an early prepare, which hands back an open [`SpecSession`] for the
/// caller to speculate under.
pub(super) fn serve_reservation<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    intake: &mut Intake<'_, A::Session>,
    lane: usize,
) -> Option<SpecSession> {
    let bell = intake.bell;
    let conn = &mut intake.frag_lanes[lane];
    let mut undo = UndoLog::new();
    let mut wrote_tables = 0u64;
    let mut dist_id: Option<u64> = None;
    loop {
        match conn.recv(bell) {
            Some(FragCmd::LogBegin { txn_id, proc, args }) => {
                // Durable mode only (never sent otherwise): record the
                // distributed transaction's begin at its service position —
                // before any of its fragments execute here. No reply, no
                // modeled delay: this is durability bookkeeping, not one of
                // the paper's network messages.
                if let Some(d) = &env.durable {
                    let rec = LogRecord::DistBegin { txn_id, proc, args };
                    d.logs.append(shard.partition(), &rec);
                }
                dist_id = Some(txn_id);
            }
            Some(FragCmd::ExecBatch { proc, queries }) => {
                // One modeled network hop covers the whole sub-batch —
                // exactly the per-query message cost batching removes.
                std::thread::sleep(env.msg_delay);
                let mut items = Vec::with_capacity(queries.len());
                let mut fatal = None;
                for (query, params) in queries {
                    let def = env.catalog.proc(proc).query(query);
                    match execute_fragment(shard, def, &params, &mut undo) {
                        Ok(rows) => {
                            if def.is_write() {
                                wrote_tables |= table_bit(def.table);
                            }
                            items.push(BatchItem::Rows(rows));
                        }
                        Err(Error::Constraint(msg)) => {
                            // Stop at the first local constraint: the
                            // coordinator aborts at the batch-global first
                            // constraint anyway, and the rollback erases
                            // anything executed past it.
                            items.push(BatchItem::Constraint(msg));
                            break;
                        }
                        Err(e) => {
                            fatal = Some(e);
                            break;
                        }
                    }
                }
                let reply = match fatal {
                    Some(e) => FragReply::Fatal(e),
                    None => FragReply::Batch(items),
                };
                if !conn.send(reply) {
                    // Coordinator vanished: restore the shard and move on.
                    let _ = shard.rollback(&mut undo);
                    return None;
                }
            }
            Some(FragCmd::Prepare { speculate }) => {
                std::thread::sleep(env.msg_delay);
                if !speculate {
                    // Read-only participant: no effects to keep or undo, no
                    // outcome to wait for — the reservation simply ends and
                    // the worker serves everything normally again.
                    debug_assert!(undo.is_empty(), "read-only fragment logged undo");
                    return None;
                }
                // Early prepare of a written fragment: open the speculation
                // window over this fragment's undo. Its durability is the
                // *coordinator's* debt — one wait on the shared
                // [`FlushSequencer`] after all Finished acks, with a ticket
                // that covers this fragment's log records (the acks order
                // the writes before the wait). No sleep here: the old
                // ungrouped per-participant flush stalled this partition's
                // whole fast path behind every distributed writer.
                let stack = SpeculationStack::new(undo);
                return Some(SpecSession { lane, stack, written_tables: wrote_tables, dist_id });
            }
            Some(FragCmd::VoteFinish { commit }) => {
                // Coalesced 2PC: flush-and-vote plus the decision in one
                // message — one modeled network hop, one acknowledgement.
                // Outcome-identical to Vote + Finish because the vote is
                // always yes. Commit durability is the coordinator's one
                // sequenced flush (see the Prepare arm above).
                std::thread::sleep(env.msg_delay);
                if let (Some(d), Some(id)) = (&env.durable, dist_id) {
                    // Appended before the Finished reply: the coordinator's
                    // one real flush (after all Finished acks) covers it.
                    let rec = LogRecord::Decision { txn_id: id, commit };
                    d.logs.append(shard.partition(), &rec);
                }
                let reply = if commit {
                    undo.clear();
                    FragReply::Finished
                } else {
                    match shard.rollback(&mut undo) {
                        Ok(()) => FragReply::Finished,
                        Err(e) => FragReply::Fatal(e),
                    }
                };
                let _ = conn.send(reply);
                return None;
            }
            None => {
                let _ = shard.rollback(&mut undo);
                return None;
            }
        }
    }
}

/// Runs the worker through one speculation window: swept single-partition
/// transactions execute speculatively (deferred acknowledgement, undo
/// force-enabled) and new reservations stay buffered in their fragment
/// lanes until the early-prepared transaction's 2PC outcome arrives. Work
/// is collected in runs exactly like `worker_loop` — control channel
/// first, then a fair lane sweep ([`Intake::poll_window`]) — and a run's
/// non-conflicting acknowledgements leave as one [`release_group`] (in
/// durable mode they ride one flusher ticket). The control
/// channel is gathered *before* each sweep, so an outcome already buffered
/// ends the window before any further singles are admitted — they execute
/// non-speculatively after it, a schedule the racing clients cannot
/// distinguish. A shutdown observed while speculating is recorded on the
/// intake (the window still resolves first).
pub(super) fn speculate<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    intake: &mut Intake<'_, A::Session>,
    last_ticket: &mut u64,
    mut spec: SpecSession,
) {
    // A deferred completion: the client's slot, the reply, the request
    // (unless the reply carries it itself — needed to route the `Cascaded`
    // retry if the window aborts), and the command-log id of its contingent
    // `DistBegin` record (durable mode, conflicting commits only — the
    // window's resolution appends the matching `Decision`, or nothing on
    // abort, so replay skips it).
    type Deferred<S> = (Arc<SingleSlot<S>>, SingleReply<S>, Option<Request>, Option<u64>);
    let mut deferred: Vec<Deferred<A::Session>> = Vec::new();
    let mut run: Vec<SingleMsg<A::Session>> = Vec::new();
    let bell = intake.bell;
    // `None` = the coordinator disappeared without an outcome (it unwound);
    // the window resolves exactly like an abort.
    let outcome: Option<bool> = 'window: loop {
        let mut finish: Option<bool> = None;
        if !intake.poll_window(&mut run, &mut finish) {
            // Idle: park under the doorbell protocol, but with the
            // watchdog timeout — the outcome normally arrives as a rung
            // control message, so an empty 25 ms is only expected for a
            // long-running coordinator, unless it died (its fragment lane
            // closes without a buffered outcome).
            let token = bell.prepare_park();
            if !intake.poll_window(&mut run, &mut finish) {
                // Coordinators deliver the outcome on the control channel;
                // the lane matters here only as the liveness signal.
                // Anything buffered in it belongs to the *next*
                // transaction of a client that reacquired after an early
                // release — never popped here. A closed (drained, producer
                // dropped) lane means the coordinator died; one final
                // control drain closes the race where it sent the outcome
                // just before dropping.
                if bell.park_timeout(token, SPEC_WATCHDOG)
                    && intake.frag_lanes[spec.lane].frags.is_closed()
                {
                    let mut last: Option<bool> = None;
                    intake.gather_ctrl(Some(&mut last));
                    break 'window last;
                }
                continue 'window;
            }
            bell.cancel_park();
        }
        // Serve the swept run; an outcome gathered above ends the window
        // after it.
        let mut acks: Vec<DeferredAck<A::Session>> = Vec::new();
        let mut group_wrote = false;
        let mut t_cursor = Instant::now();
        for msg in run.drain(..) {
            let SingleMsg { req, plan, session, reply, enqueued } = msg;
            let mut out = run_single(shard, env, req, &plan, session, true, &mut intake.targets);
            stamp_times(&mut out, enqueued, &mut t_cursor);
            let durable = out.needs_flush();
            // Same conflict rule as the simulator (§2 OP4): contingent
            // means having touched a table written inside the window — by
            // the early-prepared fragment or by a deferred speculative
            // commit. A non-conflicting transaction read nothing
            // contingent, so its outcome is final whatever the 2PC
            // decides, and even its *writes* are safe to keep off the
            // stack: on a cascade, the deferred transactions' row-level
            // pre-images restore around them (their tables are disjoint
            // from everything the cascade undoes up to their own later —
            // also undone — overwrites).
            let conflict = out.touched_tables & spec.written_tables != 0;
            match out.spec_undo {
                Some(u) if conflict => {
                    // A contingent commit: effects join the window (and
                    // its conflict mask), the ack waits. Durable mode logs
                    // it *here*, at its true serialization position, as a
                    // single-participant `DistBegin` — contingent on the
                    // `Decision` the window's resolution appends (commit)
                    // or withholds (abort ⇒ replay skips; the client's
                    // transparent retry re-logs the new attempt).
                    let log_id = env.durable.as_ref().map(|d| {
                        let txn_id = d.next_id();
                        let req =
                            out.req.as_ref().expect("deferred completion retains its request");
                        let rec =
                            LogRecord::DistBegin { txn_id, proc: req.proc, args: req.args.clone() };
                        d.logs.append(shard.partition(), &rec);
                        txn_id
                    });
                    spec.stack.push_commit(u);
                    spec.written_tables |= out.wrote_tables;
                    deferred.push((reply, out.reply, out.req, log_id));
                }
                None if conflict => deferred.push((reply, out.reply, out.req, None)),
                // Non-conflicting (commit, user abort, or mispredict):
                // acknowledge with the group, effects (if any) are final.
                Some(_) | None => {
                    if durable {
                        if let Some(d) = &env.durable {
                            // Final whatever the 2PC decides: a plain
                            // command-log record, like the fast path's.
                            let req =
                                out.req.as_ref().expect("committed fast path retains its request");
                            d.append_local(shard.partition(), req);
                        }
                    }
                    group_wrote |= durable;
                    acks.push((reply, out.reply));
                }
            }
        }
        // Non-conflicting acks leave now: their effects are disjoint from
        // the window's. Deferred acks wait for the outcome, which arrives
        // strictly later. In durable mode the group is handed to the
        // flusher, on a fresh ticket when any of them wrote.
        if !acks.is_empty() {
            release_group(env, acks, group_wrote, last_ticket);
        }
        if let Some(commit) = finish {
            break 'window Some(commit);
        }
    };
    if outcome == Some(true) {
        // Speculative work becomes final: acknowledge in completion order.
        spec.stack.commit();
        if let Some(d) = &env.durable {
            // The window's decision, then each contingent commit's — all
            // appended before the Finished ack below, so the coordinator's
            // one sequenced flush covers them; the deferred acks ride a
            // flusher ticket of their own rather than wait for it.
            if let Some(id) = spec.dist_id {
                d.logs.append(shard.partition(), &LogRecord::Decision { txn_id: id, commit: true });
            }
            for (_, _, _, log_id) in &deferred {
                if let Some(id) = *log_id {
                    d.logs.append(
                        shard.partition(),
                        &LogRecord::Decision { txn_id: id, commit: true },
                    );
                }
            }
            if !deferred.is_empty() {
                let acks = deferred.into_iter().map(|(slot, reply, _, _)| (slot, reply)).collect();
                release_group(env, acks, true, last_ticket);
            }
        } else {
            for (slot, reply, _, _) in deferred {
                slot.put(reply);
            }
        }
        intake.frag_lanes[spec.lane].send(FragReply::Finished);
    } else {
        // Cascading rollback (LIFO) of every speculative commit, then the
        // fragment itself; deferred clients retry transparently. Durable
        // mode appends the window's abort decision (the contingent
        // `DistBegin`s get nothing — no decision ⇒ replay skips them).
        if let (Some(d), Some(id)) = (&env.durable, spec.dist_id) {
            d.logs.append(shard.partition(), &LogRecord::Decision { txn_id: id, commit: false });
        }
        let reply = match shard.rollback_speculation(spec.stack) {
            Ok(_) => FragReply::Finished,
            Err(e) => FragReply::Fatal(e),
        };
        for (slot, dropped, req, _) in deferred {
            // The rolled-back attempt's request routes the transparent
            // retry; a Mispredict reply carries it itself.
            let req = match dropped {
                SingleReply::Mispredict { req, .. } => req,
                _ => req.expect("deferred completion retains its request"),
            };
            slot.put(SingleReply::Cascaded { req });
        }
        if outcome.is_some() {
            intake.frag_lanes[spec.lane].send(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::worker::tests::*;
    use super::*;
    use crate::procedure::testing::kv_database;
    use common::{PartitionSet, QueryId, Value};
    use std::time::Duration;
    use storage::Row;

    /// Hand-drives the worker protocol through one speculation window:
    /// write fragment → early prepare → speculative single → 2PC outcome.
    /// Deterministic: the worker is blocked on the fragment lane until the
    /// prepare arrives, so the window is open before the single's lane is
    /// even registered; with `expect_deferred` the deferral assertion
    /// doubles as the processed-before-outcome sync (non-conflicting
    /// replies instead arrive before the outcome is even sent).
    /// Returns (reply, post snapshot, pre snapshot).
    fn drive_speculation(
        commit: bool,
        spec_args: Vec<Value>,
        expect_deferred: bool,
    ) -> (SingleReply<()>, TableRows, TableRows) {
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, reply) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            // Open a "distributed" transaction at partition 0 with one
            // write fragment: bump id 0 by 10.
            let rows = d.exec(vec![(1, vec![Value::Int(0), Value::Int(10)])]);
            assert_eq!(rows[0].len(), 1);
            // Early prepare: unacknowledged.
            d.frag(FragCmd::Prepare { speculate: true });
            // A single-partition transaction arrives mid-window. Its plan
            // asks for OP3 (disable_undo) — speculation must override it.
            let slot = d.single(spec_args, true);
            let early = if expect_deferred {
                // The acknowledgement must wait for the outcome.
                assert!(
                    slot.take_within(Duration::from_millis(200)).is_none(),
                    "conflicting speculative ack leaked before the 2PC outcome"
                );
                None
            } else {
                // Non-conflicting: acknowledged before any outcome exists.
                Some(slot.take_within(WAIT).expect("immediate ack"))
            };
            d.spec_finish(commit);
            assert!(matches!(d.frag_reply(), FragReply::Finished));
            early.unwrap_or_else(|| slot.take_within(WAIT).expect("deferred ack"))
        });
        (reply, table_snapshot(&shard, 0), before)
    }

    #[test]
    fn speculative_commit_defers_ack_and_keeps_undo_despite_op3() {
        // MultiGet over id 0 (lives at partition 0 of 2): writes a table
        // the fragment wrote, so it executes speculatively inside the
        // window, commits, and its ack is deferred.
        let (reply, after, before) =
            drive_speculation(true, vec![Value::Array(vec![Value::Int(0)])], true);
        match reply {
            SingleReply::Done { committed, fp, .. } => {
                assert!(committed);
                assert!(fp.speculative, "executed inside the window");
                assert!(!fp.undo_disabled_ever, "OP3 must be ignored while speculating (§4.3)");
            }
            _ => panic!("expected a deferred Done"),
        }
        assert_ne!(after, before, "fragment + speculative bump are final");
        // id 0: +10 from the fragment, +1 from the speculative MultiGet.
        let id0 = after.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(11));
    }

    #[test]
    fn coordinator_abort_cascades_and_restores_shard_state() {
        let (reply, after, before) =
            drive_speculation(false, vec![Value::Array(vec![Value::Int(0)])], true);
        assert!(
            matches!(reply, SingleReply::Cascaded { .. }),
            "cascaded speculative txn must be told to retry"
        );
        assert_eq!(after, before, "cascading rollback must restore the shard byte-for-byte");
    }

    #[test]
    fn non_conflicting_mispredict_acks_before_the_outcome() {
        // id 1 lives at partition 1: the speculative plan (lock partition 0
        // only) mispredicts before touching storage — nothing contingent
        // was read, so the reply is delivered without waiting for 2PC.
        let (reply, after, before) =
            drive_speculation(true, vec![Value::Array(vec![Value::Int(1)])], false);
        match reply {
            SingleReply::Mispredict { observed, .. } => {
                assert_eq!(observed, PartitionSet::single(1));
            }
            _ => panic!("expected an immediate Mispredict"),
        }
        // Only the committed fragment's bump remains.
        let id0 = after.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(10));
        assert_eq!(after.len(), before.len());
    }

    #[test]
    fn non_conflicting_commit_acks_before_the_outcome() {
        // A MultiGet over no ids reads and writes nothing: a degenerate
        // read-only transaction, acknowledged mid-window (paper §2 OP4's
        // non-conflicting case), surviving even an eventual cascade.
        let (reply, after, before) = drive_speculation(false, vec![Value::Array(vec![])], false);
        match reply {
            SingleReply::Done { committed, fp, .. } => {
                assert!(committed);
                assert!(fp.speculative);
            }
            _ => panic!("expected an immediate Done"),
        }
        assert_eq!(after, before, "abort outcome cascades only the fragment");
    }

    #[test]
    fn dead_coordinator_aborts_the_window_and_a_stray_outcome_is_dropped() {
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, ()) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            d.exec(vec![(1, vec![Value::Int(0), Value::Int(10)])]);
            d.frag(FragCmd::Prepare { speculate: true });
            let slot = d.single(bump_id0(), false);
            assert!(
                slot.take_within(Duration::from_millis(200)).is_none(),
                "conflicting speculative ack leaked out of an unresolved window"
            );
            // The coordinator unwinds inside the window without sending an
            // outcome: only the watchdog can resolve it — as an abort.
            d.drop_frag_port();
            assert!(
                matches!(
                    slot.take_within(WAIT).expect("cascade notice"),
                    SingleReply::Cascaded { .. }
                ),
                "a window orphaned by its coordinator must cascade its deferred clients"
            );
            // An outcome that arrives after the watchdog resolved the
            // window is stray: dropped, not applied to anything.
            d.spec_finish(true);
            // The worker keeps serving, non-speculatively, on the restored
            // state.
            match d.single(bump_id0(), false).take_within(WAIT).expect("post-window ack") {
                SingleReply::Done { committed, fp, .. } => {
                    assert!(committed);
                    assert!(!fp.speculative, "the window is closed");
                }
                _ => panic!("expected Done"),
            }
        });
        // The fragment's +10 and the speculative +1 are gone byte-for-byte;
        // only the post-window bump remains.
        let mut expected = before;
        let id0 = expected.iter_mut().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        id0.1[2] = Value::Int(1);
        assert_eq!(table_snapshot(&shard, 0), expected);
    }

    /// Runs one worker over the same four-query fragment script — bump id
    /// 0 by 7, read it back, bump a missing id (zero rows), read id 3 —
    /// then commits via `VoteFinish`. With `batched` the script ships as
    /// one four-item [`FragCmd::ExecBatch`]; without it as four one-item
    /// batches, each awaited before the next — the one-command-at-a-time
    /// schedule. Returns (per-query result rows in script order, final
    /// table snapshot) — batching must be indistinguishable.
    fn drive_fragment_script(batched: bool) -> (Vec<Vec<Row>>, TableRows) {
        let (env, ctrl_rx) = test_env(1);
        let shard = kv_database(1, 8).into_shards().pop().unwrap();
        let script: Vec<(QueryId, Vec<Value>)> = vec![
            (1, vec![Value::Int(0), Value::Int(7)]),
            (0, vec![Value::Int(0)]),
            (1, vec![Value::Int(99), Value::Int(1)]),
            (0, vec![Value::Int(3)]),
        ];
        let (shard, rows) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            let rows = if batched {
                d.exec(script)
            } else {
                script.into_iter().flat_map(|q| d.exec(vec![q])).collect()
            };
            d.vote_finish(true);
            rows
        });
        (rows, table_snapshot(&shard, 0))
    }

    #[test]
    fn fragment_batching_matches_per_query_commands() {
        let (batch_rows, batch_state) = drive_fragment_script(true);
        let (serial_rows, serial_state) = drive_fragment_script(false);
        assert_eq!(batch_rows, serial_rows, "per-query results must match in order and content");
        assert_eq!(batch_state, serial_state, "final shard state must be byte-identical");
        // Shape sanity: the bump returned the updated row, the read saw
        // it, the missing id affected nothing, the last read hit id 3.
        assert_eq!(batch_rows.len(), 4);
        assert_eq!(batch_rows[0][0][2], Value::Int(7));
        assert_eq!(batch_rows[1][0][2], Value::Int(7));
        assert!(batch_rows[2].is_empty(), "missing id must affect zero rows");
        assert_eq!(batch_rows[3][0][0], Value::Int(3));
        let id0 = batch_state.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(7), "committed bump is durable");
    }
}
