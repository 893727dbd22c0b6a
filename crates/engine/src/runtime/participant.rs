//! The participant side of a distributed transaction: serving one
//! coordinator's connection until its reservation ends.

use super::lifecycle::Shared;
use super::wire::{BatchItem, Call, FragCmd, Reply, WorkerEnd};
use crate::advisor::LiveAdvisor;
use crate::exec::execute_fragment;
use common::ring::Doorbell;
use common::Error;
use storage::{Shard, UndoLog};
use wal::LogRecord;

/// Holds the worker for one distributed transaction: execute `first`, then
/// the fragment commands arriving on `conn`, against the owned shard, in
/// ring order, until the reservation ends (between commands it waits on
/// the worker's doorbell `bell`: spin, then park). It ends on the
/// coordinator's `VoteFinish` (commit keeps the fragments' effects, abort
/// rolls them back), on a read-only early prepare, or when the connection
/// closes because the coordinator died (rolled back). A participant whose
/// fragment wrote stays here through its early release: fast-path singles
/// queued meanwhile wait for the outcome.
pub(super) fn serve_reservation<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    bell: &Doorbell,
    conn: &mut WorkerEnd<A::Session>,
    first: FragCmd,
) {
    let mut undo = UndoLog::new();
    let mut dist_id: Option<u64> = None;
    let mut cmd = first;
    loop {
        match cmd {
            FragCmd::LogBegin { txn_id, proc, args } => {
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
            FragCmd::ExecBatch { proc, queries } => {
                // One modeled network hop covers the whole sub-batch —
                // exactly the per-query message cost batching removes.
                std::thread::sleep(env.msg_delay);
                let mut items = Vec::with_capacity(queries.len());
                let mut fatal = None;
                for (query, params) in queries {
                    let def = env.catalog.proc(proc).query(query);
                    match execute_fragment(shard, def, &params, &mut undo) {
                        Ok(rows) => items.push(BatchItem::Rows(rows)),
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
                    Some(e) => Reply::Fatal(e),
                    None => Reply::Batch(items),
                };
                if conn.send(reply).is_err() {
                    // Coordinator vanished: restore the shard and move on.
                    let _ = shard.rollback(&mut undo);
                    return;
                }
            }
            FragCmd::Prepare => {
                // Early prepare (OP4) of a read-only participant: no
                // effects to keep or undo, no outcome to wait for — the
                // reservation simply ends and the worker serves everything
                // normally again.
                std::thread::sleep(env.msg_delay);
                debug_assert!(undo.is_empty(), "read-only fragment logged undo");
                return;
            }
            FragCmd::VoteFinish { commit } => {
                // Coalesced 2PC: flush-and-vote plus the decision in one
                // message — one modeled network hop, one acknowledgement.
                // Outcome-identical to Vote + Finish because the vote is
                // always yes. Commit durability is the *coordinator's* debt:
                // one wait on the shared `FlushSequencer` after all Finished
                // acks, with a ticket that covers this fragment's log
                // records (the acks order the appends before the wait).
                std::thread::sleep(env.msg_delay);
                if let (Some(d), Some(id)) = (&env.durable, dist_id) {
                    let rec = LogRecord::Decision { txn_id: id, commit };
                    d.logs.append(shard.partition(), &rec);
                }
                let reply = if commit {
                    undo.clear();
                    Reply::Finished
                } else {
                    match shard.rollback(&mut undo) {
                        Ok(()) => Reply::Finished,
                        Err(e) => Reply::Fatal(e),
                    }
                };
                let _ = conn.send(reply);
                return;
            }
        }
        cmd = match conn.recv(bell) {
            Some(Call::Frag(next)) => next,
            Some(Call::Single(_)) => {
                // The coordinator's call unwound mid-transaction (a panic
                // its caller caught) and left this reservation open: roll
                // it back, and fail the new call.
                let _ = shard.rollback(&mut undo);
                let _ = conn.send(Reply::Fatal(Error::Other("call inside a reservation".into())));
                return;
            }
            None => {
                let _ = shard.rollback(&mut undo);
                return;
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::super::worker::tests::*;
    use super::*;
    use crate::baselines::AssumeSinglePartition;
    use crate::procedure::testing::kv_database;
    use common::{QueryId, Value};
    use std::time::{Duration, Instant};
    use storage::Row;

    /// Hand-drives one written-and-released participant: a write fragment
    /// bumps id 0 by 10, then another client's fast-path single bumping the
    /// same row is pushed behind it. The coordinator sends nothing at the
    /// release, so the worker stays on the coordinator's connection and the
    /// single must not be acknowledged before the outcome; `end` then
    /// resolves the reservation (a `VoteFinish`, or the coordinator's
    /// death). Returns (whether the single committed, final snapshot,
    /// snapshot before the fragment).
    fn drive_parked_participant(
        end: impl FnOnce(&mut Driver<'_, AssumeSinglePartition>),
    ) -> (bool, TableRows, TableRows) {
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, committed) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            let rows = d.exec(vec![(1, vec![Value::Int(0), Value::Int(10)])]);
            assert_eq!(rows[0].len(), 1);
            d.single(bump_id0(), false);
            assert!(
                d.single_reply(Duration::from_millis(200)).is_none(),
                "a single was served while its partition was still reserved"
            );
            end(d);
            committed(d.single_reply(WAIT))
        });
        (committed, table_snapshot(&shard, 0), before)
    }

    /// `rows` with id 0's counter set to `v`.
    fn with_id0(mut rows: TableRows, v: i64) -> TableRows {
        let id0 = rows.iter_mut().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        id0.1[2] = Value::Int(v);
        rows
    }

    #[test]
    fn parked_participant_abort_restores_the_shard_before_the_single_runs() {
        let (committed, after, before) = drive_parked_participant(|d| d.vote_finish(false));
        assert!(committed);
        // The fragment's +10 is gone byte for byte; the single's +1 ran on
        // the restored state.
        assert_eq!(after, with_id0(before, 1));
    }

    #[test]
    fn parked_participant_commit_keeps_both_effects() {
        let (committed, after, before) = drive_parked_participant(|d| d.vote_finish(true));
        assert!(committed);
        assert_eq!(after, with_id0(before, 11));
    }

    #[test]
    fn dead_coordinator_rolls_back_and_the_queued_single_is_served() {
        // The coordinator unwinds without an outcome: its connection
        // closes, the worker rolls the fragment back and serves the queued
        // single.
        let (committed, after, before) = drive_parked_participant(|d| d.drop_coord());
        assert!(committed);
        assert_eq!(after, with_id0(before, 1));
    }

    #[test]
    fn a_call_inside_its_own_reservation_rolls_it_back_and_fails() {
        // A coordinator whose call unwound mid-transaction, and whose
        // caller caught the panic, calls again on the same connection
        // while its write fragment's reservation is still open.
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, reply) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            d.exec(vec![(1, vec![Value::Int(0), Value::Int(10)])]);
            d.coord.send(&env.workers, 0, single_call(bump_id0(), false)).expect("push");
            reply_within(&mut d.coord, WAIT)
        });
        assert!(matches!(reply, Some(Reply::Fatal(_))), "the call was not failed");
        assert_eq!(table_snapshot(&shard, 0), before, "the abandoned fragment's +10 survived");
    }

    #[test]
    fn read_only_early_prepare_ends_the_reservation() {
        // A read fragment, then the read-only early prepare: the worker
        // ends the reservation at once and serves the single with no
        // outcome.
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, committed) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            d.exec(vec![(0, vec![Value::Int(0)])]);
            d.frag(FragCmd::Prepare);
            d.single(bump_id0(), false);
            committed(d.single_reply(WAIT))
        });
        assert!(committed);
        assert_eq!(table_snapshot(&shard, 0), with_id0(before, 1));
    }

    #[test]
    fn a_late_vote_finish_wakes_the_parked_participant_and_counts_the_park() {
        // The write fragment is queued before the worker starts, so the
        // worker opens the reservation without an idle park: every park
        // below is the reserved participant's. The outcome is held back
        // until the participant has outlasted its spin and parked; the
        // `VoteFinish` must then wake it, and the park reach the metrics.
        let (env, ctrl_rx) = test_env(2);
        let mut driver = Driver::new(&env);
        driver.frag(FragCmd::ExecBatch {
            proc: 0,
            queries: vec![(1, vec![Value::Int(0), Value::Int(10)])],
        });
        let bell = &env.workers[0].bell;
        drive_worker(ctrl_rx, shard_zero_of_two(), driver, |d| {
            assert_eq!(d.batch_rows()[0].len(), 1);
            let deadline = Instant::now() + WAIT;
            while bell.parks() == 0 {
                assert!(Instant::now() < deadline, "the reserved worker never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
            d.vote_finish(true);
        });
        assert!(env.metrics_snapshot(0.0).worker_parks >= 1);
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
