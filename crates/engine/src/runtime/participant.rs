//! The participant side of a distributed transaction: serving one
//! coordinator's fragment lane until its reservation ends.

use super::lifecycle::Shared;
use super::wire::{BatchItem, FragCmd, FragConn, FragReply};
use crate::advisor::LiveAdvisor;
use crate::exec::execute_fragment;
use common::ring::Doorbell;
use common::Error;
use storage::{Shard, UndoLog};
use wal::LogRecord;

/// Parks the worker for one distributed transaction: execute the fragments
/// arriving on `conn` against the owned shard, in lane order, until the
/// reservation ends (waits park on the worker's doorbell `bell`). It ends
/// on the coordinator's `VoteFinish` (commit keeps the fragments' effects,
/// abort rolls them back), on a read-only early prepare, or when the lane
/// closes because the coordinator died (rolled back). A participant whose
/// fragment wrote stays here through its early release: fast-path singles
/// queued meanwhile wait for the outcome.
pub(super) fn serve_reservation<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    bell: &Doorbell,
    conn: &mut FragConn,
) {
    let mut undo = UndoLog::new();
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
                    Some(e) => FragReply::Fatal(e),
                    None => FragReply::Batch(items),
                };
                if !conn.send(reply) {
                    // Coordinator vanished: restore the shard and move on.
                    let _ = shard.rollback(&mut undo);
                    return;
                }
            }
            Some(FragCmd::Prepare) => {
                // Early prepare (OP4) of a read-only participant: no
                // effects to keep or undo, no outcome to wait for — the
                // reservation simply ends and the worker serves everything
                // normally again.
                std::thread::sleep(env.msg_delay);
                debug_assert!(undo.is_empty(), "read-only fragment logged undo");
                return;
            }
            Some(FragCmd::VoteFinish { commit }) => {
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
                    FragReply::Finished
                } else {
                    match shard.rollback(&mut undo) {
                        Ok(()) => FragReply::Finished,
                        Err(e) => FragReply::Fatal(e),
                    }
                };
                let _ = conn.send(reply);
                return;
            }
            None => {
                let _ = shard.rollback(&mut undo);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::wire::SingleReply;
    use super::super::worker::tests::*;
    use super::*;
    use crate::procedure::testing::kv_database;
    use common::{QueryId, Value};
    use std::time::Duration;
    use storage::Row;

    /// Hand-drives one written-and-released participant: a write fragment
    /// bumps id 0 by 10, then a fast-path single bumping the same row is
    /// pushed behind it. The coordinator sends nothing at the release, so
    /// the worker stays on the fragment lane and the single must not be
    /// acknowledged before the outcome; `end` then resolves the
    /// reservation (a `VoteFinish`, or the coordinator's death). Returns
    /// (the single's reply, final snapshot, snapshot before the fragment).
    fn drive_parked_participant(
        end: impl FnOnce(&mut Driver<'_>),
    ) -> (SingleReply<()>, TableRows, TableRows) {
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, reply) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            let rows = d.exec(vec![(1, vec![Value::Int(0), Value::Int(10)])]);
            assert_eq!(rows[0].len(), 1);
            let slot = d.single(bump_id0(), false);
            assert!(
                slot.take_within(Duration::from_millis(200)).is_none(),
                "a single was served while its partition was still reserved"
            );
            end(d);
            slot.take_within(WAIT).expect("single served after the reservation")
        });
        (reply, table_snapshot(&shard, 0), before)
    }

    /// `rows` with id 0's counter set to `v`.
    fn with_id0(mut rows: TableRows, v: i64) -> TableRows {
        let id0 = rows.iter_mut().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        id0.1[2] = Value::Int(v);
        rows
    }

    fn assert_committed(reply: SingleReply<()>) {
        match reply {
            SingleReply::Done { committed, .. } => assert!(committed),
            _ => panic!("expected Done"),
        }
    }

    #[test]
    fn parked_participant_abort_restores_the_shard_before_the_single_runs() {
        let (reply, after, before) = drive_parked_participant(|d| d.vote_finish(false));
        assert_committed(reply);
        // The fragment's +10 is gone byte for byte; the single's +1 ran on
        // the restored state.
        assert_eq!(after, with_id0(before, 1));
    }

    #[test]
    fn parked_participant_commit_keeps_both_effects() {
        let (reply, after, before) = drive_parked_participant(|d| d.vote_finish(true));
        assert_committed(reply);
        assert_eq!(after, with_id0(before, 11));
    }

    #[test]
    fn dead_coordinator_rolls_back_and_the_queued_single_is_served() {
        // The coordinator unwinds without an outcome: its lane closes, the
        // worker rolls the fragment back and serves the queued single.
        let (reply, after, before) = drive_parked_participant(|d| d.drop_frag_port());
        assert_committed(reply);
        assert_eq!(after, with_id0(before, 1));
    }

    #[test]
    fn read_only_early_prepare_ends_the_reservation() {
        // A read fragment, then the read-only early prepare: the worker
        // leaves the lane at once and serves the single with no outcome.
        let (env, ctrl_rx) = test_env(2);
        let shard = shard_zero_of_two();
        let before = table_snapshot(&shard, 0);
        let (shard, reply) = drive_worker(ctrl_rx, shard, Driver::new(&env), |d| {
            d.exec(vec![(0, vec![Value::Int(0)])]);
            d.frag(FragCmd::Prepare);
            d.single(bump_id0(), false).take_within(WAIT).expect("single served")
        });
        assert_committed(reply);
        assert_eq!(table_snapshot(&shard, 0), with_id0(before, 1));
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
