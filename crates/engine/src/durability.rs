//! Durability policy and crash-recovery replay for the live runtime.
//!
//! The live runtime's durability subsystem (DESIGN.md §7) is H-Store-style
//! *command logging*: workers append compact records — transaction id,
//! procedure, arguments, commit decision — for every committed writer, and
//! group-commit batches ride the existing `FlushSequencer` epochs so one
//! real `write+fsync` covers a whole coalesced group. Recovery loads the
//! newest complete snapshot and re-executes the logged commands.
//!
//! ## Replay order
//!
//! Each partition's record stream *is* that partition's serialization:
//! the worker thread appends records at the same single-threaded service
//! points where it applies effects, so no cross-thread reordering can slip
//! between a record and the effects it describes. All partitions share one
//! segment file per generation, but each device flush writes a partition's
//! buffered bytes as one chunk in append order, so a partition's chunks,
//! concatenated, are its stream. Single-partition writers
//! appear as [`wal::LogRecord::Local`] on their home partition.
//! Distributed transactions appear as a [`wal::LogRecord::DistBegin`] on
//! every participant (at the position the worker began serving it) plus a
//! [`wal::LogRecord::Decision`] at its 2PC resolution point.
//!
//! `replay` (crate-internal) merges the per-partition streams
//! topologically, reading each one record at a time from its chunks of the
//! segment files ([`wal::LogStream`]): `Local` and `Decision` records
//! advance freely; a `DistBegin` is a synchronization point — the
//! transaction re-executes exactly once, when *every* participant's cursor
//! has parked at its own begin record, and only if a durable
//! `Decision{commit: true}` exists anywhere in the streams. Both facts come
//! from the scan's 2PC outcome table ([`wal::Outcomes`]): the commit flag,
//! and how many streams hold the begin — a partition parked at a begin
//! holds it, so when that many are parked there, all are. The
//! participant set is *derived* from the streams themselves (partitions
//! whose stream contains the begin), which makes torn begins harmless: a
//! committed transaction's ack was only released after one device flush
//! covered every participant's begin and decision records, so committed
//! transactions always recover their full participant set, while a crash
//! mid-transaction can only tear records of transactions that were never
//! acked — each participant skips those on its own. Cross-partition
//! parking cannot deadlock: live coordinators claim locks in ascending
//! partition order, and an early-released partition (OP4) passes only to a
//! transaction granted later, whose begin lands behind this one's — so the
//! begin records of concurrent distributed transactions never interleave
//! in conflicting orders on different partitions.

use crate::catalog::Catalog;
use crate::exec::run_offline;
use crate::procedure::ProcedureRegistry;
use common::{ProcId, Value};
use std::path::PathBuf;
use std::time::Duration;
use storage::Database;
use wal::{LogRecord, LogStream, RecoveredState};

/// Durability configuration for [`crate::runtime::LiveConfig`]. When set,
/// every committed writer is command-logged to `dir` before its client sees
/// the commit, and background snapshots (if enabled) bound replay length.
/// As under H-Store/VoltDB command logging, reads skip the log and are
/// acknowledged at once, so a read may observe a write a crash could
/// still un-commit.
///
/// Group commit needs no setting: a writer that finds the log device idle
/// flushes at once, and writers that commit while a flush is in the device
/// share the next one (see [`common::flush`]). The commit group is as long
/// as one device flush under load and empty for a lone writer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding log segments, snapshot files, and markers.
    pub dir: PathBuf,
    /// Background snapshot cadence; `None` disables the snapshotter thread
    /// (snapshots can still be taken on demand via
    /// [`crate::runtime::LiveRuntime::snapshot_now`]).
    pub snapshot_every: Option<Duration>,
}

impl DurabilityConfig {
    /// Command logging to `dir`, no background snapshotter.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { dir: dir.into(), snapshot_every: None }
    }

    /// Enables the background snapshotter at the given cadence.
    pub fn snapshot_every(mut self, every: Duration) -> Self {
        self.snapshot_every = Some(every);
        self
    }
}

/// What [`crate::runtime::LiveRuntime::recover`] did, for operators and the
/// benchmark summary.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Wall-clock milliseconds the whole recovery took (scan + snapshot
    /// load + replay).
    pub recovery_ms: f64,
    /// Snapshot generation restored, `None` when recovery replayed from
    /// the beginning of the log.
    pub snapshot_gen: Option<u64>,
    /// Transactions re-executed from the command log.
    pub replayed: u64,
    /// Logged transactions whose effects were *not* re-applied: aborted or
    /// undecided distributed transactions (their effects were never acked).
    pub skipped: u64,
    /// Total log records decoded across all partition streams.
    pub log_records_scanned: u64,
}

/// Re-executes the recovered command streams against `db` in a
/// serialization equivalent to the crashed run's, holding at most one
/// decoded record per partition. Retires each distributed transaction in
/// `state.outcomes` once resolved. Returns `(replayed, skipped)`
/// transaction counts. See the module docs for the topological-merge
/// argument.
pub(crate) fn replay(
    db: &mut Database,
    registry: &ProcedureRegistry,
    catalog: &Catalog,
    state: &mut RecoveredState,
) -> std::io::Result<(u64, u64)> {
    let outcomes = &mut state.outcomes;
    let mut streams: Vec<_> =
        (0..db.num_partitions()).map(|p| LogStream::new(&state.segments, p)).collect();
    // The record each partition's cursor rests on; `None` once it is spent.
    let mut heads =
        streams.iter_mut().map(|s| s.next().transpose()).collect::<Result<Vec<_>, _>>()?;
    let mut run = |proc: ProcId, args: &[Value]| {
        run_offline(db, registry, catalog, proc, args, true).map(|o| o.committed).unwrap_or(false)
    };
    let parked_at = |head: &Option<LogRecord>, id: u64| matches!(head, Some(LogRecord::DistBegin { txn_id, .. }) if *txn_id == id);
    let mut replayed = 0u64;
    let mut skipped = 0u64;
    loop {
        let mut progress = false;
        for p in 0..heads.len() {
            while let Some(rec) = heads[p].take() {
                let parked = match &rec {
                    LogRecord::Local { proc, args, .. } => {
                        let ok = run(*proc, args);
                        (replayed, skipped) = (replayed + u64::from(ok), skipped + u64::from(!ok));
                        false
                    }
                    // Consumed by the scan; positionally inert.
                    LogRecord::Decision { .. } => false,
                    LogRecord::DistBegin { txn_id, proc, args } => {
                        let outcome = outcomes.get(*txn_id);
                        if !outcome.commit {
                            // Aborted, or undecided at the crash: either way
                            // its effects were never acked and were rolled
                            // back (or never applied) live. Each participant
                            // steps over its own begin; the first counts it
                            // and retires it (a retired id has no
                            // participants).
                            if outcome.participants > 0 {
                                skipped += 1;
                                outcomes.retire(*txn_id);
                            }
                            false
                        } else if 1 + heads.iter().filter(|h| parked_at(h, *txn_id)).count()
                            == outcome.participants as usize
                        {
                            // Every participant is parked here (`p` holds
                            // its own begin in hand): run it once, then
                            // move them all past it.
                            let ok = run(*proc, args);
                            (replayed, skipped) =
                                (replayed + u64::from(ok), skipped + u64::from(!ok));
                            outcomes.retire(*txn_id);
                            for q in 0..heads.len() {
                                if parked_at(&heads[q], *txn_id) {
                                    heads[q] = streams[q].next().transpose()?;
                                }
                            }
                            false
                        } else {
                            // Park this partition until the rest catch up.
                            true
                        }
                    }
                };
                if parked {
                    heads[p] = Some(rec);
                    break;
                }
                heads[p] = streams[p].next().transpose()?;
                progress = true;
            }
        }
        if !progress {
            return Ok((replayed, skipped));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnOp, PartitionHint, ProcDef, QueryDef, QueryOp};
    use crate::procedure::testing::{kv_database, multi_get};
    use crate::procedure::{Linear, Procedure, QueryInvocation};
    use common::PartitionSet;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::collections::{HashMap, HashSet};
    use std::path::Path;
    use wal::{DistOutcome, LogSet};

    /// `MultiGet`: bumps `VAL` on every id, so replay order never shows.
    const BUMP: ProcId = 0;
    /// `Put`: sets `VAL` to the transaction id, so replay order does show.
    const PUT: ProcId = 1;

    /// The kv registry plus `Put(ids, stamp)`: `SET VAL = stamp` on every
    /// id, then commit.
    fn registry() -> ProcedureRegistry {
        let set = QueryOp::UpdateByKey {
            key_params: vec![0],
            sets: vec![ColumnOp::Set { column: 2, param: 1 }],
        };
        let put = Procedure {
            def: ProcDef {
                name: "Put".into(),
                queries: vec![QueryDef::new("PutKV", 0, set, PartitionHint::Param(0))],
                read_only: false,
                can_abort: false,
            },
            start: |args| {
                let ids = args[0].as_array().expect("arg 0 is id array");
                let sets =
                    ids.iter().map(|id| QueryInvocation::new(0, vec![id.clone(), args[1].clone()]));
                Box::new(Linear::one(sets.collect()))
            },
        };
        ProcedureRegistry::new(vec![multi_get(), put])
    }

    /// Arguments both procedures read: the ids, then the stamp.
    fn args(txn_id: u64, ids: &[i64]) -> Vec<Value> {
        let ids = ids.iter().map(|&id| Value::Int(id)).collect();
        vec![Value::Array(ids), Value::Int(txn_id as i64)]
    }

    fn local(proc: ProcId, txn_id: u64, id: i64) -> LogRecord {
        LogRecord::Local { txn_id, proc, args: args(txn_id, &[id]) }
    }

    fn begin(proc: ProcId, txn_id: u64, ids: &[i64]) -> LogRecord {
        LogRecord::DistBegin { txn_id, proc, args: args(txn_id, ids) }
    }

    fn decision(txn_id: u64, commit: bool) -> LogRecord {
        LogRecord::Decision { txn_id, commit }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("engine-replay-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Writes generation `gen`'s segment through `LogSet` with one flush:
    /// `streams[p]` becomes partition `p`'s chunk.
    fn write_gen(dir: &Path, gen: u64, streams: &[Vec<LogRecord>]) {
        let logs = LogSet::open(dir, streams.len() as u32, gen).unwrap();
        for (p, stream) in streams.iter().enumerate() {
            for rec in stream {
                logs.append(p as u32, rec);
            }
        }
        logs.flush_all();
    }

    /// Cuts generation `gen`'s segment to its first `at` bytes: the torn
    /// tail a crash in the middle of a device write leaves.
    fn tear(dir: &Path, gen: u64, at: u64) {
        let f = std::fs::OpenOptions::new().write(true).open(wal::segment_path(dir, gen)).unwrap();
        f.set_len(at).unwrap();
    }

    fn segment_len(dir: &Path, gen: u64) -> u64 {
        std::fs::metadata(wal::segment_path(dir, gen)).unwrap().len()
    }

    /// Scans `dir`, restores its snapshot (if any) onto a fresh
    /// `kv_database(parts, 4)` and replays the log on top; returns the
    /// scan as it was before replay retired its outcomes.
    fn recover(dir: &Path, parts: u32) -> (Database, RecoveredState, (u64, u64)) {
        let mut db = kv_database(parts, 4);
        let reg = registry();
        let mut state = wal::scan(dir, parts).unwrap();
        if let Some(rows) = state.snapshot.take() {
            let mut shards = db.into_shards();
            for (shard, tables) in shards.iter_mut().zip(rows) {
                shard.restore_tables(tables);
            }
            db = Database::from_shards(shards);
        }
        let counts = replay(&mut db, &reg, &reg.catalog(), &mut state).unwrap();
        (db, wal::scan(dir, parts).unwrap(), counts)
    }

    fn val(db: &Database, id: i64) -> i64 {
        let p = db.partition_for_value(&Value::Int(id));
        db.get(p, 0, &[Value::Int(id)]).unwrap()[2].expect_int()
    }

    #[test]
    fn locals_replay_in_file_order_and_decisions_are_inert() {
        let dir = tmpdir("locals");
        write_gen(
            &dir,
            0,
            &[
                vec![local(BUMP, 1, 0), decision(7, true), local(BUMP, 2, 0)],
                vec![local(BUMP, 3, 1)],
            ],
        );
        let (db, state, counts) = recover(&dir, 2);
        assert_eq!(counts, (3, 0));
        assert_eq!(val(&db, 0), 2, "two bumps of key 0");
        assert_eq!(val(&db, 1), 1);
        assert_eq!(state.max_txn_id, 7);
        assert_eq!(state.log_records_scanned, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_dist_txn_waits_for_all_participants_then_runs_once() {
        // Keys 0 and 1 hash to different partitions; the distributed txn 5
        // stamps both. Partition 1 stamps key 1 with a Local *before* its
        // begin record, so partition 0 must park until that Local replays.
        let dir = tmpdir("dist");
        write_gen(
            &dir,
            0,
            &[
                vec![begin(PUT, 5, &[0, 1]), decision(5, true)],
                vec![local(PUT, 4, 1), begin(PUT, 5, &[0, 1]), decision(5, true)],
            ],
        );
        let (db, state, counts) = recover(&dir, 2);
        assert_eq!(counts, (2, 0), "one local + one dist, executed once");
        assert_eq!(val(&db, 0), 5);
        assert_eq!(val(&db, 1), 5, "the local's stamp, then the dist txn's");
        assert_eq!(state.outcomes.get(5), DistOutcome { commit: true, participants: 2 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_and_undecided_dist_txns_are_skipped() {
        let dir = tmpdir("aborted");
        write_gen(
            &dir,
            0,
            &[
                // Aborted 2PC, then a crash before txn 9's decision.
                vec![begin(BUMP, 8, &[0, 1]), decision(8, false), begin(BUMP, 9, &[0, 1])],
                vec![begin(BUMP, 8, &[0, 1])],
            ],
        );
        let (db, _, counts) = recover(&dir, 2);
        assert_eq!(counts, (0, 2));
        assert_eq!(val(&db, 0), 0);
        assert_eq!(val(&db, 1), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_ends_its_generation_and_the_next_one_continues() {
        // Generation 0's last write is torn inside its frame (the crash);
        // the recovered run wrote generation 1 behind it. Replay must take
        // 0's valid prefix, drop the torn frame, and carry on into 1.
        let dir = tmpdir("torn");
        write_gen(&dir, 0, &[vec![local(BUMP, 1, 0)], vec![local(BUMP, 2, 1)]]);
        let whole = segment_len(&dir, 0);
        write_gen(&dir, 0, &[vec![], vec![local(BUMP, 9, 1)]]);
        tear(&dir, 0, (whole + segment_len(&dir, 0)) / 2 + 4);
        write_gen(&dir, 1, &[vec![local(BUMP, 3, 0)], vec![local(BUMP, 4, 1)]]);
        let (db, state, counts) = recover(&dir, 2);
        assert_eq!(counts, (4, 0));
        assert_eq!((val(&db, 0), val(&db, 1)), (2, 2));
        assert_eq!(state.log_records_scanned, 4);
        assert_eq!(state.max_txn_id, 4, "the torn frame's id is not counted");
        assert_eq!(state.segments[0].len, whole, "the valid prefix ends at the torn write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flush_in_the_rotation_window_lands_each_chunk_in_its_generation() {
        // The snapshot cut of generation 1 has reached partition 0 but not
        // yet partition 1, so one flush writes to both generations' files.
        let dir = tmpdir("window");
        let logs = LogSet::open(&dir, 2, 0).unwrap();
        let pre = [vec![local(PUT, 1, 0)], vec![local(PUT, 2, 1), local(PUT, 4, 1)]];
        let post = [vec![local(PUT, 3, 0), local(PUT, 6, 0)], vec![local(PUT, 5, 1)]];
        logs.append(0, &pre[0][0]);
        logs.append(1, &pre[1][0]);
        logs.rotate(0, 1).unwrap();
        logs.append(0, &post[0][0]);
        logs.append(1, &pre[1][1]);
        logs.flush_all();
        let state = wal::scan(&dir, 2).unwrap();
        let read = |gen: usize, p: u32| -> Vec<LogRecord> {
            LogStream::new(&state.segments[gen..=gen], p).map(Result::unwrap).collect()
        };
        assert_eq!((read(0, 0), read(0, 1)), (pre[0].clone(), pre[1].clone()));
        assert_eq!((read(1, 0), read(1, 1)), (vec![post[0][0].clone()], vec![]));
        logs.rotate(1, 1).unwrap();
        logs.append(0, &post[0][1]);
        logs.append(1, &post[1][0]);
        logs.flush_all();
        drop(logs);

        // Publish snapshot 1: the shards as the pre-cut records left them.
        let cut_dir = tmpdir("window-cut");
        write_gen(&cut_dir, 0, &pre);
        let (cut_db, ..) = recover(&cut_dir, 2);
        for shard in cut_db.into_shards() {
            wal::write_snapshot(&dir, shard.partition(), 1, &shard.snapshot_rows()).unwrap();
        }
        wal::write_marker(&dir, 1).unwrap();

        let (db, state, counts) = recover(&dir, 2);
        assert_eq!(state.snapshot_gen, Some(1));
        assert_eq!(counts, (3, 0), "only the post-cut records replay");
        assert_eq!(state.log_records_scanned, 3);
        // The same writes as one uncut log, recovered without a snapshot.
        let whole_dir = tmpdir("window-whole");
        let whole: Vec<Vec<LogRecord>> =
            (0..2).map(|p| [&pre[p][..], &post[p][..]].concat()).collect();
        write_gen(&whole_dir, 0, &whole);
        let (expect, ..) = recover(&whole_dir, 2);
        for id in 0..8 {
            assert_eq!(val(&db, id), val(&expect, id), "key {id}");
        }
        // Recovering again, after the recovered run opened its segment,
        // yields the same state.
        drop(LogSet::open(&dir, 2, state.max_gen + 1).unwrap());
        let (again, _, again_counts) = recover(&dir, 2);
        assert_eq!(again_counts, counts);
        for id in 0..8 {
            assert_eq!(val(&again, id), val(&db, id), "key {id}");
        }
        for d in [&dir, &cut_dir, &whole_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn an_undecided_begin_on_one_participant_is_skipped_there_alone() {
        // Txn 5 spans keys 0 and 1, but only partition 0 logged its begin
        // before the crash, and no decision landed anywhere. Partition 0
        // steps over it and replays what follows; partition 1 never waits.
        let dir = tmpdir("undecided");
        write_gen(
            &dir,
            0,
            &[vec![begin(BUMP, 5, &[0, 1]), local(BUMP, 7, 0)], vec![local(BUMP, 6, 1)]],
        );
        let (db, state, counts) = recover(&dir, 2);
        assert_eq!(counts, (2, 1));
        assert_eq!((val(&db, 0), val(&db, 1)), (1, 1));
        assert_eq!(state.outcomes.get(5), DistOutcome { commit: false, participants: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-memory replay streaming replay replaced: every stream decoded
    /// up front, per-transaction maps and sets on top. The property test's
    /// oracle.
    fn reference_replay(
        db: &mut Database,
        registry: &ProcedureRegistry,
        catalog: &Catalog,
        streams: &[Vec<LogRecord>],
    ) -> (u64, u64) {
        let mut decisions: HashMap<u64, bool> = HashMap::new();
        let mut participants: HashMap<u64, Vec<usize>> = HashMap::new();
        for (p, stream) in streams.iter().enumerate() {
            for rec in stream {
                match rec {
                    LogRecord::Decision { txn_id, commit } => {
                        decisions.insert(*txn_id, *commit);
                    }
                    LogRecord::DistBegin { txn_id, .. } => {
                        participants.entry(*txn_id).or_default().push(p);
                    }
                    LogRecord::Local { .. } => {}
                }
            }
        }
        let mut cursors = vec![0usize; streams.len()];
        let mut executed: HashSet<u64> = HashSet::new();
        let mut skipped_dist: HashSet<u64> = HashSet::new();
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        loop {
            let mut progress = false;
            for p in 0..streams.len() {
                while let Some(rec) = streams[p].get(cursors[p]) {
                    match rec {
                        LogRecord::Local { proc, args, .. } => {
                            let ok = run_offline(db, registry, catalog, *proc, args, true)
                                .map(|o| o.committed)
                                .unwrap_or(false);
                            if ok {
                                replayed += 1;
                            } else {
                                skipped += 1;
                            }
                            cursors[p] += 1;
                            progress = true;
                        }
                        LogRecord::Decision { .. } => {
                            cursors[p] += 1;
                            progress = true;
                        }
                        LogRecord::DistBegin { txn_id, proc, args } => {
                            let id = *txn_id;
                            if executed.contains(&id) || skipped_dist.contains(&id) {
                                cursors[p] += 1;
                                progress = true;
                                continue;
                            }
                            if decisions.get(&id) != Some(&true) {
                                skipped_dist.insert(id);
                                skipped += 1;
                                cursors[p] += 1;
                                progress = true;
                                continue;
                            }
                            let parts = &participants[&id];
                            let all_parked = parts.iter().all(|&q| {
                                q == p
                                    || matches!(
                                        streams[q].get(cursors[q]),
                                        Some(LogRecord::DistBegin { txn_id: t, .. }) if *t == id
                                    )
                            });
                            if !all_parked {
                                break;
                            }
                            let ok = run_offline(db, registry, catalog, *proc, args, true)
                                .map(|o| o.committed)
                                .unwrap_or(false);
                            if ok {
                                replayed += 1;
                            } else {
                                skipped += 1;
                            }
                            executed.insert(id);
                            for &q in parts {
                                cursors[q] += 1;
                            }
                            progress = true;
                        }
                    }
                }
            }
            if !progress {
                break;
            }
        }
        (replayed, skipped)
    }

    /// A generated run, laid out as per-partition streams in live order:
    /// single-partition writers, and distributed ones whose begin lands on
    /// every participant at the same point of the global order and whose
    /// decision (commit or abort, or none at all) lands on some of the
    /// participants a few steps later. Half the writers bump their keys,
    /// half stamp them with their transaction id. One key in ten is absent,
    /// so a bump of it aborts on replay.
    fn generated_streams(rng: &mut SmallRng, parts: u32) -> Vec<Vec<LogRecord>> {
        let mut streams = vec![Vec::new(); parts as usize];
        let key = |rng: &mut SmallRng| {
            if rng.gen_bool(0.1) {
                99
            } else {
                rng.gen_range(0..i64::from(parts) * 4)
            }
        };
        let pick_proc = |rng: &mut SmallRng| if rng.gen_bool(0.5) { PUT } else { BUMP };
        // (due step, partition, record) for decisions not yet written.
        let mut pending: Vec<(usize, usize, LogRecord)> = Vec::new();
        for step in 0..rng.gen_range(0..24usize) {
            let txn_id = step as u64 + 1;
            if rng.gen_bool(0.5) {
                let p = rng.gen_range(0..parts as usize);
                let proc = pick_proc(rng);
                streams[p].push(local(proc, txn_id, key(rng)));
            } else {
                let proc = pick_proc(rng);
                let keys: Vec<i64> = (0..rng.gen_range(1..3)).map(|_| key(rng)).collect();
                let commit = rng.gen_bool(0.5);
                let lag = rng.gen_range(0..4);
                let participants = rng.gen_range(1..1u64 << parts);
                for p in PartitionSet(participants).iter().map(|p| p as usize) {
                    streams[p].push(begin(proc, txn_id, &keys));
                    if rng.gen_bool(0.75) {
                        pending.push((step + lag, p, decision(txn_id, commit)));
                    }
                }
            }
            let (due, later) = pending.into_iter().partition(|(due, ..)| *due <= step);
            pending = later;
            for (_, p, rec) in due {
                streams[p].push(rec);
            }
        }
        for (_, p, rec) in pending {
            streams[p].push(rec);
        }
        streams
    }

    /// Writes `streams` as generation `gen` through `LogSet`, appending the
    /// partitions' records in a random interleaving and flushing at random
    /// points. Returns, per partition, the segment offset at which each
    /// record's frame ends: chunks lie in ascending partition order within
    /// a flush, each behind an 8-byte header (partition and length).
    fn write_flushes(
        dir: &Path,
        gen: u64,
        streams: &[Vec<LogRecord>],
        rng: &mut SmallRng,
    ) -> Vec<Vec<u64>> {
        let logs = LogSet::open(dir, streams.len() as u32, gen).unwrap();
        let mut ends = vec![Vec::new(); streams.len()];
        let mut pending: Vec<Vec<u64>> = vec![Vec::new(); streams.len()];
        let mut next = vec![0usize; streams.len()];
        let total: usize = streams.iter().map(Vec::len).sum();
        for i in 0..total {
            let open: Vec<usize> =
                (0..streams.len()).filter(|&p| next[p] < streams[p].len()).collect();
            let p = open[rng.gen_range(0..open.len())];
            let rec = &streams[p][next[p]];
            next[p] += 1;
            logs.append(p as u32, rec);
            let mut frame = Vec::new();
            rec.encode_into(&mut frame);
            pending[p].push(frame.len() as u64);
            if i + 1 == total || rng.gen_bool(0.3) {
                let mut at = segment_len(dir, gen);
                logs.flush_all();
                for (p, frames) in pending.iter_mut().enumerate().filter(|(_, f)| !f.is_empty()) {
                    at += 8;
                    for len in frames.drain(..) {
                        at += len;
                        ends[p].push(at);
                    }
                }
                assert_eq!(at, segment_len(dir, gen), "the layout the offsets assume");
            }
        }
        ends
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Each partition's stream reaches the disk split across two
        /// generations, each written over several flushes, and a crash
        /// may cut either generation's segment at any byte: what survives
        /// of a partition is every record whose frame ends before its
        /// segment's cut. Streaming replay over those files must agree
        /// with the in-memory replay over the surviving records, in
        /// counts, tables, and scan totals.
        #[test]
        fn streaming_replay_matches_the_in_memory_replay(seed in any::<u64>()) {
            let mut rng = common::rng::seeded_rng(seed);
            let parts = rng.gen_range(1..=3u32);
            let full = generated_streams(&mut rng, parts);
            let dir = tmpdir("prop");
            let mut gens = [Vec::new(), Vec::new()];
            for stream in &full {
                let split = rng.gen_range(0..=stream.len());
                gens[0].push(stream[..split].to_vec());
                gens[1].push(stream[split..].to_vec());
            }
            let mut survived = vec![Vec::new(); parts as usize];
            for (gen, streams) in gens.iter().enumerate() {
                let ends = write_flushes(&dir, gen as u64, streams, &mut rng);
                let len = segment_len(&dir, gen as u64);
                let cut = if rng.gen_bool(0.5) { len } else { rng.gen_range(0..=len) };
                tear(&dir, gen as u64, cut);
                for (p, stream) in streams.iter().enumerate() {
                    let kept = ends[p].iter().filter(|&&end| end <= cut).count();
                    survived[p].extend_from_slice(&stream[..kept]);
                }
            }

            let (db, state, counts) = recover(&dir, parts);
            let _ = std::fs::remove_dir_all(&dir);
            let mut expect_db = kv_database(parts, 4);
            let reg = registry();
            let expect = reference_replay(&mut expect_db, &reg, &reg.catalog(), &survived);
            prop_assert_eq!(counts, expect, "streams {:?}", survived);
            for id in 0..i64::from(parts) * 4 {
                prop_assert_eq!(val(&db, id), val(&expect_db, id), "key {}", id);
            }
            let records = survived.iter().map(Vec::len).sum::<usize>() as u64;
            prop_assert_eq!(state.log_records_scanned, records);
            let max_id = survived.iter().flatten().map(LogRecord::txn_id).max().unwrap_or(0);
            prop_assert_eq!(state.max_txn_id, max_id);
        }
    }
}
