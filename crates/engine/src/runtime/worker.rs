//! The partition worker: intake, serving loop, fast path.

use super::lifecycle::Shared;
use super::participant::serve_reservation;
use super::wire::{us_since, Call, CtrlMsg, FragCmd, Reply, SingleMsg, WorkerEnd};
use crate::advisor::{LiveAdvisor, Request, TxnOutcome, TxnPlan};
use crate::exec::execute_fragment;
use crate::procedure::Step;
use crate::profiler::StageTimes;
use crate::txn::{Attempt, Cursor, Site};
use common::sync::mpsc::{Receiver, Sender};
use common::{Error, PartitionSet, Result};
use std::collections::VecDeque;
use std::time::Instant;
use storage::Shard;

/// One worker's inbound state: the control receiver (its half of the
/// `WorkerGate`), the registered connections, and what the control
/// channel and the sweeps delivered but the main loop has not yet served.
/// Every "collect work" step of [`worker_loop`] is one [`Intake::poll`],
/// so the doorbell protocol's mandatory second look is the same code as
/// the first.
struct Intake<'a, S> {
    ctrl: &'a Receiver<CtrlMsg<S>>,
    /// Swept calls and opened reservations name their connection by index
    /// here, so connections are retired only while neither holds any.
    conns: Vec<WorkerEnd<S>>,
    /// Reservations a sweep opened: the connection and its first fragment
    /// command, served in sweep order once the current run has executed.
    opened: VecDeque<(usize, FragCmd)>,
    /// Pending cluster-snapshot requests (served only at the main loop's
    /// top — never inside a reservation).
    snaps: Vec<(u64, Sender<()>)>,
    shutdown: bool,
    /// [`run_single`]'s attempt, begun anew by every call this worker
    /// serves (so the fast path allocates no per-call batch-check scratch).
    attempt: Attempt,
}

impl<S> Intake<'_, S> {
    /// Drains the control channel: registers new connections, queues
    /// snapshot fences, records shutdown. Never blocks: the doorbell is
    /// the only park/wake mechanism, and every control sender rings it.
    fn gather_ctrl(&mut self) {
        while let Ok(m) = self.ctrl.try_recv() {
            match m {
                CtrlMsg::Connect(c) => self.conns.push(c),
                CtrlMsg::Snapshot { gen, done } => self.snaps.push((gen, done)),
                CtrlMsg::Shutdown => self.shutdown = true,
            }
        }
    }

    /// Fair sweep over the connections: one pop per connection per pass,
    /// round-robin, until a full pass yields nothing — no client can
    /// starve another, and a blocking client has at most one call in
    /// flight, so the sweep is bounded and ends as soon as every client is
    /// waiting on a reply. A fragment command opens a reservation: it is
    /// held aside, and the sweep pops nothing more from that connection,
    /// whose later commands belong to the reservation.
    fn sweep(&mut self, run: &mut Vec<(usize, SingleMsg<S>)>) {
        loop {
            let mut any = false;
            for (i, c) in self.conns.iter_mut().enumerate() {
                if self.opened.iter().any(|&(j, _)| j == i) {
                    continue;
                }
                match c.try_recv() {
                    Some(Call::Single(m)) => run.push((i, m)),
                    Some(Call::Frag(cmd)) => self.opened.push_back((i, cmd)),
                    None => continue,
                }
                any = true;
            }
            if !any {
                break;
            }
        }
    }

    /// One collection step: control drain, sweep, then whether the main
    /// loop has anything to do — swept singles, an opened reservation, a
    /// snapshot fence, or shutdown.
    fn poll(&mut self, run: &mut Vec<(usize, SingleMsg<S>)>) -> bool {
        self.gather_ctrl();
        self.sweep(run);
        !run.is_empty() || !self.opened.is_empty() || !self.snaps.is_empty() || self.shutdown
    }
}

/// One partition's server loop: collect work *in runs* until shutdown,
/// then hand the shard back. Each run is one [`Intake::poll`] — a
/// control-channel drain followed by a fair sweep of the connections —
/// taken through [`common::ring::Doorbell::wait`]: an idle worker re-polls
/// through the spin budget, then parks on its doorbell.
///
/// Every served call is answered on its connection the moment its
/// transaction finishes. With durability on, a committed writer is first
/// command-logged at its service position, and its reply carries the
/// sequencer ticket its client then waits on ([`run_single`]); the worker
/// itself never waits for the device, and reads skip the log, as under
/// H-Store command logging. A reservation from a distributed
/// transaction is served between runs, so it observes exactly the state
/// a one-message-at-a-time loop would have produced.
///
/// A reservation holds the worker on its connection until it ends
/// ([`serve_reservation`]), through an early release of a partition its
/// fragment wrote too: singles and other reservations queued meanwhile wait
/// for the outcome. At shutdown, or if this thread dies, dropping the
/// connections closes their reply rings and rings every client: calls
/// swept or still buffered get `None`, and their clients an error, never
/// silence.
pub(super) fn worker_loop<A: LiveAdvisor>(
    mut shard: Shard,
    ctrl: &Receiver<CtrlMsg<A::Session>>,
    env: &Shared<A>,
    me: usize,
) -> Shard {
    let bell = &*env.workers[me].bell;
    let mut intake = Intake {
        ctrl,
        conns: Vec::new(),
        opened: VecDeque::new(),
        snaps: Vec::new(),
        shutdown: false,
        attempt: Attempt::new(Site::Local, 0, &TxnPlan::single(0)),
    };
    let mut run: Vec<(usize, SingleMsg<A::Session>)> = Vec::new();
    while !intake.shutdown {
        while let Some((gen, done)) = intake.snaps.pop() {
            // The snapshot fence holds every partition lock, so this shard
            // is at a transaction boundary: rotate the command log to the
            // new generation (the rotation makes the old segment durable
            // first), and serialize the shard. A failed rotation or write
            // sends no completion: the snapshotter abandons the generation,
            // as if this worker had died, and the worker keeps serving
            // (a rotation that fails leaves the log in its old generation).
            let d = env.durable.as_ref().expect("snapshot request requires durability state");
            let p = shard.partition();
            let written = d
                .logs
                .rotate(p, gen)
                .and_then(|()| wal::write_snapshot(d.logs.dir(), p, gen, &shard.snapshot_rows()));
            if written.is_ok() {
                let _ = done.send(());
            }
        }
        // An opened reservation: its client holds this partition's lock
        // and sent the transaction's first command. The lock is exclusive,
        // so a second one opens only after an early release, and then
        // waits here until the released transaction's reservation ends; a
        // closed connection's leftovers come from a coordinator that died
        // mid-transaction and are rolled back inside serve.
        if let Some((c, first)) = intake.opened.pop_front() {
            serve_reservation(&mut shard, env, bell, &mut intake.conns[c], first);
            continue;
        }
        // Nothing refers to a connection by index here.
        intake.conns.retain(|c| !c.is_closed());
        // Closed-loop clients resubmit within microseconds of their acks,
        // so the wait's spin usually catches the next run without a park
        // and wake, whose scheduler latency would land in the Queueing
        // bucket. The run may be empty when the poll opened a reservation
        // or found a snapshot fence: the loop's top serves those.
        bell.wait(|| intake.poll(&mut run).then_some(()));
        if intake.shutdown {
            break;
        }
        let mut t_cursor = Instant::now();
        for (c, msg) in run.drain(..) {
            let SingleMsg { req, plan, session, enqueued } = msg;
            let (mut reply, est_us) =
                run_single(&mut shard, env, req, &plan, session, &mut intake.attempt)
                    .unwrap_or_else(|e| (Reply::Fatal(e), 0.0));
            stamp_times(&mut reply, est_us, enqueued, &mut t_cursor);
            // A full ring is impossible (one call in flight per client);
            // a closed one means the client is gone.
            let _ = intake.conns[c].send(reply);
        }
    }
    shard
}

/// Stamps the worker-side stage timings (queue wait, the advisor share
/// `est_us`, execution) onto a just-finished fast-path reply. `t_cursor` is the
/// previous completion, which is when this execution started, and advances
/// to this one's: one timestamp per completion bounds two intervals at
/// once, halving the clock reads of a stamp-before-and-after scheme.
fn stamp_times<S>(reply: &mut Reply<S>, est_us: f64, enqueued: Instant, t_cursor: &mut Instant) {
    let t_done = Instant::now();
    let queued_us = t_cursor.duration_since(enqueued).as_secs_f64() * 1e6;
    let exec_us = ((t_done - *t_cursor).as_secs_f64() * 1e6 - est_us).max(0.0);
    *t_cursor = t_done;
    if let Reply::Ended { times, .. } = reply {
        *times = StageTimes { queued_us, est_us, exec_us };
    }
}

/// Executes one whole single-partition transaction on the owning worker —
/// the lock-free fast path, one shard's driver of a `crate::txn`
/// [`Attempt`] (the worker's own, begun here). Returns the reply and the
/// advisor share of the execution time (Fig. 11), or a fatal error.
fn run_single<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    req: Request,
    plan: &TxnPlan,
    mut session: A::Session,
    att: &mut Attempt,
) -> Result<(Reply<A::Session>, f64)> {
    let me = shard.partition();
    debug_assert_eq!(plan.lock_set, PartitionSet::single(me), "fast path misrouted");
    let proc_def = env.catalog.proc(req.proc);
    let mut cursor = Cursor::new(&env.registry, req.proc, &req.args);
    att.begin(Site::Local, req.proc, plan);
    let mut est_us = 0.0f64;
    let committed = loop {
        match cursor.next() {
            Step::Queries(batch) => {
                if !att.check(proc_def, env.num_partitions, &batch) {
                    break false;
                }
                let mut batch_results = Vec::with_capacity(batch.len());
                for inv in batch {
                    let def = proc_def.query(inv.query);
                    let rows = match execute_fragment(shard, def, &inv.params, att.undo()) {
                        Ok(rows) => rows,
                        Err(Error::Constraint(msg)) => {
                            cursor.constraint(msg);
                            break;
                        }
                        Err(e) => return Err(e),
                    };
                    let t_est = Instant::now();
                    att.fold(&env.advisor, &mut session, def, inv);
                    est_us += us_since(t_est);
                    batch_results.push(rows);
                }
                att.end_batch();
                cursor.resume(batch_results);
            }
            Step::Commit => break true,
            Step::Abort(_) => break false,
        }
    };
    let decision = att.end(committed, |undo| shard.rollback(undo))?;
    // Durable mode: a committed writer is command-logged here, at its
    // service position. The device flush is its client's wait on the
    // returned ticket, never this worker's.
    let logged = decision.outcome == TxnOutcome::Committed && !decision.footprint.wrote.is_empty();
    let ticket = env.durable.as_ref().filter(|_| logged).map(|d| d.append_local(me, &req));
    Ok((Reply::Ended { req, decision, session, times: StageTimes::default(), ticket }, est_us))
}

#[cfg(test)]
pub(super) mod tests {
    //! Besides the worker's own tests, home of the shared hand-driving kit
    //! ([`Driver`], [`drive_worker`]) the `participant` and `coord` tests
    //! also import.

    use super::super::lifecycle::LiveConfig;
    use super::super::lock::LockManager;
    use super::super::wire::{BatchItem, Conns, WorkerGate};
    use super::*;
    use crate::baselines::AssumeSinglePartition;
    use crate::metrics::RunMetrics;
    use crate::procedure::testing::{kv_database, kv_registry};
    use common::ring::Doorbell;
    use common::sync::atomic::AtomicU64;
    use common::sync::mpsc::channel;
    use common::sync::{Arc, Mutex};
    use common::{QueryId, Value};
    use std::time::Duration;
    use storage::Row;

    /// Sorted `(key, row)` snapshot of one table slice, for byte-identical
    /// state comparisons across a reservation.
    pub(in crate::runtime) type TableRows = Vec<(Vec<Value>, Row)>;

    pub(in crate::runtime) fn sorted_rows(table: &storage::Table) -> TableRows {
        let mut rows: TableRows = table.iter().map(|(k, r)| (k.to_vec(), r.clone())).collect();
        rows.sort();
        rows
    }

    pub(in crate::runtime) fn table_snapshot(shard: &Shard, table: usize) -> TableRows {
        sorted_rows(shard.table(table))
    }

    pub(in crate::runtime) type TestEnv = Shared<AssumeSinglePartition>;

    /// Upper bound on any reply wait in the hand-driven protocol tests.
    pub(in crate::runtime) const WAIT: Duration = Duration::from_secs(30);

    /// A [`Shared`] over `advisor` and the KV registry with one gate per
    /// partition, plus worker 0's control receiver. Every other worker is
    /// gone (its receiver dropped); the lock manager and feedback plumbing
    /// stay unused.
    pub(in crate::runtime) fn test_env_with<A: LiveAdvisor>(
        advisor: A,
        parts: u32,
    ) -> (Shared<A>, Receiver<CtrlMsg<A::Session>>) {
        let reg = kv_registry();
        let (workers, mut receivers): (Vec<_>, Vec<_>) = (0..parts)
            .map(|_| {
                let (ctrl, rx) = channel();
                (WorkerGate { ctrl, bell: Arc::new(Doorbell::new()) }, rx)
            })
            .unzip();
        let env = Shared {
            catalog: reg.catalog(),
            registry: reg,
            advisor,
            cfg: LiveConfig::default(),
            num_partitions: parts,
            msg_delay: Duration::ZERO,
            workers,
            locks: LockManager::new(parts),
            metrics: Mutex::new(RunMetrics::default()),
            fb_tx: None,
            next_client: AtomicU64::new(0),
            started: Instant::now(),
            durable: None,
        };
        (env, receivers.swap_remove(0))
    }

    /// [`test_env_with`] an `AssumeSinglePartition` advisor.
    pub(in crate::runtime) fn test_env(parts: u32) -> (TestEnv, Receiver<CtrlMsg<()>>) {
        test_env_with(AssumeSinglePartition::new(), parts)
    }

    /// One `MultiGet(args)` single planned for partition 0.
    pub(in crate::runtime) fn single_call(args: Vec<Value>, disable_undo: bool) -> Call<()> {
        Call::Single(SingleMsg {
            req: Request { proc: 0, args, origin_node: 0 },
            plan: TxnPlan { disable_undo, ..TxnPlan::single(0) },
            session: (),
            enqueued: Instant::now(),
        })
    }

    /// Waits up to `within` for worker 0's next reply on `conns`; `None` on
    /// timeout, or once the worker's end is gone. It polls, because a
    /// deadline cannot wake a parked doorbell.
    pub(in crate::runtime) fn reply_within(
        conns: &mut Conns<()>,
        within: Duration,
    ) -> Option<Reply<()>> {
        let deadline = Instant::now() + within;
        let end = conns.end(0)?;
        loop {
            match end.poll() {
                Some(reply) => return reply,
                None if Instant::now() >= deadline => return None,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The client side of the wire protocol against worker 0, spoken
    /// through the production [`Conns`]. `coord`'s connection carries
    /// fragment commands; a second client's carries fast-path singles (a
    /// coordinator sends no call while its reservation is open). Dropping
    /// it closes both connections and sends `Shutdown`, so a script that
    /// panics releases the worker instead of deadlocking the scope join.
    pub(in crate::runtime) struct Driver<'a, A: LiveAdvisor<Session = ()>> {
        env: &'a Shared<A>,
        pub(in crate::runtime) coord: Conns<()>,
        singles: Conns<()>,
    }

    impl<'a, A: LiveAdvisor<Session = ()>> Driver<'a, A> {
        pub(in crate::runtime) fn new(env: &'a Shared<A>) -> Self {
            let n = env.workers.len();
            Driver { env, coord: Conns::new(n), singles: Conns::new(n) }
        }

        /// Pushes one fragment command — the lock holder's side of a
        /// reservation (the first one opens service at the worker).
        pub(in crate::runtime) fn frag(&mut self, cmd: FragCmd) {
            self.coord.send(&self.env.workers, 0, Call::Frag(cmd)).expect("fragment push");
        }

        /// Waits for the worker's next reply to the coordinator.
        pub(in crate::runtime) fn frag_reply(&mut self) -> Reply<()> {
            reply_within(&mut self.coord, WAIT).expect("fragment reply")
        }

        /// The per-query rows of the `ExecBatch` reply now due.
        pub(in crate::runtime) fn batch_rows(&mut self) -> Vec<Vec<Row>> {
            let Reply::Batch(items) = self.frag_reply() else { panic!("expected a Batch") };
            items
                .into_iter()
                .map(|item| match item {
                    BatchItem::Rows(rows) => rows,
                    BatchItem::Constraint(msg) => panic!("constraint: {msg}"),
                })
                .collect()
        }

        /// Ships one `ExecBatch` and returns its per-query rows.
        pub(in crate::runtime) fn exec(
            &mut self,
            queries: Vec<(QueryId, Vec<Value>)>,
        ) -> Vec<Vec<Row>> {
            self.frag(FragCmd::ExecBatch { proc: 0, queries });
            self.batch_rows()
        }

        /// Coalesced 2PC: `VoteFinish`, then its ack.
        pub(in crate::runtime) fn vote_finish(&mut self, commit: bool) {
            self.frag(FragCmd::VoteFinish { commit });
            assert!(matches!(self.frag_reply(), Reply::Finished));
        }

        /// Submits one `MultiGet(args)` single from the second client.
        pub(in crate::runtime) fn single(&mut self, args: Vec<Value>, disable_undo: bool) {
            let call = single_call(args, disable_undo);
            self.singles.send(&self.env.workers, 0, call).expect("single push");
        }

        /// Waits up to `within` for the second client's next reply.
        pub(in crate::runtime) fn single_reply(&mut self, within: Duration) -> Option<Reply<()>> {
            reply_within(&mut self.singles, within)
        }

        /// The coordinator dies: its connection closes, then rings the
        /// worker ([`super::super::wire::End`]'s drop handshake).
        pub(in crate::runtime) fn drop_coord(&mut self) {
            self.coord.close(0);
        }
    }

    impl<A: LiveAdvisor<Session = ()>> Drop for Driver<'_, A> {
        fn drop(&mut self) {
            self.coord.close(0);
            self.singles.close(0);
            self.env.workers[0].send_ctrl(CtrlMsg::Shutdown);
        }
    }

    /// Runs worker 0 over `shard` while `script` drives it, then shuts the
    /// worker down and hands back the shard with the script's result.
    /// Whatever `driver` buffered before the call is what the worker finds
    /// queued when it starts.
    pub(in crate::runtime) fn drive_worker<'a, A: LiveAdvisor<Session = ()>, T>(
        ctrl_rx: Receiver<CtrlMsg<()>>,
        shard: Shard,
        driver: Driver<'a, A>,
        script: impl FnOnce(&mut Driver<'a, A>) -> T,
    ) -> (Shard, T) {
        let env = driver.env;
        std::thread::scope(move |s| {
            // Owned by this closure, so an unwinding script drops it (and
            // thereby stops the worker) before the scope joins.
            let mut driver = driver;
            let h = s.spawn(move || worker_loop::<A>(shard, &ctrl_rx, env, 0));
            let out = script(&mut driver);
            drop(driver);
            (h.join().expect("worker thread"), out)
        })
    }

    /// Partition 0's shard of a two-partition KV database.
    pub(in crate::runtime) fn shard_zero_of_two() -> Shard {
        let mut shards = kv_database(2, 8).into_shards();
        shards.truncate(1);
        shards.pop().expect("partition 0")
    }

    /// `MultiGet` arguments bumping id 0 (which lives at partition 0).
    pub(in crate::runtime) fn bump_id0() -> Vec<Value> {
        vec![Value::Array(vec![Value::Int(0)])]
    }

    /// Whether a single's reply reports a commit.
    pub(in crate::runtime) fn committed(reply: Option<Reply<()>>) -> bool {
        match reply.expect("single acknowledged") {
            Reply::Ended { decision, .. } => decision.outcome == TxnOutcome::Committed,
            _ => panic!("expected Ended"),
        }
    }

    /// Runs one worker over the same six-message sequence — three bump
    /// singles, a reservation whose fragment reads the bumped row, then two
    /// more singles — and returns (reply shapes in send order, the row
    /// value the fragment observed, final table snapshot). With `batched`
    /// both connections, the three singles, and the reservation's opening
    /// `ExecBatch` are buffered before the worker thread starts, so the
    /// sequence is served out of backlog drains: one run of three singles
    /// ahead of the reservation. Without it each call waits for its
    /// reply before the next is sent — the one-message-at-a-time schedule
    /// batching must be indistinguishable from.
    fn drive_batched_drain(batched: bool) -> (Vec<bool>, i64, TableRows) {
        let (env, ctrl_rx) = test_env(1);
        let shard = kv_database(1, 8).into_shards().pop().unwrap();
        let read_id0 = || vec![(0, vec![Value::Int(0)])];
        let mut driver = Driver::new(&env);
        if batched {
            // The worker's first control drain registers both connections
            // and its sweep picks the three singles up as one run —
            // executed and acknowledged ahead of the reservation the
            // buffered fragment command opens.
            (0..3).for_each(|_| driver.single(bump_id0(), false));
            driver.frag(FragCmd::ExecBatch { proc: 0, queries: read_id0() });
        }
        let (shard, (replies, observed)) = drive_worker(ctrl_rx, shard, driver, |d| {
            let mut replies = Vec::new();
            let rows = if batched {
                d.batch_rows()
            } else {
                for _ in 0..3 {
                    d.single(bump_id0(), false);
                    replies.push(committed(d.single_reply(WAIT)));
                }
                d.exec(read_id0())
            };
            d.vote_finish(true);
            if batched {
                replies.extend((0..3).map(|_| committed(d.single_reply(WAIT))));
            }
            // The trailing pair goes out only once the reservation has
            // resolved: an earlier push could race into the first run.
            for _ in 0..2 {
                d.single(bump_id0(), false);
                replies.push(committed(d.single_reply(WAIT)));
            }
            (replies, rows[0][0][2].expect_int())
        });
        (replies, observed, table_snapshot(&shard, 0))
    }

    #[test]
    fn batched_drain_matches_one_at_a_time() {
        let (batched, b_obs, b_state) = drive_batched_drain(true);
        let (serial, s_obs, s_state) = drive_batched_drain(false);
        assert_eq!(batched, serial, "per-client replies must match in order and content");
        // The reservation waited for the run: all three prior bumps were
        // committed and acknowledged before the fragment ran.
        assert_eq!(b_obs, 3, "reservation must observe every earlier queued commit");
        assert_eq!(s_obs, 3);
        assert_eq!(b_state, s_state, "final shard state must be byte-identical");
        let id0 = b_state.iter().find(|(k, _)| k[0] == Value::Int(0)).unwrap();
        assert_eq!(id0.1[2], Value::Int(5), "all five bumps are applied");
    }
}
