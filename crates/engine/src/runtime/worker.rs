//! The partition worker: intake, serving loop, fast path, durable-ack hand-off.

use super::lifecycle::Shared;
use super::spec::{serve_reservation, speculate};
use super::wire::{us_since, CtrlMsg, FragConn, SingleMsg, SingleReply, SingleSlot, StageTimes};
use super::IDLE_SPIN;
use crate::advisor::{LiveAdvisor, Request, TxnPlan};
use crate::exec::execute_fragment;
use crate::procedure::Step;
use crate::txn::{table_bit, Cursor, Footprint};
use common::ring::{self, Doorbell};
use common::sync::mpsc::{Receiver, Sender};
use common::sync::Arc;
use common::{Error, PartitionSet};
use std::time::Instant;
use storage::{Shard, UndoLog};

/// One worker's inbound state: the control receiver and doorbell (its half
/// of the `WorkerGate`), the registered fast-path and fragment lanes, and
/// what the control channel delivered but the main loop has not yet served.
/// Every "collect work" step of [`worker_loop`] and [`speculate`] is one
/// [`Intake::poll`] / [`Intake::poll_window`], so the doorbell protocol's
/// mandatory second look is the same code as the first.
pub(super) struct Intake<'a, S> {
    ctrl: &'a Receiver<CtrlMsg<S>>,
    pub(super) bell: &'a Doorbell,
    lanes: Vec<ring::Consumer<SingleMsg<S>>>,
    pub(super) frag_lanes: Vec<FragConn>,
    /// Pending cluster-snapshot requests (served only at the main loop's
    /// top — never inside a speculation window).
    snaps: Vec<(u64, Sender<()>)>,
    shutdown: bool,
    /// [`run_single`]'s batch-check scratch, reused by every call this
    /// worker serves (the fast path allocates no per-call target list).
    pub(super) targets: Vec<PartitionSet>,
}

impl<S> Intake<'_, S> {
    /// Drains the control channel: registers new lanes, queues snapshot
    /// fences, records shutdown. With `window_finish` set (a speculation
    /// window is open) the first 2PC outcome is stored there and the drain
    /// stops — the outcome ends the window, and everything behind it stays
    /// queued for after; without it a stray outcome (its window already
    /// resolved via the disconnect watchdog) is dropped. Never blocks: the
    /// doorbell is the only park/wake mechanism, and every control sender
    /// rings it.
    pub(super) fn gather_ctrl(&mut self, mut window_finish: Option<&mut Option<bool>>) {
        while let Ok(m) = self.ctrl.try_recv() {
            match m {
                CtrlMsg::Lane(l) => self.lanes.push(l),
                CtrlMsg::FragLane(c) => self.frag_lanes.push(c),
                CtrlMsg::Snapshot { gen, done } => self.snaps.push((gen, done)),
                CtrlMsg::SpecFinish { commit } => {
                    if let Some(slot) = window_finish.as_deref_mut() {
                        *slot = Some(commit);
                        return;
                    }
                }
                CtrlMsg::Shutdown => self.shutdown = true,
            }
        }
    }

    /// Fair sweep over the fast-path lanes: one pop per lane per pass,
    /// round-robin, until a full pass yields nothing — no lane can starve
    /// another, and a blocking client has at most one call in flight per
    /// lane, so the sweep is bounded and ends as soon as every client is
    /// waiting on a reply. Lanes whose producer dropped (client gone) are
    /// retired once drained.
    fn sweep_lanes(&mut self, run: &mut Vec<SingleMsg<S>>) {
        loop {
            let mut any = false;
            for lane in self.lanes.iter_mut() {
                if let Some(m) = lane.pop() {
                    run.push(m);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        self.lanes.retain(|l| !l.is_closed());
    }

    /// The first fragment lane with a command buffered, if any — a
    /// distributed transaction is waiting to be served.
    fn next_reservation(&self) -> Option<usize> {
        self.frag_lanes.iter().position(|c| !c.frags.is_empty())
    }

    /// One collection step outside a speculation window: control drain,
    /// lane sweep, then whether the main loop has anything to do — swept
    /// singles, a waiting reservation, a snapshot fence, or shutdown.
    fn poll(&mut self, run: &mut Vec<SingleMsg<S>>) -> bool {
        self.gather_ctrl(None);
        self.sweep_lanes(run);
        !run.is_empty()
            || self.next_reservation().is_some()
            || !self.snaps.is_empty()
            || self.shutdown
    }

    /// One collection step inside a speculation window: the control drain
    /// comes *before* the sweep, so an outcome already buffered ends the
    /// window before any further singles are admitted (they execute
    /// non-speculatively after it). Only swept singles and the outcome
    /// count as work here — reservations, fences, and shutdown wait for
    /// the window to resolve.
    pub(super) fn poll_window(
        &mut self,
        run: &mut Vec<SingleMsg<S>>,
        finish: &mut Option<bool>,
    ) -> bool {
        self.gather_ctrl(Some(finish));
        if finish.is_none() {
            self.sweep_lanes(run);
        }
        !run.is_empty() || finish.is_some()
    }

    /// Shutdown teardown: calls swept but not yet executed, plus
    /// everything still buffered in the lanes, fail cleanly — the client
    /// racing shutdown gets an error rather than silence (its
    /// abandoned-lane watchdog is only the backstop for a message
    /// discarded between push and sweep).
    fn fail_lanes(&mut self, run: &mut Vec<SingleMsg<S>>) {
        let dead = |m: SingleMsg<S>| {
            m.reply.put(SingleReply::Fatal(Error::Other("runtime shut down".into())));
        };
        run.drain(..).for_each(&dead);
        for lane in self.lanes.iter_mut() {
            while let Some(m) = lane.pop() {
                dead(m);
            }
        }
    }
}

/// One partition's server loop: collect work *in runs* until shutdown,
/// then hand the shard back. Each run is one [`Intake::poll`] — a
/// control-channel drain followed by a fair lane sweep; if it comes up
/// empty the worker parks on its doorbell under the
/// [`common::ring::Doorbell`] protocol (announce intent, mandatory second
/// poll, then sleep).
///
/// Acknowledgement rule, per served message: with durability off every
/// reply is `put` the moment its transaction finishes. With it on, a
/// committed writer is command-logged at its service position and its ack
/// handed to the flusher thread with a sequencer ticket
/// ([`release_group`]); a read under the strict `read_fence` that lands
/// behind a not-yet-durable `last_ticket` rides that ticket; everything
/// else is acknowledged at once. A reservation from a distributed
/// transaction is admitted between runs, so it observes exactly the state
/// a one-message-at-a-time loop would have produced.
///
/// Reservations that arrive during a speculation window stay buffered in
/// their fragment lanes and are admitted once the window resolves (they
/// may open windows of their own). At shutdown, calls still buffered in
/// the lanes are failed cleanly ([`Intake::fail_lanes`]) rather than
/// executed — a client racing shutdown gets an error, never silence.
pub(super) fn worker_loop<A: LiveAdvisor>(
    mut shard: Shard,
    ctrl: &Receiver<CtrlMsg<A::Session>>,
    env: &Shared<A>,
    me: usize,
) -> Shard {
    let bell = &env.workers[me].bell;
    let mut intake = Intake {
        ctrl,
        bell,
        lanes: Vec::new(),
        frag_lanes: Vec::new(),
        snaps: Vec::new(),
        shutdown: false,
        targets: Vec::new(),
    };
    let mut run: Vec<SingleMsg<A::Session>> = Vec::new();
    // The ticket of the last ack this worker routed to the flusher
    // (durable mode's read-ordering high-water mark; see
    // [`release_group`]).
    let mut last_ticket = 0u64;
    while !intake.shutdown {
        while let Some((gen, done)) = intake.snaps.pop() {
            // The snapshot fence holds every partition lock, so this shard
            // is at a transaction boundary: rotate the command log to the
            // new generation (the rotation makes the old segment durable
            // first), and serialize the shard. The `expect`s fire *before*
            // the completion send — the snapshotter abandons the
            // generation if this worker dies.
            let d = env.durable.as_ref().expect("snapshot request requires durability state");
            d.logs.rotate(shard.partition(), gen).expect("rotate command log");
            wal::write_snapshot(d.logs.dir(), shard.partition(), gen, &shard.snapshot_rows())
                .expect("write snapshot");
            let _ = done.send(());
        }
        // A non-empty fragment lane is a reservation: its client holds
        // this partition's lock and pushed the transaction's first
        // command. At most one lane holds a live transaction (the lock is
        // exclusive); a closed lane's leftovers come from a coordinator
        // that died mid-transaction and are rolled back inside serve.
        if let Some(lane) = intake.next_reservation() {
            if let Some(spec) = serve_reservation(&mut shard, env, &mut intake, lane) {
                speculate(&mut shard, env, &mut intake, &mut last_ticket, spec);
            }
            continue;
        }
        intake.frag_lanes.retain(|c| !c.frags.is_closed());
        let busy = intake.poll(&mut run);
        if intake.shutdown {
            break;
        }
        if !busy {
            // Closed-loop clients resubmit within microseconds of their
            // acks, so a bounded yield-spin re-poll usually catches the
            // next batch without a futex park/wake cycle (whose scheduler
            // latency would land squarely in the Queueing bucket). Only a
            // genuinely idle worker falls through to the park protocol.
            let found = (0..IDLE_SPIN).any(|_| {
                std::thread::yield_now();
                intake.poll(&mut run)
            });
            if found {
                continue;
            }
            // Doorbell park protocol: announce intent, then the MANDATORY
            // second look — a ring that landed before the parked bit went
            // up is only visible here — and only then sleep.
            let token = bell.prepare_park();
            if intake.poll(&mut run) {
                bell.cancel_park();
            } else {
                bell.park(token);
            }
            continue;
        }
        let mut t_cursor = Instant::now();
        for msg in run.drain(..) {
            let SingleMsg { req, plan, session, reply, enqueued } = msg;
            let mut out =
                run_single(&mut shard, env, req, &plan, session, false, &mut intake.targets);
            stamp_times(&mut out, enqueued, &mut t_cursor);
            debug_assert!(out.spec_undo.is_none(), "non-speculative commit retained undo");
            match &env.durable {
                Some(d) if out.needs_flush() => {
                    // Command-log the committed writer at its service
                    // position, then hand its ack to the flusher: writers
                    // closing while a flush is in the device share the
                    // next one, and nothing served behind this writer
                    // waits on it (unless the read fence says so).
                    let req = out.req.as_ref().expect("committed fast path retains its request");
                    d.append_local(shard.partition(), req);
                    release_group(env, vec![(reply, out.reply)], true, &mut last_ticket);
                }
                Some(d) if d.read_fence && last_ticket > d.seq.durable_epoch() => {
                    // Strict read fence: an earlier write this worker
                    // routed may still be in the flusher's hands — and this
                    // reply may depend on it. Ride the prior ticket through
                    // the flusher (FIFO makes the release a no-wait, no new
                    // device operation) instead of acking un-durable state.
                    release_group(env, vec![(reply, out.reply)], false, &mut last_ticket);
                }
                // Durability off, or a reply that depends on durable state
                // only: ack now.
                _ => reply.put(out.reply),
            }
        }
    }
    intake.fail_lanes(&mut run);
    shard
}

/// What one fast-path execution produced: the client reply plus what the
/// speculation machinery needs to classify it (see [`speculate`]).
pub(super) struct SingleOutcome<S> {
    pub(super) reply: SingleReply<S>,
    /// The request, returned to the worker for cascade routing — `None`
    /// when the reply itself carries it (`Mispredict`/`Cascaded`).
    pub(super) req: Option<Request>,
    /// The commit's undo log, retained only when executed speculatively
    /// (for the shard's `SpeculationStack`).
    pub(super) spec_undo: Option<UndoLog>,
    /// `table_bit` mask of tables read or written (the footprint's, kept
    /// here because a `Mispredict` reply carries none).
    pub(super) touched_tables: u64,
    /// Mask of tables written.
    pub(super) wrote_tables: u64,
    /// Advisor time (`on_query_live`) inside this execution, for Fig. 11.
    est_us: f64,
}

impl<S> SingleOutcome<S> {
    fn plain(reply: SingleReply<S>, req: Option<Request>) -> Self {
        SingleOutcome {
            reply,
            req,
            spec_undo: None,
            touched_tables: 0,
            wrote_tables: 0,
            est_us: 0.0,
        }
    }

    /// Whether this transaction needs a commit flush before its ack under
    /// durability: it committed and wrote something. The flush itself is
    /// the *caller's* job ([`release_group`]).
    pub(super) fn needs_flush(&self) -> bool {
        matches!(self.reply, SingleReply::Done { committed: true, .. }) && self.wrote_tables != 0
    }
}

/// Stamps the worker-side stage timings (queue wait, advisor share,
/// execution) onto a just-finished fast-path reply. `t_cursor` is the
/// previous completion, which is when this execution started, and advances
/// to this one's: one timestamp per completion bounds two intervals at
/// once, halving the clock reads of a stamp-before-and-after scheme.
pub(super) fn stamp_times<S>(
    out: &mut SingleOutcome<S>,
    enqueued: Instant,
    t_cursor: &mut Instant,
) {
    let t_done = Instant::now();
    let queued_us = t_cursor.duration_since(enqueued).as_secs_f64() * 1e6;
    let exec_us = ((t_done - *t_cursor).as_secs_f64() * 1e6 - out.est_us).max(0.0);
    *t_cursor = t_done;
    if let SingleReply::Done { times, .. } | SingleReply::Mispredict { times, .. } = &mut out.reply
    {
        *times = StageTimes { queued_us, est_us: out.est_us, exec_us };
    }
}

/// Executes one whole single-partition transaction on the owning worker —
/// the lock-free fast path, one shard's driver of the `crate::txn` kernel.
/// `targets` is the worker's batch-check scratch.
///
/// With `speculating` set the transaction runs inside an open speculation
/// window: undo logging is force-enabled whatever OP3 decided (initial
/// `disable_undo` *and* runtime updates are ignored, §4.3 — the kernel's
/// speculation guard), and a commit returns its undo log for the caller to
/// push onto the shard's `SpeculationStack` instead of clearing it.
pub(super) fn run_single<A: LiveAdvisor>(
    shard: &mut Shard,
    env: &Shared<A>,
    req: Request,
    plan: &TxnPlan,
    mut session: A::Session,
    speculating: bool,
    targets: &mut Vec<PartitionSet>,
) -> SingleOutcome<A::Session> {
    let me = shard.partition();
    debug_assert_eq!(plan.lock_set, PartitionSet::single(me), "fast path misrouted");
    let proc_def = env.catalog.proc(req.proc);
    let mut cursor = Cursor::new(&env.registry, req.proc, &req.args);
    let (mut fp, mut undo) = Footprint::begin(plan, speculating);
    let mut wrote_tables = 0u64;
    let mut est_us = 0.0f64;
    // How the control code ended: `Ok(committed)`, or a mispredict's
    // `Err(observed)`.
    let end = loop {
        match cursor.next() {
            Step::Queries(batch) => {
                let n = env.num_partitions;
                if let Err(observed) = fp.check_batch(proc_def, n, &batch, plan.lock_set, targets) {
                    break Err(observed);
                }
                let mut batch_results = Vec::with_capacity(batch.len());
                for inv in batch {
                    let def = proc_def.query(inv.query);
                    let rows = match execute_fragment(shard, def, &inv.params, &mut undo) {
                        Ok(rows) => rows,
                        Err(Error::Constraint(msg)) => {
                            cursor.constraint(msg);
                            break;
                        }
                        Err(e) => return SingleOutcome::plain(SingleReply::Fatal(e), Some(req)),
                    };
                    if def.is_write() {
                        wrote_tables |= table_bit(def.table);
                    }
                    let t_est = Instant::now();
                    let single = PartitionSet::single(me);
                    fp.observe(&env.advisor, &mut session, plan, Some(&mut undo), def, inv, single);
                    est_us += us_since(t_est);
                    batch_results.push(rows);
                }
                cursor.resume(batch_results);
            }
            Step::Commit => break Ok(true),
            Step::Abort(_) => break Ok(false),
        }
    };
    // Durable effects are *not* flushed here: the caller routes a commit's
    // ack through the flusher when `SingleOutcome::needs_flush` says it
    // wrote (see [`worker_loop`]). A speculative commit is contingent on
    // the early-prepared transaction, so it hands its undo log back for
    // the speculation stack (§4.3 — undo is always kept there); an abort or
    // mispredict rolls back, its masks still classifying conflicts.
    let spec_undo = match end {
        Ok(true) if speculating => {
            assert!(undo.can_rollback(), "speculative transaction ran without undo (OP3 leak)");
            Some(undo)
        }
        Ok(true) => {
            undo.clear();
            None
        }
        _ if !undo.can_rollback() => {
            let txn = u64::from(req.proc) + if end.is_err() { 1000 } else { 0 };
            let fatal = SingleReply::Fatal(Error::UnrecoverableAbort { txn });
            return SingleOutcome::plain(fatal, Some(req));
        }
        _ => match shard.rollback(&mut undo) {
            Ok(()) => None,
            Err(e) => return SingleOutcome::plain(SingleReply::Fatal(e), Some(req)),
        },
    };
    let touched_tables = fp.touched_tables;
    let times = StageTimes::default();
    let (reply, req) = match end {
        Ok(committed) => (SingleReply::Done { committed, session, fp, times }, Some(req)),
        Err(observed) => (SingleReply::Mispredict { req, observed, session, times }, None),
    };
    SingleOutcome { reply, req, spec_undo, touched_tables, wrote_tables, est_us }
}

/// A fast-path reply held back until the device flush covering it
/// completes.
pub(super) type DeferredAck<S> = (Arc<SingleSlot<S>>, SingleReply<S>);

/// Releases held acknowledgements in completion order.
fn release_acks<S>(acks: &mut Vec<DeferredAck<S>>) {
    for (slot, reply) in acks.drain(..) {
        slot.put(reply);
    }
}

/// Releases a group of acknowledgements under the configured durability
/// regime. Durability off: ack inline. Durable mode: the acks may only go
/// out after a real `write+fsync` covers their log records, so the group
/// is handed to the flusher thread with a sequencer ticket — `wrote`
/// groups get a fresh ticket; read-only groups (a read that may have
/// observed a routed-but-unflushed write) ride `last_ticket`, the ticket
/// of the last group this worker routed, which the flusher's FIFO
/// guarantees is already durable by the time the job is seen, so no extra
/// device operation results. `last_ticket` is advanced to the ticket the
/// group rides, if any. Nothing here waits for company: a group handed
/// over while the device is idle is flushed at once, and groups closing
/// during a flush share the next one. 2PC durability is not paid here:
/// the *coordinator* waits once per distributed commit on the same
/// sequencer, covering every participant's writes.
pub(super) fn release_group<A: LiveAdvisor>(
    env: &Shared<A>,
    mut acks: Vec<DeferredAck<A::Session>>,
    wrote: bool,
    last_ticket: &mut u64,
) {
    let Some(d) = &env.durable else {
        release_acks(&mut acks);
        return;
    };
    let ticket = if wrote {
        d.seq.enqueue()
    } else if *last_ticket > d.seq.durable_epoch() {
        *last_ticket
    } else {
        // Everything this worker ever routed is already durable: the
        // read-only replies depend on durable state only. Ack inline.
        release_acks(&mut acks);
        return;
    };
    *last_ticket = ticket;
    if let Err(err) = d.flusher.send(FlushJob::Group { ticket, acks }) {
        // Flusher already stopped (teardown race): flush synchronously
        // and release here — held acks must never be dropped.
        let FlushJob::Group { ticket, mut acks } = err.0 else { return };
        d.seq.wait_durable_dev(ticket, &d.device);
        release_acks(&mut acks);
    }
}

/// One unit of flusher-thread work: a closed commit group whose held acks
/// may only be released once the device flush covering `ticket` completed.
pub(super) enum FlushJob<S> {
    Group { ticket: u64, acks: Vec<DeferredAck<S>> },
    Stop,
}

/// The dedicated flusher thread (durable mode only): receives closed
/// commit groups from every worker, coalesces whatever else is already
/// queued (one device wait at the max ticket covers every earlier one —
/// the sequencer's epoch argument), performs the real `write+fsync`
/// through the shared `FlushSequencer`, and releases the held acks.
/// There is no accumulation window: while one flush is in the device, the
/// groups that close behind it queue here (and coordinators queue on the
/// sequencer), so the next drain covers all of them with one flush. The
/// group is as long as the device is slow, and zero when a writer is
/// alone. Workers never fsync on their serving path; distributed
/// coordinators wait on the same sequencer from their client threads, so
/// both demand streams coalesce into the same device operations.
pub(super) fn flusher_loop<A: LiveAdvisor>(env: &Shared<A>, rx: &Receiver<FlushJob<A::Session>>) {
    let durable = env.durable.as_ref().expect("flusher thread requires durability state");
    while let Ok(job) = rx.recv() {
        let FlushJob::Group { mut ticket, mut acks } = job else { return };
        let mut stop = false;
        loop {
            match rx.try_recv() {
                Ok(FlushJob::Group { ticket: t, acks: mut more }) => {
                    ticket = ticket.max(t);
                    acks.append(&mut more);
                }
                Ok(FlushJob::Stop) => {
                    stop = true;
                    break;
                }
                Err(_) => break,
            }
        }
        durable.seq.wait_durable_dev(ticket, &durable.device);
        release_acks(&mut acks);
        if stop {
            return;
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! Besides the worker's own tests, home of the shared hand-driving kit
    //! ([`Driver`], [`drive_worker`]) the `spec` tests also import.

    use super::super::client::send_on_lane;
    use super::super::coord::push_frag;
    use super::super::lifecycle::LiveConfig;
    use super::super::lock::LockManager;
    use super::super::wire::{BatchItem, FragCmd, FragPort, FragReply, ReplySlot, WorkerGate};
    use super::*;
    use crate::baselines::AssumeSinglePartition;
    use crate::metrics::RunMetrics;
    use crate::procedure::testing::{kv_database, kv_registry};
    use common::sync::atomic::AtomicU64;
    use common::sync::mpsc::channel;
    use common::sync::Mutex;
    use common::{QueryId, Value};
    use std::time::Duration;
    use storage::Row;

    /// Sorted `(key, row)` snapshot of one table slice, for byte-identical
    /// state comparisons across a speculation window.
    pub(in crate::runtime) type TableRows = Vec<(Vec<Value>, Row)>;

    pub(in crate::runtime) fn sorted_rows(table: &storage::Table) -> TableRows {
        let mut rows: TableRows = table.iter().map(|(k, r)| (k.clone(), r.clone())).collect();
        rows.sort();
        rows
    }

    pub(in crate::runtime) fn table_snapshot(shard: &Shard, table: usize) -> TableRows {
        sorted_rows(shard.table(table))
    }

    pub(in crate::runtime) type TestEnv = Shared<AssumeSinglePartition>;

    /// Upper bound on any reply wait in the hand-driven protocol tests.
    pub(in crate::runtime) const WAIT: Duration = Duration::from_secs(30);

    /// A single-gate [`Shared`] for hand-driving worker 0, plus that
    /// worker's control receiver; the lock manager and feedback plumbing
    /// stay unused.
    pub(in crate::runtime) fn test_env(parts: u32) -> (TestEnv, Receiver<CtrlMsg<()>>) {
        let reg = kv_registry();
        let (ctrl_tx, ctrl_rx) = channel();
        let env = Shared {
            catalog: reg.catalog(),
            registry: reg,
            advisor: AssumeSinglePartition::new(),
            cfg: LiveConfig::default(),
            num_partitions: parts,
            msg_delay: Duration::ZERO,
            workers: vec![WorkerGate { ctrl: ctrl_tx, bell: Doorbell::new() }],
            locks: LockManager::new(parts),
            metrics: Mutex::new(RunMetrics::default()),
            fb_tx: None,
            next_client: AtomicU64::new(0),
            started: Instant::now(),
            durable: None,
        };
        (env, ctrl_rx)
    }

    /// The client side of the wire protocol against worker 0, spoken
    /// through the production entry points ([`push_frag`] for fragment
    /// commands, [`send_on_lane`] for fast-path singles — both register
    /// their lane on first use, exactly as a [`Client`] does). Dropping it
    /// retires both lanes and sends `Shutdown`, so a script that panics
    /// releases the worker instead of deadlocking the scope join.
    pub(in crate::runtime) struct Driver<'a> {
        env: &'a TestEnv,
        ports: Vec<Option<FragPort>>,
        lanes: Vec<Option<ring::Producer<SingleMsg<()>>>>,
    }

    impl<'a> Driver<'a> {
        pub(in crate::runtime) fn new(env: &'a TestEnv) -> Self {
            Driver { env, ports: vec![None], lanes: vec![None] }
        }

        /// Pushes one fragment command — the lock holder's side of a
        /// reservation (the first push opens service at the worker).
        pub(in crate::runtime) fn frag(&mut self, cmd: FragCmd) {
            push_frag(&mut self.ports, &self.env.workers, 0, cmd).expect("fragment push");
        }

        /// Blocks for the worker's reply on the fragment lane's slot.
        pub(in crate::runtime) fn frag_reply(&self) -> FragReply {
            let port = self.ports[0].as_ref().expect("fragment lane registered");
            port.replies.take_within(WAIT).expect("fragment reply")
        }

        /// The per-query rows of the `ExecBatch` reply now due.
        pub(in crate::runtime) fn batch_rows(&self) -> Vec<Vec<Row>> {
            let FragReply::Batch(items) = self.frag_reply() else { panic!("expected a Batch") };
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

        /// Coalesced 2PC on the lane: `VoteFinish`, then its ack.
        pub(in crate::runtime) fn vote_finish(&mut self, commit: bool) {
            self.frag(FragCmd::VoteFinish { commit });
            assert!(matches!(self.frag_reply(), FragReply::Finished));
        }

        /// The 2PC outcome of an open speculation window, on the control
        /// channel as coordinators send it (commit and abort alike).
        pub(in crate::runtime) fn spec_finish(&self, commit: bool) {
            assert!(self.env.workers[0].send_ctrl(CtrlMsg::SpecFinish { commit }));
        }

        /// Submits one `MultiGet(args)` single planned for partition 0 and
        /// returns the fresh reply slot it will be acknowledged on.
        pub(in crate::runtime) fn single(
            &mut self,
            args: Vec<Value>,
            disable_undo: bool,
        ) -> Arc<SingleSlot<()>> {
            let slot = Arc::new(ReplySlot::new());
            let msg = SingleMsg {
                req: Request { proc: 0, args, origin_node: 0 },
                plan: TxnPlan { disable_undo, ..TxnPlan::single(0) },
                session: (),
                reply: Arc::clone(&slot),
                enqueued: Instant::now(),
            };
            send_on_lane(&mut self.lanes, &self.env.workers, 0, msg).expect("lane push");
            slot
        }

        /// The coordinator dies: its fragment-lane producer drops, then the
        /// ring that lets a parked worker notice ([`Client`]'s drop order).
        pub(in crate::runtime) fn drop_frag_port(&mut self) {
            self.ports[0] = None;
            self.env.workers[0].bell.ring();
        }
    }

    impl Drop for Driver<'_> {
        fn drop(&mut self) {
            self.ports.clear();
            self.lanes.clear();
            self.env.workers[0].send_ctrl(CtrlMsg::Shutdown);
        }
    }

    /// Runs worker 0 over `shard` while `script` drives it, then shuts the
    /// worker down and hands back the shard with the script's result.
    /// Whatever `driver` buffered before the call is what the worker finds
    /// queued when it starts.
    pub(in crate::runtime) fn drive_worker<'a, T>(
        ctrl_rx: Receiver<CtrlMsg<()>>,
        shard: Shard,
        driver: Driver<'a>,
        script: impl FnOnce(&mut Driver<'a>) -> T,
    ) -> (Shard, T) {
        let env = driver.env;
        std::thread::scope(move |s| {
            // Owned by this closure, so an unwinding script drops it (and
            // thereby stops the worker) before the scope joins.
            let mut driver = driver;
            let h = s.spawn(move || worker_loop::<AssumeSinglePartition>(shard, &ctrl_rx, env, 0));
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

    /// Runs one worker over the same six-message sequence — three bump
    /// singles, a reservation whose fragment reads the bumped row, then two
    /// more singles — and returns (reply shapes in send order, the row
    /// value the fragment observed, final table snapshot). With `batched`
    /// both lanes, the three singles, and the reservation's opening
    /// `ExecBatch` are buffered before the worker thread starts, so the
    /// sequence is served out of backlog drains: one run of three singles
    /// ahead of the reservation. Without it each call waits for its
    /// reply before the next is sent — the one-message-at-a-time schedule
    /// batching must be indistinguishable from.
    fn drive_batched_drain(batched: bool) -> (Vec<(bool, bool)>, i64, TableRows) {
        let (env, ctrl_rx) = test_env(1);
        let shard = kv_database(1, 8).into_shards().pop().unwrap();
        let read_id0 = || vec![(0, vec![Value::Int(0)])];
        let take = |slot: Arc<SingleSlot<()>>| match slot.take_within(WAIT).expect("single ack") {
            SingleReply::Done { committed, fp, .. } => (committed, fp.speculative),
            _ => panic!("expected Done"),
        };
        let mut driver = Driver::new(&env);
        let mut early = Vec::new();
        if batched {
            // The worker's first control drain registers both lanes and
            // its lane sweep picks the three singles up as one run —
            // executed and acknowledged ahead of the reservation the
            // buffered fragment command opens.
            early.extend((0..3).map(|_| driver.single(bump_id0(), false)));
            driver.frag(FragCmd::ExecBatch { proc: 0, queries: read_id0() });
        }
        let (shard, (replies, observed)) = drive_worker(ctrl_rx, shard, driver, |d| {
            let mut replies = Vec::new();
            let rows = if batched {
                d.batch_rows()
            } else {
                replies.extend((0..3).map(|_| take(d.single(bump_id0(), false))));
                d.exec(read_id0())
            };
            d.vote_finish(true);
            replies.extend(early.into_iter().map(take));
            // The trailing pair goes out only once the reservation has
            // resolved: an earlier push could race into the first run.
            replies.extend((0..2).map(|_| take(d.single(bump_id0(), false))));
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
