//! The wire protocol: every cross-thread message and what carries it.

use super::{REPLY_SPIN, REPLY_WATCHDOG};
use crate::advisor::{Request, TxnPlan};
use crate::txn::Footprint;
use common::ring::{self, Doorbell};
use common::sync::atomic::{AtomicU64, Ordering};
use common::sync::mpsc::Sender;
use common::sync::{Arc, Condvar, Mutex, PoisonError};
use common::{Error, PartitionSet, ProcId, QueryId, Value};
use std::time::Instant;
use storage::Row;

/// A fragment command sent to a reserved worker.
pub(super) enum FragCmd {
    /// Every fragment this partition owes for one query batch, shipped as
    /// a single message (one lane push, one modeled network hop, one
    /// reply) instead of one round trip per query. Items execute
    /// in batch order; the participant stops at its own first constraint
    /// violation — the coordinator re-derives the batch-global abort
    /// point from the merged per-item outcomes ([`FragReply::Batch`]),
    /// and the transaction rollback makes any item executed past it
    /// invisible, so outcomes are byte-identical to the unbatched path.
    ExecBatch { proc: ProcId, queries: Vec<(QueryId, Vec<Value>)> },
    /// Early prepare (OP4) of a read-only participant: the transaction is
    /// finished with this partition, and the classic read-only participant
    /// optimization applies — nothing to flush, undo, or decide, so the
    /// worker drops the reservation outright and never hears from this
    /// transaction again. A participant whose fragment wrote gets no
    /// message at its early release: it stays reserved until `VoteFinish`.
    Prepare,
    /// Durable-mode preamble (DESIGN.md §7): the coordinator's first
    /// command to each participant, positioning the transaction's
    /// [`wal::LogRecord::DistBegin`] in that partition's command log
    /// *before* any of its fragments execute there — the partition's
    /// record order is the replay order, so the begin must precede every effect
    /// it covers. Carries the full request so replay can re-execute the
    /// procedure. No reply, no modeled network delay (it rides the same
    /// lane push cycle as the batch that follows it). Never sent when
    /// durability is off.
    LogBegin { txn_id: u64, proc: ProcId, args: Vec<Value> },
    /// Both 2PC rounds coalesced into one message per (coordinator,
    /// participant) pair: flush-and-vote plus the decision together.
    /// Outcome-equivalent to a split prepare/decide exchange because
    /// participants in this engine always vote yes (every fragment error
    /// already surfaced at execution, so the decision never depends on the
    /// vote round) — but one round trip and one modeled network hop where
    /// split rounds would cost two.
    VoteFinish { commit: bool },
}

/// A reserved worker's answer to a fragment command.
pub(super) enum FragReply {
    /// Per-item outcomes of an [`FragCmd::ExecBatch`], in item order. A
    /// participant that hit a constraint stops there, so the vector may be
    /// shorter than the batch it answers; the coordinator only ever reads
    /// items up to the batch-global abort point, which is covered on every
    /// target (see `run_distributed`).
    Batch(Vec<BatchItem>),
    Finished,
    Fatal(Error),
}

/// One query's outcome inside a [`FragReply::Batch`]. Fatal errors abort
/// the whole reply ([`FragReply::Fatal`]) rather than appearing per item.
pub(super) enum BatchItem {
    Rows(Vec<Row>),
    Constraint(String),
}

/// One client's distributed-path connection at the worker: a reusable
/// bounded SPSC fragment lane plus the client's reusable fragment reply
/// slot — registered once per (client, worker) pair over the control
/// channel (mirroring the fast path's `CtrlMsg::Lane`) and reused by every
/// distributed transaction after, replacing two fresh channel allocations
/// per participant per transaction.
pub(super) struct FragConn {
    pub(super) frags: ring::Consumer<FragCmd>,
    pub(super) replies: Arc<ReplySlot<FragReply>>,
}

impl FragConn {
    /// Blocks for the next fragment command; `None` when the coordinator
    /// is gone (producer dropped). Waits park on the worker's own doorbell
    /// — the coordinator rings it after every push; stray rings from other
    /// clients just cost a re-check.
    pub(super) fn recv(&mut self, bell: &Doorbell) -> Option<FragCmd> {
        loop {
            if let Some(cmd) = self.frags.pop() {
                return Some(cmd);
            }
            if self.frags.is_closed() {
                return None;
            }
            // Doorbell protocol: announce intent, MANDATORY second
            // look (a push-and-ring that landed before the parked
            // bit went up is only visible here), then sleep.
            let token = bell.prepare_park();
            if self.frags.is_empty() && !self.frags.is_closed() {
                bell.park(token);
            } else {
                bell.cancel_park();
            }
        }
    }

    /// Delivers a reply to the coordinator; false if it is gone.
    pub(super) fn send(&self, reply: FragReply) -> bool {
        // A closed lane's coordinator died: nobody will ever take
        // this reply, so leave the slot reusable-empty instead.
        if self.frags.is_closed() {
            return false;
        }
        self.replies.put(reply);
        true
    }
}

/// The client-side half of one [`FragConn`]: the producer of this
/// client's fragment lane to one worker plus the reusable reply slot that
/// worker fills. Registered lazily on the client's first distributed use
/// of the partition, then reused by every later distributed transaction:
/// the steady state has no per-transaction channel setup and no
/// reservation round trip.
pub(super) struct FragPort {
    pub(super) tx: ring::Producer<FragCmd>,
    pub(super) replies: Arc<ReplySlot<FragReply>>,
}

/// Wall-clock stage timings measured at the worker for one fast-path
/// transaction, reported back to the coordinating client for Fig. 11
/// attribution (the client cannot observe queue wait or execution time
/// from its side of the channel).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct StageTimes {
    /// Time the message sat on the worker queue before being picked up.
    pub(super) queued_us: f64,
    /// Advisor time inside execution (`on_query_live`).
    pub(super) est_us: f64,
    /// Execution time at the worker, minus the advisor share.
    pub(super) exec_us: f64,
}

/// Microseconds elapsed since `t`.
pub(super) fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// How a single-partition fast-path transaction ended at its worker.
pub(super) enum SingleReply<S> {
    Done {
        committed: bool,
        session: S,
        fp: Footprint,
        times: StageTimes,
        /// Durable mode, committed writers only: the flush-sequencer ticket
        /// taken after the worker command-logged the transaction. The
        /// client waits on it before its call returns.
        ticket: Option<u64>,
    },
    Mispredict {
        /// The request handed back for the replan — the client moved it
        /// into the message, so the reply returns ownership.
        req: Request,
        observed: PartitionSet,
        session: S,
        times: StageTimes,
    },
    Fatal(Error),
}

/// A single-partition fast-path message, carried on the issuing client's
/// dedicated SPSC ring lane to the base partition's worker — never on the
/// shared control channel (see [`WorkerGate`]).
pub(super) struct SingleMsg<S> {
    pub(super) req: Request,
    pub(super) plan: TxnPlan,
    pub(super) session: S,
    /// The client's reusable reply mailbox (one per client, every call
    /// reuses it — a blocking client has one call in flight at a time).
    pub(super) reply: Arc<SingleSlot<S>>,
    /// When the client enqueued the message — the worker derives the
    /// queue-wait time (Fig. 11 `Queueing`) at pickup.
    pub(super) enqueued: Instant,
}

/// Control-plane traffic to one worker. Rare by construction, so it stays
/// on a plain shared MPSC channel; the hot fast path rides the SPSC lanes.
pub(super) enum CtrlMsg<S> {
    /// A client registered a new fast-path lane with this worker.
    Lane(ring::Consumer<SingleMsg<S>>),
    /// A client registered its distributed-path fragment lane with this
    /// worker (once per (client, worker) pair, like `Lane`). Fragment
    /// commands arrive on the lane afterwards — only the partition-lock
    /// holder pushes, so the lock itself serializes transactions on it.
    FragLane(FragConn),
    /// Snapshot fence (durability): rotate this partition's command log to
    /// segment `gen` and serialize the shard's rows — at this worker's own
    /// main-loop service point, i.e. at a partition-transaction boundary —
    /// then reply on `done`. Sent by `snapshot_cluster` while it holds
    /// every partition's lock slot, so no distributed transaction spans
    /// the cut (fast-path singles stay live; each worker's rotation *is*
    /// its cut).
    Snapshot {
        gen: u64,
        done: Sender<()>,
    },
    Shutdown,
}

/// A client's fast-path reply mailbox payload (the reply slot is generic
/// so the same machinery serves fragment replies — see [`FragConn`]).
pub(super) type SingleSlot<S> = ReplySlot<SingleReply<S>>;

/// A client's reusable one-shot reply mailbox: the worker fills it, the
/// client sleeps on the condvar. Replaces a fresh channel per call — the
/// `Arc` is cloned into each message but never reallocated. One slot per
/// (client, payload kind): fast-path calls block on a [`SingleSlot`],
/// distributed coordination keeps one `ReplySlot<FragReply>` per worker —
/// either way at most one reply is outstanding per slot (ping-pong).
pub(super) struct ReplySlot<T> {
    state: Mutex<Option<T>>,
    cv: Condvar,
    /// 1 while the owning client is blocked in a condvar wait (it spins
    /// first — see [`ReplySlot::take_or_abandon`]). Lets [`ReplySlot::put`]
    /// skip the futex-wake syscall in the common case where the client is
    /// still spinning and will observe the reply on its next probe.
    sleeper: AtomicU64,
}

impl<T> ReplySlot<T> {
    pub(super) fn new() -> Self {
        ReplySlot { state: Mutex::new(None), cv: Condvar::new(), sleeper: AtomicU64::new(0) }
    }

    /// Fills the slot and wakes the waiting client. Empty by contract:
    /// the owning client blocks for each call's reply before reusing it.
    pub(super) fn put(&self, reply: T) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(st.is_none(), "reply slot already full");
        *st = Some(reply);
        drop(st);
        // ordering: Relaxed — no lost wakeup possible. A client only sets
        // `sleeper` while holding `state`, before the wait releases it; if
        // this load misses the flag, our mutex section above must have run
        // *before* the client's final empty-check of the slot, so the
        // client sees the reply under the lock and never sleeps. (The
        // client's store happens-before our lock acquisition whenever it
        // actually reached the wait, making the flag visible here.)
        if self.sleeper.load(Ordering::Relaxed) != 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until a reply arrives. `abandoned` is polled on watchdog
    /// ticks: once it reports true (the worker retired this client's lane
    /// — possibly discarding the buffered call at shutdown) and the slot
    /// is still empty, no reply can ever arrive, so give up with `None`.
    pub(super) fn take_or_abandon(&self, abandoned: impl Fn() -> bool) -> Option<T> {
        // Fast-path replies land within microseconds of the doorbell ring,
        // so a bounded yield-spin usually collects them without paying the
        // condvar's futex sleep/wake round trip — which would otherwise
        // dominate the call's coordination share, especially on small
        // hosts where the wake is a full scheduler pass. The condvar wait
        // below stays the correctness path; the spin is best-effort.
        for _ in 0..REPLY_SPIN {
            {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(r) = st.take() {
                    return Some(r);
                }
            }
            std::thread::yield_now();
        }
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — published to the worker by the mutex: the
        // store precedes every release of `state` below (the waits), so a
        // `put` that finds the slot unclaimed observes it (see `put`).
        self.sleeper.store(1, Ordering::Relaxed);
        let reply = loop {
            if let Some(r) = st.take() {
                break Some(r);
            }
            if abandoned() {
                break None;
            }
            let (g, _) =
                self.cv.wait_timeout(st, REPLY_WATCHDOG).unwrap_or_else(PoisonError::into_inner);
            st = g;
        };
        // ordering: Relaxed — same-thread cleanup; the next call's spin
        // phase must not leave stale wake requests behind.
        self.sleeper.store(0, Ordering::Relaxed);
        reply
    }

    /// Waits up to `dur` (to [`REPLY_WATCHDOG`] granularity) for a reply —
    /// test hook for the hand-driven protocol tests.
    #[cfg(test)]
    pub(super) fn take_within(&self, dur: std::time::Duration) -> Option<T> {
        let deadline = Instant::now() + dur;
        self.take_or_abandon(|| Instant::now() >= deadline)
    }
}

/// One worker's client-facing intake: the shared control channel plus the
/// doorbell that wakes it out of an idle park. Fast-path producers push
/// onto their own lane and then ring the bell directly.
pub(super) struct WorkerGate<S> {
    pub(super) ctrl: Sender<CtrlMsg<S>>,
    pub(super) bell: Doorbell,
}

impl<S> WorkerGate<S> {
    /// Sends a control message and rings the doorbell — every sender must
    /// ring after publishing work, or a parked worker sleeps through it.
    /// Returns false if the worker is gone (its receiver dropped).
    pub(super) fn send_ctrl(&self, msg: CtrlMsg<S>) -> bool {
        let ok = self.ctrl.send(msg).is_ok();
        self.bell.ring();
        ok
    }
}
