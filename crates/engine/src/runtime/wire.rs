//! The wire protocol: every cross-thread message and what carries it.

use super::LANE_CAPACITY;
use crate::advisor::{Request, TxnPlan};
use crate::profiler::StageTimes;
use crate::txn::Decision;
use common::ring::{self, Doorbell, PushError};
use common::sync::mpsc::Sender;
use common::sync::Arc;
use common::{Error, ProcId, QueryId, Result, Value};
use std::time::Instant;
use storage::Row;

/// A fragment command sent to a reserved worker.
pub(super) enum FragCmd {
    /// Every fragment this partition owes for one query batch, shipped as
    /// a single message (one ring push, one modeled network hop, one
    /// reply) instead of one round trip per query. Items execute
    /// in batch order; the participant stops at its own first constraint
    /// violation — the coordinator re-derives the batch-global abort
    /// point from the merged per-item outcomes ([`Reply::Batch`]),
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
    /// push cycle as the batch that follows it). Never sent when
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

/// One query's outcome inside a [`Reply::Batch`]. Fatal errors abort the
/// whole reply ([`Reply::Fatal`]) rather than appearing per item.
pub(super) enum BatchItem {
    Rows(Vec<Row>),
    Constraint(String),
}

/// Microseconds elapsed since `t`.
pub(super) fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A single-partition fast-path call: the whole transaction, handed to its
/// base partition's worker.
pub(super) struct SingleMsg<S> {
    pub(super) req: Request,
    pub(super) plan: TxnPlan,
    pub(super) session: S,
    /// When the client enqueued the message — the worker derives the
    /// queue-wait time (Fig. 11 `Queueing`) at pickup.
    pub(super) enqueued: Instant,
}

/// What a client sends a worker on its connection's request ring.
pub(super) enum Call<S> {
    Single(SingleMsg<S>),
    /// Only the partition-lock holder sends these, so the lock serializes
    /// transactions across a worker's connections.
    Frag(FragCmd),
}

/// What a worker answers on a connection's reply ring: one reply per
/// [`Call::Single`], [`FragCmd::ExecBatch`] and [`FragCmd::VoteFinish`].
pub(super) enum Reply<S> {
    /// A fast-path attempt ended: committed, user-aborted, or mispredicted
    /// (it left its one-partition lock set).
    Ended {
        /// The request handed back — the client moved it into the message,
        /// and a mispredict replans it.
        req: Request,
        decision: Decision,
        session: S,
        times: StageTimes,
        /// Durable mode, committed writers only: the flush-sequencer ticket
        /// taken after the worker command-logged the transaction. The
        /// client waits on it before its call returns.
        ticket: Option<u64>,
    },
    /// Per-item outcomes of a [`FragCmd::ExecBatch`], in item order. A
    /// participant that hit a constraint stops there, so the vector may be
    /// shorter than the batch it answers; the coordinator only ever reads
    /// items up to the batch-global abort point, which is covered on every
    /// target (see `run_distributed`).
    Batch(Vec<BatchItem>),
    /// A [`FragCmd::VoteFinish`] was applied.
    Finished,
    Fatal(Error),
}

/// Rings its doorbell when dropped.
struct RingOnDrop(Arc<Doorbell>);

impl Drop for RingOnDrop {
    fn drop(&mut self) {
        self.0.ring();
    }
}

/// One side of a (client, worker) connection: it pops `In` from one SPSC
/// ring and pushes `Out` onto the other, and rings the peer's doorbell
/// after every push. Dropping an end closes both its rings and *then*
/// rings the peer — fields drop in declaration order, `peer` last — which
/// is the producer-drop handshake the ring model checks: a worker that
/// shuts down or dies wakes every client waiting on it, and a client that
/// goes away wakes the worker so it retires the connection or rolls back
/// the reservation it was serving.
pub(super) struct End<In, Out> {
    rx: ring::Consumer<In>,
    tx: ring::Producer<Out>,
    peer: RingOnDrop,
}

/// The client's end of a connection.
pub(super) type ClientEnd<S> = End<Reply<S>, Call<S>>;
/// The worker's end of a connection.
pub(super) type WorkerEnd<S> = End<Call<S>, Reply<S>>;

impl<In, Out> End<In, Out> {
    /// Pushes `msg`, then rings the peer — the push-then-ring order the
    /// doorbell protocol needs.
    pub(super) fn send(&mut self, msg: Out) -> std::result::Result<(), PushError<Out>> {
        self.tx.push(msg)?;
        self.peer.0.ring();
        Ok(())
    }

    /// The next message; `Some(None)` once the peer is gone and everything
    /// it sent has been taken; `None` while there is nothing yet.
    pub(super) fn poll(&mut self) -> Option<Option<In>> {
        match self.rx.pop() {
            Some(m) => Some(Some(m)),
            None => self.rx.is_closed().then_some(None),
        }
    }

    /// Blocks on this side's own doorbell `bell` for the next message;
    /// `None` once the peer is gone ([`End::poll`]).
    pub(super) fn recv(&mut self, bell: &Doorbell) -> Option<In> {
        bell.wait(|| self.poll())
    }

    /// Pops the next message, if one is buffered.
    pub(super) fn try_recv(&mut self) -> Option<In> {
        self.rx.pop()
    }

    /// True once the peer is gone and everything it sent has been taken.
    pub(super) fn is_closed(&self) -> bool {
        self.rx.is_closed()
    }
}

/// A new connection between the client that parks on `client` and the
/// worker that parks on `worker`.
fn connect<S>(client: &Arc<Doorbell>, worker: &Arc<Doorbell>) -> (ClientEnd<S>, WorkerEnd<S>) {
    let (call_tx, call_rx) = ring::spsc(LANE_CAPACITY);
    let (reply_tx, reply_rx) = ring::spsc(LANE_CAPACITY);
    (
        End { rx: reply_rx, tx: call_tx, peer: RingOnDrop(Arc::clone(worker)) },
        End { rx: call_rx, tx: reply_tx, peer: RingOnDrop(Arc::clone(client)) },
    )
}

/// A client's connections: its own doorbell, which every worker it is
/// connected to rings after pushing a reply, and one [`ClientEnd`] per
/// worker, opened on first contact and reused by every later call, fast
/// path and distributed alike. A blocking client has at most one reply
/// outstanding per connection.
pub(super) struct Conns<S> {
    bell: Arc<Doorbell>,
    ends: Vec<Option<ClientEnd<S>>>,
}

impl<S> Conns<S> {
    /// No connections yet, to a cluster of `workers` workers.
    pub(super) fn new(workers: usize) -> Self {
        Conns { bell: Arc::new(Doorbell::new()), ends: (0..workers).map(|_| None).collect() }
    }

    /// Sends `call` to worker `p`, registering the connection with it
    /// first if this is the pair's first contact. A blocking client keeps
    /// at most three calls in a ring of `LANE_CAPACITY`, so a full ring is
    /// a protocol bug: reported, never retried.
    pub(super) fn send(
        &mut self,
        workers: &[WorkerGate<S>],
        p: usize,
        call: Call<S>,
    ) -> Result<()> {
        let gone = || Error::Other(format!("worker {p} is gone"));
        if self.ends[p].is_none() {
            let (mine, theirs) = connect(&self.bell, &workers[p].bell);
            if !workers[p].send_ctrl(CtrlMsg::Connect(theirs)) {
                return Err(gone());
            }
            self.ends[p] = Some(mine);
        }
        match self.ends[p].as_mut().expect("connection just ensured").send(call) {
            Ok(()) => Ok(()),
            Err(PushError::Disconnected(_)) => Err(gone()),
            Err(PushError::Full(_)) => Err(Error::Other(format!("ring to worker {p} overflowed"))),
        }
    }

    /// Blocks for worker `p`'s next reply on this client's doorbell;
    /// `None` once the worker's end is gone (it shut down or died).
    pub(super) fn recv(&mut self, p: usize) -> Option<Reply<S>> {
        let end = self.ends[p].as_mut()?;
        end.recv(&self.bell)
    }

    /// Times this client has gone to sleep waiting for a reply.
    pub(super) fn parks(&self) -> u64 {
        self.bell.parks()
    }

    /// The connection to worker `p`, if open.
    #[cfg(test)]
    pub(super) fn end(&mut self, p: usize) -> Option<&mut ClientEnd<S>> {
        self.ends[p].as_mut()
    }

    /// Closes the connection to worker `p` (its end's drop handshake); the
    /// next call to `p` opens a fresh one.
    pub(super) fn close(&mut self, p: usize) {
        self.ends[p] = None;
    }
}

/// Control-plane traffic to one worker. Rare by construction, so it stays
/// on a plain shared MPSC channel; calls and replies ride the connections.
pub(super) enum CtrlMsg<S> {
    /// A client opened its connection to this worker (once per pair).
    Connect(WorkerEnd<S>),
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

/// One worker's client-facing intake: the shared control channel plus the
/// doorbell that wakes it out of an idle park. Clients push onto their
/// own connection and ring the bell directly ([`End::send`]).
pub(super) struct WorkerGate<S> {
    pub(super) ctrl: Sender<CtrlMsg<S>>,
    pub(super) bell: Arc<Doorbell>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use common::sync::mpsc::channel;

    #[test]
    fn a_parked_client_returns_none_once_the_worker_end_drops() {
        // The worker takes the call and then goes away without replying,
        // as a worker that shuts down or dies does. Only its end's drop
        // handshake can wake the client, which has long since parked.
        let (ctrl, ctrl_rx) = channel();
        let workers = [WorkerGate { ctrl, bell: Arc::new(Doorbell::new()) }];
        let mut conns = Conns::<()>::new(1);
        conns.send(&workers, 0, Call::Frag(FragCmd::Prepare)).expect("first contact");
        let got = std::thread::scope(|s| {
            let client_bell = Arc::clone(&conns.bell);
            s.spawn(move || {
                let Ok(CtrlMsg::Connect(mut end)) = ctrl_rx.recv() else { panic!("no Connect") };
                assert!(matches!(end.try_recv(), Some(Call::Frag(FragCmd::Prepare))));
                while client_bell.parks() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                drop(end);
            });
            conns.recv(0)
        });
        assert!(got.is_none(), "a reply from a worker that never sent one");
        assert!(conns.parks() >= 1, "the client returned without parking");
    }
}
