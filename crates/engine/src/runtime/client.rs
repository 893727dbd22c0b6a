//! The [`Client`] handle: plan, dispatch, retry, and fold one call's metrics.

use super::coord::{run_distributed, Attempt, StageAcc};
use super::lifecycle::Shared;
use super::wire::{
    us_since, CtrlMsg, FragPort, ReplySlot, SingleMsg, SingleReply, SingleSlot, WorkerGate,
};
#[cfg(doc)]
use super::LiveRuntime;
use super::LANE_CAPACITY;
use crate::advisor::{LiveAdvisor, PlanContext, Request, TxnOutcome};
use crate::profiler::{Bucket, CoordSub};
use crate::txn::replan;
use common::ring::{self, PushError};
use common::sync::atomic::Ordering;
use common::sync::{Arc, PoisonError};
use common::{derive_seed, seeded_rng, Error, FxHashMap, ProcId, Result, Value};
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

/// A `Send` handle for submitting transactions to a [`LiveRuntime`].
///
/// Handles are cheap (one `Arc` clone) and independent: mint one per
/// application thread with [`LiveRuntime::client`], move it there, and
/// drive it with [`Client::call`]. Dropping a handle just leaves the
/// runtime; handles may join and leave at any point of the run.
///
/// Each handle owns a deterministic RNG stream derived from
/// `(LiveConfig::seed, id)` — the pre-drawn `random_local_partition`
/// advisors see — so a fixed set of handles issuing fixed requests plans
/// reproducibly.
pub struct Client<A: LiveAdvisor + 'static> {
    shared: Arc<Shared<A>>,
    id: u64,
    rng: SmallRng,
    /// One SPSC fast-path lane per worker this handle has talked to,
    /// created lazily on the first call routed to that partition.
    lanes: Vec<Option<ring::Producer<SingleMsg<A::Session>>>>,
    /// One fragment lane + reply slot per worker this handle has
    /// coordinated a distributed transaction against, registered lazily
    /// and reused forever after — the distributed path's analogue of
    /// `lanes` (see [`FragPort`]).
    frag_ports: Vec<Option<FragPort>>,
    /// The reusable reply mailbox every fast-path call blocks on (an
    /// `Arc` clone travels inside each message; never reallocated).
    reply: Arc<SingleSlot<A::Session>>,
    /// Reclaimed advisor sessions, one spare per procedure: the next call
    /// to the same procedure reuses the session's plan scratch instead of
    /// allocating fresh (see [`LiveAdvisor::plan_live_reusing`]).
    spare: FxHashMap<ProcId, A::Session>,
    /// Reused buffer of lock-hold samples from distributed attempts,
    /// folded under the metrics lock once per call.
    lock_holds: Vec<f64>,
}

/// Pushes one fast-path message onto this client's lane to worker `base`,
/// creating and registering the lane on first use, then rings the
/// worker's doorbell (the push-then-ring order the doorbell protocol
/// requires).
pub(super) fn send_on_lane<S>(
    lanes: &mut [Option<ring::Producer<SingleMsg<S>>>],
    workers: &[WorkerGate<S>],
    base: usize,
    msg: SingleMsg<S>,
) -> Result<()> {
    if lanes[base].is_none() {
        let (tx, rx) = ring::spsc(LANE_CAPACITY);
        if !workers[base].send_ctrl(CtrlMsg::Lane(rx)) {
            return Err(Error::Other(format!("worker {base} is gone")));
        }
        lanes[base] = Some(tx);
    }
    let lane = lanes[base].as_mut().expect("lane just ensured");
    match lane.push(msg) {
        Ok(()) => {
            workers[base].bell.ring();
            Ok(())
        }
        Err(PushError::Disconnected(_)) => Err(Error::Other(format!("worker {base} is gone"))),
        // Unreachable for a blocking client (≤ 1 call in flight per lane,
        // capacity LANE_CAPACITY); report rather than spin, defensively.
        Err(PushError::Full(_)) => Err(Error::Other(format!("lane to worker {base} overflowed"))),
    }
}

impl<A: LiveAdvisor + 'static> Client<A> {
    /// Mints the next handle on `shared` (see `LiveRuntime::client`).
    pub(super) fn mint(shared: &Arc<Shared<A>>) -> Self {
        // ordering: Relaxed — client ids only need to be unique; the handle
        // itself is handed to its thread via ordinary Rust ownership (a
        // `Send` move), which already synchronizes everything else.
        let id = shared.next_client.fetch_add(1, Ordering::Relaxed);
        Client {
            rng: seeded_rng(derive_seed(shared.cfg.seed, 0xC11E47 ^ id)),
            lanes: (0..shared.num_partitions as usize).map(|_| None).collect(),
            frag_ports: (0..shared.num_partitions as usize).map(|_| None).collect(),
            reply: Arc::new(ReplySlot::new()),
            spare: FxHashMap::default(),
            lock_holds: Vec::new(),
            shared: Arc::clone(shared),
            id,
        }
    }

    /// Session teardown: the advisor's feedback record heads for the
    /// maintenance thread — `try_send` keeps the acknowledgement latency
    /// independent of maintenance (the thread drains on its own tick, so
    /// the send wakes no one), a full channel sheds the record into
    /// `fb_dropped` — and the spent session becomes `proc`'s spare.
    fn end_session(
        &mut self,
        proc: ProcId,
        session: A::Session,
        outcome: TxnOutcome,
        fb_dropped: &mut u64,
    ) {
        let (record, reclaimed) = self.shared.advisor.end_live_reclaim(session, outcome);
        if let (Some(tx), Some(rec)) = (self.shared.fb_tx.as_ref(), record) {
            if tx.try_send(rec).is_err() {
                *fb_dropped += 1;
            }
        }
        if let Some(r) = reclaimed {
            self.spare.insert(proc, r);
        }
    }

    /// This handle's id, unique within its runtime (assigned in mint
    /// order, starting at 0). Useful as a per-stream seed, e.g. for
    /// `workloads::Bench::client_generator`.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Invokes stored procedure `proc` with `args` and blocks until the
    /// transaction finishes: plans via the runtime's advisor, dispatches
    /// to the lock-free single-partition fast path or coordinates the
    /// distributed path (2PC, OP4 early prepare), restarts transparently
    /// on mispredicts, and falls back to a lock-all plan after
    /// `LiveConfig::max_restarts`.
    ///
    /// Returns [`TxnOutcome::Committed`] or [`TxnOutcome::UserAborted`];
    /// `Err` means the transaction could not be completed — an
    /// unrecoverable abort inside the engine, or the runtime shut down
    /// while the call was in flight (calls racing
    /// [`LiveRuntime::shutdown`] fail cleanly, they never hang).
    ///
    /// The transaction's counters (commit/abort, latency, restarts, OP
    /// tallies) are folded into the runtime-wide metrics before the call
    /// returns, so [`LiveRuntime::metrics`] sees it immediately.
    #[allow(clippy::too_many_lines)]
    pub fn call(&mut self, proc: ProcId, args: Vec<Value>) -> Result<TxnOutcome> {
        let env = Arc::clone(&self.shared);
        let env = &*env;
        // Per-call tallies live in cheap locals (plus this handle's reused
        // sample buffer) and fold into the shared RunMetrics once, under a
        // single lock section at the end — the fast path allocates no
        // per-call metrics scratch.
        let mut fb_dropped = 0u64;
        let mut restarts = 0u64;
        self.lock_holds.clear();
        // The request is `None` only while a fast-path message is in
        // flight — a `Mispredict` reply hands it back.
        let mut req = Some(Request { proc, args, origin_node: 0 });
        let ctx = PlanContext {
            catalog: &env.catalog,
            num_partitions: env.num_partitions,
            random_local_partition: self.rng.gen_range(0..env.num_partitions),
        };
        let t0 = Instant::now();
        let mut acc = StageAcc::default();
        let (mut plan, mut session) = env.advisor.plan_live_reusing(
            req.as_ref().expect("request in hand"),
            &ctx,
            self.spare.remove(&proc),
        );
        acc.est_us += us_since(t0);
        let mut attempt = 0u32;
        // Ends with the final attempt's outcome, footprint and latency.
        let result = loop {
            plan.lock_set.insert(plan.base_partition);
            let outcome = if plan.lock_set.is_single() {
                let base = plan.base_partition as usize;
                // The request, plan, and session all *move* into the
                // message (the plan is `Copy`, the reply slot an `Arc`
                // clone): the steady-state send is allocation-free.
                let t_send = Instant::now();
                let msg = SingleMsg {
                    req: req.take().expect("request in hand"),
                    plan,
                    session,
                    reply: Arc::clone(&self.reply),
                    enqueued: t_send,
                };
                if let Err(e) = send_on_lane(&mut self.lanes, &env.workers, base, msg) {
                    break Err(e);
                }
                let got = {
                    let lane = self.lanes[base].as_ref().expect("lane just used");
                    // If the worker retired this lane at shutdown with the
                    // message still buffered, no reply ever comes — the
                    // abandoned check turns that race into a clean error.
                    self.reply.take_or_abandon(|| lane.is_closed())
                };
                match got {
                    Some(SingleReply::Done { committed, session, fp, times, ticket }) => {
                        acc.fold_reply(times, us_since(t_send));
                        // A durable writer was acknowledged as soon as its
                        // worker logged it; the call returns once a device
                        // flush covers that record.
                        if let (Some(d), Some(t)) = (&env.durable, ticket) {
                            d.wait_durable(t, &mut acc);
                        }
                        Attempt::Done { committed, fp, session }
                    }
                    Some(SingleReply::Mispredict { req: r, observed, session, times }) => {
                        acc.fold_reply(times, us_since(t_send));
                        req = Some(r);
                        Attempt::Mispredict { observed, session }
                    }
                    Some(SingleReply::Fatal(e)) => Attempt::Fatal(e),
                    None => Attempt::Fatal(Error::Other(format!("worker {base} hung up"))),
                }
            } else {
                run_distributed(
                    env,
                    req.as_ref().expect("request in hand"),
                    &plan,
                    session,
                    &mut self.lock_holds,
                    &mut self.frag_ports,
                    &mut acc,
                )
            };
            match outcome {
                Attempt::Done { committed, fp, session: s } => {
                    let outcome =
                        if committed { TxnOutcome::Committed } else { TxnOutcome::UserAborted };
                    self.end_session(proc, s, outcome, &mut fb_dropped);
                    break Ok((outcome, fp, us_since(t0)));
                }
                Attempt::Mispredict { observed, session: s } => {
                    restarts += 1;
                    // The superseded session's executed prefix is
                    // maintenance signal (§4.5) before the replan replaces
                    // it; its plan scratch is reclaimed for the retry's
                    // session. (Riding it into the retry would concatenate
                    // two walks into one feedback path and intern phantom
                    // states.)
                    self.end_session(proc, s, TxnOutcome::Mispredicted, &mut fb_dropped);
                    let r = req.as_ref().expect("request survives a mispredict");
                    let t_est = Instant::now();
                    let max = env.cfg.max_restarts;
                    session = replan(&env.advisor, r, &ctx, observed, &mut attempt, max, &mut plan);
                    acc.est_us += us_since(t_est);
                }
                Attempt::Fatal(e) => break Err(e),
            }
        };
        // Fold this transaction's tallies into the run-wide counters even
        // on an error path: restarts that happened are real. Per-stage
        // attribution (Fig. 11): whatever the staged accumulators didn't
        // claim of the call's wall time — channel hops outside a timed
        // region, fatal-path teardown — is `Other`.
        // One lock section; a worker that panicked mid-call poisons this
        // mutex, but the counters stay consistent (all updates additive)
        // and calls racing a teardown must not turn one panic into many.
        let total_us = us_since(t0);
        let mut m = env.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.restarts += restarts;
        m.feedback_dropped += fb_dropped;
        for &us in &self.lock_holds {
            m.lock_hold.record_us(us);
        }
        if let Ok((outcome, fp, latency_us)) = &result {
            let committed = *outcome == TxnOutcome::Committed;
            m.record_txn(proc, &plan, committed, fp, env.num_partitions, Some(*latency_us));
        }
        let p = &mut m.profile;
        p.add(proc, Bucket::Estimation, acc.est_us);
        p.add(proc, Bucket::Execution, acc.exec_us);
        p.add(proc, Bucket::Coordination, acc.coord_us);
        p.add_coord(proc, CoordSub::LockWait, acc.lock_us);
        p.add_coord(proc, CoordSub::TwoPc, acc.twopc_us);
        p.add_coord(proc, CoordSub::Flush, acc.flush_us);
        p.add(proc, Bucket::Queueing, acc.queue_us);
        let known = acc.est_us + acc.exec_us + acc.coord_us + acc.queue_us;
        p.add(proc, Bucket::Other, (total_us - known).max(0.0));
        p.finish_txn(proc);
        drop(m);
        result.map(|(outcome, ..)| outcome)
    }
}

impl<A: LiveAdvisor + 'static> Drop for Client<A> {
    /// Retires this handle's lanes: dropping a producer marks the lane
    /// closed, and the follow-up ring gives a parked worker the wake-up
    /// it needs to observe that and drop its consumer — the drop
    /// handshake the ring model checks (drop strictly before ring).
    fn drop(&mut self) {
        for (p, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(producer) = lane.take() {
                drop(producer);
                self.shared.workers[p].bell.ring();
            }
        }
        for (p, port) in self.frag_ports.iter_mut().enumerate() {
            if let Some(port) = port.take() {
                drop(port);
                self.shared.workers[p].bell.ring();
            }
        }
    }
}
