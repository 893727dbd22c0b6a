//! The [`Client`] handle: plan, dispatch, retry, and fold one call's metrics.

use super::coord::{run_distributed, Attempt, StageAcc};
use super::lifecycle::Shared;
use super::wire::{us_since, Call, Conns, Reply, SingleMsg};
#[cfg(doc)]
use super::LiveRuntime;
use crate::advisor::{LiveAdvisor, PlanContext, Request, TxnOutcome};
use crate::profiler::Bucket;
use crate::txn::replan;
use common::sync::atomic::Ordering;
use common::sync::{Arc, PoisonError};
use common::{derive_seed, seeded_rng, Error, ProcId, Result, Value};
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
    /// One connection per worker this handle has talked to, opened on
    /// first contact; fast-path calls and fragment commands share it.
    /// Dropping the handle closes them all ([`Conns`]).
    conns: Conns<A::Session>,
    /// A reclaimed advisor session: the next call reuses its buffers
    /// instead of allocating fresh (see [`LiveAdvisor::plan_live_reusing`]).
    /// Buffer capacity only grows, so one spare serves every procedure.
    spare: Option<A::Session>,
    /// Reused buffer of lock-hold samples from distributed attempts,
    /// folded under the metrics lock once per call.
    lock_holds: Vec<f64>,
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
            conns: Conns::new(shared.num_partitions as usize),
            spare: None,
            lock_holds: Vec::new(),
            shared: Arc::clone(shared),
            id,
        }
    }

    /// Session teardown: the advisor's feedback record heads for the
    /// maintenance thread — `try_send` keeps the acknowledgement latency
    /// independent of maintenance (the thread drains on its own tick, so
    /// the send wakes no one), a full channel sheds the record into
    /// `fb_dropped` — and the spent session becomes the spare unless one
    /// is already kept.
    fn end_session(&mut self, session: A::Session, outcome: TxnOutcome, fb_dropped: &mut u64) {
        let (record, reclaimed) = self.shared.advisor.end_live_reclaim(session, outcome);
        if let (Some(tx), Some(rec)) = (self.shared.fb_tx.as_ref(), record) {
            if tx.try_send(rec).is_err() {
                *fb_dropped += 1;
            }
        }
        if self.spare.is_none() {
            self.spare = reclaimed;
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
    /// on mispredicts, and falls back to a lock-all plan after two
    /// restarts.
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
        let parks = self.conns.parks();
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
            self.spare.take(),
        );
        acc.add(Bucket::Estimation, us_since(t0));
        let mut attempt = 0u32;
        // Ends with the final attempt's outcome, footprint and latency.
        let result = loop {
            let outcome = if plan.lock_set.is_single() {
                let base = plan.base_partition as usize;
                // The request, plan, and session all *move* into the
                // message (the plan is `Copy`): the steady-state send is
                // allocation-free.
                let t_send = Instant::now();
                let msg = SingleMsg {
                    req: req.take().expect("request in hand"),
                    plan,
                    session,
                    enqueued: t_send,
                };
                if let Err(e) = self.conns.send(&env.workers, base, Call::Single(msg)) {
                    break Err(e);
                }
                // A worker that shuts down or dies with the call still
                // unanswered closes the connection: `None`, a clean error.
                match self.conns.recv(base) {
                    Some(Reply::Done { committed, session, fp, times, ticket }) => {
                        acc.add_round_trip(times, us_since(t_send));
                        // A durable writer was acknowledged as soon as its
                        // worker logged it; the call returns once a device
                        // flush covers that record.
                        if let (Some(d), Some(t)) = (&env.durable, ticket) {
                            d.wait_durable(t, &mut acc);
                        }
                        Attempt::Done { committed, fp, session }
                    }
                    Some(Reply::Mispredict { req: r, observed, session, times }) => {
                        acc.add_round_trip(times, us_since(t_send));
                        req = Some(r);
                        Attempt::Mispredict { observed, session }
                    }
                    Some(Reply::Fatal(e)) => Attempt::Fatal(e),
                    Some(_) => Attempt::Fatal(Error::Other("fast-path protocol violation".into())),
                    None => Attempt::Fatal(Error::Other(format!("worker {base} hung up"))),
                }
            } else {
                run_distributed(
                    env,
                    req.as_ref().expect("request in hand"),
                    &plan,
                    session,
                    &mut self.lock_holds,
                    &mut self.conns,
                    &mut acc,
                )
            };
            match outcome {
                Attempt::Done { committed, fp, session: s } => {
                    let outcome =
                        if committed { TxnOutcome::Committed } else { TxnOutcome::UserAborted };
                    self.end_session(s, outcome, &mut fb_dropped);
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
                    self.end_session(s, TxnOutcome::Mispredicted, &mut fb_dropped);
                    let r = req.as_ref().expect("request survives a mispredict");
                    let t_est = Instant::now();
                    session = replan(&env.advisor, r, &ctx, observed, &mut attempt, &mut plan);
                    acc.add(Bucket::Estimation, us_since(t_est));
                }
                Attempt::Fatal(e) => break Err(e),
            }
        };
        // Fold this transaction's tallies into the run-wide counters even
        // on an error path: restarts that happened are real. Per-stage
        // attribution (Fig. 11): whatever the call's row didn't claim
        // of the call's wall time — channel hops outside a timed
        // region, fatal-path teardown — is `Other`.
        // One lock section; a worker that panicked mid-call poisons this
        // mutex, but the counters stay consistent (all updates additive)
        // and calls racing a teardown must not turn one panic into many.
        let total_us = us_since(t0);
        let mut m = env.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.restarts += restarts;
        m.feedback_dropped += fb_dropped;
        m.reply_parks += self.conns.parks() - parks;
        for &us in &self.lock_holds {
            m.lock_hold.record_us(us);
        }
        if let Ok((outcome, fp, latency_us)) = &result {
            let committed = *outcome == TxnOutcome::Committed;
            m.record_txn(proc, &plan, committed, fp, env.num_partitions, Some(*latency_us));
        }
        m.profile.fold(proc, &acc, total_us);
        drop(m);
        result.map(|(outcome, ..)| outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{LiveConfig, LiveRuntime};
    use super::*;
    use crate::procedure::testing::{kv_database, multi_get};
    use crate::procedure::ProcedureRegistry;
    use crate::TxnPlan;
    use common::PartitionSet;

    /// Plans every call single-partition at its first id's partition.
    struct ByFirstId;

    impl LiveAdvisor for ByFirstId {
        type Session = ();

        fn name(&self) -> &str {
            "by-first-id"
        }

        fn plan_live_reusing(
            &self,
            req: &Request,
            ctx: &PlanContext<'_>,
            _spare: Option<()>,
        ) -> (TxnPlan, ()) {
            let ids = req.args[0].as_array().expect("arg 0 is id array");
            (TxnPlan::single(ids[0].home_partition(ctx.num_partitions)), ())
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
    fn worker_death_fails_calls_on_its_partition_only() {
        // `MultiGet` whose `start` panics when given a second argument: on
        // the fast path it runs on the worker thread, so the marked call
        // kills partition 0's worker mid-call.
        let mut proc = multi_get();
        proc.start = |args| {
            if args.len() > 1 {
                panic!("worker-death marker");
            }
            (multi_get().start)(args)
        };
        let registry = ProcedureRegistry::new(vec![proc]);
        let rt = LiveRuntime::start(kv_database(2, 8), registry, ByFirstId, LiveConfig::default());
        let mut client = rt.client();
        let at = |id| vec![Value::Array(vec![Value::Int(id)])];
        assert_eq!(client.call(0, at(0)).expect("worker 0 serves"), TxnOutcome::Committed);
        let mut marked = at(0);
        marked.push(Value::Int(0));
        assert!(client.call(0, marked).is_err(), "the call that killed worker 0 returned Ok");
        assert!(client.call(0, at(2)).is_err(), "a call to the dead worker returned Ok");
        let mut other = rt.client();
        assert!(other.call(0, at(0)).is_err(), "a new client's call there returned Ok");
        for id in [1, 3] {
            assert_eq!(client.call(0, at(id)).expect("worker 1 serves"), TxnOutcome::Committed);
        }
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown()));
        let panic = joined.err().expect("shutdown must re-raise the worker's panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"worker-death marker"));
    }
}
