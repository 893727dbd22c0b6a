//! The advisor interface: where transaction predictions enter the engine.
//!
//! There is one contract, [`LiveAdvisor`], and both engines drive it: the
//! live runtime from many client threads at once, the simulator from its
//! single event loop. Before a transaction starts, the engine asks the
//! advisor for a [`TxnPlan`] — the base partition (OP1), the partitions to
//! lock (OP2), and whether to disable undo logging from the start (OP3) —
//! plus a per-transaction session. While the transaction runs, the engine
//! reports every executed query back through
//! [`LiveAdvisor::on_query_live`], and the advisor may respond with
//! runtime updates (§4.4): disable undo logging now (OP3) or declare
//! partitions finished so the engine can early-prepare them and release
//! their locks (OP4). Tearing the session down yields the
//! [`TxnFeedback`] that on-line maintenance (§4.5) learns from.
//!
//! The paper's baselines implement the trait in [`crate::baselines`];
//! Houdini implements it in the `houdini` crate.

use crate::catalog::Catalog;
use crate::exec::ExecutedQuery;
use crate::metrics::MaintenanceReport;
use crate::procedure::ProcedureRegistry;
use common::{NodeId, PartitionId, PartitionSet, ProcId, QueryId, Value};
use storage::Database;

/// A client's transaction request: pre-defined procedure name (by id) plus
/// input parameters, arriving at some node.
#[derive(Debug, Clone)]
pub struct Request {
    /// Stored procedure to invoke.
    pub proc: ProcId,
    /// Procedure input parameters.
    pub args: Vec<Value>,
    /// Node where the request arrived.
    pub origin_node: NodeId,
}

/// The advisor's initial decisions for one transaction.
///
/// `Copy`: every field is a small scalar or bitset, and the live fast path
/// moves a plan into each worker message — keeping it `Copy` pins that at
/// zero allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnPlan {
    /// Partition whose node runs the control code (OP1).
    pub base_partition: PartitionId,
    /// Partitions to lock before starting (OP2). Must contain
    /// `base_partition`.
    pub lock_set: PartitionSet,
    /// Start with undo logging off (OP3).
    pub disable_undo: bool,
    /// Whether the advisor will emit finished-partition updates (OP4).
    pub early_prepare: bool,
    /// Simulated cost of producing this estimate, charged to the
    /// "estimation" profiler bucket (Fig. 11).
    pub estimate_cost_us: f64,
    /// The advisor served this plan from a table of its earlier plans
    /// instead of estimating; counted per procedure in
    /// [`crate::RunMetrics::est_reused_by_proc`].
    pub estimate_reused: bool,
}

impl TxnPlan {
    /// A conservative plan: lock everything, keep undo, no early prepare.
    pub fn lock_all(base: PartitionId, num_partitions: u32) -> Self {
        TxnPlan {
            base_partition: base,
            lock_set: PartitionSet::all(num_partitions),
            disable_undo: false,
            early_prepare: false,
            estimate_cost_us: 0.0,
            estimate_reused: false,
        }
    }

    /// A single-partition plan at `base`.
    pub fn single(base: PartitionId) -> Self {
        TxnPlan {
            base_partition: base,
            lock_set: PartitionSet::single(base),
            disable_undo: false,
            early_prepare: false,
            estimate_cost_us: 0.0,
            estimate_reused: false,
        }
    }
}

/// Runtime updates the advisor hands back after observing a query (§4.4).
#[derive(Debug, Clone, Default)]
pub struct Updates {
    /// Partitions the transaction is now predicted to be finished with; the
    /// engine early-prepares them and releases their locks (OP4).
    pub finished: PartitionSet,
    /// Disable undo logging from this point on (OP3).
    pub disable_undo: bool,
    /// Simulated cost of computing these updates (estimation bucket).
    pub cost_us: f64,
}

/// The last-access OP4 plan of a predicted path (§4.4): entry `i` holds
/// the partitions that step `i` touches and no later step does, so each
/// can early-prepare once step `i` has executed.
pub fn last_access_finish_plan(steps: &[PartitionSet]) -> Vec<PartitionSet> {
    let mut plan = vec![PartitionSet::EMPTY; steps.len()];
    let mut later = PartitionSet::EMPTY;
    for (fin, &step) in plan.iter_mut().zip(steps).rev() {
        *fin = step.difference(later);
        later = later.union(step);
    }
    plan
}

/// How a transaction finished, reported back to the advisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed.
    Committed,
    /// Control code aborted (user abort); not restarted.
    UserAborted,
    /// This *attempt* aborted on a lock-set mispredict and its session is
    /// being torn down before the replan; the executed prefix is still
    /// maintenance signal (§4.5) but no commit/abort was reached.
    Mispredicted,
}

/// Structured per-transaction path feedback handed back from session
/// teardown ([`LiveAdvisor::end_live_reclaim`]) to the advisor's
/// [`LiveMaintainer`] (§4.5) — over the live runtime's bounded feedback
/// channel, or directly in the simulator.
#[derive(Debug, Clone)]
pub struct TxnFeedback {
    /// Procedure executed.
    pub proc: ProcId,
    /// Model index the advisor selected for this transaction.
    pub model: u32,
    /// Advisor epoch the transaction planned against (see
    /// [`common::EpochCell`]); accuracy is attributed per epoch.
    pub epoch: u64,
    /// The actually-executed path: one `(query, partitions)` entry per
    /// executed query invocation, in order.
    pub path: Vec<(QueryId, PartitionSet)>,
    /// `Some(committed)` when the transaction finished; `None` for a
    /// mispredict-aborted attempt (prefix only, no terminal edge).
    pub terminal: Option<bool>,
}

/// On-line model maintenance (§4.5). The engine obtains one maintainer
/// from [`LiveAdvisor::maintainer`], feeds it every [`TxnFeedback`] record
/// session teardown emits, and collects the final report when the run ends:
/// [`crate::LiveRuntime`] does so on a background thread (records in
/// channel-arrival order), [`crate::Simulation`] synchronously (records in
/// issue order). The maintainer may publish new model epochs at any point;
/// in-flight transactions keep the snapshot they planned with.
pub trait LiveMaintainer: Send {
    /// Consumes one feedback record, possibly recomputing stale models and
    /// publishing a new epoch.
    fn absorb(&mut self, feedback: TxnFeedback);

    /// Counters accumulated so far (queried once, at shutdown).
    fn report(&self) -> MaintenanceReport;
}

/// What an advisor can see when planning. There is no database handle: in
/// the live runtime the storage shards are owned by the worker threads, so
/// planning must depend only on immutable, shared state (catalog, trained
/// models) plus the request itself. (The simulator, which does own its
/// database, lends it through [`LiveAdvisor::plan_with_database`].)
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// Procedure/query metadata.
    pub catalog: &'a Catalog,
    /// Number of partitions in the cluster.
    pub num_partitions: u32,
    /// Random value in `[0, num_partitions)` the advisor may use for
    /// random-placement policies; pre-drawn per request so advisors stay
    /// deterministic.
    pub random_local_partition: PartitionId,
}

/// The prediction interface, thread-safe by construction.
///
/// The advisor itself is shared immutably across every client and worker
/// thread (`&self`, `Sync`), and all per-transaction scratch state lives in
/// an explicit [`LiveAdvisor::Session`] value that travels with the
/// transaction — to the owning worker for single-partition work, or staying
/// with the coordinator for distributed work. A trained advisor therefore
/// serves the whole cluster concurrently, and the single-threaded
/// simulator drives the very same calls. State an advisor shares between
/// transactions is its own to synchronise: Houdini's per-epoch plan table
/// takes a read lock per plan and a write lock per stored plan.
///
/// On-line model maintenance (§4.5) runs *beside* traffic rather than
/// inside it: session teardown returns structured [`TxnFeedback`], the
/// engine hands it to the advisor's [`LiveMaintainer`] (the live runtime
/// over a bounded channel to a background thread, the simulator inline),
/// and the maintainer publishes rebuilt models as new epochs that fresh
/// transactions pick up (epoch-swapped advisor state; see DESIGN.md §5).
pub trait LiveAdvisor: Send + Sync {
    /// Per-transaction scratch state carried from planning through
    /// `on_query_live` to `end_live_reclaim`. Sessions travel to worker
    /// threads owned by a [`crate::LiveRuntime`], so they must be
    /// self-contained (`'static`): anything borrowed from the advisor has
    /// to ride in an `Arc` snapshot instead of a reference.
    type Session: Send + 'static;

    /// Advisor name for reports.
    fn name(&self) -> &str;

    /// Produces the initial plan and session for a new request. `spare` is
    /// a session reclaimed by [`LiveAdvisor::end_live_reclaim`] from an
    /// earlier transaction, of any procedure, on the *same client* (`None`
    /// when the caller keeps no spare). Advisors with allocation-heavy
    /// sessions graft the spare's already-sized buffers into the fresh
    /// session; the rest drop it. A spare is raw capacity (maps, vectors):
    /// no prediction state survives the graft, so its decisions and walk
    /// are rebuilt for this request.
    fn plan_live_reusing(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        spare: Option<Self::Session>,
    ) -> (TxnPlan, Self::Session);

    /// [`LiveAdvisor::plan_live_reusing`] for an engine that can lend the
    /// advisor its database — the simulator, which owns all storage on one
    /// thread. Only an advisor that needs ground truth
    /// ([`crate::baselines::Oracle`]) overrides this; the default plans
    /// exactly as the live runtime would.
    fn plan_with_database(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        _db: &mut Database,
        _registry: &ProcedureRegistry,
    ) -> (TxnPlan, Self::Session) {
        self.plan_live_reusing(req, ctx, None)
    }

    /// Observes one executed query; returns runtime updates. Default: none.
    fn on_query_live(&self, _session: &mut Self::Session, _q: &ExecutedQuery) -> Updates {
        Updates::default()
    }

    /// Produces a new plan after a mispredict abort. `observed` is the union
    /// of partitions the transaction touched (or tried to touch) before
    /// aborting; `attempt` counts restarts so far (first restart = 1).
    fn replan_live(
        &self,
        req: &Request,
        observed: PartitionSet,
        attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, Self::Session);

    /// Session teardown: the transaction (or mispredicted attempt)
    /// finished. May yield structured path feedback for the maintainer,
    /// and may hand the spent session back so the caller can keep it for
    /// its next [`LiveAdvisor::plan_live_reusing`].
    /// Default: nothing to learn, nothing to reclaim.
    fn end_live_reclaim(
        &self,
        _session: Self::Session,
        _outcome: TxnOutcome,
    ) -> (Option<TxnFeedback>, Option<Self::Session>) {
        (None, None)
    }

    /// The advisor's maintenance driver, if it learns from feedback.
    /// Called once per run; `None` (the default) disables the feedback
    /// path (and the live runtime's maintenance thread) entirely.
    fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
        None
    }
}

/// Sharing an advisor between a [`crate::LiveRuntime`] (which takes its
/// advisor by value) and other owners — a second runtime window, accuracy
/// probes, training inspection — works by wrapping it in an [`Arc`](std::sync::Arc): the
/// handle delegates every call to the inner advisor.
impl<A: LiveAdvisor> LiveAdvisor for std::sync::Arc<A> {
    type Session = A::Session;

    fn name(&self) -> &str {
        (**self).name()
    }

    fn plan_live_reusing(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        spare: Option<Self::Session>,
    ) -> (TxnPlan, Self::Session) {
        (**self).plan_live_reusing(req, ctx, spare)
    }

    fn plan_with_database(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        db: &mut Database,
        registry: &ProcedureRegistry,
    ) -> (TxnPlan, Self::Session) {
        (**self).plan_with_database(req, ctx, db, registry)
    }

    fn on_query_live(&self, session: &mut Self::Session, q: &ExecutedQuery) -> Updates {
        (**self).on_query_live(session, q)
    }

    fn replan_live(
        &self,
        req: &Request,
        observed: PartitionSet,
        attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, Self::Session) {
        (**self).replan_live(req, observed, attempt, ctx)
    }

    fn end_live_reclaim(
        &self,
        session: Self::Session,
        outcome: TxnOutcome,
    ) -> (Option<TxnFeedback>, Option<Self::Session>) {
        (**self).end_live_reclaim(session, outcome)
    }

    fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
        (**self).maintainer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_constructors() {
        let p = TxnPlan::lock_all(2, 8);
        assert_eq!(p.lock_set.len(), 8);
        assert!(p.lock_set.contains(p.base_partition));
        let s = TxnPlan::single(3);
        assert!(s.lock_set.is_single());
        assert_eq!(s.base_partition, 3);
    }

    #[test]
    fn updates_default_is_empty() {
        let u = Updates::default();
        assert!(u.finished.is_empty());
        assert!(!u.disable_undo);
        assert_eq!(u.cost_us, 0.0);
    }
}
