//! The paper's baseline execution strategies (§2.1, §6.4).
//!
//! * [`AssumeDistributed`] — every request locks all partitions (Fig. 3
//!   strategy 1).
//! * [`AssumeSinglePartition`] — every request runs as a single-partition
//!   transaction at a random partition on its arrival node, with DB2-style
//!   redirects/restarts when it deviates (Fig. 3 strategy 2, Fig. 12's
//!   "Assume Single-Partition").
//! * [`Oracle`] — the client tells the DBMS exactly which partitions each
//!   request needs and whether it aborts (Fig. 3's "Proper Selection", the
//!   best case). It dry-runs the procedure against the database the
//!   simulator lends it, which in the deterministic simulator yields ground
//!   truth.

use crate::advisor::{
    last_access_finish_plan, LiveAdvisor, PlanContext, Request, TxnPlan, Updates,
};
use crate::exec::{run_offline, ExecutedQuery};
use crate::procedure::ProcedureRegistry;
use common::{FxHashMap, PartitionId, PartitionSet};
use storage::Database;

/// Locks every partition for every transaction.
#[derive(Debug, Default)]
pub struct AssumeDistributed;

impl AssumeDistributed {
    /// New instance.
    pub fn new() -> Self {
        AssumeDistributed
    }
}

impl LiveAdvisor for AssumeDistributed {
    type Session = ();

    fn name(&self) -> &str {
        "assume-distributed"
    }

    fn plan_live_reusing(
        &self,
        _req: &Request,
        ctx: &PlanContext<'_>,
        _spare: Option<()>,
    ) -> (TxnPlan, ()) {
        (TxnPlan::lock_all(ctx.random_local_partition, ctx.num_partitions), ())
    }

    fn replan_live(
        &self,
        _req: &Request,
        _observed: PartitionSet,
        _attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, ()) {
        (TxnPlan::lock_all(ctx.random_local_partition, ctx.num_partitions), ())
    }
}

/// Runs everything single-partition at a random local partition and reacts
/// to deviations with DB2-style redirects: a transaction that touches one
/// other partition is restarted there; one that touches several is restarted
/// as a distributed transaction locking the partitions it tried to access
/// (escalating to lock-all if it deviates again).
#[derive(Debug, Default)]
pub struct AssumeSinglePartition;

impl AssumeSinglePartition {
    /// New instance.
    pub fn new() -> Self {
        AssumeSinglePartition
    }
}

/// The DB2-style escalation policy (§2.1): a transaction that touched one
/// other partition is redirected there; one that touched several is
/// restarted locking the partitions it tried to access, escalating to
/// lock-all after repeated violations.
fn asp_escalation(
    observed: PartitionSet,
    attempt: u32,
    random_local_partition: PartitionId,
    num_partitions: u32,
) -> TxnPlan {
    if attempt == 1 && observed.is_single() {
        // Wrong node only: redirect there, stay single-partition.
        TxnPlan::single(observed.first().unwrap())
    } else if attempt <= 3 && !observed.is_empty() {
        // Distributed: lock the partitions it tried to access so far;
        // each further violation re-learns and retries.
        TxnPlan {
            base_partition: observed.first().unwrap(),
            lock_set: observed,
            disable_undo: false,
            early_prepare: false,
            estimate_cost_us: 0.0,
            estimate_reused: false,
        }
    } else {
        TxnPlan::lock_all(observed.first().unwrap_or(random_local_partition), num_partitions)
    }
}

impl LiveAdvisor for AssumeSinglePartition {
    type Session = ();

    fn name(&self) -> &str {
        "assume-single-partition"
    }

    fn plan_live_reusing(
        &self,
        _req: &Request,
        ctx: &PlanContext<'_>,
        _spare: Option<()>,
    ) -> (TxnPlan, ()) {
        (TxnPlan::single(ctx.random_local_partition), ())
    }

    fn replan_live(
        &self,
        _req: &Request,
        observed: PartitionSet,
        attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, ()) {
        (asp_escalation(observed, attempt, ctx.random_local_partition, ctx.num_partitions), ())
    }
}

/// Perfect information: dry-runs the procedure to learn the exact partitions
/// it touches, whether it aborts, and when it is finished with each
/// partition. Zero estimation cost is charged, making this the upper bound
/// the paper's Fig. 3 calls "Proper Selection".
///
/// Ground truth needs the database, which only the simulator can lend
/// ([`LiveAdvisor::plan_with_database`]); asked to plan without one, the
/// oracle knows nothing and conservatively locks every partition.
#[derive(Debug, Default)]
pub struct Oracle {
    enable_early_prepare: bool,
}

/// The oracle's per-transaction finish plan.
#[derive(Debug, Default)]
pub struct OracleTxn {
    /// Entry `i` is the set of partitions never accessed strictly after
    /// query `i`.
    finish_plan: Vec<PartitionSet>,
    cursor: usize,
    base: PartitionId,
}

impl Oracle {
    /// New instance.
    pub fn new() -> Self {
        Oracle { enable_early_prepare: true }
    }

    /// Disables OP4 finish predictions (for ablations).
    pub fn without_early_prepare() -> Self {
        Oracle { enable_early_prepare: false }
    }
}

impl LiveAdvisor for Oracle {
    type Session = OracleTxn;

    fn name(&self) -> &str {
        "oracle"
    }

    fn plan_live_reusing(
        &self,
        _req: &Request,
        ctx: &PlanContext<'_>,
        _spare: Option<OracleTxn>,
    ) -> (TxnPlan, OracleTxn) {
        let plan = TxnPlan::lock_all(ctx.random_local_partition, ctx.num_partitions);
        (plan, OracleTxn::default())
    }

    fn plan_with_database(
        &self,
        req: &Request,
        ctx: &PlanContext<'_>,
        db: &mut Database,
        registry: &ProcedureRegistry,
    ) -> (TxnPlan, OracleTxn) {
        let outcome = run_offline(db, registry, ctx.catalog, req.proc, &req.args, false)
            .expect("oracle dry-run");
        // Count accesses per partition to pick the best base (OP1).
        let mut counts: FxHashMap<PartitionId, u32> = FxHashMap::default();
        let mut per_query: Vec<PartitionSet> = Vec::with_capacity(outcome.record.queries.len());
        for q in &outcome.record.queries {
            let def = ctx.catalog.proc(req.proc).query(q.query);
            let parts = def.estimate_partitions(db, &q.params);
            for p in parts.iter() {
                *counts.entry(p).or_insert(0) += 1;
            }
            per_query.push(parts);
        }
        let base = counts
            .iter()
            .max_by_key(|(p, c)| (**c, u32::MAX - **p)) // deterministic tiebreak: lowest id
            .map(|(p, _)| *p)
            .unwrap_or(ctx.random_local_partition);
        let finish_plan = last_access_finish_plan(&per_query);
        let single = outcome.touched.is_single();
        let plan = TxnPlan {
            base_partition: base,
            lock_set: if outcome.touched.is_empty() {
                PartitionSet::single(base)
            } else {
                outcome.touched
            },
            // OP3: safe only for committing single-partition transactions.
            disable_undo: outcome.committed && single,
            early_prepare: self.enable_early_prepare,
            estimate_cost_us: 0.0,
            estimate_reused: false,
        };
        (plan, OracleTxn { finish_plan, cursor: 0, base })
    }

    fn on_query_live(&self, txn: &mut OracleTxn, _q: &ExecutedQuery) -> Updates {
        let mut upd = Updates::default();
        if self.enable_early_prepare {
            if let Some(&fin) = txn.finish_plan.get(txn.cursor) {
                let mut fin = fin;
                fin.remove(txn.base);
                upd.finished = fin;
            }
        }
        txn.cursor += 1;
        upd
    }

    fn replan_live(
        &self,
        req: &Request,
        _observed: PartitionSet,
        _attempt: u32,
        ctx: &PlanContext<'_>,
    ) -> (TxnPlan, OracleTxn) {
        // The oracle only mispredicts if the database changed between the
        // dry-run and execution, which the sequential simulator precludes;
        // lock-all terminates regardless.
        self.plan_live_reusing(req, ctx, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::testing::{kv_database, kv_registry};
    use common::Value;

    fn env_fixture(parts: u32) -> (storage::Database, crate::ProcedureRegistry, crate::Catalog) {
        let db = kv_database(parts, 4);
        let reg = kv_registry();
        let cat = reg.catalog();
        (db, reg, cat)
    }

    /// The oracle's ground-truth plan for a MultiGet over `ids` at 4
    /// partitions.
    fn oracle_plan(ids: &[i64]) -> (TxnPlan, OracleTxn) {
        let (mut db, reg, cat) = env_fixture(4);
        let ctx = PlanContext { catalog: &cat, num_partitions: 4, random_local_partition: 0 };
        let req = Request {
            proc: 0,
            args: vec![Value::Array(ids.iter().map(|&i| Value::Int(i)).collect())],
            origin_node: 0,
        };
        Oracle::new().plan_with_database(&req, &ctx, &mut db, &reg)
    }

    #[test]
    fn oracle_plans_exact_lock_set() {
        let (plan, _) = oracle_plan(&[1, 2]);
        assert_eq!(plan.lock_set, PartitionSet::from_iter([1u32, 2]));
        assert!(!plan.disable_undo, "multi-partition keeps undo");
        assert!(plan.lock_set.contains(plan.base_partition));
    }

    #[test]
    fn oracle_disables_undo_for_single_partition() {
        let (plan, _) = oracle_plan(&[1, 5]); // both -> partition 1
        assert!(plan.lock_set.is_single());
        assert!(plan.disable_undo);
    }

    #[test]
    fn oracle_keeps_undo_for_aborting_txn() {
        // id 9999 missing -> control code aborts.
        let (plan, _) = oracle_plan(&[9999]);
        assert!(!plan.disable_undo);
    }

    #[test]
    fn oracle_finish_plan_marks_last_access() {
        // ids 1,2: queries are Get(1),Get(2),Bump(1),Bump(2); partition 1's
        // last access is query 2, partition 2's is query 3.
        let (_, txn) = oracle_plan(&[1, 2]);
        assert_eq!(txn.finish_plan.len(), 4);
        assert!(txn.finish_plan[0].is_empty());
        assert!(txn.finish_plan[1].is_empty());
        let union = txn.finish_plan[2].union(txn.finish_plan[3]);
        assert_eq!(union, PartitionSet::from_iter([1u32, 2]));
    }

    #[test]
    fn assume_sp_redirects_then_escalates() {
        let (_db, _reg, cat) = env_fixture(4);
        let ctx = PlanContext { catalog: &cat, num_partitions: 4, random_local_partition: 3 };
        let req = Request { proc: 0, args: vec![], origin_node: 0 };
        let a = AssumeSinglePartition::new();
        let (p0, ()) = a.plan_live_reusing(&req, &ctx, None);
        assert_eq!(p0.base_partition, 3);
        assert!(p0.lock_set.is_single());
        // Single wrong partition -> redirect.
        let (p1, ()) = a.replan_live(&req, PartitionSet::single(1), 1, &ctx);
        assert_eq!(p1.base_partition, 1);
        assert!(p1.lock_set.is_single());
        // Multiple -> lock observed.
        let (p2, ()) = a.replan_live(&req, PartitionSet::from_iter([1u32, 2]), 1, &ctx);
        assert_eq!(p2.lock_set.len(), 2);
        // Further deviations keep re-learning the observed set...
        let (p3, ()) = a.replan_live(&req, PartitionSet::from_iter([1u32, 2, 3]), 2, &ctx);
        assert_eq!(p3.lock_set.len(), 3);
        // ...until the escalation cap forces lock-all.
        let (p4, ()) = a.replan_live(&req, PartitionSet::from_iter([1u32, 2, 3]), 4, &ctx);
        assert_eq!(p4.lock_set.len(), 4);
    }

    #[test]
    fn assume_distributed_locks_all() {
        let (_db, _reg, cat) = env_fixture(8);
        let ctx = PlanContext { catalog: &cat, num_partitions: 8, random_local_partition: 2 };
        let req = Request { proc: 0, args: vec![], origin_node: 0 };
        let (plan, ()) = AssumeDistributed::new().plan_live_reusing(&req, &ctx, None);
        assert_eq!(plan.lock_set.len(), 8);
        assert_eq!(plan.base_partition, 2);
    }
}
