//! Off-line accuracy evaluation (paper §6.2, Table 3).
//!
//! Every held-out record is replayed through the trained [`Houdini`] the
//! way the engine drives it: one [`LiveAdvisor::plan_live_reusing`] per
//! record, with a `random_local_partition` drawn per record from a seeded
//! stream as a `Client` draws it, then one [`LiveAdvisor::on_query_live`]
//! per recorded query. The decisions scored are the ones those calls
//! return, so the report measures the advisor that runs.
//!
//! A record is accurate when Houdini (1) identifies the optimizations at
//! the correct moment (OP3 — undo logging is never off when the attempt
//! aborts or restarts), (2) causes no unnecessary work (OP1 — a
//! most-accessed base partition, OP2 — no unused locked partition), and
//! (3) causes no restart (OP2 — no unpredicted partition, OP4 — no access
//! to a partition after declaring it finished). Scoring stops where the
//! engine would restart: at a query outside the lock set, or at one that
//! touches a partition already declared finished. No maintainer runs, so
//! models are *not* updated between records and deficiencies are not
//! masked by learning (§6.2). Records of disabled procedures are skipped.

use crate::train::{actual_of, base_is_best};
use crate::Houdini;
use common::{seeded_rng, PartitionSet};
use engine::{CatalogResolver, ExecutedQuery, LiveAdvisor, PlanContext, Request, TxnOutcome};
use rand::Rng;
use trace::{PartitionResolver, TraceRecord};

/// Seed of the per-record `random_local_partition` stream.
const DRAW_SEED: u64 = 0xACC;

/// Per-optimization accuracy over a test workset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccuracyReport {
    /// Transactions evaluated.
    pub txns: u64,
    /// OP1 (base partition) correct.
    pub op1: u64,
    /// OP2 (lock set) exactly right.
    pub op2: u64,
    /// OP3 (undo logging) safe.
    pub op3: u64,
    /// OP4 (early prepare) caused no restart.
    pub op4: u64,
    /// All four correct.
    pub total: u64,
}

impl AccuracyReport {
    fn pct(n: u64, d: u64) -> f64 {
        if d == 0 {
            100.0
        } else {
            100.0 * n as f64 / d as f64
        }
    }

    /// OP1 percentage.
    pub fn op1_pct(&self) -> f64 {
        Self::pct(self.op1, self.txns)
    }
    /// OP2 percentage.
    pub fn op2_pct(&self) -> f64 {
        Self::pct(self.op2, self.txns)
    }
    /// OP3 percentage.
    pub fn op3_pct(&self) -> f64 {
        Self::pct(self.op3, self.txns)
    }
    /// OP4 percentage.
    pub fn op4_pct(&self) -> f64 {
        Self::pct(self.op4, self.txns)
    }
    /// Overall percentage.
    pub fn total_pct(&self) -> f64 {
        Self::pct(self.total, self.txns)
    }
}

/// Scores `houdini`'s decisions on held-out records, at the confidence
/// threshold of its `HoudiniConfig`.
pub fn evaluate_accuracy(houdini: &Houdini, test: &[TraceRecord]) -> AccuracyReport {
    let catalog = &houdini.catalog;
    let num_partitions = houdini.num_partitions;
    let resolver = CatalogResolver::new(catalog, num_partitions);
    let preds = houdini.live_predictors();
    let mut rng = seeded_rng(DRAW_SEED);
    let mut spare = None;
    let mut rep = AccuracyReport::default();
    for rec in test.iter().filter(|r| !preds[r.proc as usize].disabled) {
        let req = Request { proc: rec.proc, args: rec.params.clone(), origin_node: 0 };
        let ctx = PlanContext {
            catalog,
            num_partitions,
            random_local_partition: rng.gen_range(0..num_partitions),
        };
        let (mut plan, mut session) = houdini.plan_live_reusing(&req, &ctx, spare.take());
        plan.lock_set.insert(plan.base_partition);
        let mut undo_off = plan.disable_undo;
        let mut declared = PartitionSet::EMPTY;
        let (mut restarted, mut op4) = (false, true);
        for q in &rec.queries {
            let partitions = resolver.partitions(rec.proc, q.query, &q.params);
            if !partitions.is_subset(plan.lock_set) {
                restarted = true;
                break;
            }
            if !partitions.intersect(declared).is_empty() {
                (restarted, op4) = (true, false);
                break;
            }
            let executed = ExecutedQuery {
                query: q.query,
                params: q.params.clone(),
                partitions,
                is_write: catalog.proc(rec.proc).query(q.query).is_write(),
            };
            let upd = houdini.on_query_live(&mut session, &executed);
            undo_off |= upd.disable_undo;
            if plan.early_prepare && !plan.lock_set.is_single() {
                declared = declared.union(upd.finished);
            }
        }
        let outcome = match (restarted, rec.aborted) {
            (true, _) => TxnOutcome::Mispredicted,
            (false, true) => TxnOutcome::UserAborted,
            (false, false) => TxnOutcome::Committed,
        };
        spare = houdini.end_live_reclaim(session, outcome).1;

        let actual = actual_of(rec, &resolver);
        let op1 = base_is_best(Some(plan.base_partition), &actual);
        let op2 = plan.lock_set == actual.touched;
        // Rolling back an abort or a restart needs the undo log.
        let op3 = !(undo_off && (restarted || rec.aborted));
        rep.txns += 1;
        rep.op1 += u64::from(op1);
        rep.op2 += u64::from(op2);
        rep.op3 += u64::from(op3);
        rep.op4 += u64::from(op4);
        rep.total += u64::from(op1 && op2 && op3 && op4);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainingConfig};
    use crate::HoudiniConfig;
    use engine::Catalog;
    use trace::Workload;
    use workloads::{tatp, Bench};

    fn tatp_records(parts: u32, n: usize) -> (Catalog, Vec<TraceRecord>) {
        let reg = Bench::Tatp.registry();
        let mut gen = tatp::Generator::new(parts, 21);
        let wl = engine::collect_trace(&mut Bench::Tatp.database(parts), &reg, &mut gen, n, 8);
        (reg.catalog(), wl.records)
    }

    #[test]
    fn tatp_global_accuracy_is_high() {
        let parts = 4;
        let (catalog, records) = tatp_records(parts, 1200);
        let (train_recs, test_recs) = records.split_at(600);
        let wl = Workload { records: train_recs.to_vec() };
        let preds = train(&catalog, parts, &wl, &TrainingConfig { partitioned: false });
        let h = Houdini::new(preds, catalog, parts, HoudiniConfig::default());
        let rep = evaluate_accuracy(&h, test_recs);
        assert!(rep.txns > 400);
        assert_eq!(rep.op3_pct(), 100.0, "OP3 must never be fatally wrong");
        assert!(rep.total_pct() > 70.0, "overall accuracy {:.1}% too low", rep.total_pct());
    }

    #[test]
    fn disabled_predictor_reports_zero_txns() {
        let (catalog, records) = tatp_records(2, 50);
        // A procedure with no training records is disabled.
        let (tested, trained): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r.proc == 3);
        assert!(!tested.is_empty());
        let preds = train(&catalog, 2, &Workload { records: trained }, &TrainingConfig::default());
        assert!(preds[3].disabled);
        let h = Houdini::new(preds, catalog, 2, HoudiniConfig::default());
        assert_eq!(evaluate_accuracy(&h, &tested).txns, 0);
    }
}
