//! Off-line accuracy evaluation (paper §6.2, Table 3).
//!
//! [`engine::replay`] runs every held-out record through the trained
//! [`Houdini`] on the engines' own transaction-step kernel, and
//! [`evaluate_accuracy`] folds the decision records it returns. Each record
//! gets one plan, with a `random_local_partition` drawn per record from a
//! seeded stream as a `Client` draws it; then its batches run in order.
//! Restarts are batch-granular, as in both engines: a batch is checked
//! whole before it runs, and what it declares finished is released only
//! from the next batch.
//!
//! A record is accurate when Houdini (1) identifies the optimizations at
//! the correct moment (OP3), (2) causes no unnecessary work (OP1 — a
//! most-accessed base partition, where "not applicable" counts as right;
//! OP2 — no unused locked partition), and (3) causes no restart (OP2 — no
//! unpredicted partition, OP4 — no access to a released partition). OP3 is
//! wrong when undo logging was off and the attempt aborted or restarted:
//! stricter than the engine, which halts only on an unlogged write, since
//! §6.2 scores the decision, not whether the record wrote before it ended.
//! No maintainer runs, so models are *not* updated between records (§6.2).
//! Records of disabled procedures are skipped.

use crate::Houdini;
use common::seeded_rng;
use engine::{replay, Accesses, Decision, PlanContext, TxnOutcome};
use rand::Rng;
use trace::TraceRecord;

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
    /// Counts one record's decisions, against what the whole `record`
    /// touches.
    fn add(mut self, d: &Decision, record: &Accesses, num_partitions: u32) -> Self {
        let op1 = record.base_is_best(d.plan.base_partition, num_partitions) != Some(false);
        let op2 = d.plan.lock_set == record.touched;
        let op3 = !(d.footprint.undo_disabled_ever && d.outcome != TxnOutcome::Committed);
        // Every target up to the offender was locked: it hit a release.
        let op4 = d.observed.is_none_or(|seen| !seen.is_subset(d.plan.lock_set));
        self.txns += 1;
        self.op1 += u64::from(op1);
        self.op2 += u64::from(op2);
        self.op3 += u64::from(op3);
        self.op4 += u64::from(op4);
        self.total += u64::from(op1 && op2 && op3 && op4);
        self
    }

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
    let num_partitions = houdini.num_partitions;
    let preds = houdini.live_predictors();
    let mut rng = seeded_rng(DRAW_SEED);
    let mut spare = None;
    test.iter().filter(|r| !preds[r.proc as usize].disabled).fold(
        AccuracyReport::default(),
        |rep, rec| {
            let ctx = PlanContext {
                catalog: &houdini.catalog,
                num_partitions,
                random_local_partition: rng.gen_range(0..num_partitions),
            };
            let d =
                replay(houdini, &ctx, rec, &mut spare).expect("Houdini's plans lock their base");
            let record = Accesses::of(houdini.catalog.proc(rec.proc), num_partitions, &rec.queries);
            rep.add(&d, &record, num_partitions)
        },
    )
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

    /// The six counters of [`tatp_global_accuracy_is_high`]'s setup, global
    /// and partitioned, as the per-query replay this module used to keep
    /// computed them: checking whole batches moves no TATP record.
    #[test]
    fn tatp_counters_are_pinned() {
        let parts = 4;
        let (catalog, records) = tatp_records(parts, 1200);
        let (train_recs, test_recs) = records.split_at(600);
        let wl = Workload { records: train_recs.to_vec() };
        let want = AccuracyReport { txns: 600, op1: 521, op2: 600, op3: 600, op4: 600, total: 521 };
        for partitioned in [false, true] {
            let preds = train(&catalog, parts, &wl, &TrainingConfig { partitioned });
            let h = Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default());
            assert_eq!(evaluate_accuracy(&h, test_recs), want, "partitioned: {partitioned}");
        }
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
