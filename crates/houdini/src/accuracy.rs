//! Off-line accuracy evaluation (paper §6.2, Table 3).
//!
//! An estimate is accurate when Houdini (1) identifies the optimizations at
//! the correct moment (OP3 — never disabling undo for a transaction that
//! aborts), (2) causes no unnecessary work (OP1 — right base partition,
//! OP2 — no unused locked partition), and (3) causes no restart (OP2 —
//! no unpredicted partition, OP4 — no access to a partition after declaring
//! it finished). Models are *not* updated between estimates, so deficiencies
//! are not masked by learning (§6.2).

use crate::modelset::{lock_set_for, CatalogRule};
use crate::train::{actual_of, base_is_best, ProcPredictor};
use common::{FxHashMap, PartitionSet, ProcId, QueryId};
use engine::{Catalog, CatalogResolver};
use markov::{estimate_path, EstimateConfig, QueryKind, VertexKey};
use trace::{PartitionResolver, TraceRecord};

/// Per-optimization accuracy over a test workset.
#[derive(Debug, Clone, Copy, Default)]
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

    /// Merges another report into this one (aggregating procedures).
    pub fn merge(&mut self, other: &AccuracyReport) {
        self.txns += other.txns;
        self.op1 += other.op1;
        self.op2 += other.op2;
        self.op3 += other.op3;
        self.op4 += other.op4;
        self.total += other.total;
    }
}

/// Evaluates one procedure's predictor on held-out records.
pub fn evaluate_accuracy(
    pred: &ProcPredictor,
    catalog: &Catalog,
    num_partitions: u32,
    proc: ProcId,
    test: &[&TraceRecord],
    threshold: f64,
) -> AccuracyReport {
    let mut rep = AccuracyReport::default();
    if pred.disabled {
        return rep;
    }
    let resolver = CatalogResolver::new(catalog, num_partitions);
    let rule = CatalogRule::new(catalog, proc, num_partitions);
    let est_cfg = EstimateConfig::default();
    for rec in test {
        rep.txns += 1;
        let idx = pred.models.select(&rec.params);
        let model = pred.models.model(idx);
        let est = estimate_path(model, &rule, &pred.mapping, &rec.params, &est_cfg);
        let actual = actual_of(rec, &resolver);

        let op1 = base_is_best(est.best_base(), &actual);
        let lock_set = {
            let mut s = lock_set_for(&est, model, threshold, num_partitions);
            if let Some(b) = est.best_base() {
                s.insert(b);
            }
            s
        };
        let op2 = lock_set == actual.touched;
        let would_disable = est.reached_commit && est.abort_prob < 1e-9;
        let op3 = !(would_disable && actual.aborted);
        let op4 = finish_predictions_safe(model, rec, &resolver, threshold);

        rep.op1 += u64::from(op1);
        rep.op2 += u64::from(op2);
        rep.op3 += u64::from(op3);
        rep.op4 += u64::from(op4);
        rep.total += u64::from(op1 && op2 && op3 && op4);
    }
    rep
}

/// Replays the record's actual path through the model's probability tables
/// and checks that no partition declared finished (finish probability above
/// the threshold, §4.4) is accessed again later — the OP4 mispredict that
/// forces an abort-and-restart.
fn finish_predictions_safe(
    model: &markov::MarkovModel,
    rec: &TraceRecord,
    resolver: &dyn PartitionResolver,
    threshold: f64,
) -> bool {
    let mut prev = PartitionSet::EMPTY;
    let mut counters: FxHashMap<QueryId, u16> = FxHashMap::default();
    let mut declared = PartitionSet::EMPTY;
    for q in &rec.queries {
        let parts = resolver.partitions(rec.proc, q.query, &q.params);
        // Accessing a declared-finished partition restarts the txn.
        if parts.intersect(declared) != PartitionSet::EMPTY {
            return false;
        }
        let counter = {
            let c = counters.entry(q.query).or_insert(0);
            let cur = *c;
            *c += 1;
            cur
        };
        let key = VertexKey {
            kind: QueryKind::Query(q.query),
            counter,
            partitions: parts,
            previous: prev,
        };
        prev = prev.union(parts);
        let Some(v) = model.find(&key) else {
            // Unknown state: no table, no declarations possible from here.
            continue;
        };
        let table = &model.vertex(v).table;
        for p in prev.iter() {
            if !declared.contains(p) && table.finish(p) > threshold {
                declared.insert(p);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainingConfig};
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
        let cfg = TrainingConfig { partitioned: false };
        let preds = train(&catalog, parts, &wl, &cfg);
        let mut agg = AccuracyReport::default();
        for (proc, pred) in preds.iter().enumerate() {
            let test: Vec<&TraceRecord> =
                test_recs.iter().filter(|r| r.proc == proc as u32).collect();
            let rep = evaluate_accuracy(pred, &catalog, parts, proc as u32, &test, 0.5);
            agg.merge(&rep);
        }
        assert!(agg.txns > 400);
        assert!(agg.op3_pct() > 99.0, "OP3 must never be fatally wrong");
        assert!(agg.total_pct() > 70.0, "overall accuracy {:.1}% too low", agg.total_pct());
    }

    #[test]
    fn disabled_predictor_reports_zero_txns() {
        let (catalog, records) = tatp_records(2, 50);
        // A procedure with no training records is disabled.
        let (tested, trained): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r.proc == 3);
        assert!(!tested.is_empty());
        let preds = train(&catalog, 2, &Workload { records: trained }, &TrainingConfig::default());
        assert!(preds[3].disabled);
        let refs: Vec<&TraceRecord> = tested.iter().collect();
        let rep = evaluate_accuracy(&preds[3], &catalog, 2, 3, &refs, 0.5);
        assert_eq!(rep.txns, 0);
    }
}
