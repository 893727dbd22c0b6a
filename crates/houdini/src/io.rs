//! Trained-predictor persistence.
//!
//! The paper's deployment (Fig. 6) generates models off-line and provides
//! them to the Houdini instance on every node. This module serializes the
//! complete trained state — model sets (global, or partitioned with the
//! routing feature and its values), parameter mappings, and the
//! abort-safety metadata — so training can run once and ship everywhere.

use crate::modelset::ModelSet;
use crate::train::ProcPredictor;
use common::{Error, Result};
use std::io::{BufRead, Write};

/// Wire envelope: the cluster size the predictors were trained against plus
/// the per-procedure predictors.
#[derive(serde::Serialize, serde::Deserialize)]
struct PredictorBundle {
    num_partitions: u32,
    predictors: Vec<ProcPredictor>,
}

/// Serializes trained predictors as JSON into `w`.
pub fn save_predictors<W: Write>(
    predictors: &[ProcPredictor],
    num_partitions: u32,
    mut w: W,
) -> Result<()> {
    let bundle = PredictorBundle { num_partitions, predictors: predictors.to_vec() };
    let json = serde_json::to_string(&bundle).map_err(|e| Error::Serde(e.to_string()))?;
    w.write_all(json.as_bytes()).map_err(|e| Error::Serde(e.to_string()))
}

/// Deserializes trained predictors, rebuilding every model's vertex index.
/// Rejects bundles trained for a different cluster size (models must be
/// regenerated when the partitioning scheme changes, §3.1) and bundles
/// whose model sets are malformed, which would otherwise panic on the
/// first request they route.
pub fn load_predictors<R: BufRead>(
    mut r: R,
    expected_partitions: u32,
) -> Result<Vec<ProcPredictor>> {
    let mut buf = String::new();
    r.read_to_string(&mut buf).map_err(|e| Error::Serde(e.to_string()))?;
    let mut bundle: PredictorBundle =
        serde_json::from_str(&buf).map_err(|e| Error::Serde(e.to_string()))?;
    if bundle.num_partitions != expected_partitions {
        return Err(Error::Other(format!(
            "predictors were trained for {} partitions, cluster has {expected_partitions}; \
             retrain from the trace (§3.1)",
            bundle.num_partitions
        )));
    }
    for (proc, pred) in bundle.predictors.iter_mut().enumerate() {
        check_predictor(pred, bundle.num_partitions)
            .map_err(|e| Error::Other(format!("predictor {proc}: {e}")))?;
        pred.models.rebuild_indexes();
    }
    Ok(bundle.predictors)
}

/// The shape every later `select`/`model` call relies on: at least one
/// model, one model per route plus the fallback, routing hashed against
/// the bundle's cluster size, and one abort flag per model.
fn check_predictor(pred: &ProcPredictor, num_partitions: u32) -> std::result::Result<(), String> {
    let models = pred.models.len();
    if models == 0 {
        return Err("model set has no model".into());
    }
    if let ModelSet::Partitioned { routes, num_partitions: n, .. } = &pred.models {
        if models != routes.len() + 1 {
            return Err(format!("{models} models for {} routes plus the fallback", routes.len()));
        }
        if *n != num_partitions {
            return Err(format!("routes hashed for {n} partitions, bundle has {num_partitions}"));
        }
    }
    if pred.saw_abort.len() != models {
        return Err(format!("{} abort flags for {models} models", pred.saw_abort.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureCategory};
    use crate::train::{train, TrainingConfig};
    use crate::{evaluate_accuracy, AccuracyReport};
    use trace::{TraceRecord, Workload};
    use workloads::Bench;

    fn fixture(parts: u32, n: usize) -> (engine::Catalog, Vec<TraceRecord>) {
        let reg = Bench::Tpcc.registry();
        let mut gen = Bench::Tpcc.generator(parts, 17);
        let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &reg, &mut gen, n, 8);
        (reg.catalog(), wl.records)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let parts = 4;
        let (catalog, records) = fixture(parts, 1000);
        let (train_recs, test_recs) = records.split_at(500);
        let wl = Workload { records: train_recs.to_vec() };
        let preds = train(&catalog, parts, &wl, &TrainingConfig::default());

        let mut buf = Vec::new();
        save_predictors(&preds, parts, &mut buf).unwrap();
        let loaded = load_predictors(&buf[..], parts).unwrap();
        assert_eq!(loaded.len(), preds.len());

        // Accuracy of the loaded predictors matches the originals exactly.
        for (proc, (a, b)) in preds.iter().zip(&loaded).enumerate() {
            let test: Vec<&TraceRecord> =
                test_recs.iter().filter(|r| r.proc == proc as u32).collect();
            let ra: AccuracyReport = evaluate_accuracy(a, &catalog, parts, proc as u32, &test, 0.5);
            let rb: AccuracyReport = evaluate_accuracy(b, &catalog, parts, proc as u32, &test, 0.5);
            assert_eq!(ra.total, rb.total, "proc {proc}");
            assert_eq!(ra.op2, rb.op2, "proc {proc}");
        }
    }

    #[test]
    fn wrong_cluster_size_rejected() {
        let parts = 2;
        let (catalog, records) = fixture(parts, 200);
        let wl = Workload { records };
        let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
        let mut buf = Vec::new();
        save_predictors(&preds, parts, &mut buf).unwrap();
        assert!(load_predictors(&buf[..], 8).is_err());
    }

    #[test]
    fn malformed_bundles_rejected() {
        let parts = 2;
        let (catalog, records) = fixture(parts, 200);
        let mut preds = train(&catalog, parts, &Workload { records }, &TrainingConfig::default());
        // A well-formed one-route split of predictor 0, built by hand.
        let model = preds[0].models.model(0).clone();
        preds[0].models = ModelSet::Partitioned {
            feature: Feature { category: FeatureCategory::HashValue, param: 0 },
            routes: vec![Some(0.0)],
            models: vec![model.clone().into(), model.into()],
            num_partitions: parts,
        };
        preds[0].saw_abort = vec![false, false];
        let mut buf = Vec::new();
        save_predictors(&preds, parts, &mut buf).unwrap();
        assert!(load_predictors(&buf[..], parts).is_ok(), "the hand-built split is well formed");

        // Each edit of the saved bundle breaks one invariant.
        let edits: [fn(&mut ProcPredictor); 4] = [
            |p| {
                if let ModelSet::Partitioned { models, .. } = &mut p.models {
                    models.clear();
                }
            },
            |p| {
                if let ModelSet::Partitioned { routes, .. } = &mut p.models {
                    routes.push(Some(1.0));
                }
            },
            |p| {
                if let ModelSet::Partitioned { num_partitions, .. } = &mut p.models {
                    *num_partitions = 8;
                }
            },
            |p| {
                p.saw_abort.pop();
            },
        ];
        let saved = std::str::from_utf8(&buf).unwrap();
        for (i, edit) in edits.iter().enumerate() {
            let mut bundle: PredictorBundle = serde_json::from_str(saved).unwrap();
            edit(&mut bundle.predictors[0]);
            let json = serde_json::to_string(&bundle).unwrap();
            assert!(load_predictors(json.as_bytes(), parts).is_err(), "edit {i} must be refused");
        }
    }
}
