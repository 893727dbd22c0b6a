//! Off-line training: mappings, models, clustering, feature selection
//! (paper §3.2, §4.1, §5).

use crate::modelset::{CatalogRule, ModelSet};
use common::{FxHashMap, FxHashSet, PartitionSet, ProcId, QueryId};
use engine::{Catalog, CatalogResolver};
use mapping::{build_mapping, ProcMapping};
use markov::{build_model, estimate_path, EstimateConfig, MarkovModel};
use ml::{extract_features, feature_schema, feed_forward_select, fit_em, train_tree};
use trace::{split_worksets, PartitionResolver, TraceRecord, Workload};

/// Cap on records used inside the feature-selection evaluator.
const EVAL_SAMPLE: usize = 600;

/// Training knobs.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Build partitioned model sets (§5) rather than one global model.
    pub partitioned: bool,
    /// Procedures whose transactions exceed this many queries are disabled
    /// — Houdini takes too long to traverse such models (§4.6, the paper
    /// uses 175–200 and turns CheckWinningBids off).
    pub max_queries_per_txn: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig { partitioned: true, max_queries_per_txn: 175 }
    }
}

/// One procedure's trained prediction state.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct ProcPredictor {
    /// The models (global or partitioned).
    pub models: ModelSet,
    /// The parameter mapping.
    pub mapping: ProcMapping,
    /// True if Houdini is switched off for this procedure (no trace, or
    /// transactions too long — Table 4 row M).
    pub disabled: bool,
    /// Fraction of training records that aborted.
    pub abort_rate: f64,
    /// Per model in the set: did its own training records include aborts?
    /// A model that never saw an abort cannot be trusted when it claims an
    /// abort probability of zero for a procedure that does abort — acting
    /// on that claim disables undo logging and makes a later abort
    /// unrecoverable, the "infinite penalty" case of §4.3/§5.2.
    pub saw_abort: Vec<bool>,
    /// True if the procedure's control code contains an abort path at all
    /// (catalog metadata; a static property of the stored procedure, §2
    /// OP3's "assumes the control code is robust").
    pub can_abort: bool,
    /// `(query, counter)` signatures that appeared in the prefix of some
    /// aborting training record: from these control-flow positions an abort
    /// is still reachable. Aggregated over *all* records, so sparse
    /// per-partition vertices inherit procedure-level abort knowledge.
    pub unsafe_signatures: FxHashSet<(QueryId, u16)>,
}

impl ProcPredictor {
    /// True if model `idx`'s zero-abort-probability claims are sound.
    pub fn trust_abort_estimates(&self, idx: usize) -> bool {
        self.abort_rate == 0.0 || self.saw_abort.get(idx).copied().unwrap_or(false)
    }

    /// True if undo logging may be disabled for the *whole* transaction:
    /// only procedures whose control code cannot abort qualify (§4.3).
    pub fn abort_safe_initial(&self) -> bool {
        !self.can_abort
    }
}

/// Collects the abort-reachable `(query, counter)` signatures of a record
/// set: every prefix position of every aborting record.
fn unsafe_signatures_of(records: &[&TraceRecord]) -> FxHashSet<(QueryId, u16)> {
    let mut set = FxHashSet::default();
    for rec in records.iter().filter(|r| r.aborted) {
        let mut counters: FxHashMap<QueryId, u16> = FxHashMap::default();
        for q in &rec.queries {
            let c = counters.entry(q.query).or_insert(0);
            set.insert((q.query, *c));
            *c += 1;
        }
    }
    set
}

/// Trains predictors for every procedure in the catalog.
pub fn train(
    catalog: &Catalog,
    num_partitions: u32,
    workload: &Workload,
    cfg: &TrainingConfig,
) -> Vec<ProcPredictor> {
    (0..catalog.len() as ProcId)
        .map(|proc| {
            let records = workload.for_proc(proc);
            train_proc(catalog, num_partitions, proc, &records, cfg)
        })
        .collect()
}

/// Trains one procedure's predictor from its trace records.
pub fn train_proc(
    catalog: &Catalog,
    num_partitions: u32,
    proc: ProcId,
    records: &[&TraceRecord],
    cfg: &TrainingConfig,
) -> ProcPredictor {
    let resolver = CatalogResolver::new(catalog, num_partitions);
    let disabled =
        records.is_empty() || records.iter().any(|r| r.queries.len() > cfg.max_queries_per_txn);
    if disabled {
        return ProcPredictor {
            models: ModelSet::Global {
                model: std::sync::Arc::new(MarkovModel::new(proc, num_partitions)),
            },
            mapping: ProcMapping::empty(),
            disabled: true,
            abort_rate: 0.0,
            saw_abort: vec![false],
            can_abort: true,
            unsafe_signatures: FxHashSet::default(),
        };
    }
    let abort_rate = records.iter().filter(|r| r.aborted).count() as f64 / records.len() as f64;
    let can_abort = catalog.proc(proc).can_abort;
    let unsafe_signatures = unsafe_signatures_of(records);
    let mapping = build_mapping(records);
    if !cfg.partitioned {
        return ProcPredictor {
            models: ModelSet::Global {
                model: std::sync::Arc::new(build_model(proc, records, &resolver)),
            },
            mapping,
            disabled: false,
            abort_rate,
            saw_abort: vec![abort_rate > 0.0],
            can_abort,
            unsafe_signatures,
        };
    }

    // §5: cluster on features of the input parameters, with feed-forward
    // selection of the feature set that predicts best.
    let num_params = records.iter().map(|r| r.params.len()).max().unwrap_or(0);
    let schema = feature_schema(num_params);
    let all_features: Vec<usize> = (0..schema.len()).collect();
    let sample: Vec<&TraceRecord> = records.iter().copied().take(EVAL_SAMPLE).collect();

    let selected = feed_forward_select(&all_features, |feats| {
        evaluate_feature_set(catalog, num_partitions, proc, &sample, &schema, feats, &mapping)
    });
    // Compare against the global model's cost on the same worksets; keep
    // the clustering only if it actually predicts better (§5.2's premise).
    let global_cost =
        evaluate_feature_set(catalog, num_partitions, proc, &sample, &schema, &[], &mapping);
    let clustered_cost = if selected.is_empty() {
        f64::INFINITY
    } else {
        evaluate_feature_set(catalog, num_partitions, proc, &sample, &schema, &selected, &mapping)
    };
    if selected.is_empty() || clustered_cost >= global_cost {
        return ProcPredictor {
            models: ModelSet::Global {
                model: std::sync::Arc::new(build_model(proc, records, &resolver)),
            },
            mapping,
            disabled: false,
            abort_rate,
            saw_abort: vec![abort_rate > 0.0],
            can_abort,
            unsafe_signatures,
        };
    }

    // Final fit over the full trace: cluster, label, per-cluster models,
    // and the C4.5 routing tree (§5.3).
    let dense: Vec<Vec<f64>> = records
        .iter()
        .map(|r| {
            let fv = extract_features(&schema, &r.params, num_partitions);
            ml::feature::densify(&fv, &selected)
        })
        .collect();
    let em = fit_em(&dense);
    let labels: Vec<usize> = dense.iter().map(|x| em.assign(x)).collect();
    let tree = train_tree(&dense, &labels, 12);
    let mut models = Vec::with_capacity(em.k);
    let mut saw_abort = Vec::with_capacity(em.k);
    for c in 0..em.k {
        let cluster_records: Vec<&TraceRecord> =
            records.iter().zip(&labels).filter(|(_, &l)| l == c).map(|(r, _)| *r).collect();
        let model = if cluster_records.is_empty() {
            saw_abort.push(abort_rate > 0.0);
            build_model(proc, records, &resolver) // empty cluster: fall back
        } else {
            saw_abort.push(cluster_records.iter().any(|r| r.aborted));
            build_model(proc, &cluster_records, &resolver)
        };
        models.push(std::sync::Arc::new(model));
    }
    ProcPredictor {
        models: ModelSet::Partitioned { schema, selected, tree, models, num_partitions },
        mapping,
        disabled: false,
        abort_rate,
        saw_abort,
        can_abort,
        unsafe_signatures,
    }
}

/// Ground truth derived from a trace record under the current cluster
/// configuration.
pub struct ActualTxn {
    /// Partitions the transaction touched.
    pub touched: PartitionSet,
    /// Per-partition access counts.
    pub counts: FxHashMap<u32, u32>,
    /// Whether it aborted.
    pub aborted: bool,
}

/// Resolves a record into its actual partition behaviour.
pub fn actual_of(rec: &TraceRecord, resolver: &dyn PartitionResolver) -> ActualTxn {
    let mut touched = PartitionSet::EMPTY;
    let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
    for q in &rec.queries {
        let parts = resolver.partitions(rec.proc, q.query, &q.params);
        touched = touched.union(parts);
        for p in parts.iter() {
            *counts.entry(p).or_insert(0) += 1;
        }
    }
    ActualTxn { touched, counts, aborted: rec.aborted }
}

/// True if `base` is one of the most-accessed partitions in `actual`.
pub fn base_is_best(base: Option<u32>, actual: &ActualTxn) -> bool {
    let max = actual.counts.values().copied().max().unwrap_or(0);
    if max == 0 {
        return true; // nothing accessed: any base is fine
    }
    match base {
        None => false,
        Some(b) => actual.counts.get(&b).copied().unwrap_or(0) == max,
    }
}

/// The feed-forward evaluator (§5.2): split the sample 30/30/40, seed the
/// clusterer on the training workset, build per-cluster models from the
/// validation workset, and charge prediction penalties on the testing
/// workset. An empty feature set scores the single global model. Penalties:
/// 1 per wrong base partition (OP1), 1 per wrong partition set (OP2), and
/// effectively infinite for a fatal undo-logging mispredict (OP3).
#[doc(hidden)]
pub fn evaluate_feature_set(
    catalog: &Catalog,
    num_partitions: u32,
    proc: ProcId,
    sample: &[&TraceRecord],
    schema: &[ml::Feature],
    feats: &[usize],
    mapping: &ProcMapping,
) -> f64 {
    let resolver = CatalogResolver::new(catalog, num_partitions);
    let (train_ws, val_ws, test_ws) = split_worksets(sample, 0.3, 0.3);
    if test_ws.is_empty() || val_ws.is_empty() {
        return f64::INFINITY;
    }
    let densify = |r: &TraceRecord| {
        let fv = extract_features(schema, &r.params, num_partitions);
        ml::feature::densify(&fv, feats)
    };
    // Cluster assignment: trivial when no features are selected.
    let em = if feats.is_empty() {
        None
    } else {
        let data: Vec<Vec<f64>> = train_ws.iter().map(|r| densify(r)).collect();
        Some(fit_em(&data))
    };
    let k = em.as_ref().map(|m| m.k).unwrap_or(1);
    let assign =
        |r: &TraceRecord| -> usize { em.as_ref().map(|m| m.assign(&densify(r))).unwrap_or(0) };
    // Models from the validation workset.
    let mut buckets: Vec<Vec<&TraceRecord>> = vec![Vec::new(); k];
    for r in &val_ws {
        buckets[assign(r)].push(*r);
    }
    let models: Vec<MarkovModel> = buckets
        .iter()
        .map(|b| {
            if b.is_empty() {
                build_model(proc, &val_ws, &resolver)
            } else {
                build_model(proc, b, &resolver)
            }
        })
        .collect();
    // Score on the testing workset.
    let rule = CatalogRule::new(catalog, proc, num_partitions);
    let mut cost = 0.0;
    for r in &test_ws {
        let model = &models[assign(r)];
        let est = estimate_path(model, &rule, mapping, &r.params, &EstimateConfig::default());
        let actual = actual_of(r, &resolver);
        if !base_is_best(est.best_base(), &actual) {
            cost += 1.0;
        }
        if est.touched != actual.touched {
            cost += 1.0;
        }
        let would_disable = est.abort_prob < 1e-9 && est.reached_commit;
        if would_disable && actual.aborted {
            cost += 1000.0; // unrecoverable state: "infinite" penalty (§5.2)
        }
    }
    cost / test_ws.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::Value;
    use engine::run_offline;
    use workloads::{tpcc, Bench};

    fn tpcc_workload(parts: u32, n: usize) -> (Catalog, Workload) {
        let reg = Bench::Tpcc.registry();
        let mut gen = tpcc::Generator::new(parts, 42);
        let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &reg, &mut gen, n, 8);
        (reg.catalog(), wl)
    }

    #[test]
    fn trains_all_tpcc_procs() {
        let (catalog, wl) = tpcc_workload(2, 400);
        let preds = train(&catalog, 2, &wl, &TrainingConfig::default());
        assert_eq!(preds.len(), 5);
        for (i, p) in preds.iter().enumerate() {
            assert!(!p.disabled, "proc {i} should be enabled");
            assert!(p.models.total_states() > 3, "proc {i} has real states");
        }
        // NewOrder's mapping links w_id and the item arrays.
        let no = catalog.proc_id("NewOrder").unwrap() as usize;
        assert!(!preds[no].mapping.is_empty());
    }

    #[test]
    fn global_training_builds_one_model_per_proc() {
        let (catalog, wl) = tpcc_workload(2, 300);
        let cfg = TrainingConfig { partitioned: false, ..Default::default() };
        let preds = train(&catalog, 2, &wl, &cfg);
        for p in &preds {
            assert_eq!(p.models.len(), 1);
        }
    }

    #[test]
    fn long_procedures_disabled() {
        // AuctionMark's CheckWinningBids (>175 queries at the evaluated
        // cluster sizes) must be disabled.
        let parts = 4;
        let mut db = Bench::AuctionMark.database(parts);
        let reg = Bench::AuctionMark.registry();
        let catalog = reg.catalog();
        let out = run_offline(&mut db, &reg, &catalog, 0, &[], true).unwrap();
        let wl = Workload { records: vec![out.record] };
        let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
        assert!(preds[0].disabled, "CheckWinningBids must be disabled");
    }

    #[test]
    fn actual_of_matches_offline_touched() {
        let parts = 4;
        let mut db = Bench::Tpcc.database(parts);
        let reg = Bench::Tpcc.registry();
        let catalog = reg.catalog();
        let args = vec![
            Value::Int(0),
            Value::Int(5000),
            Value::Int(1),
            Value::Array(vec![Value::Int(1)]),
            Value::Array(vec![Value::Int(2)]),
            Value::Array(vec![Value::Int(1)]),
        ];
        let out = run_offline(&mut db, &reg, &catalog, 1, &args, true).unwrap();
        let resolver = CatalogResolver::new(&catalog, parts);
        let actual = actual_of(&out.record, &resolver);
        assert_eq!(actual.touched, out.touched);
        assert!(!actual.aborted);
        // The remote supplying warehouse (partition 2) receives 3 of the 5
        // accesses (CheckStock, InsertOrdLine, UpdateStock): it is the best
        // base, and the home warehouse is not.
        assert!(base_is_best(Some(2), &actual));
        assert!(!base_is_best(Some(0), &actual));
    }
}
