//! Off-line training: mappings, models, and model partitioning on one
//! input-parameter feature (paper §3.2, §4.1, §5).

use crate::advisor::PlanTable;
use crate::feature::{extract_feature, feature_schema, Feature};
use crate::modelset::{CatalogRule, ModelSet};
use common::{FxHashMap, FxHashSet, ProcId, QueryId};
use engine::{Accesses, Catalog, CatalogResolver};
use mapping::{build_mapping, ProcMapping};
use markov::{build_model, estimate_path, EstimateConfig, MarkovModel};
use std::sync::Arc;
use trace::{split_worksets, TraceRecord, Workload};

/// Cap on records used inside the split evaluator.
const EVAL_SAMPLE: usize = 600;

/// Most distinct values a feature may take in the training workset and
/// still be split on: one model per value.
const MAX_ROUTES: usize = 6;

/// Smallest per-transaction penalty saving that justifies a split.
const MIN_SAVING: f64 = 0.01;

/// Procedures whose transactions exceed this many queries are disabled —
/// Houdini takes too long to traverse such models (§4.6, the paper uses
/// 175–200 and turns CheckWinningBids off).
const MAX_QUERIES_PER_TXN: usize = 175;

/// Training knobs.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Build partitioned model sets (§5) rather than one global model.
    pub partitioned: bool,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig { partitioned: true }
    }
}

/// One procedure's trained prediction state.
#[derive(Clone)]
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
    /// Plans made from these models. Neither persisted nor cloned: a copy
    /// starts empty, so each epoch plans afresh.
    pub(crate) plans: PlanTable,
}

impl ProcPredictor {
    /// True if model `idx`'s zero-abort-probability claims are sound.
    pub fn trust_abort_estimates(&self, idx: usize) -> bool {
        self.abort_rate == 0.0 || self.saw_abort.get(idx).copied().unwrap_or(false)
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
        records.is_empty() || records.iter().any(|r| r.queries.len() > MAX_QUERIES_PER_TXN);
    if disabled {
        return ProcPredictor {
            models: ModelSet::Global { model: Arc::new(MarkovModel::new(proc, num_partitions)) },
            mapping: ProcMapping::empty(),
            disabled: true,
            abort_rate: 0.0,
            saw_abort: vec![false],
            can_abort: true,
            unsafe_signatures: FxHashSet::default(),
            plans: PlanTable::default(),
        };
    }
    let abort_rate = records.iter().filter(|r| r.aborted).count() as f64 / records.len() as f64;
    let can_abort = catalog.proc(proc).can_abort;
    let unsafe_signatures = unsafe_signatures_of(records);
    let mapping = build_mapping(records);
    let global = Arc::new(build_model(proc, records, &resolver));
    let split = if cfg.partitioned {
        choose_split(catalog, num_partitions, proc, records, &mapping)
    } else {
        None
    };
    let (models, saw_abort) = match split {
        None => (ModelSet::Global { model: global }, vec![abort_rate > 0.0]),
        Some((feature, routes)) => {
            split_models(proc, records, feature, routes, num_partitions, global, &resolver)
        }
    };
    ProcPredictor {
        models,
        mapping,
        disabled: false,
        abort_rate,
        saw_abort,
        can_abort,
        unsafe_signatures,
        plans: PlanTable::default(),
    }
}

/// A partitioned set over `records`: per route, the model of the records
/// whose `feature` takes that value (`global` when none does), then
/// `global` as the fallback; with each model's abort flag.
fn split_models(
    proc: ProcId,
    records: &[&TraceRecord],
    feature: Feature,
    routes: Vec<Option<f64>>,
    num_partitions: u32,
    global: Arc<MarkovModel>,
    resolver: &CatalogResolver<'_>,
) -> (ModelSet, Vec<bool>) {
    let global_aborts = records.iter().any(|r| r.aborted);
    let mut models = Vec::with_capacity(routes.len() + 1);
    let mut saw_abort = Vec::with_capacity(routes.len() + 1);
    for route in &routes {
        let recs: Vec<&TraceRecord> = records
            .iter()
            .copied()
            .filter(|r| extract_feature(&feature, &r.params, num_partitions) == *route)
            .collect();
        if recs.is_empty() {
            models.push(global.clone());
            saw_abort.push(global_aborts);
        } else {
            models.push(Arc::new(build_model(proc, &recs, resolver)));
            saw_abort.push(recs.iter().any(|r| r.aborted));
        }
    }
    models.push(global);
    saw_abort.push(global_aborts);
    (ModelSet::Partitioned { feature, routes, models, num_partitions }, saw_abort)
}

/// The distinct values `feature` takes over `records`, ascending, or `None`
/// when there are more than [`MAX_ROUTES`].
fn routes_of(
    feature: &Feature,
    records: &[&TraceRecord],
    num_partitions: u32,
) -> Option<Vec<Option<f64>>> {
    let mut routes = Vec::new();
    for r in records {
        let v = extract_feature(feature, &r.params, num_partitions);
        if !routes.contains(&v) {
            if routes.len() == MAX_ROUTES {
                return None;
            }
            routes.push(v);
        }
    }
    routes.sort_by(|a, b| match (a, b) {
        (Some(x), Some(y)) => x.total_cmp(y),
        _ => a.is_some().cmp(&b.is_some()),
    });
    Some(routes)
}

/// Model partitioning (§5.2) on one feature. The sample splits 30/30/40
/// into training, validation and testing worksets; every Table-1 feature
/// with 2..=[`MAX_ROUTES`] distinct values in the training workset is a
/// candidate routed on those values, and [`evaluate_split`] scores it. The
/// cheapest candidate is kept only if it saves more than one test
/// transaction's penalty per transaction over the global model (and at
/// least [`MIN_SAVING`]). Returns the feature and its routes.
fn choose_split(
    catalog: &Catalog,
    num_partitions: u32,
    proc: ProcId,
    records: &[&TraceRecord],
    mapping: &ProcMapping,
) -> Option<(Feature, Vec<Option<f64>>)> {
    let sample: Vec<&TraceRecord> = records.iter().copied().take(EVAL_SAMPLE).collect();
    let (train_ws, val_ws, test_ws) = split_worksets(&sample, 0.3, 0.3);
    if test_ws.is_empty() || val_ws.is_empty() {
        return None;
    }
    let eval = |split: Option<(Feature, &[Option<f64>])>| {
        evaluate_split(catalog, num_partitions, proc, &val_ws, &test_ws, split, mapping)
    };
    let num_params = records.iter().map(|r| r.params.len()).max().unwrap_or(0);
    let mut best: Option<(f64, Feature, Vec<Option<f64>>)> = None;
    for feature in feature_schema(num_params) {
        let Some(routes) = routes_of(&feature, &train_ws, num_partitions) else { continue };
        if routes.len() < 2 {
            continue;
        }
        let cost = eval(Some((feature, &routes)));
        if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
            best = Some((cost, feature, routes));
        }
    }
    let (cost, feature, routes) = best?;
    let margin = (1.0 / test_ws.len() as f64).max(MIN_SAVING);
    (eval(None) - cost > margin).then_some((feature, routes))
}

/// The §5.2 evaluator: build the split's models from the validation
/// workset and charge prediction penalties on the testing workset; `split`
/// `None` scores the single global model. Penalties per test transaction:
/// 1 for a wrong base partition (OP1), 1 for a wrong partition set (OP2),
/// and effectively infinite for a fatal undo-logging mispredict (OP3).
///
/// It scores the raw path estimate, not the advisor's decisions (which
/// [`crate::evaluate_accuracy`] scores): it compares candidate model sets
/// against each other, as §5.2 does. Scoring through the advisor would
/// change which split training picks, and with it every trained model.
fn evaluate_split(
    catalog: &Catalog,
    num_partitions: u32,
    proc: ProcId,
    val_ws: &[&TraceRecord],
    test_ws: &[&TraceRecord],
    split: Option<(Feature, &[Option<f64>])>,
    mapping: &ProcMapping,
) -> f64 {
    let resolver = CatalogResolver::new(catalog, num_partitions);
    let global = Arc::new(build_model(proc, val_ws, &resolver));
    let set = match split {
        None => ModelSet::Global { model: global },
        Some((feature, routes)) => {
            let routes = routes.to_vec();
            split_models(proc, val_ws, feature, routes, num_partitions, global, &resolver).0
        }
    };
    let rule = CatalogRule::new(catalog, proc, num_partitions);
    let mut cost = 0.0;
    for r in test_ws {
        let model = set.model(set.select(&r.params));
        let est = estimate_path(model, &rule, mapping, &r.params, &EstimateConfig::default());
        let actual = Accesses::of(catalog.proc(proc), num_partitions, &r.queries);
        // No base at all is wrong wherever the record touched anything.
        let best = |b| actual.base_is_best(b, num_partitions) != Some(false);
        if !est.best_base().map_or(actual.touched.is_empty(), best) {
            cost += 1.0;
        }
        if est.touched != actual.touched {
            cost += 1.0;
        }
        let would_disable = est.abort_prob < 1e-9 && est.reached_commit;
        if would_disable && r.aborted {
            cost += 1000.0; // unrecoverable state: "infinite" penalty (§5.2)
        }
    }
    cost / test_ws.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureCategory;
    use crate::{evaluate_accuracy, Houdini, HoudiniConfig};
    use common::Value;
    use engine::{run_offline, PartitionHint, ProcDef, QueryDef, QueryOp};
    use trace::QueryRecord;
    use workloads::{tpcc, Bench};

    /// One procedure `P(x, f, z)` on two partitions: `A` reads `x`'s
    /// partition and `B` reads `z = x + 1`'s, the other one.
    fn synthetic_catalog() -> Catalog {
        let get = |name: &str| QueryDef {
            name: name.into(),
            table: 0,
            op: QueryOp::GetByKey { key_params: vec![0] },
            hint: PartitionHint::Param(0),
        };
        let mut c = Catalog::new();
        c.add_proc(ProcDef {
            name: "P".into(),
            queries: vec![get("A"), get("B")],
            read_only: true,
            can_abort: false,
        });
        c
    }

    /// One record per flag value `f`; `B` runs only when `runs_b(f)`.
    fn synthetic_records(fs: &[i64], runs_b: impl Fn(i64) -> bool) -> Vec<TraceRecord> {
        let q = |query, v| QueryRecord { query, params: vec![Value::Int(v)] };
        fs.iter()
            .enumerate()
            .map(|(i, &f)| {
                let x = (i / 8 % 2) as i64;
                let mut queries = vec![q(0, x)];
                if runs_b(f) {
                    queries.push(q(1, x + 1));
                }
                let params = vec![Value::Int(x), Value::Int(f), Value::Int(x + 1)];
                TraceRecord { proc: 0, params, queries, batch_ends: Vec::new(), aborted: false }
            })
            .collect()
    }

    const FLAG: Feature = Feature { category: FeatureCategory::NormalizedValue, param: 1 };

    /// `(global cost, split cost)` of splitting on [`FLAG`] with `routes`.
    fn costs(catalog: &Catalog, recs: &[&TraceRecord], routes: &[Option<f64>]) -> (f64, f64) {
        let mapping = build_mapping(recs);
        let (_, val, test) = split_worksets(recs, 0.3, 0.3);
        let eval = |split| evaluate_split(catalog, 2, 0, &val, &test, split, &mapping);
        (eval(None), eval(Some((FLAG, routes))))
    }

    #[test]
    fn seen_values_route_to_their_own_model_and_unseen_to_the_global_one() {
        let catalog = synthetic_catalog();
        let fs: Vec<i64> = (0..400).map(|i| i % 2).collect();
        let records = synthetic_records(&fs, |f| f == 1);
        let recs: Vec<&TraceRecord> = records.iter().collect();
        let pred = train_proc(&catalog, 2, 0, &recs, &TrainingConfig::default());
        let ModelSet::Partitioned { feature, routes, models, .. } = &pred.models else {
            panic!("the flag decides whether B runs: the models must split on it");
        };
        assert_eq!((*feature, routes.as_slice()), (FLAG, &[Some(0.0), Some(1.0)][..]));
        let resolver = CatalogResolver::new(&catalog, 2);
        for (idx, f) in [0, 1].into_iter().enumerate() {
            let own: Vec<&TraceRecord> =
                recs.iter().copied().filter(|r| r.params[1] == Value::Int(f)).collect();
            assert_eq!(pred.models.select(&own[0].params), idx);
            assert_eq!(*models[idx], build_model(0, &own, &resolver));
        }
        let unseen = [Value::Int(0), Value::Int(7), Value::Int(1)];
        assert_eq!(pred.models.select(&unseen), 2, "an unseen value takes the fallback");
        assert_eq!(*models[2], build_model(0, &recs, &resolver));
    }

    #[test]
    fn a_feature_with_more_than_max_routes_values_is_never_chosen() {
        // Only the flag's exact value (one of eight) says whether B runs;
        // its parity, the one low-cardinality view of it, says nothing.
        let catalog = synthetic_catalog();
        let fs: Vec<i64> = (0..400).map(|i| i % 8).collect();
        let records = synthetic_records(&fs, |f| f == 3);
        let recs: Vec<&TraceRecord> = records.iter().collect();
        let pred = train_proc(&catalog, 2, 0, &recs, &TrainingConfig::default());
        assert!(matches!(pred.models, ModelSet::Global { .. }));
        assert_eq!(routes_of(&FLAG, &recs, 2), None);
        // Splitting on the flag would have paid.
        let routes: Vec<Option<f64>> = (0..8).map(|v| Some(f64::from(v))).collect();
        let (global, split) = costs(&catalog, &recs, &routes);
        assert!(global - split > 0.1, "global {global}, split {split}");
    }

    #[test]
    fn a_split_saving_no_more_than_the_margin_keeps_the_global_model() {
        // Worksets of 12 / 12 / 16 records with the flag set once in each:
        // the split saves one test transaction's penalty, and no more.
        let catalog = synthetic_catalog();
        let fs: Vec<i64> = (0..40).map(|i| i64::from([3, 15, 30].contains(&i))).collect();
        let records = synthetic_records(&fs, |f| f == 1);
        let recs: Vec<&TraceRecord> = records.iter().collect();
        let (global, split) = costs(&catalog, &recs, &[Some(0.0), Some(1.0)]);
        assert_eq!(global - split, 1.0 / 16.0);
        let pred = train_proc(&catalog, 2, 0, &recs, &TrainingConfig::default());
        assert!(matches!(pred.models, ModelSet::Global { .. }));
    }

    /// Table 3's shape at a small scale: partitioning raises AuctionMark's
    /// OP2 accuracy (GetUserInfo's flag) and changes nothing on TATP or
    /// TPC-C.
    #[test]
    fn partitioning_pays_on_auctionmark_only() {
        let (parts, n) = (16, 800);
        for bench in Bench::ALL {
            let reg = bench.registry();
            let catalog = reg.catalog();
            let mut gen = bench.generator(parts, 23);
            let clients = u64::from(parts) * 4;
            let wl = engine::collect_trace(&mut bench.database(parts), &reg, &mut gen, n, clients);
            let (train_recs, test_recs) = wl.records.split_at(n / 2);
            let train_wl = Workload { records: train_recs.to_vec() };
            let accuracy = |partitioned| {
                let preds = train(&catalog, parts, &train_wl, &TrainingConfig { partitioned });
                let h = Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default());
                evaluate_accuracy(&h, test_recs)
            };
            let (global, part) = (accuracy(false), accuracy(true));
            if bench == Bench::AuctionMark {
                assert!(part.op2 > global.op2, "AuctionMark OP2: {part:?} vs {global:?}");
            } else {
                assert_eq!(part, global, "{}", bench.name());
            }
        }
    }

    #[test]
    fn unsafe_signatures_are_downward_closed() {
        // The runtime OP3 rule reads only counter 0 of a query, which is
        // sound only if every unsafe (query, counter) has all lower
        // counters of that query unsafe too.
        let (_, wl) = tpcc_workload(2, 2000);
        let records: Vec<&TraceRecord> = wl.records.iter().collect();
        let unsafe_sigs = unsafe_signatures_of(&records);
        assert!(unsafe_sigs.iter().any(|&(_, c)| c > 0), "no aborting loop in the trace");
        for &(q, c) in &unsafe_sigs {
            assert!((0..c).all(|lower| unsafe_sigs.contains(&(q, lower))), "({q}, {c})");
        }
    }

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
        let cfg = TrainingConfig { partitioned: false };
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
    fn record_accesses_match_offline_touched() {
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
        let actual = Accesses::of(catalog.proc(1), parts, &out.record.queries);
        assert_eq!(actual.touched, out.touched);
        assert!(!out.record.aborted);
        // The remote supplying warehouse (partition 2) receives 3 of the 5
        // accesses (CheckStock, InsertOrdLine, UpdateStock): it is the best
        // base, and the home warehouse is not.
        assert_eq!(actual.base_is_best(2, parts), Some(true));
        assert_eq!(actual.base_is_best(0, parts), Some(false));
    }
}
