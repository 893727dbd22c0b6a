//! `markov`: the initial path estimate (paper Table 4's cost column), the
//! per-query path tracker, and model size.

use super::{median_us_each, LayerValue, ProbeCtx};
use common::FxHashMap;
use engine::{run_offline, CatalogResolver};
use houdini::CatalogRule;
use markov::{estimate_path, EstimateConfig, MarkovModel, PathTracker};
use std::hint::black_box;
use trace::PartitionResolver as _;

/// Transactions whose executed queries feed the tracker probe.
const TRACKED: usize = 1_000;

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let catalog = &ctx.trained.catalog;
    let parts = ctx.w.parts;
    let predictors = ctx.trained.advisor.live_predictors();
    let cfg = EstimateConfig::default();

    let estimate_us = median_us_each(ctx.requests, |(proc, args)| {
        let pred = &predictors[*proc as usize];
        let rule = CatalogRule::new(catalog, *proc, parts);
        let model = pred.models.model(pred.models.select(args));
        black_box(estimate_path(model, &rule, &pred.mapping, args, &cfg).touched);
    });

    // The tracker walks a transaction's executed queries through its model
    // and folds the transitions in, so it needs real query records and
    // models of its own to mutate. Model selection and the one-time model
    // copy stay outside the clock.
    let mut db = ctx.w.bench.database(parts);
    let registry = ctx.w.bench.registry();
    let mut models: FxHashMap<(u32, usize), MarkovModel> = FxHashMap::default();
    let tracked: Vec<_> = ctx
        .requests
        .iter()
        .take(TRACKED)
        .map(|(proc, args)| {
            let record = run_offline(&mut db, &registry, catalog, *proc, args, true)
                .expect("offline execution of a generated request")
                .record;
            let pred = &predictors[*proc as usize];
            let key = (*proc, pred.models.select(args));
            models.entry(key).or_insert_with(|| pred.models.model(key.1).clone());
            (key, record)
        })
        .collect();
    let resolver = CatalogResolver::new(catalog, parts);
    let track_us = median_us_each(&tracked, |(key, rec)| {
        let model = models.get_mut(key).expect("model copied above");
        let mut tracker = PathTracker::new(model);
        for q in &rec.queries {
            let touched = resolver.partitions(rec.proc, q.query, &q.params);
            tracker.advance(model, q.query, touched, &resolver);
        }
        tracker.finish(model, !rec.aborted);
        black_box(tracker.path().len());
    });

    let states: usize = predictors.iter().map(|p| p.models.total_states()).sum();
    let n = ctx.requests.len();
    vec![
        ("markov.estimate_us", estimate_us, format!("{n} estimates")),
        ("markov.track_us", track_us, format!("{} txns", tracked.len())),
        ("markov.states", states as f64, format!("{} procedures", predictors.len())),
    ]
}
