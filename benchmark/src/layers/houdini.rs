//! `houdini`: what `Client::call` pays the advisor per transaction — plan
//! with a reclaimed spare session, then session teardown — and what
//! training cost at set-up.

use super::{median_us_each, LayerValue, ProbeCtx};
use common::FxHashMap;
use engine::{LiveAdvisor, PlanContext, Request, TxnOutcome};
use std::hint::black_box;

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let advisor = &ctx.trained.advisor;
    let plan_ctx = PlanContext {
        catalog: &ctx.trained.catalog,
        num_partitions: ctx.w.parts,
        random_local_partition: 0,
    };
    let requests: Vec<Request> = ctx
        .requests
        .iter()
        .map(|(proc, args)| Request { proc: *proc, args: args.clone(), origin_node: 0 })
        .collect();
    // One spare session per procedure, as a `Client` keeps them.
    let mut spare = FxHashMap::default();
    let plan_us = median_us_each(&requests, |req| {
        let (plan, session) = advisor.plan_live_reusing(req, &plan_ctx, spare.remove(&req.proc));
        black_box(plan);
        let (feedback, reclaimed) = advisor.end_live_reclaim(session, TxnOutcome::Committed);
        black_box(feedback);
        if let Some(s) = reclaimed {
            spare.insert(req.proc, s);
        }
    });
    vec![
        ("houdini.plan_us", plan_us, format!("{} plans", requests.len())),
        ("houdini.train_s", ctx.trained.train_s, "1 training".into()),
    ]
}
