//! `exec`: procedure bodies run to completion by `engine::run_offline`
//! over the workload's own request stream — control code plus queries, no
//! runtime around them.

use super::{median_us_each, LayerValue, ProbeCtx};
use engine::run_offline;

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut db = ctx.w.bench.database(ctx.w.parts);
    let registry = ctx.w.bench.registry();
    let catalog = &ctx.trained.catalog;
    let mut queries = 0u64;
    let us = median_us_each(ctx.requests, |(proc, args)| {
        let out = run_offline(&mut db, &registry, catalog, *proc, args, true)
            .expect("offline execution of a generated request");
        queries += out.record.queries.len() as u64;
    });
    let txns = ctx.requests.len() as u64;
    vec![
        ("exec.us", us, format!("{txns} txns")),
        // The same seed gives the same stream, so this count repeats exactly.
        ("exec.queries_per_txn", queries as f64 / txns as f64, format!("{txns} txns")),
    ]
}
