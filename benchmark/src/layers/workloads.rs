//! `workloads`: the request generator. A guard, not a target: generation
//! runs on the client thread between calls and must stay a small share of
//! a call.

use super::{calls, time_ns, LayerValue, ProbeCtx};
use std::hint::black_box;

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut gen = ctx.w.bench.client_generator(ctx.w.parts, ctx.seed, 0);
    let (ns, n) = time_ns(ctx.budget, 256, || {
        black_box(gen.next_request(0));
    });
    vec![("workloads.gen_ns", ns, calls(n))]
}
