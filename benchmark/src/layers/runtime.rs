//! `engine::runtime`: the call ladder ROADMAP item 1 names, one client on
//! TATP, each rung adding one mechanism to `Client::call` — the bare fast
//! path (`AssumeSinglePartition`), the same with Houdini planning, a
//! two-partition coordinated call (`AssumeDistributed`), and a logged
//! write that waits for the disk.

use super::{calls, time_ns, LayerValue, ProbeCtx};
use crate::spec::WORKLOADS;
use crate::workload::{train_houdini, ScratchDir};
use common::Value;
use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime};
use std::hint::black_box;
use std::sync::Arc;
use workloads::{tatp::SUBS_PER_PARTITION, Bench};

const WARMUP_CALLS: i64 = 64;

/// Median microseconds of one steady-state call of TATP `proc_name` on a
/// fresh `parts`-partition runtime, timed in batches of `batch`.
fn call_us<A: LiveAdvisor + 'static>(
    ctx: &ProbeCtx<'_>,
    advisor: A,
    parts: u32,
    proc_name: &str,
    durability: Option<DurabilityConfig>,
    batch: usize,
) -> (f64, String) {
    let registry = Bench::Tatp.registry();
    let proc = registry.catalog().proc_id(proc_name).expect("TATP procedure");
    let subs = i64::from(SUBS_PER_PARTITION * parts);
    let args = |s: i64| match proc_name {
        "GetSubscriber" => vec![Value::Int(s)],
        // s_id, bit, special-facility type, data.
        _ => vec![Value::Int(s), Value::Int(s & 1), Value::Int(1 + s % 4), Value::Int(s % 256)],
    };
    let cfg = LiveConfig { seed: ctx.seed, durability, ..LiveConfig::default() };
    let rt = LiveRuntime::start(Bench::Tatp.database(parts), registry, advisor, cfg);
    let mut client = rt.client();
    // Lanes, sessions and reply slots are made on first use; keep that out.
    for s in 0..WARMUP_CALLS {
        client.call(proc, args(s % subs)).expect("warm-up call");
    }
    let mut s = 0i64;
    let (ns, n) = time_ns(ctx.budget * 2, batch, || {
        s = (s + 13) % subs;
        black_box(client.call(proc, args(s)).expect("runtime alive"));
    });
    drop(client);
    rt.shutdown();
    (ns / 1e3, calls(n))
}

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut out = Vec::new();
    let (us, n) = call_us(ctx, AssumeSinglePartition::new(), 1, "GetSubscriber", None, 64);
    out.push(("runtime.call_asp_us", us, n));

    // The 1-partition TATP advisor is the `tatp-sp-1w` workload's own.
    let houdini = train_houdini(&WORKLOADS[0], ctx.seed).advisor;
    let (us, n) = call_us(ctx, Arc::clone(&houdini), 1, "GetSubscriber", None, 64);
    out.push(("runtime.call_houdini_us", us, n));

    let (us, n) = call_us(ctx, AssumeDistributed::new(), 2, "GetSubscriber", None, 64);
    out.push(("runtime.call_dist2_us", us, n));

    let dir = ScratchDir::create(ctx.scratch.join(format!("wal-ladder-{}", std::process::id())));
    let durable = Some(DurabilityConfig::new(dir.path()));
    let (us, n) = call_us(ctx, AssumeSinglePartition::new(), 1, "UpdateSubscriber", durable, 1);
    out.push(("runtime.call_durable_disk_us", us, n));
    out
}
