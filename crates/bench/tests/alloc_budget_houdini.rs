//! Pins the allocation count of a Houdini-planned fast-path call.
//!
//! `alloc_budget.rs` pins the fast path under `AssumeSinglePartition`,
//! whose plan is free. Houdini's call path adds the plan and the per-query
//! `on_query_live` walk. A repeated request is planned from the predictor
//! epoch's plan table, which copies the stored decisions into the spare
//! session's buffers, so in steady state the estimate allocates nothing.
//! This test holds the line with the shared harness (`alloc_pin`): after a
//! warm-up, two equal batches of identical TATP `GetSubscriber` calls must
//! allocate *exactly* the same amount, under a per-call cap.

mod alloc_pin;

use alloc_pin::{pin_allocations, BATCH, WARMUP};
use bench::collect_trace;
use engine::{LiveConfig, LiveRuntime};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use workloads::Bench;

/// Per-call allocation ceiling: `alloc_budget.rs`'s 9 under
/// `AssumeSinglePartition` plus 2. Measured: 9 per call with maintenance
/// off, the same as `AssumeSinglePartition`, because every call after the
/// first is a plan-table hit that neither estimates nor allocates. Fails
/// loudly if the advisor's per-call work grows.
const PER_CALL_CAP: u64 = 11;

#[test]
fn houdini_call_allocations_are_pinned() {
    let bench = Bench::Tatp;
    let (catalog, trace) = collect_trace(bench, 1, 500, 29);
    let predictors = train(&catalog, 1, &trace, &TrainingConfig::default());
    // Maintenance off: the default config's maintenance thread allocates
    // as it consumes feedback and closes its 200-record monitor windows,
    // on its own schedule. The counter is process-wide, so that work lands
    // in whichever batch it overlaps and the two batches differ (measured
    // 2157 vs 2259 with it on, against 2200 vs 2200 in four other runs).
    // Off, the session keeps its buffers and no feedback is built.
    let cfg = HoudiniConfig { maintenance: false, ..HoudiniConfig::default() };
    let houdini = Houdini::new(predictors, catalog, 1, cfg);
    let registry = bench.registry();
    let proc = registry.catalog().proc_id("GetSubscriber").expect("TATP proc");
    let cfg = LiveConfig { seed: 11, ..LiveConfig::default() };
    let rt = LiveRuntime::start(bench.database(1), registry, houdini, cfg);
    let mut client = rt.client();

    pin_allocations("alloc_budget_houdini", &mut client, proc, PER_CALL_CAP);

    drop(client);
    let (metrics, _db) = rt.shutdown();
    assert_eq!(metrics.committed, (WARMUP + 2 * BATCH) as u64);
    assert_eq!(metrics.single_partition, (WARMUP + 2 * BATCH) as u64, "every call is fast-path");
}
