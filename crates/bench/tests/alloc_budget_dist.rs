//! Pins the allocation count of the live *distributed* path.
//!
//! The connection work (one reusable SPSC connection per client–worker
//! pair, carrying calls one way and replies the other, and one `ExecBatch`
//! message per participant per batch step) removed the two fresh channels
//! and the per-query message traffic every coordinated call used to
//! allocate.
//! This test holds that line the same way `alloc_budget.rs` does for the
//! fast path, with the shared harness (`alloc_pin`): after a warm-up long
//! enough to saturate every amortized structure (client connections,
//! spare sessions, metrics sample buffers), two equal batches of
//! identical forced-distributed calls must allocate *exactly* the same
//! amount, under a per-call cap.

mod alloc_pin;

use alloc_pin::{pin_allocations, BATCH, WARMUP};
use engine::baselines::AssumeDistributed;
use engine::{LiveConfig, LiveRuntime};
use workloads::Bench;

/// Per-call allocation ceiling, with headroom over the measured count
/// (16/call: request args, the procedure instance and its query
/// invocations, per-batch ship/merge scratch, per-query param clones for
/// the shipped fragments, and the result rows; the point read's key is a
/// slice of the query's parameters, not a copy). Fails loudly if a
/// per-transaction channel pair, mailbox, or per-query message sneaks
/// back onto the coordinated path.
const PER_CALL_CAP: u64 = 32;

#[test]
fn distributed_path_allocations_are_pinned() {
    let bench = Bench::Tatp;
    // Two partitions + lock-all advisor: every call coordinates a
    // two-partition lock set through the full distributed machinery
    // (connections, ExecBatch, coalesced 2PC) even though the query
    // itself targets one partition.
    let db = bench.database(2);
    let registry = bench.registry();
    let proc = registry.catalog().proc_id("GetSubscriber").expect("TATP proc");
    let cfg = LiveConfig { seed: 11, ..LiveConfig::default() };
    let rt = LiveRuntime::start(db, registry, AssumeDistributed::new(), cfg);
    let mut client = rt.client();

    pin_allocations("alloc_budget_dist", &mut client, proc, PER_CALL_CAP);

    drop(client);
    let (metrics, _db) = rt.shutdown();
    assert_eq!(metrics.committed, (WARMUP + 2 * BATCH) as u64);
    assert_eq!(metrics.distributed, (WARMUP + 2 * BATCH) as u64, "every call must coordinate");
}
