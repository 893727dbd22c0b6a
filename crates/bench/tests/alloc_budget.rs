//! Pins the allocation count of the live fast path (`Client::call`).
//!
//! The session-reuse work (spare-session cache, one reused SPSC
//! connection per client–worker pair) made the steady-state call path
//! allocate a small *constant* number of times per transaction — no
//! per-call channel, no fresh mailbox, no metrics scratch. This test
//! holds that line with the shared harness (`alloc_pin`): after a warm-up
//! long enough to saturate every amortized structure (connections,
//! spare-session map, metrics sample buffers), two equal batches of
//! identical calls must allocate *exactly* the same amount, under a small
//! per-call cap.

mod alloc_pin;

use alloc_pin::{pin_allocations, BATCH, WARMUP};
use engine::baselines::AssumeSinglePartition;
use engine::{LiveConfig, LiveRuntime};
use workloads::Bench;

/// Per-call allocation ceiling, with headroom over the measured count
/// (9/call: request args, the procedure instance and its query
/// invocations, executed-query records, and the committed row values; the
/// point read's key is a slice of the query's parameters, not a copy).
/// Fails loudly if a per-call channel, mailbox, or metrics scratch sneaks
/// back onto the path.
const PER_CALL_CAP: u64 = 24;

#[test]
fn fast_path_allocations_are_pinned() {
    let bench = Bench::Tatp;
    let db = bench.database(1);
    let registry = bench.registry();
    let proc = registry.catalog().proc_id("GetSubscriber").expect("TATP proc");
    let cfg = LiveConfig { seed: 11, ..LiveConfig::default() };
    let rt = LiveRuntime::start(db, registry, AssumeSinglePartition::new(), cfg);
    let mut client = rt.client();

    pin_allocations("alloc_budget", &mut client, proc, PER_CALL_CAP);

    drop(client);
    let (metrics, _db) = rt.shutdown();
    assert_eq!(metrics.committed, (WARMUP + 2 * BATCH) as u64);
}
