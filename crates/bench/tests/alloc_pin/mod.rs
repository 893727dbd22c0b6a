//! The shared harness of the allocation pins (`alloc_budget*.rs`): a
//! counting global allocator and the two-equal-batches measurement.
//!
//! Each pin is its own integration-test binary because a
//! `#[global_allocator]` is process-wide: one test per binary keeps the
//! counts attributable. Declaring this module installs the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{ProcId, Value};
use engine::advisor::TxnOutcome;
use engine::{Client, LiveAdvisor};

/// Counts every allocation event (alloc, alloc_zeroed, realloc) so buffer
/// *growth* — the classic amortized leak back onto a hot path — is
/// caught, not just fresh allocations.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// ordering: Relaxed — the counter is a statistic; batch reads happen on the
// test thread after the runtime quiesces (joined by the reply handshake),
// so no cross-thread edge is needed beyond the call's own synchronization.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Calls long enough to push every doubling buffer (latency samples grow
/// to a 1024 capacity) past the measured window: warm-up plus both
/// batches stays under the next doubling, so growth events cannot differ
/// between batches.
pub const WARMUP: usize = 512;
pub const BATCH: usize = 100;

/// One batch of `GetSubscriber(5)` calls; returns its allocation count.
fn run_batch<A: LiveAdvisor + 'static>(client: &mut Client<A>, proc: ProcId) -> u64 {
    let start = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..BATCH {
        let out = client.call(proc, vec![Value::Int(5)]).expect("runtime alive");
        assert_eq!(out, TxnOutcome::Committed, "GetSubscriber on a loaded row must commit");
    }
    ALLOCS.load(Ordering::Relaxed) - start
}

/// Warms `client` up on TATP `GetSubscriber(5)` (`proc`), then measures
/// two equal batches of the same call: they must allocate *exactly* the
/// same amount, at most `per_call_cap` per call.
pub fn pin_allocations<A: LiveAdvisor + 'static>(
    label: &str,
    client: &mut Client<A>,
    proc: ProcId,
    per_call_cap: u64,
) {
    for _ in 0..WARMUP {
        client.call(proc, vec![Value::Int(5)]).expect("warm-up call");
    }
    let first = run_batch(client, proc);
    let second = run_batch(client, proc);
    let per_call = first / BATCH as u64;
    eprintln!("[{label}] {first} allocations / {BATCH} calls ({per_call} per call)");
    assert_eq!(
        first, second,
        "steady-state batches must allocate identically: {first} vs {second} over {BATCH} calls"
    );
    assert!(
        first <= per_call_cap * BATCH as u64,
        "{label}: {first} allocations over {BATCH} calls ({per_call} per call); cap is {per_call_cap}"
    );
}
