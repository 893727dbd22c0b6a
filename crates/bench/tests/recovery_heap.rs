//! Pins the heap that crash recovery needs as the command log grows.
//!
//! Recovery used to decode every log segment into memory and build
//! per-transaction maps and sets on top, so its working set grew by a few
//! hundred bytes per logged writer. It now streams: the scan keeps only
//! each segment's valid length and the 2PC outcome table, and replay holds
//! one decoded record per partition. This test holds that line: a
//! tracking global allocator measures the peak heap during
//! `LiveRuntime::recover`, above what the freshly loaded database already
//! holds, for a log of N and of 4N committed writers. Four times the log
//! must cost less than twice the heap.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide: one test per file keeps the counts attributable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use engine::advisor::TxnOutcome;
use engine::baselines::AssumeDistributed;
use engine::{DurabilityConfig, LiveConfig, LiveRuntime};
use workloads::Bench;

/// Tracks the bytes currently allocated and the highest value since the
/// last reset.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// ordering: Relaxed — both counters are statistics; the test thread reads
// them after `recover` returned, and the threads it started only allocate
// what a quiescent runtime keeps.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before freeing the old one: a moving realloc
        // holds both for a moment.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const PARTS: u32 = 2;
const N: u64 = 1_000;

fn durability_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("recovery-heap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Logs `writers` committed TATP updates to `dir`, each one a two-partition
/// 2PC commit (lock-all plans), so every writer leaves a `DistBegin` and a
/// `Decision` on both partitions. Updates only, so replay leaves the
/// database the size it was loaded at.
fn log_writers(dir: &Path, writers: u64) {
    let bench = Bench::Tatp;
    let registry = bench.registry();
    let catalog = registry.catalog();
    let updates = ["UpdateLocation", "UpdateSubscriberData"].map(|name| catalog.proc_id(name));
    let cfg = LiveConfig { durability: Some(DurabilityConfig::new(dir)), ..LiveConfig::default() };
    let rt = LiveRuntime::start(bench.database(PARTS), registry, AssumeDistributed::new(), cfg);
    let mut client = rt.client();
    let mut requests = bench.generator(PARTS, 5);
    let mut committed = 0;
    while committed < writers {
        let (proc, args) = requests.next_request(0);
        if updates.contains(&Some(proc))
            && client.call(proc, args).expect("runtime alive") == TxnOutcome::Committed
        {
            committed += 1;
        }
    }
    drop(client);
    let (metrics, _) = rt.shutdown();
    assert_eq!(metrics.distributed, metrics.committed + metrics.user_aborts);
}

/// Peak heap during recovery of `dir`, in bytes above the loaded database.
fn recovery_peak(dir: &Path, writers: u64) -> usize {
    let bench = Bench::Tatp;
    let db = bench.database(PARTS);
    let registry = bench.registry();
    let cfg = LiveConfig { durability: Some(DurabilityConfig::new(dir)), ..LiveConfig::default() };
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (rt, report) = LiveRuntime::recover(db, registry, AssumeDistributed::new(), cfg);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(rt);
    assert_eq!(report.replayed, writers, "every committed writer replays");
    peak
}

#[test]
fn recovery_heap_grows_less_than_the_log() {
    let small = durability_dir("n");
    let large = durability_dir("4n");
    log_writers(&small, N);
    log_writers(&large, 4 * N);
    let peak_n = recovery_peak(&small, N);
    let peak_4n = recovery_peak(&large, 4 * N);
    let _ = std::fs::remove_dir_all(&small);
    let _ = std::fs::remove_dir_all(&large);
    eprintln!(
        "[recovery_heap] peak above the loaded database: {} KiB at {N} writers, {} KiB at {}",
        peak_n / 1024,
        peak_4n / 1024,
        4 * N
    );
    assert!(
        peak_4n < 2 * peak_n,
        "recovery heap grew {:.2}x for 4x the log ({peak_n} → {peak_4n} bytes)",
        peak_4n as f64 / peak_n as f64
    );
}
