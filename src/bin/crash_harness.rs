//! Crash-test harness for the durability subsystem (`tests/recovery.rs`
//! drives it as a subprocess).
//!
//! Runs TATP against a [`engine::LiveRuntime`] with real command logging
//! into the given directory, optionally takes a consistent snapshot, then
//! dies via [`std::process::abort`] — no shutdown, no final flush, exactly
//! the on-disk state a SIGKILL would leave. Just before dying it prints
//! one machine-readable line with the acknowledged commit counts, which
//! the recovery test compares against an uninterrupted same-seed run.
//!
//! Usage: `crash_harness <dir> <sp|dist> <log|snap|snaplog> <seed>`
//!
//! * `sp` / `dist` — advisor: single-partition fast path vs forced
//!   distributed (lock-all) execution.
//! * `log` — phase-1 traffic only, then crash (recovery replays the log).
//! * `snap` — phase-1 traffic, snapshot, crash (recovery restores the
//!   snapshot, the truncated log holds nothing newer).
//! * `snaplog` — phase-1 traffic, snapshot, phase-2 traffic, crash
//!   (recovery restores the snapshot *and* replays phase 2).
//!
//! Cluster shape, phase sizes, and the (write-disjoint) client streams
//! come from [`predictive_oltp::crash_plan`], which the test shares.

use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime};
use predictive_oltp::crash_plan::{client_stream, CLIENTS, PARTS, PHASE1, PHASE2};
use std::path::Path;
use std::sync::Barrier;
use workloads::Bench;

fn drive<A: LiveAdvisor + 'static>(advisor: A, dir: &Path, mode: &str, seed: u64) -> ! {
    let db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let cfg =
        LiveConfig { seed, durability: Some(DurabilityConfig::new(dir)), ..Default::default() };
    let rt = LiveRuntime::start(db, reg, advisor, cfg);
    let phase2 = if mode == "snaplog" { PHASE2 } else { 0 };
    // Clients pause at the barrier between phases so the snapshot cuts at
    // a quiescent point the test can reproduce; the crash itself happens
    // with the runtime fully live (threads parked mid-protocol, flusher
    // running, file buffers warm).
    let barrier = Barrier::new(CLIENTS as usize + 1);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut client = rt.client();
            let barrier = &barrier;
            s.spawn(move || {
                let mut next = client_stream(seed, c);
                for _ in 0..PHASE1 {
                    let (proc, args) = next();
                    client.call(proc, args).expect("phase-1 call");
                }
                barrier.wait();
                barrier.wait();
                for _ in 0..phase2 {
                    let (proc, args) = next();
                    client.call(proc, args).expect("phase-2 call");
                }
            });
        }
        barrier.wait();
        if mode != "log" {
            rt.snapshot_now().expect("snapshot between phases");
        }
        barrier.wait();
    });
    // Every call above was acknowledged, so every committed writer is
    // durably logged (acks are released only after the covering flush).
    let m = rt.metrics();
    println!("CRASH committed={} user_aborts={}", m.committed, m.user_aborts);
    // SIGKILL-equivalent: no destructors, no shutdown, no buffered flush.
    std::process::abort();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, dir, advisor, mode, seed] = &args[..] else {
        eprintln!("usage: crash_harness <dir> <sp|dist> <log|snap|snaplog> <seed>");
        std::process::exit(2);
    };
    let seed: u64 = seed.parse().expect("numeric seed");
    match advisor.as_str() {
        "sp" => drive(AssumeSinglePartition::new(), Path::new(dir), mode, seed),
        "dist" => drive(AssumeDistributed::new(), Path::new(dir), mode, seed),
        other => {
            eprintln!("unknown advisor {other:?}");
            std::process::exit(2);
        }
    }
}
