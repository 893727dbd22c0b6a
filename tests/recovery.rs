//! Kill-and-recover matrix for the durability subsystem (DESIGN.md §7).
//!
//! Each cell runs the `crash_harness` binary as a subprocess: TATP with
//! real command logging (and optionally a consistent snapshot), killed via
//! `std::process::abort()` — no shutdown, no final flush. The test then
//! recovers in-process with [`LiveRuntime::recover`] and pins the result
//! against an *uninterrupted* same-seed run:
//!
//! * the harness's acknowledged commit / user-abort counts equal the
//!   uninterrupted run's, and
//! * the recovered database's tables are byte-identical to the
//!   uninterrupted run's, row for row.
//!
//! Comparing two separate concurrent runs is only sound because the
//! shared plan's client streams are write-disjoint (each client owns the
//! subscribers `s_id % CLIENTS == c`; see `predictive_oltp::crash_plan`
//! for the argument): outcomes and final rows are then independent of how
//! the four clients interleave. With the unfiltered TATP streams they are
//! not — `UpdateLocation` / `UpdateSubscriber` are blind last-writer-wins
//! overwrites, and this matrix was red in 7 of 8 runs on a 2-core host
//! (differing rows only in `SUBSCRIBER.bit_1` / `vlr_location`, including
//! `snapshot_only` cells that replay nothing).
//!
//! Matrix: {snapshot-only, log-only, snapshot+log} × {single-partition
//! fast path, forced-distributed}.

use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime, RunMetrics};
use predictive_oltp::crash_plan::{client_stream, CLIENTS, PARTS, PHASE1, PHASE2};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Barrier;
use storage::{Database, Row};
use workloads::Bench;

const SEED: u64 = 417;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The uninterrupted twin of the harness run: same seed, same client
/// streams, same request counts, no durability, clean shutdown.
fn baseline<A: LiveAdvisor + 'static>(advisor: A, with_phase2: bool) -> (RunMetrics, Database) {
    let db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let cfg = LiveConfig { seed: SEED, ..Default::default() };
    let rt = LiveRuntime::start(db, reg, advisor, cfg);
    let phase2 = if with_phase2 { PHASE2 } else { 0 };
    let barrier = Barrier::new(CLIENTS as usize);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut client = rt.client();
            let barrier = &barrier;
            s.spawn(move || {
                let mut next = client_stream(SEED, c);
                for _ in 0..PHASE1 {
                    let (proc, args) = next();
                    client.call(proc, args).expect("baseline phase-1 call");
                }
                barrier.wait();
                for _ in 0..phase2 {
                    let (proc, args) = next();
                    client.call(proc, args).expect("baseline phase-2 call");
                }
            });
        }
    });
    rt.shutdown()
}

/// Sorted full contents of every table, merged across partitions — the
/// byte-identical-state comparator.
fn table_state(db: &Database) -> Vec<Vec<Row>> {
    (0..db.schemas().len())
        .map(|t| {
            let mut rows: Vec<Row> =
                (0..PARTS).flat_map(|p| db.table(p, t).sorted_rows()).collect();
            rows.sort();
            rows
        })
        .collect()
}

fn parse_counts(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CRASH "))
        .expect("harness printed its CRASH line before dying");
    let field = |key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .expect("counter present")
            .parse()
            .expect("numeric counter")
    };
    (field("committed="), field("user_aborts="))
}

fn kill_and_recover<A, B>(make_advisor: impl Fn() -> A, tag: &str, mode: &str, baseline_run: B)
where
    A: LiveAdvisor + 'static,
    B: FnOnce() -> (RunMetrics, Database),
{
    let dir = tmpdir(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_crash_harness"))
        .arg(&dir)
        .args([if tag.starts_with("sp") { "sp" } else { "dist" }, mode])
        .arg(SEED.to_string())
        .output()
        .expect("spawn crash_harness");
    assert!(!out.status.success(), "the harness must die by abort, not exit cleanly");
    let (committed, user_aborts) = parse_counts(&String::from_utf8_lossy(&out.stdout));

    let (base_metrics, base_db) = baseline_run();
    assert_eq!(
        (committed, user_aborts),
        (base_metrics.committed, base_metrics.user_aborts),
        "acknowledged outcomes must match the uninterrupted run ({tag}/{mode})"
    );

    let cfg = LiveConfig {
        seed: SEED,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let (rt, report) = LiveRuntime::recover(
        Bench::Tatp.database(PARTS),
        Bench::Tatp.registry(),
        make_advisor(),
        cfg,
    );
    let (metrics, recovered_db) = rt.shutdown();
    assert!(metrics.recovery_ms > 0.0);
    if mode == "snap" {
        assert_eq!(report.replayed, 0, "snapshot-only recovery has nothing to replay");
        assert!(report.snapshot_gen.is_some());
    }
    if mode == "log" {
        assert!(report.snapshot_gen.is_none());
        assert!(report.replayed > 0, "log-only recovery must replay the committed writers");
    }
    if mode == "snaplog" {
        assert!(report.snapshot_gen.is_some());
        assert!(report.replayed > 0, "phase-2 writers replay on top of the snapshot");
    }
    assert_eq!(
        table_state(&base_db),
        table_state(&recovered_db),
        "recovered tables must be byte-identical to the uninterrupted run ({tag}/{mode})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_partition_log_only() {
    kill_and_recover(AssumeSinglePartition::new, "sp-log", "log", || {
        baseline(AssumeSinglePartition::new(), false)
    });
}

#[test]
fn single_partition_snapshot_only() {
    kill_and_recover(AssumeSinglePartition::new, "sp-snap", "snap", || {
        baseline(AssumeSinglePartition::new(), false)
    });
}

#[test]
fn single_partition_snapshot_plus_log() {
    kill_and_recover(AssumeSinglePartition::new, "sp-snaplog", "snaplog", || {
        baseline(AssumeSinglePartition::new(), true)
    });
}

#[test]
fn distributed_log_only() {
    kill_and_recover(AssumeDistributed::new, "dist-log", "log", || {
        baseline(AssumeDistributed::new(), false)
    });
}

#[test]
fn distributed_snapshot_only() {
    kill_and_recover(AssumeDistributed::new, "dist-snap", "snap", || {
        baseline(AssumeDistributed::new(), false)
    });
}

#[test]
fn distributed_snapshot_plus_log() {
    kill_and_recover(AssumeDistributed::new, "dist-snaplog", "snaplog", || {
        baseline(AssumeDistributed::new(), true)
    });
}
