//! Embedding the live runtime as a library — the paper's Fig. 1 server
//! shape, driven by third-party code instead of the benchmark harness.
//!
//! ```text
//! cargo run --release --example embedded
//! ```
//!
//! The flow every embedding application follows:
//!
//! 1. Build (or load) a partitioned [`storage::Database`] and a stored-
//!    procedure registry — here TATP, with a Houdini advisor trained on a
//!    small offline trace.
//! 2. `LiveRuntime::start` boots the server: one worker thread per
//!    partition owning its shard, plus the model-maintenance thread.
//! 3. `runtime.client()` mints `Send` handles; application threads invoke
//!    ad-hoc stored procedures with `Client::call` — no request
//!    generators, no closed loop, any mix the application wants.
//! 4. `runtime.metrics()` snapshots throughput/latency counters mid-run.
//! 5. `runtime.shutdown()` drains in-flight work and hands back the
//!    reassembled database.

use common::Value;
use engine::{LiveConfig, LiveRuntime, TxnOutcome};
use workloads::{tatp, Bench};

/// TATP registry indices of the procedures this example invokes.
const GET_SUBSCRIBER: u32 = 3;
const UPDATE_LOCATION: u32 = 5;
const UPDATE_SUBSCRIBER: u32 = 6;

fn main() {
    let parts: u32 = 4;
    let subscribers = i64::from(parts * tatp::SUBS_PER_PARTITION);

    // 1. Database + procedures + a quickly-trained advisor.
    let db = Bench::Tatp.database(parts);
    let rows_before: Vec<usize> = (0..4).map(|t| db.total_rows(t)).collect();
    let registry = Bench::Tatp.registry();
    let advisor = bench::trained_houdini(Bench::Tatp, parts, 800, true, 0.5, 7);

    // 2. Boot the server. It owns its threads; this thread keeps only the
    //    handle.
    let runtime = LiveRuntime::start(db, registry, advisor, LiveConfig::default());
    println!("runtime up: {} partition workers", runtime.num_partitions());

    // 3. Serve ad-hoc transactions from independent application threads.
    std::thread::scope(|s| {
        let mut reader = runtime.client();
        s.spawn(move || {
            for i in 0..1_500i64 {
                let outcome = reader
                    .call(GET_SUBSCRIBER, vec![Value::Int(i % subscribers)])
                    .expect("read failed");
                assert_eq!(outcome, TxnOutcome::Committed, "static reads cannot abort");
            }
        });
        let mut writer = runtime.client();
        s.spawn(move || {
            for i in 0..600i64 {
                // UpdateLocation(sub_nbr, new_location): starts with a
                // broadcast lookup, then narrows — the distributed path.
                writer
                    .call(
                        UPDATE_LOCATION,
                        vec![Value::Str(tatp::sub_nbr(i % subscribers)), Value::Int(i)],
                    )
                    .expect("update failed");
            }
        });
        let mut mixed = runtime.client();
        s.spawn(move || {
            for i in 0..600i64 {
                mixed
                    .call(
                        UPDATE_SUBSCRIBER,
                        vec![
                            Value::Int(i % subscribers),
                            Value::Int(i % 2),
                            Value::Int(1 + i % 4),
                            Value::Int(i % 256),
                        ],
                    )
                    .expect("update failed");
            }
        });

        // 4. Observe the run without stopping it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        println!("mid-run:  {}", runtime.metrics());
    });

    // 5. Drain, stop, reassemble.
    let (metrics, db) = runtime.shutdown();
    println!("final:    {metrics}");
    assert_eq!(metrics.committed + metrics.user_aborts, 1_500 + 600 + 600);

    // The database came back whole: all partitions, updates applied in
    // place, no rows created or lost (this mix never inserts or deletes).
    assert_eq!(db.num_partitions(), parts);
    for (table, &before) in rows_before.iter().enumerate() {
        assert_eq!(db.total_rows(table), before, "table {table} row count changed");
    }
    println!(
        "database reassembled: {} partitions, {} subscriber rows intact",
        db.num_partitions(),
        db.total_rows(0),
    );
}
