//! Cross-checks between the live multi-threaded partition runtime and the
//! deterministic simulator: real threads must not change *what* happens to
//! a transaction (commit/abort/restart), only *when*.
//!
//! TATP makes an exact comparison possible even under concurrency: every
//! abort path depends only on statically-loaded data (subscriber rows,
//! SPECIAL_FACILITY's IS_ACTIVE flag), and the per-client generator blocks
//! give inserts globally-unique keys — so the commit/abort outcome of each
//! request is independent of how client streams interleave.

use bench::collect_trace;
use common::{ProcId, Value};
use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{
    run_live, CostModel, LiveConfig, LiveRuntime, RequestGenerator, RunMetrics, SimConfig,
    Simulation,
};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use std::sync::mpsc::channel;
use std::time::Duration;
use workloads::Bench;

const PARTS: u32 = 4;
const CLIENTS_PER_PARTITION: u32 = 1;
const REQUESTS_PER_CLIENT: u64 = 120;
const SEED: u64 = 417;

/// Routes the simulator's shared-generator interface onto the same
/// independent per-client streams the live runtime uses, so both runs see
/// the identical request population.
struct SplitGen {
    gens: Vec<Box<dyn RequestGenerator + Send>>,
}

impl SplitGen {
    fn new(clients: u64) -> Self {
        SplitGen {
            gens: (0..clients).map(|c| Bench::Tatp.client_generator(PARTS, SEED, c)).collect(),
        }
    }
}

impl RequestGenerator for SplitGen {
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
        self.gens[client as usize].next_request(client)
    }
}

fn trained_predictors() -> (Houdini, Houdini) {
    let (catalog, wl) = collect_trace(Bench::Tatp, PARTS, 2_000, 29);
    let cfg = TrainingConfig::default();
    let preds = train(&catalog, PARTS, &wl, &cfg);
    let a = Houdini::new(preds.clone(), catalog.clone(), PARTS, HoudiniConfig::default());
    let b = Houdini::new(preds, catalog, PARTS, HoudiniConfig::default());
    (a, b)
}

fn run_simulated(advisor: &Houdini) -> (RunMetrics, storage::Database) {
    let mut db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let clients = u64::from(PARTS * CLIENTS_PER_PARTITION);
    let mut gen = SplitGen::new(clients);
    let cfg = SimConfig {
        num_partitions: PARTS,
        clients_per_partition: CLIENTS_PER_PARTITION,
        warmup_us: 0.0,
        measure_us: 1e12, // the request cap, not the clock, ends the run
        seed: SEED,
        max_requests_per_client: Some(REQUESTS_PER_CLIENT),
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &reg, advisor, &mut gen, CostModel::default(), cfg);
    let (metrics, _) = sim.run().expect("simulation must not halt");
    (metrics, db)
}

fn run_live_runtime(advisor: Houdini) -> (RunMetrics, storage::Database) {
    let db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let cfg = LiveConfig { max_restarts: 2, seed: SEED, msg_delay_us: 0, ..Default::default() };
    let make_gen = |client: u64| Bench::Tatp.client_generator(PARTS, SEED, client);
    run_live(db, reg, advisor, &make_gen, CLIENTS_PER_PARTITION, REQUESTS_PER_CLIENT, &cfg)
        .expect("live runtime must not halt")
}

#[test]
fn live_runtime_matches_simulation_on_seeded_tatp() {
    let (sim_houdini, live_houdini) = trained_predictors();
    let (sim_m, sim_db) = run_simulated(&sim_houdini);
    let (live_m, live_db) = run_live_runtime(live_houdini);

    let issued = u64::from(PARTS * CLIENTS_PER_PARTITION) * REQUESTS_PER_CLIENT;
    // Conservation on both sides.
    assert_eq!(sim_m.committed + sim_m.user_aborts, issued);
    assert_eq!(live_m.committed + live_m.user_aborts, issued);

    // Correctness agreement: identical commit/abort outcomes...
    assert_eq!(live_m.committed, sim_m.committed, "commit counts diverged");
    assert_eq!(live_m.user_aborts, sim_m.user_aborts, "abort counts diverged");
    assert_eq!(
        live_m.committed_by_proc, sim_m.committed_by_proc,
        "per-procedure commit counts diverged"
    );
    // ...and identical advisor accuracy: a mispredict depends only on the
    // plan and the request, not on thread interleaving.
    assert_eq!(live_m.restarts, sim_m.restarts, "mispredict counts diverged");
    assert_eq!(
        live_m.single_partition, sim_m.single_partition,
        "single-partition classification diverged"
    );
    assert_eq!(live_m.distributed, sim_m.distributed);

    // Both executions mutated a real database; insert/delete effects must
    // land identically (row counts are interleaving-independent).
    for table in 0..4 {
        assert_eq!(
            live_db.total_rows(table),
            sim_db.total_rows(table),
            "table {table} row counts diverged"
        );
    }

    // Sanity: the workload exercised the interesting paths.
    assert!(live_m.committed > 0);
    assert!(live_m.distributed > 0, "broadcast procedures ran distributed");
}

/// One advisor contract, one §4.5 regime: both engines emit one feedback
/// record per session teardown, so the same requests produce the same
/// feedback volume. The stream matches training, so no model swaps and the
/// plans — hence the teardowns — are interleaving-independent; the live
/// clients' records are either consumed or, under backpressure, dropped.
/// (At the parent commit the simulator had no feedback path at all.)
#[test]
fn simulator_and_live_runtime_emit_the_same_feedback() {
    let (sim_houdini, live_houdini) = trained_predictors();
    let (sim_m, _) = run_simulated(&sim_houdini);
    let (live_m, _) = run_live_runtime(live_houdini);
    assert_eq!(sim_m.model_swaps, 0);
    assert_eq!(live_m.model_swaps, 0);
    // Every TATP procedure is trained (none disabled), so every teardown
    // emits.
    assert_eq!(sim_m.feedback_records, sim_m.committed + sim_m.user_aborts + sim_m.restarts);
    assert_eq!(sim_m.feedback_records, live_m.feedback_records + live_m.feedback_dropped);
}

/// OP4 must be invisible in outcome space: the same trained Houdini with
/// early prepare enabled vs disabled (the only difference being
/// `TxnPlan::early_prepare`) must produce identical commit / abort /
/// restart / per-procedure counts and identical final table row counts on
/// the seeded TATP population. This pins live early prepare — lock release
/// at batch end, read-only participants leaving at once, written ones held
/// until the 2PC outcome — as outcome-preserving.
#[test]
fn op4_early_prepare_does_not_change_outcomes() {
    let (catalog, wl) = collect_trace(Bench::Tatp, PARTS, 2_000, 29);
    let cfg = TrainingConfig::default();
    let preds = train(&catalog, PARTS, &wl, &cfg);
    let on = Houdini::new(
        preds.clone(),
        catalog.clone(),
        PARTS,
        HoudiniConfig { early_prepare: true, ..Default::default() },
    );
    let off = Houdini::new(
        preds,
        catalog,
        PARTS,
        HoudiniConfig { early_prepare: false, ..Default::default() },
    );
    let (m_on, db_on) = run_live_runtime(on);
    let (m_off, db_off) = run_live_runtime(off);
    assert_eq!(m_on.committed, m_off.committed, "OP4 changed commit counts");
    assert_eq!(m_on.user_aborts, m_off.user_aborts, "OP4 changed abort counts");
    assert_eq!(m_on.restarts, m_off.restarts, "OP4 caused extra mispredicts");
    assert_eq!(
        m_on.committed_by_proc, m_off.committed_by_proc,
        "OP4 changed per-procedure outcomes"
    );
    for table in 0..4 {
        assert_eq!(
            db_on.total_rows(table),
            db_off.total_rows(table),
            "table {table} row counts diverged under OP4"
        );
    }
}

/// Distributed-heavy TPC-C under real concurrency, OP4 on: conservation
/// (no transaction lost or duplicated while written participants sit
/// released-but-reserved) plus a storage-level invariant that survives any
/// interleaving — every committed NewOrder inserts exactly one ORDERS row.
/// Run twice: without a message delay, and at the live ablation's 60 µs,
/// where early releases overlap other clients' traffic.
#[test]
fn tpcc_early_prepare_conserves_requests_and_rows() {
    for msg_delay_us in [0, 60] {
        tpcc_conserves_requests_and_rows(msg_delay_us);
    }
}

fn tpcc_conserves_requests_and_rows(msg_delay_us: u64) {
    const CLIENTS: u32 = 2;
    const REQUESTS: u64 = 150;
    let (catalog, wl) = collect_trace(Bench::Tpcc, PARTS, 2_000, 31);
    let preds = train(&catalog, PARTS, &wl, &TrainingConfig::default());
    let houdini = Houdini::new(preds, catalog, PARTS, HoudiniConfig::default());
    let db = Bench::Tpcc.database(PARTS);
    let orders_table = db.table_id("ORDERS").expect("ORDERS exists");
    let orders_before = db.total_rows(orders_table);
    let reg = Bench::Tpcc.registry();
    let cfg = LiveConfig { max_restarts: 2, seed: 37, msg_delay_us, ..Default::default() };
    let make_gen = |client: u64| Bench::Tpcc.client_generator(PARTS, 37, client);
    let (m, db) = run_live(db, reg, houdini, &make_gen, CLIENTS, REQUESTS, &cfg)
        .expect("live runtime must not halt");
    let issued = u64::from(PARTS * CLIENTS) * REQUESTS;
    assert_eq!(m.committed + m.user_aborts, issued, "lost or duplicated transactions");
    // NewOrder is registry index 1 (procedure letter I).
    let committed_new_orders = m.committed_by_proc.get(&1).copied().unwrap_or(0);
    assert_eq!(
        db.total_rows(orders_table) - orders_before,
        committed_new_orders as usize,
        "ORDERS rows must match committed NewOrders exactly (msg_delay_us {msg_delay_us})"
    );
    let op4: u64 = m.ops.values().map(|o| o.op4).sum();
    assert!(op4 > 0, "no transaction early-prepared (msg_delay_us {msg_delay_us})");
}

#[test]
fn workers_shut_down_cleanly_when_generators_run_dry() {
    // The whole run — including worker shutdown and shard reassembly —
    // must finish; a deadlocked worker or a lost shutdown message would
    // hang forever, so the test fails loudly on a generous timeout instead.
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let advisor = AssumeSinglePartition::new();
        let db = Bench::Tatp.database(PARTS);
        let reg = Bench::Tatp.registry();
        let cfg = LiveConfig { max_restarts: 2, seed: 11, msg_delay_us: 0, ..Default::default() };
        let make_gen = |client: u64| Bench::Tatp.client_generator(PARTS, 11, client);
        let (m, db) = run_live(db, reg, advisor, &make_gen, 2, 60, &cfg).expect("no halts");
        done_tx.send((m.committed + m.user_aborts, db.num_partitions())).unwrap();
    });
    let (finished, parts) = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("live runtime deadlocked after the generator ran dry");
    assert_eq!(finished, u64::from(PARTS) * 2 * 60, "transactions lost in shutdown");
    assert_eq!(parts, PARTS, "shards were not all returned");
}

/// The embeddable handle API (`LiveRuntime` + `Client`): application
/// threads join and leave in two waves on their own OS threads, a metrics
/// snapshot is taken between the waves without stopping the runtime, and
/// `shutdown` reassembles the database.
#[test]
fn client_handles_join_and_leave_mid_run() {
    const WAVE_CLIENTS: u64 = 3;
    const PER_CLIENT: u64 = 40;
    let db = Bench::Tatp.database(PARTS);
    let subs_before = db.total_rows(0);
    let cfg = LiveConfig { seed: 11, ..Default::default() };
    let rt = LiveRuntime::start(db, Bench::Tatp.registry(), AssumeSinglePartition::new(), cfg);
    let mut issued = 0u64;
    for wave in 0..2u64 {
        std::thread::scope(|s| {
            for _ in 0..WAVE_CLIENTS {
                let mut client = rt.client();
                s.spawn(move || {
                    let id = client.id();
                    let mut gen = Bench::Tatp.client_generator(PARTS, 11, id);
                    for _ in 0..PER_CLIENT {
                        let (proc, args) = gen.next_request(id);
                        client.call(proc, args).expect("mid-run call failed");
                    }
                    // The handle drops here: this client leaves the run.
                });
            }
        });
        issued += WAVE_CLIENTS * PER_CLIENT;
        // Every completed call is visible to a mid-run snapshot, and the
        // ids keep counting up across waves (never reused).
        let snap = rt.metrics();
        assert_eq!(snap.committed + snap.user_aborts, issued, "wave {wave} snapshot");
        assert!(snap.window_us > 0.0, "snapshot carries the elapsed window");
    }
    assert_eq!(rt.client().id(), 2 * WAVE_CLIENTS, "ids assigned in mint order");
    let (m, db) = rt.shutdown();
    assert_eq!(m.committed + m.user_aborts, issued, "transactions lost across waves");
    assert_eq!(db.num_partitions(), PARTS, "shards were not all returned");
    assert_eq!(db.total_rows(0), subs_before, "SUBSCRIBER rows must survive intact");
}

/// `shutdown` racing live traffic: client threads keep submitting
/// (lock-all plans, so multi-partition 2PC transactions are in flight
/// with real message delays) while the main thread pulls the plug.
/// Accepted work drains — the reassembled database is consistent — and
/// racing calls fail cleanly with `Err` instead of hanging; the whole
/// teardown is bounded by a generous timeout.
#[test]
fn shutdown_drains_distributed_transactions_in_flight() {
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let db = Bench::Tatp.database(PARTS);
        let subs_before = db.total_rows(0);
        let cfg = LiveConfig { seed: 13, msg_delay_us: 200, ..Default::default() };
        let rt = LiveRuntime::start(db, Bench::Tatp.registry(), AssumeDistributed::new(), cfg);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut client = rt.client();
            handles.push(std::thread::spawn(move || {
                let id = client.id();
                let mut gen = Bench::Tatp.client_generator(PARTS, 13, id);
                let mut completed = 0u64;
                for _ in 0..500 {
                    let (proc, args) = gen.next_request(id);
                    match client.call(proc, args) {
                        Ok(_) => completed += 1,
                        // The runtime shut down underneath us: expected.
                        Err(_) => break,
                    }
                }
                completed
            }));
        }
        // Let multi-partition transactions get in flight, then shut down
        // while the client threads are still submitting.
        std::thread::sleep(Duration::from_millis(30));
        let (m, db) = rt.shutdown();
        let completed: u64 =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).sum();
        done_tx.send((m, db.num_partitions(), db.total_rows(0), subs_before, completed)).unwrap();
    });
    let (m, parts, subs_after, subs_before, completed) = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("shutdown with in-flight distributed transactions deadlocked");
    assert_eq!(parts, PARTS, "all shards reassembled");
    assert_eq!(subs_after, subs_before, "drained shards must be consistent");
    assert!(completed > 0, "some transactions completed before the plug was pulled");
    // The final metrics only count calls whose fold beat the shutdown
    // snapshot; nothing it counts can exceed what clients observed.
    assert!(
        m.committed + m.user_aborts <= completed,
        "metrics invented transactions: {} + {} > {completed}",
        m.committed,
        m.user_aborts,
    );
}

/// Lifecycle edges, timeout-guarded: dropping a runtime without
/// `shutdown` joins every owned thread (the double-teardown path — Drop
/// after the explicit teardown machinery — must be a no-op, not a hang),
/// an orphaned `Client` whose runtime is gone errors cleanly, and a fresh
/// runtime starts and shuts down normally right afterwards.
#[test]
fn drop_without_shutdown_and_restart_are_clean() {
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let rt = LiveRuntime::start(
            Bench::Tatp.database(PARTS),
            Bench::Tatp.registry(),
            AssumeSinglePartition::new(),
            LiveConfig::default(),
        );
        let mut orphan = rt.client();
        drop(rt); // Drop tears down: joins workers, discards results.
        let (proc, args) =
            Bench::Tatp.client_generator(PARTS, 3, orphan.id()).next_request(orphan.id());
        assert!(orphan.call(proc, args).is_err(), "orphan call must error, not hang");
        // A fresh runtime on the same thread serves and shuts down.
        let rt = LiveRuntime::start(
            Bench::Tatp.database(PARTS),
            Bench::Tatp.registry(),
            AssumeSinglePartition::new(),
            LiveConfig::default(),
        );
        let mut client = rt.client();
        let mut gen = Bench::Tatp.client_generator(PARTS, 3, client.id());
        for _ in 0..20 {
            let (proc, args) = gen.next_request(client.id());
            client.call(proc, args).expect("fresh runtime must serve");
        }
        let (m, db) = rt.shutdown();
        done_tx.send((m.committed + m.user_aborts, db.num_partitions())).unwrap();
    });
    let (finished, parts) =
        done_rx.recv_timeout(Duration::from_secs(120)).expect("drop/restart lifecycle deadlocked");
    assert_eq!(finished, 20, "fresh runtime lost transactions");
    assert_eq!(parts, PARTS);
}

/// The same shutdown race on the lock-free single-partition fast path: a
/// `Single` message can be queued *behind* the worker's shutdown sentinel
/// and dropped unprocessed when the worker exits. Because the reply
/// sender travels inside the message, that drop disconnects the reply
/// channel and the racing call must surface `Err` — not block forever on
/// a receiver whose sender the client itself keeps alive.
#[test]
fn shutdown_races_single_partition_calls_cleanly() {
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let cfg = LiveConfig { seed: 17, ..Default::default() };
        let rt = LiveRuntime::start(
            Bench::Tatp.database(PARTS),
            Bench::Tatp.registry(),
            AssumeSinglePartition::new(),
            cfg,
        );
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut client = rt.client();
            handles.push(std::thread::spawn(move || {
                let id = client.id();
                let mut gen = Bench::Tatp.client_generator(PARTS, 17, id);
                let mut completed = 0u64;
                // Far more requests than fit before the shutdown below:
                // the stream is still hammering the fast path when the
                // workers exit, so some calls race the sentinel.
                for _ in 0..200_000 {
                    let (proc, args) = gen.next_request(id);
                    if client.call(proc, args).is_err() {
                        break;
                    }
                    completed += 1;
                }
                completed
            }));
        }
        std::thread::sleep(Duration::from_millis(10));
        let (_, db) = rt.shutdown();
        let completed: u64 =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).sum();
        done_tx.send((completed, db.num_partitions())).unwrap();
    });
    let (completed, parts) = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("single-partition call racing shutdown hung");
    assert!(completed > 0, "some fast-path calls completed before shutdown");
    assert_eq!(parts, PARTS);
}
