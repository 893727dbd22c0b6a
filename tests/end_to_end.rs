//! End-to-end integration tests: trace collection → training → timed
//! simulation for every benchmark, plus cross-advisor sanity properties.

use engine::baselines::{AssumeDistributed, AssumeSinglePartition, Oracle};
use predictive_oltp::prelude::*;

fn collect(bench: Bench, parts: u32, n: usize, seed: u64) -> (engine::Catalog, Workload) {
    let registry = bench.registry();
    let mut gen = bench.generator(parts, seed);
    let wl = engine::collect_trace(&mut bench.database(parts), &registry, &mut gen, n, 16);
    (registry.catalog(), wl)
}

fn simulate<A: LiveAdvisor>(
    bench: Bench,
    parts: u32,
    advisor: &A,
    seed: u64,
) -> engine::RunMetrics {
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let mut gen = bench.generator(parts, seed);
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 50_000.0,
        measure_us: 250_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, advisor, &mut gen, CostModel::default(), cfg);
    sim.run().expect("simulation must not halt")
}

#[test]
fn houdini_runs_every_benchmark() {
    for bench in Bench::ALL {
        let parts = 4;
        let (catalog, wl) = collect(bench, parts, 1000, 11);
        let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
        let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());
        let m = simulate(bench, parts, &houdini, 13);
        assert!(m.committed > 200, "{}: committed = {}", bench.name(), m.committed);
        assert!(m.throughput_tps() > 500.0, "{}: tps = {}", bench.name(), m.throughput_tps());
    }
}

#[test]
fn houdini_beats_assume_single_partition_on_tatp() {
    let parts = 8;
    let (catalog, wl) = collect(Bench::Tatp, parts, 1500, 21);
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());
    let mh = simulate(Bench::Tatp, parts, &houdini, 23);
    let asp = AssumeSinglePartition::new();
    let ma = simulate(Bench::Tatp, parts, &asp, 23);
    // The paper reports a 26%+ TATP improvement (§6.4); require a clear win.
    assert!(
        mh.throughput_tps() > 1.2 * ma.throughput_tps(),
        "houdini {} vs assume-sp {}",
        mh.throughput_tps(),
        ma.throughput_tps()
    );
}

#[test]
fn everyone_beats_assume_distributed() {
    let parts = 8;
    let adist = AssumeDistributed::new();
    let md = simulate(Bench::Tpcc, parts, &adist, 31);
    let oracle = Oracle::new();
    let mo = simulate(Bench::Tpcc, parts, &oracle, 31);
    assert!(
        mo.throughput_tps() > 2.0 * md.throughput_tps(),
        "oracle {} vs lock-all {}",
        mo.throughput_tps(),
        md.throughput_tps()
    );
}

#[test]
fn oracle_never_restarts_and_never_halts() {
    for bench in Bench::ALL {
        let oracle = Oracle::new();
        let m = simulate(bench, 4, &oracle, 41);
        assert_eq!(m.restarts, 0, "{}: oracle mispredicted", bench.name());
    }
}

#[test]
fn simulation_is_deterministic() {
    let parts = 4;
    let (catalog, wl) = collect(Bench::Tpcc, parts, 800, 51);
    let cfg = TrainingConfig::default();
    let run = || {
        let preds = train(&catalog, parts, &wl, &cfg);
        let houdini = Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default());
        simulate(Bench::Tpcc, parts, &houdini, 53)
    };
    let a = run();
    let b = run();
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.no_undo, b.no_undo);
    assert!((a.total_latency_us - b.total_latency_us).abs() < 1e-6);
}

#[test]
fn database_invariants_hold_after_tpcc_run() {
    // AuctionMark money conservation-ish: the simulator must leave the
    // database structurally sound — row counts for immutable tables
    // unchanged, and every committed NewOrder's order row present exactly
    // once (no partial effects survive aborts/restarts).
    let parts = 4;
    let bench = Bench::Tpcc;
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let catalog = registry.catalog();
    let warehouses_before = db.total_rows(workloads::tpcc::tables::WAREHOUSE);
    let customers_before = db.total_rows(workloads::tpcc::tables::CUSTOMER);
    let stock_before = db.total_rows(workloads::tpcc::tables::STOCK);

    let mut gen = bench.generator(parts, 61);
    let oracle = Oracle::new();
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 0.0,
        measure_us: 200_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, &oracle, &mut gen, CostModel::default(), cfg);
    sim.run().expect("run");
    let _ = catalog;
    assert_eq!(db.total_rows(workloads::tpcc::tables::WAREHOUSE), warehouses_before);
    assert_eq!(db.total_rows(workloads::tpcc::tables::CUSTOMER), customers_before);
    assert_eq!(db.total_rows(workloads::tpcc::tables::STOCK), stock_before);
    // Orders only grow (NewOrder inserts; nothing deletes orders).
    assert!(db.total_rows(workloads::tpcc::tables::ORDERS) >= 20 * parts as usize);
}

#[test]
fn accuracy_pipeline_runs_for_all_benchmarks() {
    use houdini::evaluate_accuracy;
    let parts = 4;
    for bench in Bench::ALL {
        let (catalog, wl) = collect(bench, parts, 1200, 71);
        let (train_recs, test_recs) = wl.records.split_at(600);
        let tw = Workload { records: train_recs.to_vec() };
        let preds = train(&catalog, parts, &tw, &TrainingConfig::default());
        let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());
        let agg = evaluate_accuracy(&houdini, test_recs);
        assert!(agg.txns > 300, "{}: {} txns evaluated", bench.name(), agg.txns);
        assert_eq!(
            agg.op3_pct(),
            100.0,
            "{}: OP3 accuracy {:.1}% — fatal mispredicts are forbidden",
            bench.name(),
            agg.op3_pct()
        );
        assert!(agg.total_pct() > 60.0, "{}: total accuracy {:.1}%", bench.name(), agg.total_pct());
    }
}
