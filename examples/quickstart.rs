//! Quickstart: build a Markov model from a workload trace, estimate a new
//! transaction's execution path, and run a small cluster simulation with the
//! Houdini advisor.
//!
//! Run with: `cargo run --release --example quickstart`

use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use workloads::Bench;

fn main() {
    let parts = 4;
    let bench = Bench::Tpcc;

    // 1. Load the benchmark database and collect a workload trace (paper
    //    §3.1): procedure inputs plus the queries each transaction executed.
    println!("== collecting a 2,000-transaction TPC-C trace on {parts} partitions ==");
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let catalog = registry.catalog();
    let mut gen = bench.generator(parts, 42);
    let workload = engine::collect_trace(&mut db, &registry, &mut gen, 2_000, 16);

    // 2. Train Houdini: parameter mappings (§4.1) + Markov models (§3.2),
    //    partitioned by input-parameter features (§5).
    println!("== training Houdini (mappings, models, partitioning) ==");
    let training = TrainingConfig::default();
    let predictors = train(&catalog, parts, &workload, &training);
    for (proc, pred) in predictors.iter().enumerate() {
        println!(
            "  {:<12} {} model(s), {} states, {} mapped query params{}",
            catalog.proc(proc as u32).name,
            pred.models.len(),
            pred.models.total_states(),
            pred.mapping.len(),
            if pred.disabled { " [disabled]" } else { "" }
        );
    }

    // 3. Run the timed cluster simulation with Houdini choosing the base
    //    partition (OP1), lock sets (OP2), undo logging (OP3), and early
    //    prepares (OP4).
    println!("== simulating 1 simulated second of TPC-C under Houdini ==");
    let houdini = Houdini::new(predictors, catalog, parts, HoudiniConfig::default());
    let mut db = bench.database(parts);
    let mut gen = bench.generator(parts, 43);
    let cfg = engine::SimConfig {
        num_partitions: parts,
        warmup_us: 100_000.0,
        measure_us: 1_000_000.0,
        ..Default::default()
    };
    let sim = engine::Simulation::new(
        &mut db,
        &registry,
        &houdini,
        &mut gen,
        engine::CostModel::default(),
        cfg,
    );
    let (metrics, profiler) = sim.run().expect("simulation");
    println!("  throughput       : {:>8.0} txn/s", metrics.throughput_tps());
    match metrics.mean_latency_ms() {
        Some(ms) => println!("  mean latency     : {ms:>8.2} ms"),
        None => println!("  mean latency     :        - (no commits in window)"),
    }
    println!("  single-partition : {:>8}", metrics.single_partition);
    println!("  distributed      : {:>8}", metrics.distributed);
    println!("  no-undo txns     : {:>8}", metrics.no_undo);
    println!("  restarts         : {:>8}", metrics.restarts);
    println!(
        "  estimation share : {:>8.1} %",
        100.0 * profiler.overall_share(engine::Bucket::Estimation)
    );
}
