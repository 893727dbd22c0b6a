//! Head-to-head on TPC-C: Houdini versus the paper's baselines on one
//! cluster size, reporting throughput and the optimization counters that
//! Table 4 tracks.
//!
//! Run with: `cargo run --release --example tpcc_houdini [partitions]`

use engine::baselines::{AssumeDistributed, AssumeSinglePartition, Oracle};
use engine::{CostModel, LiveAdvisor, SimConfig, Simulation};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use workloads::Bench;

/// Simulates `bench` under `advisor` and prints its report row.
fn run<A: LiveAdvisor>(bench: Bench, parts: u32, name: &str, advisor: &A) -> engine::RunMetrics {
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let mut gen = bench.generator(parts, 99);
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 100_000.0,
        measure_us: 500_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, advisor, &mut gen, CostModel::default(), cfg);
    let m = sim.run().expect("simulation");
    let lat = m.mean_latency_ms().map_or_else(|| "-".to_string(), |ms| format!("{ms:.2}"));
    println!("{name:<26} {:>9.0} {lat:>9} {:>9} {:>9}", m.throughput_tps(), m.restarts, m.no_undo);
    m
}

fn main() {
    let parts: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(16);
    let bench = Bench::Tpcc;
    println!("TPC-C, {parts} partitions, 0.5 simulated seconds measured\n");

    // Train Houdini from an offline trace (paper §3.2/§4.1/§5).
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let catalog = registry.catalog();
    let mut gen = bench.generator(parts, 42);
    let workload = engine::collect_trace(&mut db, &registry, &mut gen, 4000, 16);
    let preds = train(&catalog, parts, &workload, &TrainingConfig::default());
    let houdini = Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default());

    println!(
        "{:<26} {:>9} {:>9} {:>9} {:>9}",
        "strategy", "txn/s", "lat(ms)", "restarts", "no-undo"
    );
    let m = run(bench, parts, "houdini", &houdini);
    run(bench, parts, "proper-selection (oracle)", &Oracle::new());
    run(bench, parts, "assume-single-partition", &AssumeSinglePartition::new());
    run(bench, parts, "assume-distributed", &AssumeDistributed::new());
    println!(
        "\nHoudini maintenance (§4.5): {} feedback records, {} model swaps, {} replans",
        m.feedback_records, m.model_swaps, m.restarts
    );
}
