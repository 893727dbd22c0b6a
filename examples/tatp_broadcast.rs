//! The TATP broadcast-then-narrow pattern (paper Fig. 10a): the three
//! procedures that open with a broadcast query make OP1 unpredictable and
//! OP4 essential. This example shows the parameter mapping failing to link
//! the derived subscriber id (correctly!), the resulting uncertain path
//! estimate, and the runtime updates that still release partitions early.
//!
//! Run with: `cargo run --release --example tatp_broadcast`

use common::Value;
use houdini::{train, CatalogRule, TrainingConfig};
use markov::{estimate_path, EstimateConfig};
use workloads::{tatp, Bench};

fn main() {
    let parts = 4;
    let bench = Bench::Tatp;
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let catalog = registry.catalog();

    // Trace + training.
    let mut gen = tatp::Generator::new(parts, 5);
    let workload = engine::collect_trace(&mut db, &registry, &mut gen, 4000, 16);
    let preds = train(&catalog, parts, &workload, &TrainingConfig::default());

    let ul = catalog.proc_id("UpdateLocation").expect("proc") as usize;
    let pred = &preds[ul];
    println!("UpdateLocation(sub_nbr, vlr_location):");
    println!(
        "  mapping entries: {} (the broadcast lookup's derived s_id is — correctly — unmapped)",
        pred.mapping.len()
    );

    // Estimate a path: the broadcast step is certain, the narrow step is
    // uncertain (chosen by edge weight, §4.2).
    let args = vec![Value::Str(tatp::sub_nbr(7)), Value::Int(123)];
    let idx = pred.models.select(&args);
    let model = pred.models.model(idx);
    let rule = CatalogRule::new(&catalog, ul as u32, parts);
    let est = estimate_path(model, &rule, &pred.mapping, &args, &EstimateConfig::default());
    println!("  estimated path:");
    for &v in &est.vertices {
        let vx = model.vertex(v);
        println!("    {} partitions={} previous={}", vx.name, vx.key.partitions, vx.key.previous);
    }
    println!("  uncertain steps : {}", est.uncertain_steps);
    println!("  touched         : {} (broadcast forces lock-all)", est.touched);
    println!("  confidence      : {:.3}", est.confidence);

    // The runtime update at the narrow state declares every other partition
    // finished — the early prepare that keeps the cluster busy (OP4).
    let narrow =
        est.vertices.iter().map(|&v| model.vertex(v)).find(|vx| vx.name == "UpdateSubscriberLoc");
    if let Some(vx) = narrow {
        println!("  finish probabilities at the narrow state:");
        for p in 0..parts {
            println!("    partition {p}: {:.2}", vx.table.finish(p));
        }
    }
}
