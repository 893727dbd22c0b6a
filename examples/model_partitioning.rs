//! Model partitioning (paper §5, Fig. 9): feature extraction from procedure
//! input parameters, and the per-procedure choice of one feature whose
//! value routes each request to its own Markov model — shown on
//! AuctionMark's GetUserInfo, whose conditional branches are the showcase
//! for per-value models.
//!
//! Run with: `cargo run --release --example model_partitioning`

use common::Value;
use houdini::feature::{extract_feature, feature_schema};
use houdini::{train, ModelSet, TrainingConfig};
use workloads::{auctionmark, Bench};

/// A feature value as Table 2 prints it.
fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

fn main() {
    let parts = 4;
    let bench = Bench::AuctionMark;
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let catalog = registry.catalog();

    // Show Table 1/Table 2 feature extraction on one request.
    let args = vec![Value::Int(7), Value::Int(1), Value::Int(0), Value::Int(0)];
    println!("feature vector for GetUserInfo{args:?} (Table 2 style):");
    for f in feature_schema(args.len()) {
        println!("  {f} = {}", show(extract_feature(&f, &args, parts)));
    }

    // Train with partitioning enabled and inspect each procedure's split.
    let mut gen = auctionmark::Generator::new(parts, 3);
    let workload = engine::collect_trace(&mut db, &registry, &mut gen, 6000, 16);
    let preds = train(&catalog, parts, &workload, &TrainingConfig::default());

    println!("\nper-procedure model sets:");
    for (proc, pred) in preds.iter().enumerate() {
        let name = &catalog.proc(proc as u32).name;
        match &pred.models {
            _ if pred.disabled => println!("  {name:<18} DISABLED (>175 queries, §4.6)"),
            ModelSet::Global { model, .. } => {
                println!("  {name:<18} global model, {} states", model.len());
            }
            ModelSet::Partitioned { feature, routes, models, .. } => {
                let values: Vec<String> = routes.iter().map(|&v| show(v)).collect();
                println!(
                    "  {name:<18} split on {feature} = {{{}}} + global fallback, {} total states",
                    values.join(", "),
                    models.iter().map(|m| m.len()).sum::<usize>()
                );
            }
        }
    }
}
