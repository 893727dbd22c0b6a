//! Model partitioning (paper §5, Fig. 9): feature extraction from procedure
//! input parameters, EM clustering, feed-forward feature selection, and the
//! run-time decision tree — shown on AuctionMark's GetUserInfo, whose
//! conditional branches are the showcase for per-cluster models.
//!
//! Run with: `cargo run --release --example model_partitioning`

use common::Value;
use houdini::{train, ModelSet, TrainingConfig};
use ml::{extract_features, feature_schema};
use workloads::{auctionmark, Bench};

fn main() {
    let parts = 4;
    let bench = Bench::AuctionMark;
    let mut db = bench.database(parts);
    let registry = bench.registry();
    let catalog = registry.catalog();

    // Show Table 1/Table 2 feature extraction on one request.
    let args = vec![Value::Int(7), Value::Int(1), Value::Int(0), Value::Int(0)];
    let schema = feature_schema(args.len());
    println!("feature vector for GetUserInfo{args:?} (Table 2 style):");
    let fv = extract_features(&schema, &args, parts);
    for (f, v) in schema.iter().zip(&fv) {
        println!(
            "  {}(param {}) = {}",
            f.category.label(),
            f.param,
            v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
        );
    }

    // Train with clustering enabled and inspect the chosen partitioning.
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
            ModelSet::Partitioned { selected, schema, tree, models, .. } => {
                let feats: Vec<String> = selected
                    .iter()
                    .map(|&i| format!("{}({})", schema[i].category.label(), schema[i].param))
                    .collect();
                println!(
                    "  {name:<18} {} clusters on {feats:?}, tree depth {}, {} total states",
                    models.len(),
                    tree.depth(),
                    models.iter().map(|m| m.len()).sum::<usize>()
                );
            }
        }
    }
}
