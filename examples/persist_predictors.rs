//! The paper's deployment story (Fig. 6): collect a trace, train off-line,
//! ship the serialized predictors to every node, and load them back.
//! Exercises the predictor bundle end-to-end.
//!
//! Run with: `cargo run --release --example persist_predictors`

use houdini::{load_predictors, save_predictors, train, TrainingConfig};
use workloads::Bench;

fn main() {
    let parts = 4;
    let n = 500;

    // Collect a TATP trace.
    let mut db = Bench::Tatp.database(parts);
    let registry = Bench::Tatp.registry();
    let catalog = registry.catalog();
    let mut gen = Bench::Tatp.generator(parts, 17);
    let wl = engine::collect_trace(&mut db, &registry, &mut gen, n, 8);

    println!("trace: {} records", wl.len());

    // Train and round-trip the predictor bundle.
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    let mut bundle = Vec::new();
    save_predictors(&preds, parts, &mut bundle).expect("save predictors");
    println!("predictors: {} procedures, {} bundle bytes", preds.len(), bundle.len());
    let loaded = load_predictors(&bundle[..], parts).expect("load predictors");
    assert_eq!(loaded.len(), preds.len());
    let models: usize = loaded.iter().map(|p| p.models.len()).sum();
    println!("predictor round-trip: OK ({models} models rebuilt with fresh indexes)");

    // Loading against the wrong cluster size must be refused (§3.1).
    match load_predictors(&bundle[..], parts * 2) {
        Err(e) => println!("wrong-cluster load correctly refused: {e}"),
        Ok(_) => panic!("stale predictors must not load"),
    }
}
