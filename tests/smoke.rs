//! Sub-second canary: the complete collect → train → simulate pipeline on a
//! tiny TATP instance. The heavyweight coverage lives in `end_to_end.rs`;
//! this test exists so `cargo test smoke` gives a fast signal that the
//! whole stack is wired together.

use predictive_oltp::prelude::*;

#[test]
fn tatp_collect_train_simulate_smoke() {
    let parts = 2;
    let n = 150;

    // Collect.
    let mut db = Bench::Tatp.database(parts);
    let registry = Bench::Tatp.registry();
    let catalog = registry.catalog();
    let mut gen = Bench::Tatp.generator(parts, 5);
    let wl = engine::collect_trace(&mut db, &registry, &mut gen, n, 4);
    assert_eq!(wl.records.len(), n);

    // Train.
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    assert_eq!(preds.len(), catalog.len());
    assert!(preds.iter().any(|p| !p.disabled), "training must enable some procedure");

    // Simulate (short measured window).
    let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());
    let mut db = Bench::Tatp.database(parts);
    let mut gen = Bench::Tatp.generator(parts, 6);
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 5_000.0,
        measure_us: 25_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, &houdini, &mut gen, CostModel::default(), cfg);
    let metrics = sim.run().expect("simulation must not halt");
    assert!(metrics.committed > 0, "smoke simulation must commit transactions");
}
