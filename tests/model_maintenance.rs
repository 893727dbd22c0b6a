//! Workload-drift integration test (paper §4.5): models trained on one
//! workload keep serving after the workload shifts, and the on-line
//! maintenance recomputes probabilities from the live counters instead of
//! requiring regeneration.

use engine::{CostModel, SimConfig, Simulation};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use trace::Workload;
use workloads::{tpcc, Bench};

fn tpcc_trace(parts: u32, n: usize, remote_prob: f64, seed: u64) -> (engine::Catalog, Workload) {
    let registry = Bench::Tpcc.registry();
    let mut gen = tpcc::Generator::new(parts, seed);
    gen.remote_item_prob = remote_prob;
    gen.remote_payment_prob = remote_prob;
    let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &registry, &mut gen, n, 8);
    (registry.catalog(), wl)
}

#[test]
fn drifted_workload_triggers_recomputation_and_still_commits() {
    let parts = 4;
    // Train on an all-local workload...
    let (catalog, wl) = tpcc_trace(parts, 1200, 0.0, 5);
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());

    // ...then run a workload where half the items are remote.
    let mut db = Bench::Tpcc.database(parts);
    let registry = Bench::Tpcc.registry();
    let mut gen = tpcc::Generator::new(parts, 7);
    gen.remote_item_prob = 0.5;
    gen.remote_payment_prob = 0.5;
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 50_000.0,
        measure_us: 400_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, &houdini, &mut gen, CostModel::default(), cfg);
    let metrics = sim.run().expect("drifted run must not halt");

    assert!(metrics.committed > 200, "committed = {}", metrics.committed);
    assert!(
        metrics.model_swaps >= 1,
        "drift must trigger at least one §4.5 recomputation \
         (got {}, restarts {})",
        metrics.model_swaps,
        metrics.restarts
    );
}

#[test]
fn stable_workload_does_not_thrash_the_models() {
    let parts = 4;
    let (catalog, wl) = tpcc_trace(parts, 1200, 0.02, 5);
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());

    let mut db = Bench::Tpcc.database(parts);
    let registry = Bench::Tpcc.registry();
    let mut gen = tpcc::Generator::new(parts, 7); // same distribution as training
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 50_000.0,
        measure_us: 300_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, &houdini, &mut gen, CostModel::default(), cfg);
    let metrics = sim.run().expect("stable run");
    assert!(metrics.committed > 200);
    assert!(
        metrics.model_swaps <= 2,
        "a matching workload should rarely trip maintenance (got {})",
        metrics.model_swaps
    );
}

/// A mispredicted attempt's executed prefix is maintenance signal (§4.5):
/// the simulator tears the superseded session down before replanning —
/// exactly as `Client::call` does — so every attempt, not just every
/// transaction, yields one feedback record. (Regression: the simulator
/// used to overwrite the aborted attempt's walk on replan.)
#[test]
fn simulator_emits_one_feedback_record_per_attempt() {
    let parts = 4;
    let (catalog, wl) = tpcc_trace(parts, 1200, 0.0, 5);
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    assert!(preds.iter().all(|p| !p.disabled), "every procedure tracked: no passive sessions");
    let houdini = Houdini::new(preds, catalog, parts, HoudiniConfig::default());

    // Remote items the all-local models never saw: plenty of mispredicts.
    let mut db = Bench::Tpcc.database(parts);
    let registry = Bench::Tpcc.registry();
    let mut gen = tpcc::Generator::new(parts, 7);
    gen.remote_item_prob = 0.5;
    gen.remote_payment_prob = 0.5;
    let cfg = SimConfig {
        num_partitions: parts,
        warmup_us: 0.0,
        measure_us: 1e12, // the request cap ends the run: every commit is counted
        max_requests_per_client: Some(40),
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &registry, &houdini, &mut gen, CostModel::default(), cfg);
    let m = sim.run().expect("run must not halt");

    assert!(m.restarts > 0, "the drifted stream must mispredict to exercise the teardown");
    assert_eq!(
        m.feedback_records,
        m.committed + m.user_aborts + m.restarts,
        "one feedback record per attempt"
    );
}
