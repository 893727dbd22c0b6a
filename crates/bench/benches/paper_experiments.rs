//! One criterion bench per paper table/figure: each group times the hot
//! kernel of the corresponding experiment at reduced scale and prints the
//! reproduced rows once. Full-scale regeneration lives in the `experiments`
//! binary (`cargo run -p bench --release --bin experiments -- all --full`).

use bench::experiments::run_experiment;
use bench::{collect_trace, new_order_generator, run_sim, trained_houdini, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use engine::baselines::Oracle;
use engine::RequestGenerator;
use houdini::{evaluate_accuracy, train, CatalogRule, TrainingConfig};
use markov::{estimate_path, EstimateConfig};
use std::hint::black_box;
use trace::TraceRecord;
use workloads::Bench;

/// Fig. 3 kernel: a NewOrder-only simulation tick under proper selection.
fn fig3_motivating(c: &mut Criterion) {
    println!("{}", run_experiment("fig3", Scale::Quick));
    c.bench_function("fig3/neworder_sim_4p_oracle", |b| {
        b.iter(|| {
            let mut db = Bench::Tpcc.database(4);
            let reg = Bench::Tpcc.registry();
            let advisor = Oracle::new();
            let mut gen = new_order_generator(4, 11);
            let cfg = engine::SimConfig {
                num_partitions: 4,
                warmup_us: 0.0,
                measure_us: 30_000.0,
                ..Default::default()
            };
            let sim = engine::Simulation::new(
                &mut db,
                &reg,
                &advisor,
                &mut gen,
                engine::CostModel::default(),
                cfg,
            );
            black_box(sim.run().expect("sim").0.committed)
        })
    });
}

/// Figs. 4/5 kernel: building the NewOrder model from a trace.
fn fig4_model_build(c: &mut Criterion) {
    println!("{}", run_experiment("fig5", Scale::Quick));
    let (catalog, wl) = collect_trace(Bench::Tpcc, 2, 1500, 4);
    let resolver = engine::CatalogResolver::new(&catalog, 2);
    let records: Vec<&TraceRecord> = wl.for_proc(1);
    c.bench_function("fig4/build_neworder_model", |b| {
        b.iter(|| black_box(markov::build_model(1, &records, &resolver).len()))
    });
}

/// Fig. 7 kernel: deriving the parameter mapping.
fn fig7_mapping(c: &mut Criterion) {
    println!("{}", run_experiment("fig7", Scale::Quick));
    let (_, wl) = collect_trace(Bench::Tpcc, 2, 1500, 4);
    let records: Vec<&TraceRecord> = wl.for_proc(1);
    c.bench_function("fig7/build_neworder_mapping", |b| {
        b.iter(|| {
            black_box(mapping::build_mapping(&records, &mapping::MappingConfig::default()).len())
        })
    });
}

/// Fig. 8 / Table 4 estimation kernel: one initial path estimate — the
/// per-transaction cost Houdini pays on-line (§6.3 measures it at
/// microseconds-to-milliseconds per procedure).
fn fig8_estimation(c: &mut Criterion) {
    println!("{}", run_experiment("fig8", Scale::Quick));
    let parts = 16;
    let (catalog, wl) = collect_trace(Bench::Tpcc, parts, 2000, 8);
    let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
    let pred = &preds[1];
    let mut gen = workloads::tpcc::Generator::new(parts, 77);
    let reqs: Vec<Vec<common::Value>> = (0..64)
        .filter_map(|i| {
            let (proc, args) = gen.next_request(i % 8);
            (proc == 1).then_some(args)
        })
        .collect();
    let rule = CatalogRule::new(&catalog, 1, parts);
    let cfg = EstimateConfig::default();
    c.bench_function("fig8/estimate_neworder_path_16p", |b| {
        let mut i = 0;
        b.iter(|| {
            let args = &reqs[i % reqs.len()];
            i += 1;
            let idx = pred.models.select(args);
            let est = estimate_path(pred.models.model(idx), &rule, &pred.mapping, args, &cfg);
            black_box(est.touched)
        })
    });
}

/// Fig. 9 kernel: the full model-partitioning training pipeline.
fn fig9_training(c: &mut Criterion) {
    println!("{}", run_experiment("fig9", Scale::Quick));
    let (catalog, wl) = collect_trace(Bench::Tpcc, 2, 800, 4);
    let records: Vec<&TraceRecord> = wl.for_proc(1);
    c.bench_function("fig9/train_partitioned_neworder", |b| {
        b.iter(|| {
            let pred = houdini::train_proc(&catalog, 2, 1, &records, &TrainingConfig::default());
            black_box(pred.models.total_states())
        })
    });
}

/// Table 3 kernel: off-line accuracy evaluation of a trained predictor.
fn table3_accuracy(c: &mut Criterion) {
    println!("{}", run_experiment("table3", Scale::Quick));
    let parts = 16;
    let (catalog, wl) = collect_trace(Bench::Tatp, parts, 2000, 23);
    let (train_recs, test_recs) = wl.records.split_at(1000);
    let tw = trace::Workload { records: train_recs.to_vec() };
    let preds = train(&catalog, parts, &tw, &TrainingConfig::default());
    let test: Vec<&TraceRecord> = test_recs.iter().filter(|r| r.proc == 3).collect();
    c.bench_function("table3/evaluate_getsubscriber_accuracy", |b| {
        b.iter(|| black_box(evaluate_accuracy(&preds[3], &catalog, parts, 3, &test, 0.5).total))
    });
}

/// Fig. 11 / Table 4 / Fig. 12 kernel: a timed Houdini simulation tick.
fn fig12_throughput(c: &mut Criterion) {
    println!("{}", run_experiment("fig10", Scale::Quick));
    println!("{}", run_experiment("fig11", Scale::Quick));
    println!("{}", run_experiment("table4", Scale::Quick));
    println!("{}", run_experiment("fig12", Scale::Quick));
    let houdini = trained_houdini(Bench::Tatp, 8, 1200, true, 0.5, 31);
    c.bench_function("fig12/tatp_houdini_sim_8p", |b| {
        b.iter(|| black_box(run_sim(Bench::Tatp, 8, &houdini, Scale::Quick, 37).0.committed))
    });
}

/// Fig. 13 kernel: threshold sensitivity (prints the sweep, times one run).
fn fig13_confidence(c: &mut Criterion) {
    println!("{}", run_experiment("fig13", Scale::Quick));
    let houdini = trained_houdini(Bench::Tpcc, 8, 1200, true, 0.0, 41);
    c.bench_function("fig13/tpcc_houdini_sim_threshold0", |b| {
        b.iter(|| black_box(run_sim(Bench::Tpcc, 8, &houdini, Scale::Quick, 43).0.committed))
    });
    let _: u64 = {
        // keep the generator helper linked
        let mut g = new_order_generator(2, 1);
        g.next_request(0).0.into()
    };
}

criterion_group! {
    name = paper;
    config = Criterion::default().sample_size(10);
    targets = fig3_motivating, fig4_model_build, fig7_mapping, fig8_estimation,
              fig9_training, table3_accuracy, fig12_throughput, fig13_confidence
}
criterion_main!(paper);
