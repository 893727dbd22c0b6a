//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablation_ptables` — pre-computed probability tables vs an on-demand
//!   graph traversal (the paper reports pre-computation saves ~24% of
//!   on-line estimation time, §3.1).
//! * `ablation_hasher` — the in-repo FxHash-style hasher vs SipHash on the
//!   Markov vertex-key map, the hottest table in the system.
//! * `ablation_mapping_threshold` — mapping-coefficient cutoff sweep (the
//!   paper found ≥0.9 values equivalent, §4.1).
//! * `ablation_early_prepare` — the engine with and without OP4 (early
//!   prepare + speculation), isolating that optimization's throughput value.

use bench::{collect_trace, run_sim, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use engine::baselines::Oracle;
use markov::{MarkovModel, QueryKind, VertexId};
use std::collections::HashMap;
use std::hint::black_box;
use trace::TraceRecord;
use workloads::Bench;

/// Recomputes a vertex's abort probability by traversing the graph — what
/// every on-line estimate would pay without pre-computed tables.
fn abort_prob_by_traversal(model: &MarkovModel, id: VertexId, memo: &mut Vec<f64>) -> f64 {
    if memo[id as usize] >= 0.0 {
        return memo[id as usize];
    }
    let v = model.vertex(id);
    let p = match v.key.kind {
        QueryKind::Abort => 1.0,
        QueryKind::Commit => 0.0,
        _ => v.edges.iter().map(|e| e.prob * abort_prob_by_traversal(model, e.to, memo)).sum(),
    };
    memo[id as usize] = p;
    p
}

fn ablation_ptables(c: &mut Criterion) {
    let (catalog, wl) = collect_trace(Bench::Tpcc, 4, 1500, 3);
    let resolver = engine::CatalogResolver::new(&catalog, 4);
    let records: Vec<&TraceRecord> = wl.for_proc(1);
    let model = markov::build_model(1, &records, &resolver);
    let starts: Vec<VertexId> = (0..model.len() as VertexId).collect();
    let mut group = c.benchmark_group("ablation_ptables");
    group.bench_function("precomputed_lookup", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &s in &starts {
                acc += model.vertex(s).table.abort;
            }
            black_box(acc)
        })
    });
    group.bench_function("on_demand_traversal", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            // Fresh memo per estimate: an on-line estimator cannot reuse
            // another transaction's traversal.
            for &s in &starts {
                let mut memo = vec![-1.0f64; model.len()];
                acc += abort_prob_by_traversal(&model, s, &mut memo);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn ablation_hasher(c: &mut Criterion) {
    let (catalog, wl) = collect_trace(Bench::Tpcc, 8, 1500, 3);
    let resolver = engine::CatalogResolver::new(&catalog, 8);
    let records: Vec<&TraceRecord> = wl.for_proc(1);
    let model = markov::build_model(1, &records, &resolver);
    let keys: Vec<markov::VertexKey> = model.vertices().iter().map(|v| v.key).collect();

    let mut fx: common::FxHashMap<markov::VertexKey, u32> = common::FxHashMap::default();
    let mut sip: HashMap<markov::VertexKey, u32> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        fx.insert(*k, i as u32);
        sip.insert(*k, i as u32);
    }
    let mut group = c.benchmark_group("ablation_hasher");
    group.bench_function("fxhash_vertex_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for k in &keys {
                acc = acc.wrapping_add(*fx.get(k).unwrap());
            }
            black_box(acc)
        })
    });
    group.bench_function("siphash_vertex_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for k in &keys {
                acc = acc.wrapping_add(*sip.get(k).unwrap());
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn ablation_mapping_threshold(c: &mut Criterion) {
    let (_, wl) = collect_trace(Bench::Tpcc, 4, 1500, 3);
    let records: Vec<&TraceRecord> = wl.for_proc(1);
    println!("# ablation_mapping_threshold: surviving NewOrder mapping entries");
    for threshold in [0.5, 0.8, 0.9, 0.95, 1.0] {
        let m = mapping::build_mapping(&records, &mapping::MappingConfig { threshold });
        println!("  threshold {threshold:.2}: {} entries", m.len());
    }
    let mut group = c.benchmark_group("ablation_mapping_threshold");
    group.bench_function("build_mapping_t0.9", |b| {
        b.iter(|| {
            black_box(
                mapping::build_mapping(&records, &mapping::MappingConfig { threshold: 0.9 }).len(),
            )
        })
    });
    group.finish();
}

fn ablation_early_prepare(c: &mut Criterion) {
    // Throughput with and without OP4, using the oracle so prediction
    // accuracy is not a confound.
    let with = run_sim(Bench::Tatp, 8, &Oracle::new(), Scale::Quick, 7).0.throughput_tps();
    let without = run_sim(Bench::Tatp, 8, &Oracle::without_early_prepare(), Scale::Quick, 7)
        .0
        .throughput_tps();
    println!(
        "# ablation_early_prepare (TATP, 8 partitions, oracle): \
         with OP4 = {with:.0} txn/s, without = {without:.0} txn/s"
    );
    let mut group = c.benchmark_group("ablation_early_prepare");
    group.sample_size(10);
    group.bench_function("tatp_oracle_with_op4", |b| {
        b.iter(|| black_box(run_sim(Bench::Tatp, 8, &Oracle::new(), Scale::Quick, 7).0.committed))
    });
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablation_ptables, ablation_hasher, ablation_mapping_threshold,
              ablation_early_prepare
}
criterion_main!(ablations);
