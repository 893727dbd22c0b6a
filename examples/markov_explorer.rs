//! Builds the paper's Fig. 4 artifact: a global Markov model for the TPC-C
//! NewOrder procedure on a 2-partition database, printed as Graphviz DOT
//! together with the Fig. 5-style probability table of a GetWarehouse state.
//!
//! Run with: `cargo run --release --example markov_explorer > neworder.dot`

use common::PartitionSet;
use engine::CatalogResolver;
use markov::{build_model, to_dot};
use workloads::{tpcc, Bench};

fn main() {
    let parts = 2;
    let mut db = Bench::Tpcc.database(parts);
    let registry = Bench::Tpcc.registry();
    let catalog = registry.catalog();
    let no = catalog.proc_id("NewOrder").expect("NewOrder exists");

    // Collect a NewOrder-heavy trace.
    let mut gen = tpcc::Generator::new(parts, 7);
    let mut records = engine::collect_trace(&mut db, &registry, &mut gen, 4000, 8).records;
    records.retain(|r| r.proc == no);
    eprintln!("collected {} NewOrder records", records.len());

    let resolver = CatalogResolver::new(&catalog, parts);
    let refs: Vec<&trace::TraceRecord> = records.iter().collect();
    let model = build_model(no, &refs, &resolver);
    eprintln!(
        "model: {} states, begin out-degree {} (one GetWarehouse per partition)",
        model.len(),
        model.vertex(model.begin()).edges.len()
    );

    // Fig. 5: the probability table of the partition-0 GetWarehouse state.
    if let Some(v) = model
        .vertices()
        .iter()
        .find(|v| v.name == "GetWarehouse" && v.key.partitions == PartitionSet::single(0))
    {
        eprintln!("GetWarehouse@p0 probability table:");
        eprintln!("  single-partitioned = {:.2}", v.table.single_partition);
        eprintln!("  abort              = {:.2}", v.table.abort);
        for (p, pp) in v.table.partitions.iter().enumerate() {
            eprintln!(
                "  partition {p}: read {:.2}  write {:.2}  finish {:.2}",
                pp.read, pp.write, pp.finish
            );
        }
    }

    // Fig. 4: the DOT graph on stdout.
    println!("{}", to_dot(&model, "NewOrder"));
}
