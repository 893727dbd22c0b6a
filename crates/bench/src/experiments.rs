//! One function per simulator paper artifact (tables and figures), plus the
//! id table the `experiments` binary dispatches on. Each function returns
//! the formatted rows it prints, so the binary and EXPERIMENTS.md stay in
//! sync. The wall-clock experiments and the `check` gates live in
//! [`crate::live`].

use crate::live::{check, live, live_drift, live_latency};
use crate::setup::{
    collect_trace, new_order_generator, run_sim, sim_config, trained_houdini, Scale,
};
use common::Value;
use engine::baselines::{AssumeDistributed, AssumeSinglePartition, Oracle};
use engine::{Bucket, CostModel, LiveAdvisor, Simulation};
use houdini::{
    evaluate_accuracy, train, CatalogRule, Houdini, HoudiniConfig, ModelSet, TrainingConfig,
};
use mapping::ParamSource;
use markov::{estimate_path, to_dot, EstimateConfig, QueryKind};
use std::fmt::Write as _;
use workloads::Bench;

/// Cluster sizes of Figs. 3 and 12.
pub const CLUSTER_SIZES: [u32; 5] = [4, 8, 16, 32, 64];

/// Table 4 procedure letters, keyed by (benchmark, registry index).
pub fn proc_letter(bench: Bench, proc: usize) -> char {
    let base = match bench {
        Bench::Tatp => b'A',
        Bench::Tpcc => b'H',
        Bench::AuctionMark => b'M',
    };
    (base + proc as u8) as char
}

fn new_order_trace(parts: u32, n: usize, seed: u64) -> (engine::Catalog, trace::Workload) {
    let reg = Bench::Tpcc.registry();
    let mut gen = new_order_generator(parts, seed);
    let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &reg, &mut gen, n, 8);
    (reg.catalog(), wl)
}

/// Fig. 3 — NewOrder throughput vs partitions under the three §2.1
/// execution strategies.
pub fn fig3(scale: Scale) -> String {
    fn tps<A: LiveAdvisor>(parts: u32, scale: Scale, advisor: &A) -> f64 {
        let mut db = Bench::Tpcc.database(parts);
        let reg = Bench::Tpcc.registry();
        let mut gen = new_order_generator(parts, 11);
        let cfg = sim_config(parts, scale, 17);
        let sim = Simulation::new(&mut db, &reg, advisor, &mut gen, CostModel::default(), cfg);
        let m = sim.run().expect("fig3 sim");
        m.throughput_tps()
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 3: NewOrder throughput (txn/s) vs partitions\n\
         parts  proper-selection  assume-single-partition  assume-distributed"
    );
    for parts in CLUSTER_SIZES {
        let _ = writeln!(
            out,
            "{parts:5}  {:16.0}  {:16.0}  {:16.0}",
            tps(parts, scale, &Oracle::new()),
            tps(parts, scale, &AssumeSinglePartition::new()),
            tps(parts, scale, &AssumeDistributed::new()),
        );
    }
    out
}

/// Fig. 4 — the global NewOrder Markov model for a 2-partition database
/// (DOT plus structural stats).
pub fn fig4() -> String {
    let (catalog, wl) = new_order_trace(2, 2_000, 4);
    let resolver = engine::CatalogResolver::new(&catalog, 2);
    let records = wl.for_proc(1);
    let model = markov::build_model(1, &records, &resolver);
    let states = model.len();
    let edges: usize = model.vertices().iter().map(|v| v.edges.len()).sum();
    let mut out = format!(
        "# Fig. 4: global NewOrder Markov model, 2 partitions\n\
         states = {states} (incl. begin/commit/abort), edges = {edges}\n"
    );
    let _ = writeln!(
        out,
        "begin successors = {} (one GetWarehouse state per partition)",
        model.vertex(model.begin()).edges.len()
    );
    out.push_str(&to_dot(&model, "NewOrder"));
    out
}

/// Fig. 5 — the probability table of a first GetWarehouse state.
pub fn fig5() -> String {
    let (catalog, wl) = new_order_trace(2, 2_000, 4);
    let resolver = engine::CatalogResolver::new(&catalog, 2);
    let records = wl.for_proc(1);
    let model = markov::build_model(1, &records, &resolver);
    // Find GetWarehouse counter 0 at partition 0 with empty previous.
    let v = model
        .vertices()
        .iter()
        .find(|v| {
            v.name == "GetWarehouse"
                && v.key.counter == 0
                && v.key.partitions == common::PartitionSet::single(0)
        })
        .expect("GetWarehouse state");
    let mut out = String::from("# Fig. 5: probability table of GetWarehouse (partition 0)\n");
    let _ = writeln!(out, "Single-Partitioned: {:.2}", v.table.single_partition);
    let _ = writeln!(out, "Abort:              {:.2}", v.table.abort);
    let _ = writeln!(out, "partition  read  write  finish");
    for (p, pp) in v.table.partitions.iter().enumerate() {
        let _ = writeln!(out, "{p:9}  {:.2}  {:.2}   {:.2}", pp.read, pp.write, pp.finish);
    }
    out
}

/// Fig. 7 — the NewOrder parameter mapping.
pub fn fig7() -> String {
    let (catalog, wl) = new_order_trace(2, 2_000, 4);
    let records = wl.for_proc(1);
    let mapping = mapping::build_mapping(&records);
    let mut out = String::from("# Fig. 7: NewOrder parameter mapping\n");
    let proc = catalog.proc(1);
    for ((q, j), m) in mapping.entries() {
        let src = match m.source {
            ParamSource::Scalar(k) => format!("proc param {k}"),
            ParamSource::ArrayElement(k) => format!("proc param {k}[n]"),
        };
        let _ = writeln!(
            out,
            "{}.param[{j}] <- {src}  (coefficient {:.2})",
            proc.query(q).name,
            m.coefficient
        );
    }
    out
}

/// Fig. 8 — the initial execution-path estimate for one NewOrder request.
pub fn fig8() -> String {
    let (catalog, wl) = new_order_trace(2, 2_000, 4);
    let resolver = engine::CatalogResolver::new(&catalog, 2);
    let records = wl.for_proc(1);
    let model = markov::build_model(1, &records, &resolver);
    let mapping = mapping::build_mapping(&records);
    // The paper's Fig. 8 example: w_id=0, i_ids=[1001,1002], i_w_ids=[0,1].
    let args = vec![
        Value::Int(0),
        Value::Int(777_000),
        Value::Int(1),
        Value::Array(vec![Value::Int(101), Value::Int(102)]),
        Value::Array(vec![Value::Int(0), Value::Int(1)]),
        Value::Array(vec![Value::Int(2), Value::Int(7)]),
    ];
    let rule = CatalogRule::new(&catalog, 1, 2);
    let est = estimate_path(&model, &rule, &mapping, &args, &EstimateConfig::default());
    let mut out =
        String::from("# Fig. 8: initial path estimate for NewOrder(w_id=0, i_w_ids=[0,1])\n");
    for &v in &est.vertices {
        let vx = model.vertex(v);
        match vx.key.kind {
            QueryKind::Query(_) => {
                let _ = writeln!(
                    out,
                    "  {} counter={} partitions={} previous={}",
                    vx.name, vx.key.counter, vx.key.partitions, vx.key.previous
                );
            }
            _ => {
                let _ = writeln!(out, "  [{}]", vx.name);
            }
        }
    }
    let _ = writeln!(out, "confidence = {:.3}", est.confidence);
    let _ = writeln!(out, "touched = {} (base = {:?})", est.touched, est.best_base());
    let _ = writeln!(out, "abort probability = {:.3}", est.abort_prob);
    out
}

/// Fig. 9 — partitioned NewOrder models: the feature training split on,
/// one model per value it saw, and the global model that serves any other
/// value (or, when no split pays, the global model alone).
pub fn fig9() -> String {
    let (catalog, wl) = new_order_trace(2, 3_000, 4);
    let preds = train(&catalog, 2, &wl, &TrainingConfig::default());
    let mut out = String::from("# Fig. 9: partitioned NewOrder models\n");
    match &preds[1].models {
        ModelSet::Global { model } => {
            let _ = writeln!(
                out,
                "no single-feature split beat the global model on this trace: {} states",
                model.len()
            );
        }
        ModelSet::Partitioned { feature, routes, models, .. } => {
            let _ = writeln!(out, "split on {feature}");
            for (v, m) in routes.iter().zip(models) {
                let v = v.map_or_else(|| "null".to_string(), |x| x.to_string());
                let _ = writeln!(out, "  {feature} = {v}: {} states", m.len());
            }
            let global = models.last().expect("a split keeps its global fallback");
            let _ = writeln!(out, "  any other value: global model, {} states", global.len());
        }
    }
    out
}

/// Fig. 10 — example models from each benchmark at 4 partitions.
pub fn fig10() -> String {
    let mut out = String::from("# Fig. 10: example Markov models, 4 partitions\n");
    let cases: [(Bench, &str); 3] = [
        (Bench::Tatp, "InsertCallFwrd"),
        (Bench::Tpcc, "Payment"),
        (Bench::AuctionMark, "GetUserInfo"),
    ];
    for (bench, proc_name) in cases {
        let (catalog, wl) = collect_trace(bench, 4, 3_000, 10);
        let proc = catalog.proc_id(proc_name).expect("proc exists");
        let resolver = engine::CatalogResolver::new(&catalog, 4);
        let records = wl.for_proc(proc);
        let model = markov::build_model(proc, &records, &resolver);
        let _ = writeln!(
            out,
            "{} {}: {} states, begin out-degree {}",
            bench.name(),
            proc_name,
            model.len(),
            model.vertex(model.begin()).edges.len()
        );
        // First-query states show the access pattern (broadcast vs single).
        for e in &model.vertex(model.begin()).edges {
            let v = model.vertex(e.to);
            let _ = writeln!(
                out,
                "  begin -> {} partitions={} (p={:.2})",
                v.name, v.key.partitions, e.prob
            );
        }
    }
    out
}

/// Table 3 — global vs partitioned model accuracy per optimization. An OP3
/// cell below 100.0 is a fatal undo-logging decision: the table is printed
/// with a closing line naming each such row, and the process exits 1.
pub fn table3(scale: Scale) -> String {
    let parts = 16;
    let n = scale.trace_len() * 2;
    let mut out = String::from(
        "# Table 3: model accuracy (%), 16 partitions, train on first half / test on second\n\
         benchmark    variant      OP1    OP2    OP3    OP4    Total\n",
    );
    let mut fatal = Vec::new();
    for bench in Bench::ALL {
        let (catalog, wl) = collect_trace(bench, parts, n, 23);
        let (train_recs, test_recs) = wl.records.split_at(n / 2);
        let train_wl = trace::Workload { records: train_recs.to_vec() };
        for partitioned in [false, true] {
            let preds = train(&catalog, parts, &train_wl, &TrainingConfig { partitioned });
            let houdini = Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default());
            let agg = evaluate_accuracy(&houdini, test_recs);
            let variant = if partitioned { "partitioned" } else { "global" };
            if agg.op3 < agg.txns {
                fatal.push(format!("{} {variant}", bench.name()));
            }
            let _ = writeln!(
                out,
                "{:<12} {:<11} {:5.1}  {:5.1}  {:5.1}  {:5.1}  {:5.1}",
                bench.name(),
                variant,
                agg.op1_pct(),
                agg.op2_pct(),
                agg.op3_pct(),
                agg.op4_pct(),
                agg.total_pct()
            );
        }
    }
    if !fatal.is_empty() {
        println!("{out}table3 failed: OP3 below 100.0 on {}", fatal.join(", "));
        std::process::exit(1);
    }
    out
}

/// Fig. 11 — per-procedure transaction-time breakdown under Houdini
/// (partitioned models, 16 partitions).
pub fn fig11(scale: Scale) -> String {
    let parts = 16;
    let mut out = String::from(
        "# Fig. 11: % of transaction time per bucket (partitioned models, 16 partitions)\n\
         proc                      estim   exec   plan  coord  queue  other\n",
    );
    for bench in Bench::ALL {
        let houdini = trained_houdini(bench, parts, scale.trace_len(), true, 0.5, 31);
        let profiler = run_sim(bench, parts, &houdini, scale, 37).profile;
        let catalog = bench.registry().catalog();
        for proc in profiler.procs() {
            let name = &catalog.proc(proc).name;
            let letter = proc_letter(bench, proc as usize);
            // Queueing is always zero here (the simulator has no worker
            // queues); the column keeps the legend aligned with the live
            // Fig. 11 table `live` prints.
            let _ = writeln!(
                out,
                "{letter} {:<22}  {:5.1}  {:5.1}  {:5.1}  {:5.1}  {:5.1}  {:5.1}",
                name,
                100.0 * profiler.share(proc, Bucket::Estimation),
                100.0 * profiler.share(proc, Bucket::Execution),
                100.0 * profiler.share(proc, Bucket::Planning),
                100.0 * profiler.share(proc, Bucket::Coordination),
                100.0 * profiler.share(proc, Bucket::Queueing),
                100.0 * profiler.share(proc, Bucket::Other),
            );
        }
        let _ = writeln!(
            out,
            "{} overall estimation share: {:.1}%",
            bench.name(),
            100.0 * profiler.overall_share(Bucket::Estimation)
        );
    }
    out
}

/// Table 4 — % of transactions where each optimization was enabled at run
/// time, plus the mean estimation time per transaction.
pub fn table4(scale: Scale) -> String {
    let parts = 16;
    let mut out = String::from(
        "# Table 4: runtime optimization success (%, partitioned models, 16 partitions)\n\
         proc                       OP1     OP2     OP3     OP4   est(ms)\n",
    );
    for bench in Bench::ALL {
        let houdini = trained_houdini(bench, parts, scale.trace_len(), true, 0.5, 41);
        let metrics = run_sim(bench, parts, &houdini, scale, 43);
        let catalog = bench.registry().catalog();
        let mut procs: Vec<u32> = metrics.ops.keys().copied().collect();
        procs.sort_unstable();
        for proc in procs {
            let ops = &metrics.ops[&proc];
            let letter = proc_letter(bench, proc as usize);
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:6.1}"),
                None => "     -".to_string(),
            };
            let est_ms = metrics.profile.mean_us(proc, Bucket::Estimation) / 1000.0;
            let _ = writeln!(
                out,
                "{letter} {:<22} {}  {}  {}  {}  {:7.3}",
                catalog.proc(proc).name,
                fmt(ops.op1_pct()),
                fmt(ops.op2_pct()),
                fmt(ops.op3_pct()),
                fmt(ops.op4_pct()),
                est_ms
            );
        }
    }
    out
}

/// Fig. 12 — throughput vs partitions: Houdini-partitioned, Houdini-global,
/// assume-single-partition and the Oracle, for all three benchmarks, with
/// both Houdini columns as a fraction of the Oracle (the paper's claim).
pub fn fig12(scale: Scale) -> String {
    let mut out = String::from(
        "# Fig. 12: throughput (txn/s) vs partitions\n\
         bench        parts  houdini-part  houdini-global  assume-single-part  \
         oracle  part/oracle  global/oracle\n",
    );
    for bench in Bench::ALL {
        for parts in CLUSTER_SIZES {
            let tps_part = {
                let h = trained_houdini(bench, parts, scale.trace_len(), true, 0.5, 51);
                run_sim(bench, parts, &h, scale, 53).throughput_tps()
            };
            let tps_glob = {
                let h = trained_houdini(bench, parts, scale.trace_len(), false, 0.5, 51);
                run_sim(bench, parts, &h, scale, 53).throughput_tps()
            };
            let tps_asp = {
                let a = AssumeSinglePartition::new();
                run_sim(bench, parts, &a, scale, 53).throughput_tps()
            };
            let tps_oracle = run_sim(bench, parts, &Oracle::new(), scale, 53).throughput_tps();
            let _ = writeln!(
                out,
                "{:<12} {parts:5}  {tps_part:12.0}  {tps_glob:14.0}  {tps_asp:19.0}  \
                 {tps_oracle:6.0}  {:11.2}  {:13.2}",
                bench.name(),
                tps_part / tps_oracle,
                tps_glob / tps_oracle,
            );
        }
    }
    out
}

/// Fig. 13 — throughput vs the confidence-coefficient threshold.
pub fn fig13(scale: Scale) -> String {
    let parts = 16;
    let thresholds = [0.0, 0.06, 0.1, 0.2, 0.3, 0.4, 0.5, 0.66, 0.8, 0.9, 1.0];
    let mut out = String::from(
        "# Fig. 13: throughput (txn/s) vs confidence threshold, 16 partitions\n\
         threshold     TATP    TPC-C  AuctionMark\n",
    );
    // Train once per benchmark; rebuild the advisor per threshold.
    let mut rows = vec![String::new(); thresholds.len()];
    for (ti, &t) in thresholds.iter().enumerate() {
        rows[ti] = format!("{t:9.2}");
    }
    for bench in Bench::ALL {
        let (catalog, wl) = collect_trace(bench, parts, scale.trace_len(), 61);
        let cfg = TrainingConfig::default();
        let preds = train(&catalog, parts, &wl, &cfg);
        for (ti, &t) in thresholds.iter().enumerate() {
            let hcfg = HoudiniConfig { threshold: t, ..Default::default() };
            let h = Houdini::new(preds.clone(), catalog.clone(), parts, hcfg);
            let m = run_sim(bench, parts, &h, scale, 67);
            let _ = write!(rows[ti], "  {:7.0}", m.throughput_tps());
        }
    }
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    out
}

/// Renders one experiment at the given scale.
pub type Runner = fn(Scale) -> String;

/// Every experiment id the `experiments` binary accepts, with its runner —
/// the single list behind dispatch, `all`, and the usage text.
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("fig3", fig3),
    ("fig4", |_| fig4()),
    ("fig5", |_| fig5()),
    ("fig7", |_| fig7()),
    ("fig8", |_| fig8()),
    ("fig9", |_| fig9()),
    ("fig10", |_| fig10()),
    ("table3", table3),
    ("fig11", fig11),
    ("table4", table4),
    ("fig12", fig12),
    ("fig13", fig13),
    ("live", live),
    ("live-latency", live_latency),
    ("live-drift", live_drift),
    ("check", check),
    ("all", all),
];

/// Whether `all` runs `id`: every paper artifact plus the live comparisons
/// (`live-latency` is part of `live`; `check` is the CI gate, not a result).
fn in_all(id: &str) -> bool {
    !matches!(id, "all" | "live-latency" | "check")
}

fn all(scale: Scale) -> String {
    EXPERIMENTS.iter().filter(|(id, _)| in_all(id)).map(|(_, run)| run(scale) + "\n").collect()
}

/// Dispatches an experiment by id (`fig3`, `table4`, `live`, ...).
pub fn run_experiment(id: &str, scale: Scale) -> String {
    match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
        Some((_, run)) => run(scale),
        None => format!("unknown experiment id: {id}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_retired_ids_are_unknown() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment id in {ids:?}");
        assert!(ids.contains(&"check"));
        for retired in [
            "live-profile",
            "live-durability",
            "check-live-profile",
            "check-dist-profile",
            "check-durability",
        ] {
            assert!(!ids.contains(&retired), "{retired} is retired and must be an unknown id");
        }
        assert!(!in_all("check"), "`all` must not run the CI gate");
        assert!(in_all("live") && in_all("fig12"));
    }
}
