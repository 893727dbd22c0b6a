//! Shared experiment plumbing: trace collection, training, simulation runs.

use common::{derive_seed, ProcId, Value};
use engine::{
    Catalog, CostModel, LiveAdvisor, RequestGenerator, RunMetrics, SimConfig, Simulation,
};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use trace::Workload;
use workloads::{tpcc, Bench};

/// Experiment scale: `Quick` for CI and the tests, `Full` (`--full`) for
/// paper-like sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small traces and short simulations.
    Quick,
    /// Paper-like trace sizes and longer measurement windows.
    Full,
}

impl Scale {
    /// Trace transactions collected per benchmark.
    pub fn trace_len(self) -> usize {
        match self {
            Scale::Quick => 1_500,
            Scale::Full => 12_000,
        }
    }

    /// Simulated measurement window (µs).
    pub fn measure_us(self) -> f64 {
        match self {
            Scale::Quick => 400_000.0,
            Scale::Full => 2_000_000.0,
        }
    }

    /// Simulated warm-up (µs).
    pub fn warmup_us(self) -> f64 {
        match self {
            Scale::Quick => 100_000.0,
            Scale::Full => 400_000.0,
        }
    }
}

/// Collects a workload trace of `n` transactions by executing the
/// benchmark's generated requests offline against a freshly loaded database
/// (paper §3.1: traces record procedure inputs and executed queries).
pub fn collect_trace(bench: Bench, parts: u32, n: usize, seed: u64) -> (Catalog, Workload) {
    let reg = bench.registry();
    let mut gen = bench.generator(parts, seed);
    let clients = u64::from(parts) * 4;
    let wl = engine::collect_trace(&mut bench.database(parts), &reg, &mut gen, n, clients);
    (reg.catalog(), wl)
}

/// Trains a Houdini advisor for `bench` at `parts` partitions.
pub fn trained_houdini(
    bench: Bench,
    parts: u32,
    trace_len: usize,
    partitioned: bool,
    threshold: f64,
    seed: u64,
) -> Houdini {
    let (catalog, workload) = collect_trace(bench, parts, trace_len, seed);
    let cfg = TrainingConfig { partitioned };
    let preds = train(&catalog, parts, &workload, &cfg);
    Houdini::new(preds, catalog, parts, HoudiniConfig { threshold, ..Default::default() })
}

/// Standard simulation config for a cluster size.
pub fn sim_config(parts: u32, scale: Scale, seed: u64) -> SimConfig {
    SimConfig {
        num_partitions: parts,
        partitions_per_node: 2,
        clients_per_partition: 4,
        warmup_us: scale.warmup_us(),
        measure_us: scale.measure_us(),
        seed,
        max_requests_per_client: None,
    }
}

/// Runs one timed simulation of `bench` under `advisor`.
pub fn run_sim<A: LiveAdvisor>(
    bench: Bench,
    parts: u32,
    advisor: &A,
    scale: Scale,
    seed: u64,
) -> RunMetrics {
    let mut db = bench.database(parts);
    let reg = bench.registry();
    let mut gen = bench.generator(parts, derive_seed(seed, 0x6E6));
    let cfg = sim_config(parts, scale, seed);
    let sim = Simulation::new(&mut db, &reg, advisor, &mut gen, CostModel::default(), cfg);
    sim.run().expect("simulation must not halt")
}

/// A TPC-C generator that issues only NewOrder requests — the motivating
/// experiment of Fig. 3 (§2.1).
pub struct NewOrderOnly {
    inner: tpcc::Generator,
    parts: u64,
    counter: u64,
}

/// Builds the NewOrder-only generator.
pub fn new_order_generator(parts: u32, seed: u64) -> NewOrderOnly {
    NewOrderOnly { inner: tpcc::Generator::new(parts, seed), parts: u64::from(parts), counter: 0 }
}

impl RequestGenerator for NewOrderOnly {
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
        self.counter += 1;
        let w = (common::value::splitmix64(client ^ (self.counter << 17)) % self.parts) as i64;
        (1, self.inner.new_order_args(client, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::baselines::Oracle;

    #[test]
    fn trace_collection_covers_procs() {
        let (catalog, wl) = collect_trace(Bench::Tatp, 4, 400, 3);
        assert_eq!(wl.len(), 400);
        assert!(wl.procs().len() >= 5, "most TATP procedures appear");
        assert_eq!(catalog.len(), 7);
    }

    #[test]
    fn quick_sim_runs() {
        let m = run_sim(Bench::Tatp, 4, &Oracle::new(), Scale::Quick, 5);
        assert!(m.committed > 100, "committed = {}", m.committed);
    }

    #[test]
    fn new_order_only_generator() {
        let mut g = new_order_generator(4, 9);
        for i in 0..50 {
            let (proc, args) = g.next_request(i);
            assert_eq!(proc, 1);
            assert_eq!(args.len(), 6);
        }
    }
}
