//! # predictive-oltp
//!
//! A from-scratch Rust reproduction of *"On Predictive Modeling for
//! Optimizing Transaction Execution in Parallel OLTP Systems"* (Pavlo,
//! Jones, Zdonik — VLDB 2011): transaction Markov models and the **Houdini**
//! prediction framework, together with every substrate the paper depends on
//! — an H-Store-style partitioned main-memory OLTP engine, the TATP / TPC-C
//! / AuctionMark benchmarks, workload traces, and parameter mappings.
//!
//! This root crate re-exports the workspace members; see each crate's
//! documentation for details, `DESIGN.md` for the system inventory and the
//! experiment index, and `EXPERIMENTS.md` for the paper-vs-measured record.

pub mod crash_plan;

pub use common;
pub use engine;
pub use houdini;
pub use mapping;
pub use markov;
pub use storage;
pub use trace;
pub use workloads;

/// The types most programs need.
pub mod prelude {
    pub use common::{PartitionSet, Value};
    pub use engine::{
        run_offline, CostModel, LiveAdvisor, RequestGenerator, SimConfig, Simulation,
    };
    pub use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
    pub use markov::{build_model, estimate_path, EstimateConfig, MarkovModel};
    pub use trace::Workload;
    pub use workloads::Bench;
}
