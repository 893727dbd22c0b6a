//! An H-Store-style parallel main-memory OLTP engine, runnable two ways:
//! under discrete-event simulated time ([`Simulation`]) and as a live
//! multi-threaded server ([`LiveRuntime`], [`runtime`]).
//!
//! Architecture (paper §2, Fig. 1): a cluster of shared-nothing nodes, each
//! hosting single-threaded execution engines with exclusive access to one
//! data partition. Clients invoke pre-defined stored procedures; procedures
//! submit *batches* of parameterized queries and block on their results.
//!
//! Everything behavioural is real in both — queries read and write rows in
//! [`storage::Database`], partition locks are acquired and released, undo
//! logs roll back aborts, two-phase commit coordinates distributed
//! transactions, and early prepare (OP4) changes when partitions become
//! available. The simulator replaces only *time*: a calibrated cost model
//! ([`cost::CostModel`]) charges CPU and network microseconds, which makes
//! every throughput experiment in the paper reproducible deterministically
//! on one machine (see DESIGN.md §1 for the substitution argument). The
//! live runtime runs the same
//! architecture on real threads — one worker per partition, lock-free
//! client lanes, a sharded lock manager, real 2PC — with optional command
//! logging, snapshots, and crash recovery ([`durability`]; DESIGN.md §4, §7).
//!
//! The pluggable [`advisor::LiveAdvisor`] — one contract, driven by the
//! simulator and the live runtime alike — decides, per transaction, the
//! base partition (OP1), the lock set (OP2), whether to run without undo
//! logging (OP3), and when partitions are finished (OP4), and learns from
//! every session teardown through one on-line maintenance regime (§4.5).
//! The baseline advisors from the paper's evaluation live in [`baselines`];
//! the Houdini advisor lives in the `houdini` crate.

pub mod advisor;
pub mod baselines;
pub mod catalog;
pub mod cost;
pub mod durability;
pub mod exec;
pub mod metrics;
pub mod procedure;
pub mod profiler;
pub mod runtime;
pub mod sim;
mod txn;

pub use advisor::{
    LiveAdvisor, LiveMaintainer, PlanContext, Request, TxnFeedback, TxnOutcome, TxnPlan, Updates,
};
pub use catalog::{Catalog, CatalogResolver, ColumnOp, PartitionHint, ProcDef, QueryDef, QueryOp};
pub use cost::CostModel;
pub use durability::{DurabilityConfig, RecoveryReport};
pub use exec::{collect_trace, run_offline, ExecutedQuery, OfflineOutcome};
pub use metrics::{EpochAccuracy, LatencyHistogram, MaintenanceReport, OpCounters, RunMetrics};
pub use procedure::{ProcInstance, Procedure, ProcedureRegistry, QueryInvocation, Step};
pub use profiler::{Bucket, CoordSub, Profiler};
pub use runtime::{run_live, Client, LiveConfig, LiveRuntime};
pub use sim::{RequestGenerator, SimConfig, Simulation};
