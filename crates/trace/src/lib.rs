//! Workload traces (paper §3.1).
//!
//! A trace contains, for each transaction: (1) its procedure input
//! parameters, and (2) the queries it executed with their corresponding
//! parameters. Deliberately, a trace does **not** encode which partitions
//! each query accessed — partitions depend on the cluster configuration, so
//! models must be regenerated from the trace (via a [`PartitionResolver`])
//! whenever the partitioning scheme changes.

pub mod record;
pub mod split;

pub use record::{PartitionResolver, QueryRecord, TraceRecord, Workload};
pub use split::split_worksets;
