//! Transaction Markov models (paper §3–§4).
//!
//! A stored procedure's Markov model is an acyclic directed graph of
//! *execution states*. Each vertex is a unique invocation of one query,
//! identified by (1) the query, (2) how many times it has executed before in
//! the transaction (*counter*), (3) the partitions the invocation accesses,
//! and (4) the partitions the transaction accessed previously. Three special
//! vertices represent the `begin`, `commit`, and `abort` states. Edge
//! probabilities come from a sample workload trace; every vertex also
//! carries a pre-computed *probability table* (Fig. 5) used to make and
//! refine predictions without re-traversing the graph.

pub mod builder;
pub mod dot;
pub mod estimate;
pub mod maintenance;
pub mod model;
pub mod ptable;

pub use builder::build_model;
pub use dot::to_dot;
pub use estimate::{estimate_path, EstimateConfig, PathEstimate, QueryPartitionRule};
pub use maintenance::{ModelMonitor, PathTracker, PendingState};
pub use model::{Edge, MarkovModel, QueryKind, Vertex, VertexCursor, VertexId, VertexKey};
pub use ptable::ProbTable;
