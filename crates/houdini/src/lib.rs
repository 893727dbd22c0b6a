//! Houdini — the on-line prediction framework (paper §4–§5).
//!
//! Houdini sits beside the transaction coordinator on every node (Fig. 6).
//! Off-line, it derives parameter mappings and Markov models (global or
//! feature-partitioned) from a sample workload trace. On-line, for each new
//! request it selects a model with the decision tree, constructs the initial
//! execution-path estimate, and tells the DBMS which optimizations to
//! enable: the base partition (OP1), the partitions to lock (OP2), whether
//! undo logging can be skipped (OP3), and — as the transaction executes —
//! when it is finished with partitions so they can early-prepare (OP4). It
//! also monitors model accuracy
//! and recomputes probabilities when the workload drifts (§4.5).

pub mod accuracy;
pub mod advisor;
pub mod io;
pub mod modelset;
pub mod train;

pub use accuracy::{evaluate_accuracy, AccuracyReport};
pub use advisor::{Houdini, HoudiniConfig};
pub use io::{load_predictors, save_predictors};
pub use modelset::{CatalogRule, ModelSet};
pub use train::{train, train_proc, ProcPredictor, TrainingConfig};
