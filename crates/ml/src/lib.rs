//! The machine-learning toolkit behind model partitioning (paper §5).
//!
//! The paper uses WEKA for (1) expectation-maximization clustering of
//! transactions by features of their procedure input parameters and (2) a
//! C4.5 decision tree that routes new requests to the right per-cluster
//! Markov model at run time, plus a greedy feed-forward search over feature
//! sets. All three are reimplemented here from their published definitions.

pub mod dtree;
pub mod em;
pub mod feature;
pub mod selection;

pub use dtree::{train_tree, DecisionTree};
pub use em::{fit_em, EmModel};
pub use feature::{extract_features, feature_schema, Feature, FeatureCategory};
pub use selection::feed_forward_select;
