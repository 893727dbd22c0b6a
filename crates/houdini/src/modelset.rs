//! Model sets: one global Markov model per procedure, or one model per
//! value of a single input-parameter feature (paper §5).

use crate::feature::{extract_feature, Feature};
use common::{PartitionId, PartitionSet, ProcId, QueryId, Value};
use engine::{Catalog, PartitionHint};
use markov::{MarkovModel, QueryPartitionRule};
use std::sync::Arc;

/// Adapts the engine catalog into the estimator's partition-rule interface.
pub struct CatalogRule<'a> {
    catalog: &'a Catalog,
    proc: ProcId,
    num_partitions: u32,
}

impl<'a> CatalogRule<'a> {
    /// Rule for `proc` under a cluster of `num_partitions`.
    pub fn new(catalog: &'a Catalog, proc: ProcId, num_partitions: u32) -> Self {
        CatalogRule { catalog, proc, num_partitions }
    }
}

impl QueryPartitionRule for CatalogRule<'_> {
    fn partition_param(&self, query: QueryId) -> Option<usize> {
        match self.catalog.proc(self.proc).query(query).hint {
            PartitionHint::Param(i) => Some(i),
            PartitionHint::Broadcast => None,
        }
    }

    fn partition_of(&self, v: &Value) -> PartitionId {
        v.home_partition(self.num_partitions)
    }

    fn num_partitions(&self) -> u32 {
        self.num_partitions
    }
}

/// A procedure's models: global, or one model per value of a single
/// input-parameter feature (§5), routed by a lookup of that value.
///
/// Models are held behind `Arc` so a whole [`ModelSet`] (and therefore a
/// whole predictor vector) clones in O(models) pointer bumps: the
/// maintainer snapshots the current epoch, deep-copies *only* the
/// drifted model via [`ModelSet::model_arc_mut`] + `Arc::make_mut`, and
/// publishes the result as the next epoch (clone-on-write, §4.5).
#[derive(Clone)]
pub enum ModelSet {
    /// One model covers every invocation.
    Global {
        /// The model.
        model: Arc<MarkovModel>,
    },
    /// Per-value models routed on one feature.
    Partitioned {
        /// The feature the router reads.
        feature: Feature,
        /// The feature values seen in the training workset, ascending;
        /// `models[i]`, built from every training record with that value,
        /// serves `routes[i]`.
        routes: Vec<Option<f64>>,
        /// One model per route, then the global model, which serves every
        /// value training never saw.
        models: Vec<Arc<MarkovModel>>,
        /// Cluster size the feature is hashed against.
        num_partitions: u32,
    },
}

impl ModelSet {
    /// Number of models in the set.
    pub fn len(&self) -> usize {
        match self {
            ModelSet::Global { .. } => 1,
            ModelSet::Partitioned { models, .. } => models.len(),
        }
    }

    /// True for a set with no model, which only a malformed bundle holds.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total vertices across the set (scalability diagnostics, §4.6).
    pub fn total_states(&self) -> usize {
        match self {
            ModelSet::Global { model } => model.len(),
            ModelSet::Partitioned { models, .. } => models.iter().map(|m| m.len()).sum(),
        }
    }

    /// Selects the model index for a request's arguments (§5.3): the
    /// route of the feature's value, the global fallback for a value
    /// training never saw, constant for global sets.
    pub fn select(&self, args: &[Value]) -> usize {
        match self {
            ModelSet::Global { .. } => 0,
            ModelSet::Partitioned { feature, routes, num_partitions, .. } => {
                let v = extract_feature(feature, args, *num_partitions);
                routes.iter().position(|r| *r == v).unwrap_or(routes.len())
            }
        }
    }

    /// The selected model, immutably.
    pub fn model(&self, idx: usize) -> &MarkovModel {
        match self {
            ModelSet::Global { model } => model,
            ModelSet::Partitioned { models, .. } => &models[idx],
        }
    }

    /// The selected model's `Arc` handle, mutably — the maintainer's
    /// clone-on-write entry point: `Arc::make_mut` on a snapshot
    /// clone deep-copies exactly this one model and leaves every other
    /// model shared with the previous epoch.
    pub fn model_arc_mut(&mut self, idx: usize) -> &mut Arc<MarkovModel> {
        match self {
            ModelSet::Global { model } => model,
            ModelSet::Partitioned { models, .. } => &mut models[idx],
        }
    }
}

/// Derives, for OP2, the partitions whose access estimate clears the
/// confidence threshold (see `advisor`): partitions on the estimated path
/// use their first-touch confidence; partitions off the path use the
/// highest access probability any visited *query* state's table assigns
/// them (the Fig. 5 "5% chance to touch partition 1" entries). The begin
/// vertex is excluded from that fallback: its table aggregates the
/// procedure-wide prior over every training invocation, so consulting it
/// would lock any partition whose marginal access frequency clears the
/// threshold (e.g. both halves of a uniform two-warehouse TPC-C) no matter
/// what the estimated path says. Query vertices carry the path-conditioned
/// probability, which is the quantity OP2 wants.
pub fn lock_set_for(
    est: &markov::PathEstimate,
    model: &MarkovModel,
    threshold: f64,
    num_partitions: u32,
) -> PartitionSet {
    let mut set = PartitionSet::EMPTY;
    for p in 0..num_partitions {
        let conf = match est.partition_confidence.get(&p) {
            Some(&c) => c,
            None => est
                .vertices
                .iter()
                .filter(|&&v| matches!(model.vertex(v).key.kind, markov::QueryKind::Query(_)))
                .map(|&v| model.vertex(v).table.access(p))
                .fold(0.0f64, f64::max),
        };
        if conf >= threshold {
            set.insert(p);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{ProcDef, QueryDef, QueryOp};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_proc(ProcDef {
            name: "P".into(),
            queries: vec![
                QueryDef {
                    name: "A".into(),
                    table: 0,
                    op: QueryOp::GetByKey { key_params: vec![0] },
                    hint: PartitionHint::Param(0),
                },
                QueryDef {
                    name: "B".into(),
                    table: 0,
                    op: QueryOp::LookupBy { column: 1, param: 0 },
                    hint: PartitionHint::Broadcast,
                },
            ],
            read_only: true,
            can_abort: false,
        });
        c
    }

    #[test]
    fn catalog_rule_maps_hints() {
        let c = catalog();
        let r = CatalogRule::new(&c, 0, 8);
        assert_eq!(r.partition_param(0), Some(0));
        assert_eq!(r.partition_param(1), None);
        assert_eq!(r.partition_of(&Value::Int(10)), 2);
        assert_eq!(r.num_partitions(), 8);
    }

    #[test]
    fn global_set_selects_zero() {
        let set = ModelSet::Global { model: Arc::new(MarkovModel::new(0, 4)) };
        assert_eq!(set.select(&[Value::Int(9)]), 0);
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_states(), 3);
    }
}
