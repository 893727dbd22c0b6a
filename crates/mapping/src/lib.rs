//! Parameter mappings (paper §4.1).
//!
//! For most OLTP transactions, the partitions a query touches are determined
//! by its input parameters — and those parameters are usually "linked" to
//! the stored procedure's own input parameters. A *parameter mapping*
//! captures these links from a sample workload trace by counting, for every
//! (query parameter, procedure parameter) pair, how often their values
//! coincide. Pairs whose *mapping coefficient* clears a threshold (the paper
//! found 0.9 works across workloads) are treated as the same variable in the
//! control code, letting Houdini compute which partitions a query will
//! access before the transaction runs.
//!
//! Array procedure parameters are handled element-wise: the n-th element is
//! compared against the n-th invocation of each query, and per-invocation
//! ratios are aggregated with a geometric mean, exactly as the paper
//! describes for repeated queries.

pub mod builder;

pub use builder::{build_mapping, MAPPING_THRESHOLD};

use common::{FxHashMap, QueryId, Value};

/// Where a query parameter's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamSource {
    /// The procedure's scalar input parameter at this index.
    Scalar(usize),
    /// Element `counter` of the procedure's array parameter at this index,
    /// where `counter` is the query's invocation counter.
    ArrayElement(usize),
}

/// The resolved mapping for one query parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryParamMapping {
    /// The winning source.
    pub source: ParamSource,
    /// Its mapping coefficient in `[0, 1]`.
    pub coefficient: f64,
}

/// A stored procedure's full parameter mapping: `(query, query-param index)`
/// → best procedure-parameter source above the threshold.
#[derive(Debug, Clone, Default)]
pub struct ProcMapping {
    entries: FxHashMap<(QueryId, usize), QueryParamMapping>,
}

impl ProcMapping {
    /// Creates an empty mapping (nothing resolvable).
    pub fn empty() -> Self {
        ProcMapping::default()
    }

    /// Inserts an entry (builder use).
    pub fn insert(&mut self, query: QueryId, qparam: usize, m: QueryParamMapping) {
        self.entries.insert((query, qparam), m);
    }

    /// The mapping entry for `(query, qparam)`, if one survived the
    /// threshold.
    pub fn get(&self, query: QueryId, qparam: usize) -> Option<&QueryParamMapping> {
        self.entries.get(&(query, qparam))
    }

    /// Number of mapped query parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `((query, qparam), mapping)` entries in deterministic order.
    pub fn entries(&self) -> Vec<((QueryId, usize), &QueryParamMapping)> {
        let mut es: Vec<_> = self.entries.iter().map(|(k, v)| (*k, v)).collect();
        es.sort_by_key(|(k, _)| *k);
        es
    }

    /// Predicts the value of query parameter `qparam` for invocation
    /// `counter` of `query`, given the procedure arguments.
    ///
    /// Returns `None` when the parameter is unmapped, the source argument is
    /// missing, or the invocation counter runs past the array — the latter
    /// is how Houdini infers "this transaction can never execute the query
    /// an (n+1)-th time" (§4.2).
    pub fn resolve(
        &self,
        query: QueryId,
        counter: u32,
        qparam: usize,
        args: &[Value],
    ) -> Option<Value> {
        match self.resolve_detail(query, counter, qparam, args) {
            Resolve::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Like [`ProcMapping::resolve`] but distinguishes *why* resolution
    /// failed, which path estimation needs: an out-of-range array element
    /// proves the transition impossible, while an unmapped parameter merely
    /// leaves it uncertain (§4.2).
    pub fn resolve_detail(
        &self,
        query: QueryId,
        counter: u32,
        qparam: usize,
        args: &[Value],
    ) -> Resolve {
        let Some(entry) = self.get(query, qparam) else {
            return Resolve::Unmapped;
        };
        match entry.source {
            ParamSource::Scalar(k) => match args.get(k) {
                Some(v) => Resolve::Value(v.clone()),
                None => Resolve::Unmapped,
            },
            ParamSource::ArrayElement(k) => match args.get(k).and_then(Value::as_array) {
                Some(elems) => match elems.get(counter as usize) {
                    Some(v) => Resolve::Value(v.clone()),
                    None => Resolve::OutOfRange,
                },
                None => Resolve::Unmapped,
            },
        }
    }
}

/// Outcome of resolving one query parameter through the mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolve {
    /// The predicted value.
    Value(Value),
    /// The invocation counter runs past the source array: this invocation
    /// can never happen for these arguments.
    OutOfRange,
    /// No mapping above the threshold (e.g. the value is derived from an
    /// earlier query's result, like TATP's broadcast-then-lookup pattern).
    Unmapped,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_scalar_and_array() {
        let mut m = ProcMapping::empty();
        m.insert(0, 0, QueryParamMapping { source: ParamSource::Scalar(1), coefficient: 1.0 });
        m.insert(
            1,
            0,
            QueryParamMapping { source: ParamSource::ArrayElement(2), coefficient: 0.95 },
        );
        let args =
            vec![Value::Int(9), Value::Int(42), Value::Array(vec![Value::Int(7), Value::Int(8)])];
        assert_eq!(m.resolve(0, 0, 0, &args), Some(Value::Int(42)));
        assert_eq!(m.resolve(0, 5, 0, &args), Some(Value::Int(42)), "scalar ignores counter");
        assert_eq!(m.resolve(1, 0, 0, &args), Some(Value::Int(7)));
        assert_eq!(m.resolve(1, 1, 0, &args), Some(Value::Int(8)));
        assert_eq!(m.resolve(1, 2, 0, &args), None, "past the array end");
        assert_eq!(m.resolve(9, 0, 0, &args), None, "unmapped query");
    }
}
