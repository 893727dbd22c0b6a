//! Deriving parameter mappings from a workload trace (paper §4.1).

use crate::{ParamSource, ProcMapping, QueryParamMapping};
use common::{FxHashMap, QueryId, Value};
use trace::TraceRecord;

/// Minimum mapping coefficient to keep an entry. The paper found values
/// above 0.9 all behave the same (§4.1); this is the false-positive filter
/// for coincidentally equal values.
pub const MAPPING_THRESHOLD: f64 = 0.9;

/// Per-(pair, invocation-counter) agreement statistics.
#[derive(Default)]
struct PairStats {
    /// counter -> (matching comparisons, total comparisons)
    per_counter: FxHashMap<u32, (u64, u64)>,
}

impl PairStats {
    fn observe(&mut self, counter: u32, matched: bool) {
        let e = self.per_counter.entry(counter).or_insert((0, 0));
        e.1 += 1;
        if matched {
            e.0 += 1;
        }
    }

    /// Geometric mean of per-counter agreement ratios (the paper's
    /// aggregation for repeated queries and array parameters).
    fn coefficient(&self) -> f64 {
        if self.per_counter.is_empty() {
            return 0.0;
        }
        let mut log_sum = 0.0f64;
        for &(m, t) in self.per_counter.values() {
            if m == 0 {
                return 0.0;
            }
            log_sum += (m as f64 / t as f64).ln();
        }
        (log_sum / self.per_counter.len() as f64).exp()
    }
}

/// Derives a procedure's parameter mapping from its trace records.
///
/// For every transaction record, each query invocation's parameters are
/// compared pairwise against (a) every scalar procedure parameter and (b)
/// the invocation-aligned element of every array procedure parameter. The
/// per-pair agreement ratios are aggregated (geometric mean over invocation
/// counters) into mapping coefficients, and the best source above
/// [`MAPPING_THRESHOLD`] wins for each query parameter.
pub fn build_mapping(records: &[&TraceRecord]) -> ProcMapping {
    // (query, qparam, source) -> stats
    let mut stats: FxHashMap<(QueryId, usize, SourceKey), PairStats> = FxHashMap::default();

    for rec in records {
        let mut counters: FxHashMap<QueryId, u32> = FxHashMap::default();
        for q in &rec.queries {
            let counter = {
                let c = counters.entry(q.query).or_insert(0);
                let cur = *c;
                *c += 1;
                cur
            };
            for (j, qv) in q.params.iter().enumerate() {
                if matches!(qv, Value::Array(_)) {
                    continue; // only scalar query parameters are mappable
                }
                for (k, pv) in rec.params.iter().enumerate() {
                    match pv {
                        Value::Array(elems) => {
                            // Element-wise, aligned with the invocation
                            // counter ("the n-th element of the array is
                            // linked to the n-th invocation", §4.1).
                            if let Some(elem) = elems.get(counter as usize) {
                                stats
                                    .entry((q.query, j, SourceKey::Array(k)))
                                    .or_default()
                                    .observe(counter, elem == qv);
                            }
                        }
                        scalar => {
                            stats
                                .entry((q.query, j, SourceKey::Scalar(k)))
                                .or_default()
                                .observe(counter, scalar == qv);
                        }
                    }
                }
            }
        }
    }

    // Pick the best surviving source per (query, qparam).
    let mut best: FxHashMap<(QueryId, usize), QueryParamMapping> = FxHashMap::default();
    let mut keys: Vec<_> = stats.keys().cloned().collect();
    keys.sort_by_key(|(q, j, s)| (*q, *j, s.order()));
    for key in keys {
        let (q, j, src) = key.clone();
        let coeff = stats[&key].coefficient();
        if coeff < MAPPING_THRESHOLD {
            continue;
        }
        let candidate = QueryParamMapping {
            source: match src {
                SourceKey::Scalar(k) => ParamSource::Scalar(k),
                SourceKey::Array(k) => ParamSource::ArrayElement(k),
            },
            coefficient: coeff,
        };
        match best.get(&(q, j)) {
            Some(existing) if existing.coefficient >= coeff => {}
            _ => {
                best.insert((q, j), candidate);
            }
        }
    }

    let mut mapping = ProcMapping::empty();
    for ((q, j), m) in best {
        mapping.insert(q, j, m);
    }
    mapping
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SourceKey {
    Scalar(usize),
    Array(usize),
}

impl SourceKey {
    fn order(&self) -> (u8, usize) {
        match self {
            SourceKey::Scalar(k) => (0, *k),
            SourceKey::Array(k) => (1, *k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::QueryRecord;

    /// Builds NewOrder-like records: proc params (w_id, i_ids[], i_w_ids[]),
    /// queries GetWarehouse(w_id)=q0, CheckStock(i_id, i_w_id)=q1 repeated.
    fn records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|t| {
                let w = t as i64 % 4;
                let ids = vec![Value::Int(1000 + t as i64), Value::Int(2000 + t as i64)];
                let ws = vec![Value::Int(w), Value::Int((w + 1) % 4)];
                let mut queries = vec![QueryRecord { query: 0, params: vec![Value::Int(w)] }];
                for k in 0..2 {
                    queries.push(QueryRecord {
                        query: 1,
                        params: vec![ids[k].clone(), ws[k].clone()],
                    });
                }
                TraceRecord {
                    proc: 0,
                    params: vec![Value::Int(w), Value::Array(ids), Value::Array(ws)],
                    queries,
                    batch_ends: Vec::new(),
                    aborted: false,
                }
            })
            .collect()
    }

    #[test]
    fn maps_scalar_and_array_params() {
        let owned = records(50);
        let refs: Vec<&TraceRecord> = owned.iter().collect();
        let m = build_mapping(&refs);
        // GetWarehouse param 0 <- proc param 0 (w_id), coefficient 1.
        let gw = m.get(0, 0).expect("GetWarehouse mapped");
        assert_eq!(gw.source, ParamSource::Scalar(0));
        assert!((gw.coefficient - 1.0).abs() < 1e-12);
        // CheckStock param 0 <- i_ids elements, param 1 <- i_w_ids elements.
        assert_eq!(m.get(1, 0).unwrap().source, ParamSource::ArrayElement(1));
        assert_eq!(m.get(1, 1).unwrap().source, ParamSource::ArrayElement(2));
    }

    #[test]
    fn resolves_through_mapping() {
        let owned = records(50);
        let refs: Vec<&TraceRecord> = owned.iter().collect();
        let m = build_mapping(&refs);
        let args = vec![
            Value::Int(3),
            Value::Array(vec![Value::Int(11), Value::Int(12)]),
            Value::Array(vec![Value::Int(3), Value::Int(0)]),
        ];
        assert_eq!(m.resolve(0, 0, 0, &args), Some(Value::Int(3)));
        assert_eq!(m.resolve(1, 1, 1, &args), Some(Value::Int(0)));
        assert_eq!(m.resolve(1, 2, 1, &args), None, "third CheckStock impossible");
    }

    #[test]
    fn coincidental_matches_filtered() {
        // Query param equals proc param only half the time -> below 0.9.
        let owned: Vec<TraceRecord> = (0..40)
            .map(|t| TraceRecord {
                proc: 0,
                params: vec![Value::Int(t % 2)],
                queries: vec![QueryRecord { query: 0, params: vec![Value::Int(0)] }],
                batch_ends: Vec::new(),
                aborted: false,
            })
            .collect();
        let refs: Vec<&TraceRecord> = owned.iter().collect();
        let m = build_mapping(&refs);
        assert!(m.get(0, 0).is_none());
    }

    #[test]
    fn derived_value_not_mapped() {
        // Query param comes from DB state (s_id from a broadcast lookup),
        // uncorrelated with the proc param string.
        let owned: Vec<TraceRecord> = (0..30)
            .map(|t| TraceRecord {
                proc: 0,
                params: vec![Value::Str(format!("NBR{t}"))],
                queries: vec![QueryRecord { query: 0, params: vec![Value::Int(t)] }],
                batch_ends: Vec::new(),
                aborted: false,
            })
            .collect();
        let refs: Vec<&TraceRecord> = owned.iter().collect();
        let m = build_mapping(&refs);
        assert!(m.get(0, 0).is_none(), "derived params stay unmapped");
    }

    #[test]
    fn empty_trace_empty_mapping() {
        let m = build_mapping(&[]);
        assert!(m.is_empty());
    }
}
