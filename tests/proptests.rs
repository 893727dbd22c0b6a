//! Property-based tests on the core data structures and invariants.

use common::{PartitionSet, Value};
use engine::{CatalogResolver, PartitionHint, ProcDef, QueryDef, QueryOp};
use mapping::build_mapping;
use markov::build_model;
use proptest::prelude::*;
use std::collections::BTreeSet;
use storage::{Database, Schema, UndoLog};
use trace::{PartitionResolver as _, QueryRecord, TraceRecord};

// ---------------------------------------------------------------------------
// PartitionSet behaves like a set of small integers.
// ---------------------------------------------------------------------------

fn pset(v: &[u32]) -> PartitionSet {
    PartitionSet::from_iter(v.iter().copied())
}

proptest! {
    #[test]
    fn partition_set_matches_btreeset(
        a in proptest::collection::vec(0u32..64, 0..20),
        b in proptest::collection::vec(0u32..64, 0..20),
    ) {
        let (sa, sb) = (pset(&a), pset(&b));
        let (ma, mb): (BTreeSet<u32>, BTreeSet<u32>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        prop_assert_eq!(sa.len() as usize, ma.len());
        prop_assert_eq!(
            sa.union(sb).iter().collect::<Vec<_>>(),
            ma.union(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            sa.intersect(sb).iter().collect::<Vec<_>>(),
            ma.intersection(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            sa.difference(sb).iter().collect::<Vec<_>>(),
            ma.difference(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(sa.is_subset(sb), ma.is_subset(&mb));
    }

    #[test]
    fn partition_set_insert_remove_roundtrip(
        items in proptest::collection::vec(0u32..64, 0..30),
        probe in 0u32..64,
    ) {
        let mut s = PartitionSet::EMPTY;
        for &i in &items {
            s.insert(i);
        }
        prop_assert_eq!(s.contains(probe), items.contains(&probe));
        s.remove(probe);
        prop_assert!(!s.contains(probe));
    }
}

// ---------------------------------------------------------------------------
// Undo logging: any sequence of operations rolls back to the pre-state.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, 0i64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..40, 0i64..1000).prop_map(|(k, v)| Op::Update(k, v)),
        (0i64..40).prop_map(Op::Delete),
    ]
}

fn snapshot(db: &Database) -> Vec<(Vec<Value>, Vec<Value>)> {
    let mut rows = Vec::new();
    for p in 0..db.num_partitions() {
        for (k, r) in db.table(p, 0).iter() {
            rows.push((k.clone(), r.clone()));
        }
    }
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn rollback_restores_prestate(
        seed_rows in proptest::collection::vec((0i64..40, 0i64..1000), 0..15),
        ops in proptest::collection::vec(op_strategy(), 0..25),
    ) {
        let schemas = vec![Schema::new("T", &["ID", "V"], &[0], Some(0))];
        let mut db = Database::new(schemas, 4, &[]);
        let mut setup = UndoLog::new();
        for (k, v) in &seed_rows {
            let p = db.partition_for_value(&Value::Int(*k));
            let _ = db.insert(p, 0, vec![Value::Int(*k), Value::Int(*v)], &mut setup);
        }
        let before = snapshot(&db);

        let mut undo = UndoLog::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let p = db.partition_for_value(&Value::Int(*k));
                    let _ = db.insert(p, 0, vec![Value::Int(*k), Value::Int(*v)], &mut undo);
                }
                Op::Update(k, v) => {
                    let p = db.partition_for_value(&Value::Int(*k));
                    let _ = db.update(p, 0, &[Value::Int(*k)], |r| r[1] = Value::Int(*v), &mut undo);
                }
                Op::Delete(k) => {
                    let p = db.partition_for_value(&Value::Int(*k));
                    let _ = db.delete(p, 0, &[Value::Int(*k)], &mut undo);
                }
            }
        }
        db.rollback(&mut undo).expect("rollback");
        prop_assert_eq!(snapshot(&db), before);
    }
}

// ---------------------------------------------------------------------------
// Markov model construction invariants.
// ---------------------------------------------------------------------------

fn toy_catalog() -> engine::Catalog {
    let mut c = engine::Catalog::new();
    c.add_proc(ProcDef {
        name: "P".into(),
        queries: vec![
            QueryDef {
                name: "Q0".into(),
                table: 0,
                op: QueryOp::GetByKey { key_params: vec![0] },
                hint: PartitionHint::Param(0),
            },
            QueryDef {
                name: "Q1".into(),
                table: 0,
                op: QueryOp::InsertRow,
                hint: PartitionHint::Param(0),
            },
        ],
        read_only: false,
        can_abort: true,
    });
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn model_invariants(
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..2, 0i64..8), 0..6),
                proptest::bool::ANY,
            ),
            1..40,
        ),
    ) {
        let catalog = toy_catalog();
        let resolver = CatalogResolver::new(&catalog, 4);
        let records: Vec<TraceRecord> = txns
            .iter()
            .map(|(queries, aborted)| TraceRecord {
                proc: 0,
                params: vec![],
                queries: queries
                    .iter()
                    .map(|(q, v)| QueryRecord { query: *q, params: vec![Value::Int(*v)] })
                    .collect(),
                aborted: *aborted,
            })
            .collect();
        let refs: Vec<&TraceRecord> = records.iter().collect();
        let model = build_model(0, &refs, &resolver);

        // (1) Edge probabilities from every non-terminal vertex sum to 1.
        for v in model.vertices() {
            if v.edges.is_empty() {
                continue;
            }
            let sum: f64 = v.edges.iter().map(|e| e.prob).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "edge probs sum to {sum}");
        }
        // (2) Probability-table entries are probabilities.
        for v in model.vertices() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v.table.abort));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v.table.single_partition));
            for pp in &v.table.partitions {
                for x in [pp.read, pp.write, pp.finish] {
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&x), "entry {x}");
                }
            }
        }
        // (3) The topological order covers every vertex even when the
        // trace interleavings create cycles (see MarkovModel docs), and on
        // acyclic models it is a true topological order.
        let order = model.topological_order();
        prop_assert_eq!(order.len(), model.len());
        if !model.has_cycle() {
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            for (id, v) in model.vertices().iter().enumerate() {
                for e in &v.edges {
                    prop_assert!(pos[&(id as u32)] < pos[&e.to]);
                }
            }
        }
        // (4) Every record's path exists: replaying it reaches a terminal.
        for rec in &records {
            let mut prev = PartitionSet::EMPTY;
            let mut counters = std::collections::HashMap::new();
            for q in &rec.queries {
                let parts = resolver.partitions(0, q.query, &q.params);
                let counter = *counters
                    .entry(q.query)
                    .and_modify(|c: &mut u16| *c += 1)
                    .or_insert(0u16);
                let key = markov::VertexKey {
                    kind: markov::QueryKind::Query(q.query),
                    counter,
                    partitions: parts,
                    previous: prev,
                };
                prop_assert!(model.find(&key).is_some(), "state {key:?} missing");
                prev = prev.union(parts);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parameter mappings: a perfectly-linked trace always resolves correctly.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mapping_resolves_linked_params(
        scalars in proptest::collection::vec(0i64..100, 5..30),
        arrays in proptest::collection::vec(
            proptest::collection::vec(0i64..100, 1..5),
            5..30,
        ),
    ) {
        let n = scalars.len().min(arrays.len());
        // Proc params: (scalar, array). Query 0 takes the scalar; query 1 is
        // invoked once per array element, taking that element.
        let records: Vec<TraceRecord> = (0..n)
            .map(|i| {
                let mut queries =
                    vec![QueryRecord { query: 0, params: vec![Value::Int(scalars[i])] }];
                for &e in &arrays[i] {
                    queries.push(QueryRecord { query: 1, params: vec![Value::Int(e)] });
                }
                TraceRecord {
                    proc: 0,
                    params: vec![
                        Value::Int(scalars[i]),
                        Value::Array(arrays[i].iter().map(|&e| Value::Int(e)).collect()),
                    ],
                    queries,
                    aborted: false,
                }
            })
            .collect();
        let refs: Vec<&TraceRecord> = records.iter().collect();
        let m = build_mapping(&refs);
        // Resolution reproduces the linked values on fresh arguments.
        let args = vec![
            Value::Int(42),
            Value::Array(vec![Value::Int(7), Value::Int(9)]),
        ];
        prop_assert_eq!(m.resolve(0, 0, 0, &args), Some(Value::Int(42)));
        prop_assert_eq!(m.resolve(1, 0, 0, &args), Some(Value::Int(7)));
        prop_assert_eq!(m.resolve(1, 1, 0, &args), Some(Value::Int(9)));
        prop_assert_eq!(m.resolve(1, 2, 0, &args), None);
    }
}

// ---------------------------------------------------------------------------
// Trace serialization round-trips arbitrary records.
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,8}".prop_map(Value::Str),
        proptest::collection::vec(any::<i64>().prop_map(Value::Int), 0..4).prop_map(Value::Array),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn trace_json_roundtrip(
        records in proptest::collection::vec(
            (
                0u32..8,
                proptest::collection::vec(value_strategy(), 0..4),
                proptest::collection::vec(
                    (0u32..4, proptest::collection::vec(value_strategy(), 0..3)),
                    0..5,
                ),
                proptest::bool::ANY,
            ),
            0..10,
        ),
    ) {
        let wl = trace::Workload {
            records: records
                .into_iter()
                .map(|(proc, params, queries, aborted)| TraceRecord {
                    proc,
                    params,
                    queries: queries
                        .into_iter()
                        .map(|(query, params)| QueryRecord { query, params })
                        .collect(),
                    aborted,
                })
                .collect(),
        };
        let mut buf = Vec::new();
        trace::write_trace(&wl, &mut buf).expect("write");
        let back = trace::read_trace(&buf[..]).expect("read");
        prop_assert_eq!(back.records, wl.records);
    }
}

// ---------------------------------------------------------------------------
// Path-estimation invariants over arbitrary toy traces.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn estimate_path_invariants(
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..2, 0i64..8), 1..6),
                proptest::bool::ANY,
            ),
            3..40,
        ),
        probe in 0i64..8,
    ) {
        use houdini::CatalogRule;
        use markov::{estimate_path, EstimateConfig};

        let catalog = toy_catalog();
        let resolver = CatalogResolver::new(&catalog, 4);
        let records: Vec<TraceRecord> = txns
            .iter()
            .map(|(queries, aborted)| TraceRecord {
                proc: 0,
                params: vec![Value::Int(queries[0].1)],
                queries: queries
                    .iter()
                    .map(|(q, v)| QueryRecord { query: *q, params: vec![Value::Int(*v)] })
                    .collect(),
                aborted: *aborted,
            })
            .collect();
        let refs: Vec<&TraceRecord> = records.iter().collect();
        let model = build_model(0, &refs, &resolver);
        let mapping = build_mapping(&refs);
        let rule = CatalogRule::new(&catalog, 0, 4);
        let est = estimate_path(
            &model,
            &rule,
            &mapping,
            &[Value::Int(probe)],
            &EstimateConfig::default(),
        );
        // Confidence is a probability.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&est.confidence));
        // The touched set is exactly the union of the per-step predictions.
        let mut union = PartitionSet::EMPTY;
        for &p in &est.step_partitions {
            union = union.union(p);
        }
        prop_assert_eq!(est.touched, union);
        // Steps align with the vertex path (begin + steps [+ terminal]).
        let terminal = usize::from(est.reached_commit || est.reached_abort);
        prop_assert_eq!(est.vertices.len(), 1 + est.step_queries.len() + terminal);
        // The abort probability is a probability.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&est.abort_prob));
    }
}
