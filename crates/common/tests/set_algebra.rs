//! Deterministic unit tests for `PartitionSet` set algebra (checked against
//! `BTreeSet` as the reference model) and for `Value` ordering / hashing /
//! serialization round-trips. Complements the randomized coverage in the
//! workspace-level `tests/proptests.rs`.

use common::{seeded_rng, FxHashMap, PartitionSet, Value};
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

fn model(s: PartitionSet) -> BTreeSet<u32> {
    s.iter().collect()
}

fn from_model(m: &BTreeSet<u32>) -> PartitionSet {
    PartitionSet::from_iter(m.iter().copied())
}

#[test]
fn algebra_matches_btreeset_reference() {
    let mut rng = seeded_rng(0x5e7_a15e);
    for _ in 0..500 {
        let a: BTreeSet<u32> = (0..rng.gen_range(0..20)).map(|_| rng.gen_range(0..64)).collect();
        let b: BTreeSet<u32> = (0..rng.gen_range(0..20)).map(|_| rng.gen_range(0..64)).collect();
        let (sa, sb) = (from_model(&a), from_model(&b));

        assert_eq!(sa.len() as usize, a.len());
        assert_eq!(model(sa.union(sb)), a.union(&b).copied().collect());
        assert_eq!(model(sa.intersect(sb)), a.intersection(&b).copied().collect());
        assert_eq!(model(sa.difference(sb)), a.difference(&b).copied().collect());
        assert_eq!(sa.is_subset(sb), a.is_subset(&b));
        for p in 0..64 {
            assert_eq!(sa.contains(p), a.contains(&p));
        }
        // iter() yields ascending order, mirroring BTreeSet iteration.
        let via_iter: Vec<u32> = sa.iter().collect();
        let sorted: Vec<u32> = a.iter().copied().collect();
        assert_eq!(via_iter, sorted);
        assert_eq!(sa.first(), a.first().copied());
    }
}

#[test]
fn algebra_identities() {
    let u = PartitionSet::all(64);
    let sets = [
        PartitionSet::EMPTY,
        PartitionSet::single(0),
        PartitionSet::single(63),
        PartitionSet::all(1),
        PartitionSet::all(64),
        PartitionSet::from_iter([1, 5, 9, 33]),
    ];
    for &s in &sets {
        assert_eq!(s.union(PartitionSet::EMPTY), s);
        assert_eq!(s.intersect(u), s);
        assert_eq!(s.intersect(PartitionSet::EMPTY), PartitionSet::EMPTY);
        assert_eq!(s.difference(PartitionSet::EMPTY), s);
        assert_eq!(s.difference(s), PartitionSet::EMPTY);
        assert_eq!(s.union(s), s);
        assert!(PartitionSet::EMPTY.is_subset(s));
        assert!(s.is_subset(u));
        assert_eq!(s.is_single(), s.len() == 1);
    }
    for &a in &sets {
        for &b in &sets {
            assert_eq!(a.union(b), b.union(a));
            assert_eq!(a.intersect(b), b.intersect(a));
            // A \ B = A ∩ ¬B ⇒ (A \ B) ∪ (A ∩ B) = A.
            assert_eq!(a.difference(b).union(a.intersect(b)), a);
        }
    }
}

#[test]
fn insert_remove_roundtrip() {
    let mut s = PartitionSet::EMPTY;
    let mut m = BTreeSet::new();
    let mut rng = seeded_rng(77);
    for _ in 0..2000 {
        let p = rng.gen_range(0..64u32);
        if rng.gen_bool(0.5) {
            s.insert(p);
            m.insert(p);
        } else {
            s.remove(p);
            m.remove(&p);
        }
        assert_eq!(model(s), m);
    }
}

// ---------------------------------------------------------------------------
// Value ordering and hashing
// ---------------------------------------------------------------------------

fn sample_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(i64::MIN),
        Value::Int(-1),
        Value::Int(0),
        Value::Int(1),
        Value::Int(i64::MAX),
        Value::Str(String::new()),
        Value::Str("a".into()),
        Value::Str("ab".into()),
        Value::Str("Ω-unicode".into()),
        Value::Array(vec![]),
        Value::Array(vec![Value::Int(1)]),
        Value::Array(vec![Value::Int(1), Value::Str("x".into())]),
        Value::Array(vec![Value::Array(vec![Value::Null])]),
    ]
}

fn std_hash<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn value_ordering_is_total_and_consistent() {
    let values = sample_values();
    for a in &values {
        assert_eq!(a.cmp(a), std::cmp::Ordering::Equal);
        for b in &values {
            // Antisymmetry and Eq-consistency.
            assert_eq!(a.cmp(b), b.cmp(a).reverse());
            assert_eq!(a.cmp(b) == std::cmp::Ordering::Equal, a == b);
            // Ord and PartialOrd must agree.
            assert_eq!(a.partial_cmp(b), Some(a.cmp(b)));
            for c in &values {
                if a.cmp(b) != std::cmp::Ordering::Greater
                    && b.cmp(c) != std::cmp::Ordering::Greater
                {
                    assert_ne!(a.cmp(c), std::cmp::Ordering::Greater, "{a:?} ≤ {b:?} ≤ {c:?}");
                }
            }
        }
    }
    // Sorting is stable under re-sorting (total order sanity).
    let mut sorted = values.clone();
    sorted.sort();
    let mut twice = sorted.clone();
    twice.sort();
    assert_eq!(sorted, twice);
}

#[test]
fn value_hash_respects_equality() {
    let values = sample_values();
    for v in &values {
        assert_eq!(std_hash(v), std_hash(&v.clone()), "clone must hash identically: {v:?}");
        assert_eq!(v.stable_hash(), v.clone().stable_hash());
    }
    // Equal values must collide; distinct sample values should not (fixed
    // inputs, so a legitimate collision would be astonishing) — except
    // `Null` vs `Array([])`, which share a sentinel by construction.
    let known_collision = |a: &Value, b: &Value| {
        matches!(a, Value::Null) && matches!(b, Value::Array(v) if v.is_empty())
    };
    for a in &values {
        for b in &values {
            if a == b {
                assert_eq!(std_hash(a), std_hash(b));
            } else if !known_collision(a, b) && !known_collision(b, a) {
                assert_ne!(a.stable_hash(), b.stable_hash(), "{a:?} vs {b:?}");
            }
        }
    }
    // Values must work as hash-map keys through clone round-trips.
    let mut map: FxHashMap<Value, usize> = FxHashMap::default();
    for (i, v) in values.iter().enumerate() {
        map.insert(v.clone(), i);
    }
    for (i, v) in values.iter().enumerate() {
        assert_eq!(map.get(&v.clone()), Some(&i));
    }
}
