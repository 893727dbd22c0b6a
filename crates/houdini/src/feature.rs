//! Feature extraction from stored-procedure input parameters (paper §5.1,
//! Tables 1 and 2).
//!
//! A transaction's *feature vector* holds one value per input parameter per
//! category. Inapplicable combinations (e.g. `ARRAYLENGTH` of a scalar) are
//! null, encoded as `None`, exactly like the nulls in the paper's Table 2.
//! Model partitioning routes a request on one feature's value
//! ([`crate::ModelSet::Partitioned`]).

use common::Value;

/// The feature categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureCategory {
    /// The normalized (numeric) value of the parameter.
    NormalizedValue,
    /// The hash value of the parameter — its home partition under the
    /// current configuration, which is what makes a split partition-aware
    /// (Fig. 9 splits NewOrder models on `HashValue(w_id)`).
    HashValue,
    /// Whether the parameter is null.
    IsNull,
    /// The length of an array parameter.
    ArrayLength,
    /// Whether all elements of an array parameter hash to the same value.
    ArrayAllSameHash,
}

impl FeatureCategory {
    /// All categories in Table 1's order.
    pub const ALL: [FeatureCategory; 5] = [
        FeatureCategory::NormalizedValue,
        FeatureCategory::HashValue,
        FeatureCategory::IsNull,
        FeatureCategory::ArrayLength,
        FeatureCategory::ArrayAllSameHash,
    ];

    /// Display name matching the paper (e.g. `HASHVALUE`).
    fn label(self) -> &'static str {
        match self {
            FeatureCategory::NormalizedValue => "NORMALIZEDVALUE",
            FeatureCategory::HashValue => "HASHVALUE",
            FeatureCategory::IsNull => "ISNULL",
            FeatureCategory::ArrayLength => "ARRAYLENGTH",
            FeatureCategory::ArrayAllSameHash => "ARRAYALLSAMEHASH",
        }
    }
}

/// One feature instance: a category applied to one procedure parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Feature {
    /// The category.
    pub category: FeatureCategory,
    /// The procedure input-parameter index it applies to.
    pub param: usize,
}

impl std::fmt::Display for Feature {
    /// Paper style, e.g. `NORMALIZEDVALUE(1)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.category.label(), self.param)
    }
}

/// The full feature schema for a procedure with `num_params` parameters:
/// one feature per parameter per category, parameter-major.
pub fn feature_schema(num_params: usize) -> Vec<Feature> {
    let mut fs = Vec::with_capacity(num_params * FeatureCategory::ALL.len());
    for param in 0..num_params {
        for category in FeatureCategory::ALL {
            fs.push(Feature { category, param });
        }
    }
    fs
}

fn hash_of(v: &Value, num_partitions: u32) -> f64 {
    f64::from(v.home_partition(num_partitions))
}

/// Extracts one feature's value from the argument list, or `None` when
/// inapplicable (Table 2's nulls).
pub fn extract_feature(f: &Feature, args: &[Value], num_partitions: u32) -> Option<f64> {
    let v = args.get(f.param)?;
    match f.category {
        FeatureCategory::NormalizedValue => match v {
            Value::Int(i) => Some(*i as f64),
            Value::Str(s) => Some(s.len() as f64),
            _ => None,
        },
        FeatureCategory::HashValue => match v {
            Value::Array(_) | Value::Null => None,
            scalar => Some(hash_of(scalar, num_partitions)),
        },
        FeatureCategory::IsNull => Some(if v.is_null() { 1.0 } else { 0.0 }),
        FeatureCategory::ArrayLength => v.array_len().map(|l| l as f64),
        FeatureCategory::ArrayAllSameHash => v.as_array().map(|elems| {
            let mut hashes = elems.iter().map(|e| hash_of(e, num_partitions));
            match hashes.next() {
                None => 1.0,
                Some(first) => {
                    if hashes.all(|h| h == first) {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_size() {
        assert_eq!(feature_schema(4).len(), 20); // Table 2: 4 params x 5 cats
    }

    #[test]
    fn table2_example() {
        // NewOrder-ish args: (w_id=0, i_ids=[2], i_w_ids=[0,1], i_qtys=[2,7])
        let args = vec![
            Value::Int(0),
            Value::Array(vec![Value::Int(1001), Value::Int(1002)]),
            Value::Array(vec![Value::Int(0), Value::Int(1)]),
            Value::Array(vec![Value::Int(2), Value::Int(7)]),
        ];
        let hv_w =
            extract_feature(&Feature { category: FeatureCategory::HashValue, param: 0 }, &args, 2);
        assert_eq!(hv_w, Some(0.0));
        let al_w = extract_feature(
            &Feature { category: FeatureCategory::ArrayLength, param: 0 },
            &args,
            2,
        );
        assert_eq!(al_w, None, "w_id is not an array");
        let al_ids = extract_feature(
            &Feature { category: FeatureCategory::ArrayLength, param: 1 },
            &args,
            2,
        );
        assert_eq!(al_ids, Some(2.0));
        let hv_ids =
            extract_feature(&Feature { category: FeatureCategory::HashValue, param: 1 }, &args, 2);
        assert_eq!(hv_ids, None, "arrays have no scalar hash");
    }

    #[test]
    fn all_same_hash() {
        let same = vec![Value::Array(vec![Value::Int(0), Value::Int(4)])]; // both -> 0 mod 4
        let diff = vec![Value::Array(vec![Value::Int(0), Value::Int(1)])];
        let f = Feature { category: FeatureCategory::ArrayAllSameHash, param: 0 };
        assert_eq!(extract_feature(&f, &same, 4), Some(1.0));
        assert_eq!(extract_feature(&f, &diff, 4), Some(0.0));
        let empty = vec![Value::Array(vec![])];
        assert_eq!(extract_feature(&f, &empty, 4), Some(1.0));
    }

    #[test]
    fn is_null_and_missing_param() {
        let args = vec![Value::Null];
        let f = Feature { category: FeatureCategory::IsNull, param: 0 };
        assert_eq!(extract_feature(&f, &args, 2), Some(1.0));
        let f9 = Feature { category: FeatureCategory::IsNull, param: 9 };
        assert_eq!(extract_feature(&f9, &args, 2), None);
    }
}
