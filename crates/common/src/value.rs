//! The dynamic value type flowing through stored procedures, queries, rows,
//! traces, and feature extraction.

use std::fmt;

/// A dynamically-typed value.
///
/// OLTP stored procedures exchange scalar parameters and (per the paper,
/// §4.1) *array* parameters whose elements are treated as independent
/// parameters by the parameter-mapping machinery. Monetary quantities are
/// stored as integer cents so that `Value` is `Eq + Hash + Ord`, which the
/// Markov-model vertex keys and parameter-mapping comparisons rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (also used for money, in cents).
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Array parameter; elements are addressed individually by mappings.
    Array(Vec<Value>),
}

impl Value {
    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the integer payload or panics; for engine-internal code where
    /// the catalog guarantees the type.
    pub fn expect_int(&self) -> i64 {
        self.as_int().unwrap_or_else(|| panic!("expected Int, got {self:?}"))
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Length of the array, or `None` for non-array values. This is the
    /// `ARRAYLENGTH` feature from Table 1 of the paper.
    pub fn array_len(&self) -> Option<usize> {
        self.as_array().map(<[Value]>::len)
    }

    /// A stable 64-bit hash of the value, used by the `HASHVALUE` feature and
    /// by hash-partitioning. Deliberately *not* the std `Hash` so that it is
    /// stable across runs and platforms.
    pub fn stable_hash(&self) -> u64 {
        match self {
            Value::Null => 0x9e3779b97f4a7c15,
            Value::Int(v) => splitmix64(*v as u64),
            Value::Str(s) => {
                let mut h = 0xcbf29ce484222325u64;
                for b in s.as_bytes() {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x100000001b3);
                }
                splitmix64(h)
            }
            Value::Array(vs) => {
                let mut h = 0x9e3779b97f4a7c15u64;
                for v in vs {
                    h = splitmix64(h ^ v.stable_hash());
                }
                h
            }
        }
    }

    /// The home partition of a partitioning-column value in a cluster of
    /// `num_partitions`: integers route by modulo so consecutive ids spread
    /// round-robin (the paper's TPC-C setup, §2.1), everything else by
    /// [`Value::stable_hash`]. This is THE routing rule — storage placement,
    /// catalog partition estimation, and the trace resolvers all call it, so
    /// they can never disagree about where a row lives.
    #[inline]
    pub fn home_partition(&self, num_partitions: u32) -> u32 {
        match self {
            Value::Int(i) => (i.unsigned_abs() % u64::from(num_partitions)) as u32,
            other => (other.stable_hash() % u64::from(num_partitions)) as u32,
        }
    }
}

/// SplitMix64 finalizer: cheap, well-mixed, stable across platforms.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Array(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

impl From<Vec<i64>> for Value {
    fn from(v: Vec<i64>) -> Self {
        Value::Array(v.into_iter().map(Value::Int).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from(vec![1i64, 2, 3]).array_len(), Some(3));
        assert_eq!(Value::Int(1).array_len(), None);
    }

    #[test]
    fn stable_hash_is_stable_and_distinguishes() {
        assert_eq!(Value::Int(42).stable_hash(), Value::Int(42).stable_hash());
        assert_ne!(Value::Int(42).stable_hash(), Value::Int(43).stable_hash());
        assert_ne!(Value::from("a").stable_hash(), Value::from("b").stable_hash());
        // Array hash depends on order.
        assert_ne!(
            Value::from(vec![1i64, 2]).stable_hash(),
            Value::from(vec![2i64, 1]).stable_hash()
        );
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
        assert_eq!(Value::from(vec![1i64, 2]).to_string(), "[1, 2]");
    }

    #[test]
    fn ordering_is_total() {
        let mut vs =
            [Value::from("b"), Value::Int(2), Value::Null, Value::Int(1), Value::from("a")];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(1));
    }
}
