//! Identifier types and the [`PartitionSet`] bitmask.

use std::fmt;

/// A data partition (the unit of locking and single-threaded execution).
pub type PartitionId = u32;
/// A cluster node; each node hosts one or more partitions.
pub type NodeId = u32;
/// A stored-procedure id within a catalog.
pub type ProcId = u32;
/// A query id within a stored procedure's catalog entry.
pub type QueryId = u32;
/// A transaction id, unique within a simulation run.
pub type TxnId = u64;

/// A set of partitions, stored as a 64-bit mask.
///
/// The paper's largest evaluated cluster is 64 partitions (Fig. 3/12), so a
/// `u64` mask covers every configuration while keeping Markov-model vertex
/// keys `Copy` and comparisons O(1) — the vertex lookup is the hottest path
/// of on-line estimation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PartitionSet(pub u64);

impl PartitionSet {
    /// Maximum number of partitions representable.
    pub const MAX_PARTITIONS: u32 = 64;

    /// The empty set.
    pub const EMPTY: PartitionSet = PartitionSet(0);

    /// A singleton set. Panics (in every build profile) on an
    /// out-of-range partition id: a release-mode `1u64 << p` with `p >= 64`
    /// masks the shift amount and silently produces the *wrong partition*
    /// (the same latent-overflow class as the simulator's old table masks),
    /// which corrupts lock sets instead of failing loudly.
    #[inline]
    pub fn single(p: PartitionId) -> Self {
        assert!(
            p < Self::MAX_PARTITIONS,
            "partition id {p} out of range (max {})",
            Self::MAX_PARTITIONS - 1
        );
        PartitionSet(1u64 << p)
    }

    /// The set containing partitions `0..n`, saturating at the full
    /// 64-partition mask: every representable partition is in `all(n)` for
    /// any `n >= 64`, instead of the masked-shift garbage `(1 << n) - 1`
    /// would produce in release builds.
    #[inline]
    pub fn all(n: u32) -> Self {
        if n >= Self::MAX_PARTITIONS {
            PartitionSet(u64::MAX)
        } else {
            PartitionSet((1u64 << n) - 1)
        }
    }

    /// Builds a set from an iterator of partition ids.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = PartitionId>>(iter: I) -> Self {
        let mut s = PartitionSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of partitions in the set.
    #[inline]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, p: PartitionId) -> bool {
        p < Self::MAX_PARTITIONS && (self.0 >> p) & 1 == 1
    }

    /// Adds a partition. Panics on an out-of-range id (see
    /// [`PartitionSet::single`] for why silence would be worse).
    #[inline]
    pub fn insert(&mut self, p: PartitionId) {
        assert!(
            p < Self::MAX_PARTITIONS,
            "partition id {p} out of range (max {})",
            Self::MAX_PARTITIONS - 1
        );
        self.0 |= 1u64 << p;
    }

    /// Removes a partition; removing an out-of-range id is a no-op (it can
    /// never be a member), not a masked shift that would clear some *other*
    /// partition's bit in release builds.
    #[inline]
    pub fn remove(&mut self, p: PartitionId) {
        if p < Self::MAX_PARTITIONS {
            self.0 &= !(1u64 << p);
        }
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: Self) -> Self {
        PartitionSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: Self) -> Self {
        PartitionSet(self.0 & other.0)
    }

    /// Elements of `self` not in `other`.
    #[inline]
    pub fn difference(self, other: Self) -> Self {
        PartitionSet(self.0 & !other.0)
    }

    /// True if every element of `self` is in `other`.
    #[inline]
    pub fn is_subset(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if this is exactly one partition.
    #[inline]
    pub fn is_single(self) -> bool {
        self.0.count_ones() == 1
    }

    /// The lone element of a singleton set, or the smallest element.
    #[inline]
    pub fn first(self) -> Option<PartitionId> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros())
        }
    }

    /// Iterates over members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = PartitionId> {
        PartitionSetIter(self.0)
    }
}

struct PartitionSetIter(u64);

impl Iterator for PartitionSetIter {
    type Item = PartitionId;

    #[inline]
    fn next(&mut self) -> Option<PartitionId> {
        if self.0 == 0 {
            None
        } else {
            let p = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(p)
        }
    }
}

impl fmt::Debug for PartitionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for PartitionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<PartitionId> for PartitionSet {
    fn from_iter<I: IntoIterator<Item = PartitionId>>(iter: I) -> Self {
        PartitionSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = PartitionSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(0);
        assert_eq!(s.len(), 2);
        assert!(s.contains(3));
        assert!(!s.contains(1));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn all_and_subset() {
        let all = PartitionSet::all(16);
        assert_eq!(all.len(), 16);
        let s = PartitionSet::from_iter([2u32, 5, 15]);
        assert!(s.is_subset(all));
        assert!(!all.is_subset(s));
        assert_eq!(PartitionSet::all(64).len(), 64);
    }

    #[test]
    fn iter_ascending() {
        let s = PartitionSet::from_iter([9u32, 1, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
    }

    #[test]
    fn union_intersect_difference() {
        let a = PartitionSet::from_iter([1u32, 2, 3]);
        let b = PartitionSet::from_iter([3u32, 4]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersect(b), PartitionSet::single(3));
        assert_eq!(a.difference(b), PartitionSet::from_iter([1u32, 2]));
    }

    #[test]
    fn singleton() {
        assert!(PartitionSet::single(5).is_single());
        assert!(!PartitionSet::all(2).is_single());
        assert_eq!(PartitionSet::single(5).first(), Some(5));
    }

    #[test]
    fn debug_format() {
        let s = PartitionSet::from_iter([0u32, 1]);
        assert_eq!(format!("{s:?}"), "{0,1}");
    }

    // Shift-overflow regression tests: in release builds `1u64 << p` with
    // `p >= 64` masks the shift amount, so the old code silently aliased
    // partition 64 onto partition 0 (etc.) instead of failing.

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_rejects_out_of_range_id() {
        let _ = PartitionSet::single(64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_rejects_out_of_range_id() {
        let mut s = PartitionSet::EMPTY;
        s.insert(64);
    }

    #[test]
    fn all_saturates_past_max_partitions() {
        assert_eq!(PartitionSet::all(65), PartitionSet::all(64));
        assert_eq!(PartitionSet::all(1000).len(), 64);
    }

    #[test]
    fn remove_out_of_range_is_a_noop() {
        let mut s = PartitionSet::all(64);
        s.remove(64); // would have cleared partition 0 via a masked shift
        s.remove(70); // would have cleared partition 6
        assert_eq!(s, PartitionSet::all(64));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!PartitionSet::all(64).contains(64));
        assert!(!PartitionSet::all(64).contains(1 << 20));
    }
}
