//! The per-procedure transaction-time profiler behind Fig. 11.
//!
//! The paper instruments H-Store to attribute each transaction's wall time
//! to five buckets: (1) estimating optimizations, (2) executing control code
//! and queries, (3) planning, (4) coordinating execution, and (5) other
//! setup operations. Profiling starts when a request arrives at a node and
//! stops when the result is sent back to the client.
//!
//! The live runtime adds a sixth bucket, `Queueing` — wall time a request
//! spends parked on a worker's inbound queue before its partition thread
//! picks it up. The simulator has no queues (it charges modeled service
//! times directly), so `Queueing` stays zero there; conversely the live
//! runtime ships pre-compiled fragments and never plans queries, so
//! `Planning` is a sim-only bucket.

use common::{FxHashMap, ProcId};

/// The five attribution buckets of Fig. 11, plus live-runtime `Queueing`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Advisor time: initial path estimate + runtime updates.
    Estimation,
    /// Control code + query execution.
    Execution,
    /// Query planning.
    Planning,
    /// Network, locking, and two-phase-commit coordination.
    Coordination,
    /// Time spent parked on a worker's inbound queue (live runtime only).
    Queueing,
    /// Miscellaneous setup.
    Other,
}

impl Bucket {
    /// All buckets, in Fig. 11's legend order (with `Queueing` inserted
    /// before the catch-all).
    pub const ALL: [Bucket; 6] = [
        Bucket::Estimation,
        Bucket::Execution,
        Bucket::Planning,
        Bucket::Coordination,
        Bucket::Queueing,
        Bucket::Other,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Estimation => "Estimation",
            Bucket::Execution => "Execution",
            Bucket::Planning => "Planning",
            Bucket::Coordination => "Coordination",
            Bucket::Queueing => "Queueing",
            Bucket::Other => "Other",
        }
    }
}

/// Sub-buckets *of* [`Bucket::Coordination`]: where the distributed
/// path's coordination time actually goes. Each recorded amount is also
/// part of the `Coordination` total (the sub-buckets never exceed it —
/// the fast path's residual coordination lands in none of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordSub {
    /// Blocked acquiring the transaction's partition-lock set.
    LockWait,
    /// The 2PC finish round: outcome sends plus every participant ack.
    TwoPc,
    /// Waiting on the shared commit-flush sequencer for durability.
    Flush,
}

impl CoordSub {
    /// All sub-buckets, in report order.
    pub const ALL: [CoordSub; 3] = [CoordSub::LockWait, CoordSub::TwoPc, CoordSub::Flush];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CoordSub::LockWait => "LockWait",
            CoordSub::TwoPc => "TwoPC",
            CoordSub::Flush => "Flush",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ProcTimes {
    us: [f64; 6],
    /// Coordination sub-bucket times, parallel to `us[Coordination]`.
    coord: [f64; 3],
    txns: u64,
}

/// Accumulates microseconds per (procedure, bucket) — simulated time in the
/// simulator, wall time in the live runtime.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    per_proc: FxHashMap<ProcId, ProcTimes>,
}

impl Profiler {
    /// Empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Adds `us` microseconds of `bucket` time for `proc`.
    pub fn add(&mut self, proc: ProcId, bucket: Bucket, us: f64) {
        debug_assert!(us >= 0.0, "negative time {us}");
        let entry = self.per_proc.entry(proc).or_default();
        entry.us[bucket as usize] += us;
    }

    /// Adds `us` microseconds to a [`Bucket::Coordination`] sub-bucket for
    /// `proc`. The caller records the same time under `Coordination` too —
    /// this only refines how that total splits.
    pub fn add_coord(&mut self, proc: ProcId, sub: CoordSub, us: f64) {
        debug_assert!(us >= 0.0, "negative time {us}");
        let entry = self.per_proc.entry(proc).or_default();
        entry.coord[sub as usize] += us;
    }

    /// Marks one completed transaction of `proc` (for averaging).
    pub fn finish_txn(&mut self, proc: ProcId) {
        self.per_proc.entry(proc).or_default().txns += 1;
    }

    /// Total recorded microseconds across all procedures and buckets.
    pub fn grand_total_us(&self) -> f64 {
        self.per_proc.values().map(|t| t.us.iter().sum::<f64>()).sum()
    }

    /// Total transactions recorded across all procedures.
    pub fn total_txns(&self) -> u64 {
        self.per_proc.values().map(|t| t.txns).sum()
    }

    /// Total recorded microseconds for `proc` across buckets.
    pub fn total_us(&self, proc: ProcId) -> f64 {
        self.per_proc.get(&proc).map(|t| t.us.iter().sum()).unwrap_or(0.0)
    }

    /// Fraction of `proc`'s recorded time in `bucket` (Fig. 11's y-axis).
    pub fn share(&self, proc: ProcId, bucket: Bucket) -> f64 {
        let total = self.total_us(proc);
        if total == 0.0 {
            return 0.0;
        }
        self.per_proc.get(&proc).map(|t| t.us[bucket as usize]).unwrap_or(0.0) / total
    }

    /// Mean microseconds per transaction of `proc` spent in `bucket`
    /// (Table 4's rightmost column uses `Estimation`).
    pub fn mean_us(&self, proc: ProcId, bucket: Bucket) -> f64 {
        match self.per_proc.get(&proc) {
            Some(t) if t.txns > 0 => t.us[bucket as usize] / t.txns as f64,
            _ => 0.0,
        }
    }

    /// Total recorded microseconds for `proc` in a coordination
    /// sub-bucket.
    pub fn coord_us(&self, proc: ProcId, sub: CoordSub) -> f64 {
        self.per_proc.get(&proc).map(|t| t.coord[sub as usize]).unwrap_or(0.0)
    }

    /// Run-weighted coordination sub-bucket share across all procedures
    /// (denominator: grand total, as in [`Profiler::overall_share`]).
    pub fn overall_coord_share(&self, sub: CoordSub) -> f64 {
        let total = self.grand_total_us();
        if total == 0.0 {
            return 0.0;
        }
        let b: f64 = self.per_proc.values().map(|t| t.coord[sub as usize]).sum();
        b / total
    }

    /// Transactions recorded for `proc`.
    pub fn txns(&self, proc: ProcId) -> u64 {
        self.per_proc.get(&proc).map(|t| t.txns).unwrap_or(0)
    }

    /// Procedures with recorded time, ascending by id.
    pub fn procs(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.per_proc.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Weighted-average estimation share across all procedures (the paper's
    /// headline "5.8% of total execution time", §6.3).
    pub fn overall_share(&self, bucket: Bucket) -> f64 {
        let total: f64 = self.per_proc.values().map(|t| t.us.iter().sum::<f64>()).sum();
        if total == 0.0 {
            return 0.0;
        }
        let b: f64 = self.per_proc.values().map(|t| t.us[bucket as usize]).sum();
        b / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let mut p = Profiler::new();
        p.add(0, Bucket::Estimation, 10.0);
        p.add(0, Bucket::Execution, 70.0);
        p.add(0, Bucket::Coordination, 20.0);
        let sum: f64 = Bucket::ALL.iter().map(|&b| p.share(0, b)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((p.share(0, Bucket::Execution) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mean_per_txn() {
        let mut p = Profiler::new();
        p.add(1, Bucket::Estimation, 30.0);
        p.finish_txn(1);
        p.finish_txn(1);
        p.finish_txn(1);
        assert!((p.mean_us(1, Bucket::Estimation) - 10.0).abs() < 1e-12);
        assert_eq!(p.txns(1), 3);
    }

    #[test]
    fn empty_proc_is_zero() {
        let p = Profiler::new();
        assert_eq!(p.total_us(9), 0.0);
        assert_eq!(p.share(9, Bucket::Other), 0.0);
        assert_eq!(p.mean_us(9, Bucket::Other), 0.0);
    }

    #[test]
    fn coord_sub_buckets_split_the_coordination_total() {
        let mut p = Profiler::new();
        p.add(0, Bucket::Execution, 50.0);
        p.add(0, Bucket::Coordination, 50.0);
        p.add_coord(0, CoordSub::LockWait, 10.0);
        p.add_coord(0, CoordSub::TwoPc, 25.0);
        p.add_coord(0, CoordSub::Flush, 5.0);
        let sub_sum: f64 = CoordSub::ALL.iter().map(|&s| p.overall_coord_share(s)).sum();
        assert!(sub_sum <= p.share(0, Bucket::Coordination) + 1e-12);
        assert!((p.overall_coord_share(CoordSub::TwoPc) - 0.25).abs() < 1e-12);
        assert!((p.overall_coord_share(CoordSub::LockWait) - 0.10).abs() < 1e-12);
        assert!((p.coord_us(0, CoordSub::Flush) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn overall_share_weighted() {
        let mut p = Profiler::new();
        p.add(0, Bucket::Estimation, 10.0);
        p.add(0, Bucket::Execution, 90.0);
        p.add(1, Bucket::Estimation, 0.0);
        p.add(1, Bucket::Execution, 100.0);
        assert!((p.overall_share(Bucket::Estimation) - 0.05).abs() < 1e-12);
    }
}
