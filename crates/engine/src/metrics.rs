//! Run-level metrics: throughput, latency distribution, restarts, and the
//! per-procedure optimization counters behind Table 4. Shared by the
//! deterministic [`crate::Simulation`] (simulated microseconds) and the live
//! runtime (wall-clock microseconds).

use crate::advisor::{TxnOutcome, TxnPlan};
use crate::profiler::Profiler;
use crate::txn::{Decision, Footprint};
use common::{FxHashMap, ProcId};

/// Per-procedure counters of how often each optimization was applied
/// *successfully at run time* (Table 4's semantics, §6.4):
///
/// * **OP1** — the chosen base partition turned out to be (one of) the
///   partition(s) the transaction accessed most.
/// * **OP2** — the predicted lock set matched the accessed partitions
///   exactly: no mispredict restart, no unused locked partition.
/// * **OP3** — the transaction executed some or all of its work without
///   undo logging.
/// * **OP4** — the transaction early-prepared a partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounters {
    /// Committed transactions observed.
    pub txns: u64,
    /// OP1 successes.
    pub op1: u64,
    /// Transactions the OP1 rule applies to ([`crate::Accesses::base_is_best`]).
    pub op1_applicable: u64,
    /// OP2 successes.
    pub op2: u64,
    /// Transactions where OP2 was applicable.
    pub op2_applicable: u64,
    /// OP3 successes (ran at least partly without undo logging).
    pub op3: u64,
    /// OP4 successes (this txn early-prepared a partition).
    pub op4: u64,
}

impl OpCounters {
    fn pct(n: u64, d: u64) -> Option<f64> {
        if d == 0 {
            None
        } else {
            Some(100.0 * n as f64 / d as f64)
        }
    }

    /// OP1 success percentage (None if never applicable — Table 4's "-").
    pub fn op1_pct(&self) -> Option<f64> {
        Self::pct(self.op1, self.op1_applicable)
    }

    /// OP2 success percentage.
    pub fn op2_pct(&self) -> Option<f64> {
        Self::pct(self.op2, self.op2_applicable)
    }

    /// OP3 percentage over committed transactions.
    pub fn op3_pct(&self) -> Option<f64> {
        if self.op3 == 0 {
            None
        } else {
            Self::pct(self.op3, self.txns)
        }
    }

    /// OP4 percentage over committed transactions.
    pub fn op4_pct(&self) -> Option<f64> {
        if self.op4 == 0 {
            None
        } else {
            Self::pct(self.op4, self.txns)
        }
    }
}

/// Fixed-bucket latency histogram over microsecond samples.
///
/// Buckets are geometric: [`LatencyHistogram::BUCKETS_PER_DECADE`] buckets
/// per decade spanning 1 µs to 10^9 µs (~17 min), with one underflow and
/// one overflow bucket. That bounds quantile error at ~12% per sample —
/// plenty for p50/p95/p99 reporting — while keeping the struct a flat,
/// mergeable array (the open-loop driver's submitter threads each record
/// their own and merge at the end). Samples past the ceiling land in the
/// overflow bucket; [`LatencyHistogram::quantile_us`] reports quantiles
/// that fall there as `None` rather than inventing an in-range edge, and
/// [`LatencyHistogram::overflow_count`] exposes how many samples saturated.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: vec![0; Self::NUM_BUCKETS], total: 0, sum_us: 0.0 }
    }
}

impl LatencyHistogram {
    /// Geometric resolution: buckets per factor-of-ten.
    pub const BUCKETS_PER_DECADE: usize = 20;
    /// Decades covered: 1 µs .. 10^9 µs.
    const DECADES: usize = 9;
    /// Underflow + geometric grid + overflow.
    const NUM_BUCKETS: usize = Self::DECADES * Self::BUCKETS_PER_DECADE + 2;

    fn bucket_of(us: f64) -> usize {
        if us < 1.0 || us.is_nan() {
            // Sub-microsecond, zero, or NaN: underflow bucket.
            return 0;
        }
        let idx = (us.log10() * Self::BUCKETS_PER_DECADE as f64).floor() as usize + 1;
        idx.min(Self::NUM_BUCKETS - 1)
    }

    /// Upper edge (µs) of bucket `idx`, used as the reported quantile value.
    fn bucket_upper_us(idx: usize) -> f64 {
        if idx == 0 {
            return 1.0;
        }
        10f64.powf(idx as f64 / Self::BUCKETS_PER_DECADE as f64)
    }

    /// Records one latency sample in microseconds. A NaN sample lands in
    /// the underflow bucket like any sub-microsecond value and contributes
    /// nothing to the sum, so one bad sample cannot poison `mean_us`.
    pub fn record_us(&mut self, us: f64) {
        self.counts[Self::bucket_of(us)] += 1;
        self.total += 1;
        if !us.is_nan() {
            self.sum_us += us;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (µs), `None` when no samples were recorded.
    pub fn mean_us(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum_us / self.total as f64)
        }
    }

    /// The latency (µs) at quantile `q` in `[0, 1]`, reported as the
    /// containing bucket's upper edge. `None` when empty, and `None` when
    /// the quantile lands in the overflow bucket — the bucket has no real
    /// upper edge, and reporting the histogram's top edge used to silently
    /// cap p99 at the range (exact-edge values masquerading as data).
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate().take(Self::NUM_BUCKETS - 1) {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_us(i));
            }
        }
        None
    }

    /// Samples that saturated past the histogram's range (callers report
    /// these distinctly — a `None` quantile with a non-zero overflow count
    /// means "beyond range", not "no data").
    pub fn overflow_count(&self) -> u64 {
        self.counts[Self::NUM_BUCKETS - 1]
    }

    /// Median latency (ms).
    pub fn p50_ms(&self) -> Option<f64> {
        self.quantile_us(0.50).map(|us| us / 1000.0)
    }

    /// 95th-percentile latency (ms).
    pub fn p95_ms(&self) -> Option<f64> {
        self.quantile_us(0.95).map(|us| us / 1000.0)
    }

    /// 99th-percentile latency (ms).
    pub fn p99_ms(&self) -> Option<f64> {
        self.quantile_us(0.99).map(|us| us / 1000.0)
    }

    /// Folds another histogram into this one (runtime workers merge their
    /// thread-local histograms at shutdown).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
    }
}

/// Accuracy of one advisor epoch's predictions, as observed by the
/// maintenance thread: how many live transitions it saw from transactions
/// planned under `epoch`, and how many of those the then-current model
/// *covered* (both states present and the edge carrying trained or
/// folded-in counts — coverage accuracy, not argmax matching; see
/// `markov::ModelMonitor::observe_walk` for why the argmax test would
/// read data-dependent branching as permanent drift). A model swap shows
/// up as a new entry whose accuracy recovers (Fig. 11's §4.5 narrative,
/// measured live).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochAccuracy {
    /// Advisor epoch the transactions planned against.
    pub epoch: u64,
    /// Transitions observed from that epoch's transactions.
    pub observed: u64,
    /// Of those, transitions the model covered with trained counts.
    pub matched: u64,
}

impl EpochAccuracy {
    /// Matched fraction, `None` until something was observed.
    pub fn accuracy(&self) -> Option<f64> {
        if self.observed == 0 {
            None
        } else {
            Some(self.matched as f64 / self.observed as f64)
        }
    }

    /// Folds one `(observed, matched)` sample for `epoch` into an
    /// epoch-sorted accuracy list — the single merge implementation
    /// behind [`RunMetrics`] and [`MaintenanceReport`].
    pub fn merge_into(list: &mut Vec<EpochAccuracy>, epoch: u64, observed: u64, matched: u64) {
        match list.iter_mut().find(|e| e.epoch == epoch) {
            Some(e) => {
                e.observed += observed;
                e.matched += matched;
            }
            None => {
                list.push(EpochAccuracy { epoch, observed, matched });
                list.sort_by_key(|e| e.epoch);
            }
        }
    }
}

/// What one run's maintainer did: merged into [`RunMetrics`] by
/// [`RunMetrics::absorb_maintenance`] when a [`crate::LiveRuntime`] shuts
/// down and at the end of [`crate::Simulation::run`].
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Model epochs published (each swap rebuilds only the drifted models).
    pub model_swaps: u64,
    /// Feedback records consumed from the channel.
    pub feedback_records: u64,
    /// Per-epoch prediction accuracy.
    pub epoch_accuracy: Vec<EpochAccuracy>,
}

/// Aggregate results of one run (simulated or live).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Committed transactions inside the measurement window.
    pub committed: u64,
    /// Committed transactions per procedure (measurement window).
    pub committed_by_proc: FxHashMap<ProcId, u64>,
    /// Of those, the ones whose plan the advisor served from its plan table
    /// without estimating ([`TxnPlan::estimate_reused`]). Kept beside
    /// `committed_by_proc` rather than in [`OpCounters`], which holds
    /// Table 4's optimization counters.
    pub est_reused_by_proc: FxHashMap<ProcId, u64>,
    /// User aborts (control-code rollbacks).
    pub user_aborts: u64,
    /// Mispredict restarts (lock-set or base-partition misses).
    pub restarts: u64,
    /// Always 0: no engine executes speculatively any more. Kept only
    /// because `benchmark/src/trace.rs` reads it.
    pub speculative: u64,
    /// Always 0: nothing cascades any more (no engine speculates). Kept only
    /// because `benchmark/src/trace.rs` reads it.
    pub cascaded_aborts: u64,
    /// Transactions that ran (partly) without undo logging.
    pub no_undo: u64,
    /// Distributed (multi-partition) transactions.
    pub distributed: u64,
    /// Single-partition transactions.
    pub single_partition: u64,
    /// Sum of client-visible latency (µs) over committed txns.
    pub total_latency_us: f64,
    /// Client-visible latency distribution over committed in-window txns.
    pub latency: LatencyHistogram,
    /// Partition-µs spent reserved-but-idle by distributed transactions
    /// (fragment done or never used, waiting for 2PC) — what OP4 recovers.
    pub reserved_idle_us: f64,
    /// Per-partition lock hold times (µs) of distributed transactions in
    /// the live runtime: one sample per (transaction, locked partition),
    /// from atomic lock-set acquisition to that partition's release (early
    /// via OP4, or at 2PC completion). Early prepare shows up here directly
    /// as a lower distribution.
    pub lock_hold: LatencyHistogram,
    /// Length of the measurement window (µs) — simulated for `Simulation`,
    /// wall-clock for the live runtime.
    pub window_us: f64,
    /// Per-procedure optimization counters.
    pub ops: FxHashMap<ProcId, OpCounters>,
    /// Model epochs the maintenance thread published during the run (§4.5
    /// live; 0 when the advisor has no maintainer or never drifted).
    pub model_swaps: u64,
    /// Feedback records the maintenance thread consumed.
    pub feedback_records: u64,
    /// Feedback records dropped at the bounded channel (clients never
    /// block on maintenance; overload sheds signal, not throughput).
    pub feedback_dropped: u64,
    /// Per-advisor-epoch prediction accuracy (maintenance thread's view).
    pub epoch_accuracy: Vec<EpochAccuracy>,
    /// Live runtime: times a worker went to sleep on its doorbell, idle or
    /// reserved by a distributed transaction, after the spin budget ran
    /// out (`common::ring::Doorbell::wait`). 0 in the simulator.
    pub worker_parks: u64,
    /// Live runtime: times a client went to sleep on its own doorbell
    /// waiting for a reply after the spin budget ran out
    /// (`common::ring::Doorbell::wait`), fast path and fragment replies
    /// alike. 0 in the simulator.
    pub reply_parks: u64,
    /// Fig. 11 per-stage time attribution (estimation / execution /
    /// planning / coordination / queueing / other) per procedure —
    /// simulated µs in the simulator, wall-clock µs in the live runtime.
    pub profile: Profiler,
    /// Commit-flush demands registered with the shared flush sequencer:
    /// one per durable writing commit (a fast-path writer's client or a
    /// 2PC coordinator waits once); durable live runtime only (0
    /// otherwise), filled from the sequencer at snapshot/teardown.
    pub flushes_total: u64,
    /// The subset of `flushes_total` satisfied by a device operation some
    /// other thread led — cross-thread commit-flush coalescing at work.
    pub flushes_coalesced: u64,
    /// Command-log records appended (durable mode only; 0 otherwise).
    pub log_records: u64,
    /// Command-log bytes appended (durable mode only).
    pub log_bytes_written: u64,
    /// Transaction-consistent snapshot generations published this run.
    pub snapshots_taken: u64,
    /// Milliseconds [`crate::runtime::LiveRuntime::recover`] spent before
    /// this run started serving; 0 for a fresh boot.
    pub recovery_ms: f64,
}

impl std::fmt::Display for RunMetrics {
    /// The headline numbers on one human-readable line — throughput,
    /// outcome counts, client-visible latency quantiles, flushes — with `-`
    /// for empty-window latencies.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let q = |v: Option<f64>| v.map_or_else(|| "-".into(), |x| format!("{x:.2}"));
        write!(
            f,
            "{:.0} tps, {} committed / {} aborted / {} restarts, \
             p50/p95/p99 {}/{}/{} ms, flushes {} ({} coalesced)",
            self.throughput_tps(),
            self.committed,
            self.user_aborts,
            self.restarts,
            q(self.latency.p50_ms()),
            q(self.latency.p95_ms()),
            q(self.latency.p99_ms()),
            self.flushes_total,
            self.flushes_coalesced,
        )?;
        if self.log_records > 0 || self.snapshots_taken > 0 {
            write!(
                f,
                ", wal {} recs / {} B, {} snapshots",
                self.log_records, self.log_bytes_written, self.snapshots_taken
            )?;
        }
        if self.recovery_ms > 0.0 {
            write!(f, ", recovered in {:.1} ms", self.recovery_ms)?;
        }
        Ok(())
    }
}

impl RunMetrics {
    /// Committed transactions per (simulated or wall-clock) second.
    pub fn throughput_tps(&self) -> f64 {
        if self.window_us <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / (self.window_us / 1_000_000.0)
    }

    /// Mean client-visible latency in milliseconds. `None` when no
    /// transaction committed in the window — callers must render the empty
    /// window explicitly instead of mistaking it for a 0 ms round trip.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.committed == 0 {
            None
        } else {
            Some(self.total_latency_us / self.committed as f64 / 1000.0)
        }
    }

    /// Folds the maintenance thread's report in at shutdown.
    pub fn absorb_maintenance(&mut self, report: &MaintenanceReport) {
        self.model_swaps += report.model_swaps;
        self.feedback_records += report.feedback_records;
        for e in &report.epoch_accuracy {
            EpochAccuracy::merge_into(&mut self.epoch_accuracy, e.epoch, e.observed, e.matched);
        }
    }

    /// Aggregate OP2 success percentage across every procedure — the
    /// "prediction accuracy" headline of the live-drift experiment.
    pub fn overall_op2_pct(&self) -> Option<f64> {
        let (mut ok, mut applicable) = (0u64, 0u64);
        for ops in self.ops.values() {
            ok += ops.op2;
            applicable += ops.op2_applicable;
        }
        OpCounters::pct(ok, applicable)
    }

    /// Percentage of committed transactions (measurement window), across
    /// every procedure, that the advisor planned from its plan table.
    pub fn overall_est_reused_pct(&self) -> Option<f64> {
        OpCounters::pct(self.est_reused_by_proc.values().sum(), self.committed)
    }

    /// Records one finished transaction — the outcome record of both
    /// engines: the final attempt's decision `d`. A user abort
    /// counts in `user_aborts` only. A commit counts as distributed or
    /// single-partition, no-undo and in Table 4's counters;
    /// with its client-visible `latency_us` it also counts in `committed`,
    /// `committed_by_proc` (and `est_reused_by_proc` if the plan came from
    /// the advisor's plan table) and the latency histogram — the simulator
    /// passes `None` for a commit outside its measurement window.
    pub(crate) fn record_txn(
        &mut self,
        proc: ProcId,
        d: &Decision,
        num_partitions: u32,
        latency_us: Option<f64>,
    ) {
        if d.outcome != TxnOutcome::Committed {
            self.user_aborts += 1;
            return;
        }
        let (plan, fp) = (&d.plan, &d.footprint);
        if let Some(us) = latency_us {
            self.committed += 1;
            *self.committed_by_proc.entry(proc).or_insert(0) += 1;
            if plan.estimate_reused {
                *self.est_reused_by_proc.entry(proc).or_insert(0) += 1;
            }
            self.total_latency_us += us;
            self.latency.record_us(us);
        }
        if plan.lock_set.is_single() {
            self.single_partition += 1;
        } else {
            self.distributed += 1;
        }
        if fp.undo_disabled_ever {
            self.no_undo += 1;
        }
        self.tally_ops(proc, plan, fp, num_partitions);
    }

    /// Updates the Table 4 optimization counters for one committed
    /// transaction (§6.4).
    fn tally_ops(&mut self, proc: ProcId, plan: &TxnPlan, fp: &Footprint, num_partitions: u32) {
        let ops = self.ops.entry(proc).or_default();
        ops.txns += 1;
        // OP1: the base is among the partitions accessed most.
        if let Some(best) = fp.accessed.base_is_best(plan.base_partition, num_partitions) {
            ops.op1_applicable += 1;
            ops.op1 += u64::from(best);
        }
        // OP2: lock set exactly matched what was accessed.
        ops.op2_applicable += 1;
        if plan.lock_set == fp.accessed.touched {
            ops.op2 += 1;
        }
        if fp.undo_disabled_ever {
            ops.op3 += 1;
        }
        if !fp.early_released.is_empty() {
            ops.op4 += 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::txn::Accesses;
    use common::PartitionSet;

    #[test]
    fn throughput_math() {
        let m = RunMetrics { committed: 5000, window_us: 1_000_000.0, ..Default::default() };
        assert!((m.throughput_tps() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_explicitly_empty() {
        let m = RunMetrics::default();
        assert_eq!(m.throughput_tps(), 0.0);
        assert_eq!(m.mean_latency_ms(), None, "no commits -> no mean latency");
        assert_eq!(m.latency.p50_ms(), None);
    }

    #[test]
    fn display_prints_headline_numbers() {
        let mut m = RunMetrics {
            committed: 10,
            user_aborts: 2,
            restarts: 3,
            window_us: 2_000_000.0,
            ..Default::default()
        };
        m.latency.record_us(1000.0);
        m.latency.record_us(2000.0);
        let line = m.to_string();
        assert!(line.contains("5 tps, 10 committed / 2 aborted / 3 restarts"), "line = {line}");
        assert!(!line.contains("-/-/-"), "line = {line}");
        let empty = RunMetrics::default().to_string();
        assert!(empty.contains("-/-/-"), "empty quantiles render as dashes: {empty}");
    }

    #[test]
    fn op_percentages() {
        let c = OpCounters {
            txns: 100,
            op1: 95,
            op1_applicable: 100,
            op2: 50,
            op2_applicable: 50,
            op3: 0,
            op4: 10,
        };
        assert_eq!(c.op1_pct(), Some(95.0));
        assert_eq!(c.op2_pct(), Some(100.0));
        assert_eq!(c.op3_pct(), None, "never applied -> dash");
        assert_eq!(c.op4_pct(), Some(10.0));
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u32 {
            h.record_us(f64::from(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_us(0.5).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        // Geometric buckets: the reported edge is within ~12% above truth.
        assert!((450.0..=650.0).contains(&p50), "p50 = {p50}");
        assert!((900.0..=1200.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        let mean = h.mean_us().unwrap();
        assert!((mean - 500.5).abs() < 1e-6, "mean is exact, not bucketed");
    }

    #[test]
    fn histogram_extremes_and_nan_stay_bounded() {
        let mut h = LatencyHistogram::default();
        h.record_us(0.0);
        h.record_us(-3.0);
        h.record_us(f64::NAN);
        h.record_us(1e12); // over the ~17 min ceiling -> overflow bucket
        assert_eq!(h.count(), 4);
        assert!(h.quantile_us(0.0).unwrap() >= 1.0);
        assert_eq!(h.quantile_us(1.0), None, "max sample saturated -> no fake edge");
        assert_eq!(h.overflow_count(), 1);
        assert!(h.mean_us().unwrap().is_finite(), "a NaN sample must not poison the mean");
    }

    #[test]
    fn histogram_overflow_is_reported_not_capped() {
        // Regression: an out-of-range sample used to be reported as the
        // histogram's top edge, silently capping p99 at the range.
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_us(100.0);
        }
        h.record_us(1e15); // way past the ceiling
        assert_eq!(h.overflow_count(), 1);
        // In-range quantiles still report normally...
        let p50 = h.quantile_us(0.50).unwrap();
        assert!((90.0..=130.0).contains(&p50), "p50 = {p50}");
        // ...but a quantile that lands in the overflow bucket refuses to
        // invent a value instead of claiming the top edge.
        assert_eq!(h.quantile_us(1.0), None);
        assert_eq!(h.p99_ms(), Some(h.quantile_us(0.99).unwrap() / 1000.0));
        // A 10-second sample is comfortably in range after widening.
        let mut wide = LatencyHistogram::default();
        wide.record_us(10_000_000.0);
        assert_eq!(wide.overflow_count(), 0);
        let q = wide.quantile_us(1.0).unwrap();
        assert!((9_000_000.0..=13_000_000.0).contains(&q), "q = {q}");
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut both = LatencyHistogram::default();
        for us in [3.0, 40.0, 550.0, 7000.0] {
            a.record_us(us);
            both.record_us(us);
        }
        for us in [8.0, 90.0, 1200.0] {
            b.record_us(us);
            both.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile_us(q), both.quantile_us(q), "q = {q}");
        }
    }

    #[test]
    fn tally_ops_matches_table4_semantics() {
        let mut m = RunMetrics::default();
        let accessed = PartitionSet::from_iter([1u32, 2]);
        let fp = Footprint {
            accessed: Accesses {
                touched: accessed,
                counts: FxHashMap::from_iter([(1, 3), (2, 1)]),
            },
            undo_disabled_ever: true,
            early_released: PartitionSet::single(2),
            ..Footprint::default()
        };
        let plan = TxnPlan { lock_set: accessed, ..TxnPlan::single(1) };
        m.tally_ops(0, &plan, &fp, 4);
        let ops = &m.ops[&0];
        assert_eq!(ops.txns, 1);
        assert_eq!(ops.op1, 1, "base 1 is most accessed");
        assert_eq!(ops.op2, 1, "lock set exact");
        assert_eq!(ops.op3, 1);
        assert_eq!(ops.op4, 1);

        // A broadcast with uniform counts: OP1 not applicable.
        let mut m2 = RunMetrics::default();
        let counts = (0..4).map(|p| (p, 2)).collect();
        let accessed = Accesses { touched: PartitionSet::all(4), counts };
        let uni = Footprint { accessed, ..Footprint::default() };
        m2.tally_ops(0, &TxnPlan::lock_all(0, 4), &uni, 4);
        assert_eq!(m2.ops[&0].op1_applicable, 0);
    }

    /// A decision under `plan` that did nothing and ended in `outcome`.
    pub(crate) fn decision(plan: TxnPlan, outcome: TxnOutcome) -> Decision {
        Decision { plan, footprint: Footprint::default(), observed: None, outcome }
    }

    #[test]
    fn memo_plans_are_counted_per_procedure() {
        let reused = decision(
            TxnPlan { estimate_reused: true, ..TxnPlan::single(0) },
            TxnOutcome::Committed,
        );
        let fresh = decision(TxnPlan::single(0), TxnOutcome::Committed);
        let mut m = RunMetrics::default();
        m.record_txn(3, &reused, 2, Some(5.0));
        m.record_txn(3, &fresh, 2, Some(5.0));
        m.record_txn(4, &reused, 2, Some(5.0));
        // Outside the measurement window, and a user abort: neither counts.
        m.record_txn(4, &reused, 2, None);
        let aborted = Decision { outcome: TxnOutcome::UserAborted, ..reused };
        m.record_txn(4, &aborted, 2, Some(5.0));
        assert_eq!(m.est_reused_by_proc, FxHashMap::from_iter([(3, 1), (4, 1)]));
        assert_eq!(m.committed_by_proc, FxHashMap::from_iter([(3, 2), (4, 1)]));
        assert_eq!(m.overall_est_reused_pct(), Some(100.0 * 2.0 / 3.0));
    }
}
