//! The wall-clock comparisons on the multi-threaded partition runtime that
//! `benchmark/` does not produce — advisor-vs-baseline scaling and the
//! TPC-C OP4 ablation (`live`), latency under open-loop offered load
//! (`live-latency`), the §4.5 drift flip (`live-drift`) — plus the CI
//! floors (`check`). Print-only: live *numbers* are recorded by
//! `benchmark/`, which stamps provenance per results file; every table
//! here starts with a `# host:` line instead, so a pasted table still says
//! which commit, machine and day it belongs to.

use crate::open_loop::{open_loop_measure, OpenLoopConfig, OpenLoopMeasurement};
use crate::setup::{collect_trace, trained_houdini, Scale};
use common::derive_seed;
use engine::baselines::{AssumeDistributed, AssumeSinglePartition};
use engine::{
    run_live, Bucket, CoordSub, DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime,
    RequestGenerator, RunMetrics,
};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use workloads::{tatp, Bench};

/// Closed-loop client threads per partition of the live sweeps (the paper
/// uses 4).
const CLIENTS_PER_PARTITION: u32 = 4;

/// One closed-loop measurement point: everything the arms compared at it
/// share. Only the advisor (or, for the logging gate, `cfg`) varies.
#[derive(Clone)]
struct ClosedLoop {
    bench: Bench,
    parts: u32,
    clients_per_partition: u32,
    requests_per_client: u64,
    cfg: LiveConfig,
    seed: u64,
}

impl ClosedLoop {
    /// A point at the sweeps' [`CLIENTS_PER_PARTITION`].
    fn new(bench: Bench, parts: u32, requests_per_client: u64, cfg: LiveConfig, seed: u64) -> Self {
        let clients_per_partition = CLIENTS_PER_PARTITION;
        ClosedLoop { bench, parts, clients_per_partition, requests_per_client, cfg, seed }
    }

    /// Runs one wall-clock measurement under `advisor` on the benchmark's
    /// own per-client split request generators.
    fn run<A: LiveAdvisor + Clone + 'static>(&self, advisor: &A) -> RunMetrics {
        let &ClosedLoop { bench, parts, seed, .. } = self;
        let gen_seed = derive_seed(seed, 0x6E6);
        self.run_with(advisor, &move |client| bench.client_generator(parts, gen_seed, client))
    }

    /// [`ClosedLoop::run`] with the caller's request generators: real
    /// worker threads (one per partition), real closed-loop client threads,
    /// one `make_gen(client)` stream each. The runtime takes its advisor by
    /// value, so arms pass a cheap handle (`Arc<A>` — the blanket
    /// `LiveAdvisor for Arc<A>` impl delegates) that is cloned per run.
    ///
    /// Asserts the conservation invariant shared with the deterministic
    /// simulator: every issued request either commits or user-aborts —
    /// mispredict restarts are retried transparently and must not lose or
    /// duplicate requests.
    fn run_with<A: LiveAdvisor + Clone + 'static>(
        &self,
        advisor: &A,
        make_gen: &(dyn Fn(u64) -> Box<dyn RequestGenerator + Send> + Sync),
    ) -> RunMetrics {
        let &ClosedLoop { bench, parts, clients_per_partition, requests_per_client, .. } = self;
        let (m, _db) = run_live(
            bench.database(parts),
            bench.registry(),
            advisor.clone(),
            make_gen,
            clients_per_partition,
            requests_per_client,
            &self.cfg,
        )
        .expect("live runtime must not halt");
        let issued = u64::from(parts * clients_per_partition) * requests_per_client;
        assert_eq!(
            m.committed + m.user_aborts,
            issued,
            "lost transactions ({} @ {parts}w)",
            bench.name()
        );
        m
    }
}

/// Worker count (= partitions) of the open-loop sweep and the drift flip.
const LATENCY_PARTS: u32 = 4;

/// Offered-load fractions of the measured closed-loop capacity swept by
/// the open-loop latency experiment.
const OPEN_LOOP_LOAD_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// `# host: commit <rev>[-dirty], <n> cores, <date> UTC` — the revision
/// (flagged when the tree has uncommitted changes) and machine behind the
/// numbers, printed above every live table so provenance sits on the
/// section it describes.
fn host_header() -> &'static str {
    static HEADER: OnceLock<String> = OnceLock::new();
    HEADER.get_or_init(|| {
        let from_cmd = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        let commit =
            from_cmd("git", &["describe", "--always", "--dirty", "--abbrev=12", "--exclude=*"]);
        let date = from_cmd("date", &["-u", "+%F"]);
        format!("# host: commit {commit}, {} cores, {date} UTC", cores())
    })
}

fn cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Worker counts the `live` sweeps measure: the powers of two up to
/// `max(2, cores)`. More workers than cores measures oversubscription (8
/// workers + 32 clients on one core once read as a 3× "scaling inversion"),
/// not partition scaling, so those rows are not produced.
fn live_worker_counts() -> Vec<u32> {
    [1, 2, 4, 8].into_iter().filter(|&w| w <= cores().max(2)).collect()
}

/// The runtime configuration of the live sweeps: durability off, so every
/// reply goes out the moment its transaction finishes (DESIGN.md §"Live
/// runtime").
fn live_config(seed: u64, msg_delay_us: u64) -> LiveConfig {
    LiveConfig { seed, msg_delay_us, ..Default::default() }
}

/// Requests per closed-loop client: `quick` at smoke scale, 2 000 at
/// `--full`.
fn requests(scale: Scale, quick: u64) -> u64 {
    match scale {
        Scale::Quick => quick,
        Scale::Full => 2_000,
    }
}

/// Runs `rounds` round-robin passes over the arms (A, B, C, A, B, C, …) and
/// returns each arm's runs in round order. Wall-clock noise on small shared
/// hosts is several percent per run and drifts slowly — larger than the
/// advisor effects the sweeps compare — so back-to-back interleaving turns
/// the drift into paired noise that per-arm medians (or per-round ratios)
/// cancel.
fn interleaved<const N: usize>(
    rounds: usize,
    arms: [&dyn Fn() -> RunMetrics; N],
) -> [Vec<RunMetrics>; N] {
    let mut runs = [(); N].map(|()| Vec::with_capacity(rounds));
    for _ in 0..rounds {
        for (arm, runs) in arms.iter().zip(&mut runs) {
            runs.push(arm());
        }
    }
    runs
}

/// The run with median throughput (whole-metrics, so counters stay
/// internally consistent).
fn median_run(mut runs: Vec<RunMetrics>) -> RunMetrics {
    runs.sort_by(|a, b| a.throughput_tps().total_cmp(&b.throughput_tps()));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// An optional millisecond figure in a 7-wide column (`-` when absent).
fn ms(v: Option<f64>) -> String {
    v.map_or_else(|| "      -".into(), |x| format!("{x:7.2}"))
}

fn lock_hold_ms(m: &RunMetrics) -> String {
    ms(m.lock_hold.mean_us().map(|us| us / 1000.0))
}

/// One houdini configuration of the `live` sweeps, kept for the live
/// Fig. 11 table.
struct ProfiledRun {
    bench: &'static str,
    workers: u32,
    metrics: RunMetrics,
}

/// `live` — *measured* wall-clock throughput on the multi-threaded
/// partition runtime, one OS worker thread per partition, at every worker
/// count the host has cores for (1, 2, 4, 8 up to max(2, cores)). TATP sweeps
/// Houdini against the assume-single-partition and lock-all baselines;
/// TPC-C ablates OP4 (early prepare) on vs off.
/// Arms are interleaved and each reports its median-of-3 run. Followed by
/// the open-loop sweep of `live-latency` and the live Fig. 11 attribution
/// of the houdini rows.
pub fn live(scale: Scale) -> String {
    let mut profiled = Vec::new();
    let mut out = format!(
        "{}\n\
         # Live runtime: wall-clock TATP throughput (txn/s), one worker thread per partition\n\
         # h-lockms is `-` when no transaction held a multi-partition lock set\n\
         workers  houdini  asp      lock-all  h-p50ms  h-p95ms  h-p99ms  h-commit  h-abort  h-restart  h-lockms\n",
        host_header()
    );
    // TATP: no modeled message latency.
    for parts in live_worker_counts() {
        let point =
            ClosedLoop::new(Bench::Tatp, parts, requests(scale, 250), live_config(71, 0), 73);
        let houdini =
            Arc::new(trained_houdini(Bench::Tatp, parts, scale.trace_len(), true, 0.5, 71));
        let asp = Arc::new(AssumeSinglePartition::new());
        let adist = Arc::new(AssumeDistributed::new());
        let [hm, am, dm] =
            interleaved(3, [&|| point.run(&houdini), &|| point.run(&asp), &|| point.run(&adist)])
                .map(median_run);
        let _ = writeln!(
            out,
            "{parts:7}  {:7.0}  {:7.0}  {:8.0}  {}  {}  {}  {:8}  {:7}  {:9}  {:>8}",
            hm.throughput_tps(),
            am.throughput_tps(),
            dm.throughput_tps(),
            ms(hm.latency.p50_ms()),
            ms(hm.latency.p95_ms()),
            ms(hm.latency.p99_ms()),
            hm.committed,
            hm.user_aborts,
            hm.restarts,
            lock_hold_ms(&hm),
        );
        profiled.push(ProfiledRun { bench: "TATP", workers: parts, metrics: hm });
    }
    let _ = writeln!(
        out,
        "\n{}\n\
         # Live runtime: wall-clock TPC-C throughput (txn/s) — OP4 early-prepare ablation\n\
         workers  op4-on   op4-off  lock-all  on-lockms  off-lockms",
        host_header()
    );
    // TPC-C is the distributed-heavy workload that actually exercises OP4:
    // remote NewOrder/Payment hold multi-partition lock sets across the
    // 2PC vote/commit rounds. Message latency is
    // modeled at the simulator's `remote_msg_us` (60 µs one-way) so the
    // lock-hold time OP4 reclaims exists in wall-clock terms, and the
    // ablation pair runs long (1000 requests/client at quick scale) to
    // keep the comparison above scheduler noise on small hosts.
    for parts in live_worker_counts() {
        let pair =
            ClosedLoop::new(Bench::Tpcc, parts, requests(scale, 1_000), live_config(79, 60), 83);
        // One trace + training pass serves both ablation arms: the config
        // knob is read only at plan time, never during training.
        let (catalog, workload) = collect_trace(Bench::Tpcc, parts, scale.trace_len(), 79);
        let preds = train(&catalog, parts, &workload, &TrainingConfig::default());
        let op4 =
            Arc::new(Houdini::new(preds.clone(), catalog.clone(), parts, HoudiniConfig::default()));
        let no_op4 = Arc::new(Houdini::new(
            preds,
            catalog,
            parts,
            HoudiniConfig { early_prepare: false, ..Default::default() },
        ));
        let [on, off] = interleaved(3, [&|| pair.run(&op4), &|| pair.run(&no_op4)]).map(median_run);
        // The lock-all baseline is an order of magnitude slower under 2PC
        // rounds + message latency; one run of a shorter stream keeps its
        // wall-clock bounded without touching the ablation pair.
        let short = ClosedLoop { requests_per_client: requests(scale, 250), ..pair.clone() };
        let dm = short.run(&Arc::new(AssumeDistributed::new()));
        let _ = writeln!(
            out,
            "{parts:7}  {:7.0}  {:7.0}  {:8.0}  {:>9}  {:>10}",
            on.throughput_tps(),
            off.throughput_tps(),
            dm.throughput_tps(),
            lock_hold_ms(&on),
            lock_hold_ms(&off),
        );
        profiled.push(ProfiledRun { bench: "TPC-C", workers: parts, metrics: on });
    }
    out.push('\n');
    out.push_str(&render_latency_table(&latency_rows(scale)));
    out.push('\n');
    out.push_str(&render_profile_table(&profiled));
    out
}

/// Renders the live Fig. 11 table: per-stage shares of the attributed call
/// wall time.
fn render_profile_table(rows: &[ProfiledRun]) -> String {
    let mut out = format!(
        "{}\n\
         # Live Fig. 11: % of attributed call time per stage (wall clock)\n\
         # lock/2pc/flush split the coord% total (distributed path only)\n\
         bench   advisor          workers   est%  exec%  coord%  lock%  2pc%  flush%  queue%  other%  mean-call-us    txns\n",
        host_header()
    );
    for r in rows {
        let p = &r.metrics.profile;
        let txns = p.total_txns();
        let mean_call_us = if txns > 0 { p.grand_total_us() / txns as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<7} {:<16} {:7}  {:5.1}  {:5.1}  {:6.1}  {:5.1}  {:4.1}  {:6.1}  {:6.1}  {:6.1}  {:12.1}  {:6}",
            r.bench,
            "houdini",
            r.workers,
            100.0 * p.overall_share(Bucket::Estimation),
            100.0 * p.overall_share(Bucket::Execution),
            100.0 * p.overall_share(Bucket::Coordination),
            100.0 * p.overall_coord_share(CoordSub::LockWait),
            100.0 * p.overall_coord_share(CoordSub::TwoPc),
            100.0 * p.overall_coord_share(CoordSub::Flush),
            100.0 * p.overall_share(Bucket::Queueing),
            100.0 * p.overall_share(Bucket::Other),
            mean_call_us,
            txns,
        );
    }
    out
}

/// The open-loop offered-load sweep: Poisson-ish arrivals against a TATP
/// `LiveRuntime` at fractions of the measured closed-loop capacity. Closed
/// loops hide queueing delay (a saturated server just slows the arrival
/// stream down); this sweep is where latency-under-load becomes visible,
/// and it only exists because the handle API lets submitter threads own
/// their arrival schedules.
fn latency_rows(scale: Scale) -> Vec<OpenLoopMeasurement> {
    let parts = LATENCY_PARTS;
    let houdini = Arc::new(trained_houdini(Bench::Tatp, parts, scale.trace_len(), true, 0.5, 71));
    let cfg = live_config(107, 0);
    // Closed-loop capacity anchors the sweep: offered load is expressed
    // as a fraction of what saturated closed-loop clients achieve on this
    // host, so the sweep lands on the interesting part of the latency
    // curve whatever the hardware.
    let capacity = ClosedLoop::new(Bench::Tatp, parts, requests(scale, 250), cfg.clone(), 109)
        .run(&houdini)
        .throughput_tps();
    let window_s = match scale {
        Scale::Quick => 0.6,
        Scale::Full => 2.0,
    };
    OPEN_LOOP_LOAD_FRACTIONS
        .iter()
        .map(|&frac| {
            let offered = (capacity * frac).max(200.0);
            let ol = OpenLoopConfig {
                offered_tps: offered,
                submitters: parts * 4,
                requests: (offered * window_s) as u64,
                seed: 113,
            };
            open_loop_measure(Bench::Tatp, parts, &houdini, &cfg, &ol)
        })
        .collect()
}

fn render_latency_table(rows: &[OpenLoopMeasurement]) -> String {
    let mut out = format!(
        "{}\n\
         # Open loop: TATP latency vs offered load (Poisson arrivals, {LATENCY_PARTS} workers, houdini)\n\
         # latency measured from scheduled arrival (coordinated-omission corrected)\n\
         offered-tps  achieved-tps  p50ms    p95ms    p99ms    committed  aborts\n",
        host_header()
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:11.0}  {:12.0}  {}  {}  {}  {:9}  {:6}",
            r.offered_tps,
            r.achieved_tps,
            ms(r.latency.p50_ms()),
            ms(r.latency.p95_ms()),
            ms(r.latency.p99_ms()),
            r.metrics.committed,
            r.metrics.user_aborts,
        );
    }
    out
}

/// `live-latency` — just the open-loop offered-load sweep, runnable
/// standalone at smoke scale for CI; `live` runs it too, after the
/// closed-loop sweeps.
pub fn live_latency(scale: Scale) -> String {
    render_latency_table(&latency_rows(scale))
}

/// `live-drift` — the paper's §4.5 workload-shift scenario (Fig. 11),
/// measured on the live runtime: Houdini is trained on a TATP population
/// skewed to partitions `[0, 2)`, serves one window of matching traffic,
/// then the skew flips to partitions `[2, 4)` — whose per-partition model
/// states the trained models have never seen. With maintenance on,
/// session feedback drives the background thread to rebuild drifted
/// models (interning the previously-dark states with their live counts)
/// and epoch-swap them in, so throughput and prediction accuracy recover
/// mid-window; the frozen arm (`maintenance: false`) stays degraded —
/// every shifted request runs distributed. `est-reuse%` is the share of
/// commits planned from the predictor epoch's plan tables, which every
/// client shares: dead-ended estimates are never stored, and each epoch
/// swap starts the tables over empty.
pub fn live_drift(scale: Scale) -> String {
    let parts = LATENCY_PARTS;
    let half = parts / 2;
    let (w1_requests, w2_requests) = match scale {
        Scale::Quick => (200u64, 500u64),
        Scale::Full => (1_000, 2_500),
    };
    let cfg = live_config(89, 0);
    // Train on the low partitions only: the high partitions' model states
    // are dark.
    let reg = Bench::Tatp.registry();
    let catalog = reg.catalog();
    let mut gen = tatp::Generator::new(parts, 97).with_hot_partitions(0, half);
    let workload = engine::collect_trace(
        &mut Bench::Tatp.database(parts),
        &reg,
        &mut gen,
        scale.trace_len(),
        8,
    );
    let preds = train(&catalog, parts, &workload, &TrainingConfig::default());

    let run_window = |h: &Arc<Houdini>, requests: u64, lo: u32, hi: u32| -> RunMetrics {
        let gen_seed = derive_seed(101, 0x6E6);
        ClosedLoop::new(Bench::Tatp, parts, requests, cfg.clone(), 101).run_with(
            h,
            &move |client| {
                Box::new(
                    tatp::Generator::for_client(parts, gen_seed, client)
                        .with_hot_partitions(lo, hi),
                )
            },
        )
    };

    let q = |v: Option<f64>| v.map_or_else(|| "    -".into(), |x| format!("{x:5.1}"));
    let mut out = format!(
        "{}\n\
         # Live drift: TATP partition-skew flip (trained on partitions 0-1, shifted to 2-3), {parts} workers\n\
         arm             phase       tps     op2%  est-reuse%  single-part  distrib  restarts  swaps  feedback  dropped\n",
        host_header()
    );
    // Per-epoch accuracy of the maintenance arm's post-shift window: the
    // recovery trajectory (epoch 0 = trained models degraded by the flip,
    // later epochs = rebuilt models).
    let mut epochs = String::from("\nhoudini-maint post-shift per-epoch accuracy:\n");
    for (arm, maintenance) in [("houdini-maint", true), ("houdini-frozen", false)] {
        // Arc-shared so the same advisor instance (and its learned epochs)
        // serves both measurement windows back to back.
        let h = Arc::new(Houdini::new(
            preds.clone(),
            catalog.clone(),
            parts,
            HoudiniConfig { maintenance, ..Default::default() },
        ));
        // Window 1: traffic matches the training skew (low partitions).
        // Window 2: the skew flips to the high partitions.
        let windows = [
            ("pre-shift", run_window(&h, w1_requests, 0, half)),
            ("post-shift", run_window(&h, w2_requests, half, parts)),
        ];
        for (phase, m) in &windows {
            let _ = writeln!(
                out,
                "{arm:<15} {phase:<10} {:6.0}  {}       {}  {:11}  {:7}  {:8}  {:5}  {:8}  {:7}",
                m.throughput_tps(),
                q(m.overall_op2_pct()),
                q(m.overall_est_reused_pct()),
                m.single_partition,
                m.distributed,
                m.restarts,
                m.model_swaps,
                m.feedback_records,
                m.feedback_dropped,
            );
        }
        if maintenance {
            for e in &windows[1].1.epoch_accuracy {
                let _ = writeln!(
                    epochs,
                    "  epoch {:>3}: {:6} transitions observed, accuracy {}",
                    e.epoch,
                    e.observed,
                    q(e.accuracy().map(|a| a * 100.0)),
                );
            }
        }
    }
    out + &epochs
}

/// The side of its bound a gated value must stay on.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// The value must be strictly below the bound.
    Below(f64),
    /// The value must be strictly above the bound.
    Above(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::Below(b) => value < b,
            Bound::Above(b) => value > b,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Below(b) => write!(f, "< {b}"),
            Bound::Above(b) => write!(f, "> {b}"),
        }
    }
}

/// What a gate measured: the gated value and the evidence printed beside it.
pub struct Reading {
    /// The value compared against the gate's [`Bound`].
    pub value: f64,
    /// The runs behind the value.
    pub detail: String,
}

/// One CI floor: a measurement, the bound it must hold, and why.
pub struct Gate {
    /// Row id in the `check` report.
    pub id: &'static str,
    /// What `measure` returns, with its unit.
    pub what: &'static str,
    /// The floor or ceiling.
    pub bound: Bound,
    /// Takes the reading; `Err` names a broken invariant (the reading
    /// would be meaningless), which fails the gate whatever the value.
    pub measure: fn(Scale) -> Result<Reading, String>,
}

/// Every CI floor on the live runtime, evaluated by `experiments -- check`.
pub const GATES: &[Gate] = &[
    // Failing as of PR 8 (the SPSC-lane dispatch): the 1-worker TATP
    // coordination share sat at 59.6% on the seed's shared-MPSC hot path
    // and near 40% on the ring lanes; the gate fails if the median of
    // three quick profile runs climbs back to the seed level. The
    // alloc-budget test (bench/tests/alloc_budget.rs, part of plain `cargo
    // test`) pins the companion invariant: a constant allocation count per
    // steady-state call. The 59.6 was calibrated under the modeled 200 µs
    // device removed in PR 20; a regression floor until the row is
    // re-expressed over `benchmark/` output, ROADMAP 1.
    Gate {
        id: "coord-share",
        what: "1-worker TATP coordination share of attributed call time (%)",
        bound: Bound::Below(59.6),
        measure: measure_coord_share,
    },
    // Failing as of PR 9 (fragment lanes): paired against the same point at
    // 1 worker in the same process, the lane runtime reads 0.5–0.65 on a
    // 2-core host and the pre-lane runtime (~15k tps against a ~50k
    // reference) at most 0.30, so 0.35 splits the regimes whatever a busy
    // neighbour does to both arms, with commit/abort counts pinned because
    // batching may only change timing, never outcomes.
    Gate {
        id: "dist-tps",
        what: "2-worker TATP throughput as a fraction of the same point at 1 worker",
        bound: Bound::Above(0.35),
        measure: measure_dist_tps,
    },
    // TATP with real `FileDevice` command logging must stay within 10% of
    // the identical no-logging configuration. Self-clocking group commit
    // is what makes this hold: writers that commit while one fsync is in
    // the device share the next, so the fsync rate stays at or below one
    // per device-flush time; a per-commit fsync would fail by an order of
    // magnitude. The log sits on a RAM-backed mount when the host has one,
    // so the gate prices the logging subsystem itself and regresses on
    // code, not on the CI host's disk. The 10 is a regression floor until
    // the row is re-expressed over `benchmark/` output (ROADMAP 1).
    Gate {
        id: "log-overhead",
        what: "2-worker TATP command-logging throughput overhead (%)",
        bound: Bound::Below(10.0),
        measure: measure_log_overhead,
    },
];

/// Median coordination share of three 1-worker TATP runs.
fn measure_coord_share(scale: Scale) -> Result<Reading, String> {
    let houdini = Arc::new(trained_houdini(Bench::Tatp, 1, scale.trace_len(), true, 0.5, 71));
    let mut shares: Vec<f64> = (0..3)
        .map(|i| {
            let m =
                ClosedLoop::new(Bench::Tatp, 1, requests(scale, 150), live_config(71, 0), 73 + i)
                    .run(&houdini);
            100.0 * m.profile.overall_share(Bucket::Coordination)
        })
        .collect();
    let value = median(&mut shares);
    Ok(Reading { value, detail: format!("median of runs {shares:.1?}") })
}

/// Median, over seven interleaved (2-worker, 1-worker) round pairs, of the
/// 2-worker TATP `live` configuration's throughput as a fraction of the
/// same point's at one worker, where nothing is distributed — the
/// 2-worker regime is the one that collapsed under per-transaction
/// fragment channels. Same-seed runs, so the 2-worker outcomes must agree.
fn measure_dist_tps(scale: Scale) -> Result<Reading, String> {
    /// The quick-scale run's deterministic outcome counts (2 workers × 4
    /// clients × 250 requests, measure seed 73): byte-identical to the
    /// unbatched per-query path.
    const QUICK_OUTCOMES: (u64, u64) = (1_955, 45);
    const ROUNDS: usize = 7;
    let houdini =
        |parts| Arc::new(trained_houdini(Bench::Tatp, parts, scale.trace_len(), true, 0.5, 71));
    let (dist_advisor, ref_advisor) = (houdini(2), houdini(1));
    let point = ClosedLoop::new(Bench::Tatp, 2, requests(scale, 250), live_config(71, 0), 73);
    let reference = ClosedLoop { parts: 1, ..point.clone() };
    let [runs, ref_runs] =
        interleaved(ROUNDS, [&|| point.run(&dist_advisor), &|| reference.run(&ref_advisor)]);
    let outcomes: Vec<(u64, u64)> = runs.iter().map(|m| (m.committed, m.user_aborts)).collect();
    if outcomes.iter().any(|o| *o != outcomes[0]) {
        return Err(format!("outcomes must be deterministic per seed, got {outcomes:?}"));
    }
    if scale == Scale::Quick && outcomes[0] != QUICK_OUTCOMES {
        return Err(format!(
            "quick commit/abort counts {:?} drifted from {QUICK_OUTCOMES:?}",
            outcomes[0]
        ));
    }
    let mut ratios: Vec<f64> =
        runs.iter().zip(&ref_runs).map(|(d, r)| d.throughput_tps() / r.throughput_tps()).collect();
    let value = median(&mut ratios);
    Ok(Reading {
        value,
        detail: format!(
            "median of per-round ratios {ratios:.2?}; per-arm median {:.0} tps at 2 workers vs \
             {:.0} tps at 1; committed {} / aborts {} per 2-worker run",
            median_run(runs).throughput_tps(),
            median_run(ref_runs).throughput_tps(),
            outcomes[0].0,
            outcomes[0].1
        ),
    })
}

/// Median, over seven interleaved (logging, baseline) round pairs, of the
/// per-round throughput cost of command logging against the identical
/// durability-off configuration. The pairs are back to back, so each ratio compares matched host
/// conditions and the median discards outlier rounds on either side.
fn measure_log_overhead(scale: Scale) -> Result<Reading, String> {
    const ROUNDS: usize = 7;
    let parts = 2;
    let houdini = Arc::new(trained_houdini(Bench::Tatp, parts, scale.trace_len(), true, 0.5, 71));
    // Group commit is a throughput mechanism, not a latency one: a
    // writer's call waits for the fsync covering its group, so a shallow
    // closed loop (the scaling sweep's 4 clients/partition) serializes on
    // the device and measures fsync *latency*, not logging *cost*. Deepen
    // the loop so the next group of waiting writers is always forming
    // while the device syncs the current one — the regime the <10% bar is
    // defined over.
    let base = ClosedLoop {
        clients_per_partition: 4 * CLIENTS_PER_PARTITION,
        ..ClosedLoop::new(Bench::Tatp, parts, 4 * requests(scale, 250), live_config(71, 0), 73)
    };
    // A tmpfs mount when the host has one: `fsync` completes in memory
    // there, controlling the device's latency out of the measurement.
    let shm = std::path::Path::new("/dev/shm");
    let root = if shm.is_dir() { shm.to_path_buf() } else { std::env::temp_dir() };
    let dir = root.join(format!("bench-log-overhead-{}", std::process::id()));
    let log_cfg = LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..base.cfg.clone() };
    let logging = ClosedLoop { cfg: log_cfg.clone(), ..base.clone() };
    let log_arm = || {
        let _ = std::fs::remove_dir_all(&dir);
        logging.run(&houdini)
    };
    let [log_runs, base_runs] = interleaved(ROUNDS, [&log_arm, &|| base.run(&houdini)]);
    // Recover the last round's state: the log is the only source (no
    // snapshot was taken), so `replayed` counts its committed writers.
    let (rt, recovery) = LiveRuntime::recover(
        Bench::Tatp.database(parts),
        Bench::Tatp.registry(),
        Arc::clone(&houdini),
        log_cfg,
    );
    drop(rt.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
    // Outcomes are deterministic per seed; logging must not change them.
    if log_runs
        .iter()
        .zip(&base_runs)
        .any(|(l, b)| (l.committed, l.user_aborts) != (b.committed, b.user_aborts))
    {
        return Err("command logging changed transaction outcomes".into());
    }
    let mut overheads: Vec<f64> = log_runs
        .iter()
        .zip(&base_runs)
        .map(|(l, b)| 100.0 * (1.0 - l.throughput_tps() / b.throughput_tps()))
        .collect();
    let value = median(&mut overheads);
    let (log_m, base_m) = (median_run(log_runs), median_run(base_runs));
    if log_m.log_records == 0 {
        return Err("the logging arm wrote no log records".into());
    }
    if recovery.replayed == 0 {
        return Err("recovery replayed nothing from the logging arm's state".into());
    }
    Ok(Reading {
        value,
        detail: format!(
            "median of per-round overheads {overheads:.1?}; per-arm median {:.0} tps logging \
             vs {:.0} tps baseline; {} records / {} bytes logged; recovery replayed {} in \
             {:.2} ms",
            log_m.throughput_tps(),
            base_m.throughput_tps(),
            log_m.log_records,
            log_m.log_bytes_written,
            recovery.replayed,
            recovery.recovery_ms,
        ),
    })
}

/// Evaluates every gate — a failure never stops the rows after it — and
/// renders one PASS/FAIL line per row with value and bound. `Err` carries
/// the same report plus a closing line naming every failed row.
fn run_gates(gates: &[Gate], scale: Scale) -> Result<String, String> {
    let mut report = format!("{}\n# check: CI floors on the live runtime\n", host_header());
    let mut failed = Vec::new();
    for gate in gates {
        let (pass, line) = match (gate.measure)(scale) {
            Ok(r) => (
                gate.bound.holds(r.value),
                format!("{:.2} (gate: {}; {})", r.value, gate.bound, r.detail),
            ),
            Err(broken) => (false, format!("invariant broken: {broken}")),
        };
        let verdict = if pass { "PASS" } else { "FAIL" };
        let _ = writeln!(report, "{verdict} {:<12} {}: {line}", gate.id, gate.what);
        if !pass {
            failed.push(gate.id);
        }
    }
    if failed.is_empty() {
        Ok(report)
    } else {
        let _ = writeln!(report, "check failed: {}", failed.join(", "));
        Err(report)
    }
}

/// `check` — the CI smoke gate: evaluates every row of [`GATES`] and exits
/// the process non-zero, after printing the full report, if any failed.
pub fn check(scale: Scale) -> String {
    run_gates(GATES, scale).unwrap_or_else(|report| {
        print!("{report}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64) -> Result<Reading, String> {
        Ok(Reading { value, detail: "synthetic".into() })
    }

    #[test]
    fn gate_runner_evaluates_every_row_and_names_every_failure() {
        let gate = |id, bound, measure| Gate { id, what: "synthetic", bound, measure };
        let failing = [
            gate("over-ceiling", Bound::Below(10.0), |_| reading(12.5)),
            gate("broken", Bound::Above(0.0), |_| Err("nothing logged".into())),
            gate("fine", Bound::Above(30_000.0), |_| reading(47_900.0)),
        ];
        let report = run_gates(&failing, Scale::Quick).expect_err("two rows fail");
        assert!(report.contains("FAIL over-ceiling"), "{report}");
        assert!(report.contains("12.50 (gate: < 10;"), "value and bound printed: {report}");
        assert!(report.contains("FAIL broken"), "{report}");
        assert!(report.contains("invariant broken: nothing logged"), "{report}");
        assert!(report.contains("PASS fine"), "rows after a failure still run: {report}");
        assert!(report.ends_with("check failed: over-ceiling, broken\n"), "{report}");

        let report = run_gates(&failing[2..], Scale::Quick).expect("a passing table succeeds");
        assert!(report.contains("PASS fine") && !report.contains("FAIL"), "{report}");
    }
}
