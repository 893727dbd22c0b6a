//! One round of one workload: load the database, train Houdini, start the
//! real `LiveRuntime`, drive it closed-loop through `Client::call` from
//! `clients` threads for a warm-up and a measured window, shut down, and
//! check what came out.

use crate::host;
use crate::spec::{read_only_procs, Workload, TRAIN_TRACE_LEN};
use common::{derive_seed, ProcId};
use engine::baselines::AssumeSinglePartition;
use engine::{
    Catalog, DurabilityConfig, LiveAdvisor, LiveConfig, LiveRuntime, RunMetrics, TxnOutcome,
};
use houdini::{Houdini, HoudiniConfig, TrainingConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{Database, Row};

/// Round phases, published by the timing thread and polled by clients
/// between calls. The flag carries no data, only "which phase is it".
const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

#[derive(Debug, Clone, Copy)]
pub struct RoundConfig {
    pub warmup: Duration,
    pub window: Duration,
    /// Record one span per `next_request` and per `Client::call`.
    pub traced: bool,
}

/// A Houdini advisor trained in-process, with what training cost.
pub struct Trained {
    pub advisor: Arc<Houdini>,
    pub catalog: Catalog,
    /// Seconds inside `houdini::train` alone.
    pub train_s: f64,
}

/// Collects a `TRAIN_TRACE_LEN`-request offline trace and trains
/// partitioned models on it (threshold 0.5): the advisor of every workload.
pub fn train_houdini(w: &Workload, seed: u64) -> Trained {
    let (catalog, trace) = bench::collect_trace(w.bench, w.parts, TRAIN_TRACE_LEN, seed);
    let t0 = Instant::now();
    let cfg = TrainingConfig { partitioned: true, ..Default::default() };
    let predictors = houdini::train(&catalog, w.parts, &trace, &cfg);
    let train_s = t0.elapsed().as_secs_f64();
    let hcfg = HoudiniConfig { threshold: 0.5, ..Default::default() };
    let advisor = Arc::new(Houdini::new(predictors, catalog.clone(), w.parts, hcfg));
    Trained { advisor, catalog, train_s }
}

/// The request stream of one client of a round seeded with `seed`.
pub fn client_stream(
    w: &Workload,
    seed: u64,
    client: u64,
) -> Box<dyn engine::RequestGenerator + Send> {
    w.bench.client_generator(w.parts, derive_seed(seed, 0x6E6), client)
}

/// `is_write[proc]`, from the benchmark's own read-only name table.
pub fn write_classes(w: &Workload, catalog: &Catalog) -> Vec<bool> {
    let read_only = read_only_procs(w.bench);
    catalog.procs.iter().map(|p| !read_only.contains(&p.name.as_str())).collect()
}

/// One request as the traced pass saw it, times in nanoseconds since the
/// round's epoch. `gen_end` is also the call's start.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    /// Position of the request in its client's stream, warm-up included.
    pub seq: u64,
    pub proc: ProcId,
    pub committed: bool,
    pub gen_start: u64,
    pub gen_end: u64,
    pub call_end: u64,
}

/// What one client thread saw over the whole round (warm-up included,
/// except the latency samples and spans, which cover the window only).
#[derive(Debug, Default)]
struct ClientTally {
    issued: u64,
    errors: u64,
    committed: u64,
    user_aborts: u64,
    /// Calls to a writing procedure that returned `Committed`.
    committed_writers: u64,
    read_ns: Vec<u32>,
    write_ns: Vec<u32>,
    spans: Vec<CallSpan>,
}

/// What recovering the round's own command log gave.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub replayed: u64,
    /// Median over the recover runs of scan + replay time per replayed
    /// transaction.
    pub us_per_txn: f64,
}

pub struct Round {
    /// Round start to first warm-up request: database load, trace,
    /// training, runtime start, client handles.
    pub setup_s: f64,
    pub window_s: f64,
    /// Window latency samples per class, ascending, in nanoseconds.
    pub read_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
    /// Process CPU time (user + system) spent inside the window.
    pub cpu_us: f64,
    /// Share of the round's core time (set-up to window end, all cores)
    /// the hypervisor gave to other guests.
    pub stolen_share: f64,
    /// Calls issued over the whole round, and how many returned `Err` or
    /// are missing from the runtime's own commit + abort count.
    pub issued: u64,
    pub failed: u64,
    pub committed_writers: u64,
    /// Share of the round's calls that ended in a user abort.
    pub abort_share: f64,
    /// The runtime's final metrics (warm-up included).
    pub metrics: RunMetrics,
    /// Per client, the window's spans in issue order (traced rounds only).
    pub spans: Vec<Vec<CallSpan>>,
    pub recovery: Option<Recovery>,
    /// Output checks that missed; empty when the round is correct.
    pub check_failures: Vec<String>,
    pub trained: Trained,
}

impl Round {
    pub fn window_calls(&self) -> usize {
        self.read_ns.len() + self.write_ns.len()
    }
}

/// Removes its directory when dropped, so log scratch never outlives a run.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir under benchmark/out");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create log copy dir");
    for entry in std::fs::read_dir(from).expect("read log dir") {
        let entry = entry.expect("log dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy log file");
    }
}

/// Sorted contents of every table, merged across partitions.
fn table_state(db: &Database) -> Vec<Vec<Row>> {
    (0..db.schemas().len())
        .map(|t| {
            let mut rows: Vec<Row> =
                (0..db.num_partitions()).flat_map(|p| db.table(p, t).sorted_rows()).collect();
            rows.sort();
            rows
        })
        .collect()
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn client_loop<A: LiveAdvisor + 'static>(
    mut client: engine::Client<A>,
    mut gen: Box<dyn engine::RequestGenerator + Send>,
    is_write: &[bool],
    phase: &AtomicU8,
    epoch: Instant,
    cfg: &RoundConfig,
    expect_calls: usize,
) -> ClientTally {
    let mut t = ClientTally::default();
    t.read_ns.reserve(expect_calls);
    t.write_ns.reserve(expect_calls);
    if cfg.traced {
        t.spans.reserve(expect_calls);
    }
    loop {
        // ordering: SeqCst — a plain phase flag; nothing is published
        // through it, the strongest ordering just keeps it unsurprising.
        let started_in = phase.load(Ordering::SeqCst);
        if started_in == STOP {
            break;
        }
        let gen_start = if cfg.traced { ns_since(epoch) } else { 0 };
        let (proc, args) = gen.next_request(client.id());
        let t0 = Instant::now();
        let result = client.call(proc, args);
        let latency = t0.elapsed();
        t.issued += 1;
        let committed = matches!(result, Ok(TxnOutcome::Committed));
        match result {
            Ok(TxnOutcome::Committed) => {
                t.committed += 1;
                t.committed_writers += u64::from(is_write[proc as usize]);
            }
            Ok(TxnOutcome::UserAborted) => t.user_aborts += 1,
            Ok(_) | Err(_) => t.errors += 1,
        }
        // A sample belongs to the window only if the call both started and
        // finished inside it.
        if started_in == MEASURE && phase.load(Ordering::SeqCst) == MEASURE {
            let ns = u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX);
            if is_write[proc as usize] { &mut t.write_ns } else { &mut t.read_ns }.push(ns);
            if cfg.traced {
                let gen_end = t0.duration_since(epoch).as_nanos() as u64;
                t.spans.push(CallSpan {
                    seq: t.issued - 1,
                    proc,
                    committed,
                    gen_start,
                    gen_end,
                    call_end: gen_end + latency.as_nanos() as u64,
                });
            }
        }
    }
    t
}

/// Recovers `log_dir` (on copies) `runs` times; checks the replay count and
/// the recovered tables against what the live run acknowledged and left.
fn recover_and_check(
    w: &Workload,
    seed: u64,
    log_dir: &Path,
    runs: usize,
    live_db: &Database,
    committed_writers: u64,
    failures: &mut Vec<String>,
) -> Recovery {
    let live_state = table_state(live_db);
    let mut us_per_txn = Vec::with_capacity(runs);
    let mut replayed = 0;
    for i in 0..runs {
        let copy = ScratchDir::create(log_dir.with_extension(format!("copy{i}")));
        copy_dir(log_dir, copy.path());
        let cfg = LiveConfig {
            seed,
            durability: Some(DurabilityConfig::new(copy.path())),
            ..LiveConfig::default()
        };
        let (rt, report) = LiveRuntime::recover(
            w.bench.database(w.parts),
            w.bench.registry(),
            AssumeSinglePartition::new(),
            cfg,
        );
        let (_, recovered_db) = rt.shutdown();
        replayed = report.replayed;
        us_per_txn.push(report.recovery_ms * 1e3 / report.replayed.max(1) as f64);
        if i == 0 {
            if report.replayed != committed_writers {
                failures.push(format!(
                    "recovery replayed {} transactions, clients were acknowledged {} committed writers",
                    report.replayed, committed_writers
                ));
            }
            if table_state(&recovered_db) != live_state {
                failures.push("recovered tables differ from the live tables at shutdown".into());
            }
        }
    }
    Recovery { replayed, us_per_txn: crate::stats::median(&us_per_txn).expect("recover runs") }
}

/// Runs one round of `w`. `scratch` is the benchmark's `out/` directory;
/// `recover_runs` applies to durable workloads only.
pub fn run_round(
    w: &Workload,
    seed: u64,
    cfg: &RoundConfig,
    scratch: &Path,
    recover_runs: usize,
) -> Round {
    let round_start = Instant::now();
    let stolen0 = host::stolen_cpu_us();
    let trained = train_houdini(w, seed);
    let is_write = write_classes(w, &trained.catalog);
    let log_dir = w.durable.then(|| {
        ScratchDir::create(scratch.join(format!("wal-{}-{}", w.name, std::process::id())))
    });
    let live_cfg = LiveConfig {
        seed,
        durability: log_dir.as_ref().map(|d| DurabilityConfig::new(d.path())),
        ..LiveConfig::default()
    };
    let rt = LiveRuntime::start(
        w.bench.database(w.parts),
        w.bench.registry(),
        Arc::clone(&trained.advisor),
        live_cfg,
    );
    let clients: Vec<_> =
        (0..w.clients).map(|c| (rt.client(), client_stream(w, seed, c as u64))).collect();
    let setup_s = round_start.elapsed().as_secs_f64();

    let phase = AtomicU8::new(WARMUP);
    let epoch = Instant::now();
    // Room for twice the fastest rate seen on this class of host, so the
    // sample vectors never reallocate inside the window.
    let expect_calls = (cfg.window.as_secs_f64() * 250_000.0) as usize;
    let (tallies, window_s, cpu_us) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|(client, gen)| {
                let (is_write, phase) = (&is_write, &phase);
                s.spawn(move || client_loop(client, gen, is_write, phase, epoch, cfg, expect_calls))
            })
            .collect();
        std::thread::sleep(cfg.warmup);
        let cpu0 = host::process_cpu_us();
        let t0 = Instant::now();
        phase.store(MEASURE, Ordering::SeqCst);
        std::thread::sleep(cfg.window);
        phase.store(STOP, Ordering::SeqCst);
        let window_s = t0.elapsed().as_secs_f64();
        let cpu_us = host::process_cpu_us() - cpu0;
        let tallies: Vec<ClientTally> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (tallies, window_s, cpu_us)
    });
    let core_us = round_start.elapsed().as_secs_f64() * 1e6 * host::nproc() as f64;
    let stolen_share = (host::stolen_cpu_us() - stolen0) / core_us;
    let (metrics, live_db) = rt.shutdown();

    let sum = |f: fn(&ClientTally) -> u64| tallies.iter().map(f).sum::<u64>();
    let issued = sum(|t| t.issued);
    let errors = sum(|t| t.errors);
    let committed_writers = sum(|t| t.committed_writers);
    let mut check_failures = Vec::new();
    if errors > 0 {
        check_failures.push(format!("{errors} of {issued} calls returned an error"));
    }
    let resolved = metrics.committed + metrics.user_aborts;
    if resolved != issued || metrics.committed != sum(|t| t.committed) {
        check_failures.push(format!(
            "runtime counted {} committed + {} user aborts, clients issued {issued} calls \
             and saw {} commits",
            metrics.committed,
            metrics.user_aborts,
            sum(|t| t.committed)
        ));
    }
    let abort_share = sum(|t| t.user_aborts) as f64 / issued.max(1) as f64;
    if abort_share < w.abort_band.0 || abort_share > w.abort_band.1 {
        check_failures.push(format!(
            "user-abort share {abort_share:.4} is outside [{}, {}]",
            w.abort_band.0, w.abort_band.1
        ));
    }
    let recovery = log_dir.as_ref().map(|d| {
        recover_and_check(
            w,
            seed,
            d.path(),
            recover_runs,
            &live_db,
            committed_writers,
            &mut check_failures,
        )
    });

    let mut read_ns = Vec::new();
    let mut write_ns = Vec::new();
    let mut spans = Vec::new();
    for t in tallies {
        read_ns.extend(t.read_ns);
        write_ns.extend(t.write_ns);
        spans.push(t.spans);
    }
    read_ns.sort_unstable();
    write_ns.sort_unstable();
    Round {
        setup_s,
        window_s,
        read_ns,
        write_ns,
        cpu_us,
        stolen_share,
        issued,
        failed: errors + resolved.abs_diff(issued),
        committed_writers,
        abort_share,
        metrics,
        spans,
        recovery,
        check_failures,
        trained,
    }
}
