//! Configuration, shared state, and the runtime's start / recover / teardown.

use super::client::Client;
use super::coord::StageAcc;
use super::lock::LockManager;
use super::wire::{us_since, CtrlMsg, WorkerGate};
use super::worker::worker_loop;
use crate::advisor::{LiveAdvisor, LiveMaintainer, Request, TxnFeedback};
use crate::catalog::Catalog;
use crate::durability::{DurabilityConfig, RecoveryReport};
use crate::metrics::{MaintenanceReport, RunMetrics};
use crate::procedure::ProcedureRegistry;
use crate::profiler::CoordSub;
use crate::sim::RequestGenerator;
use common::flush::FlushSequencer;
use common::ring::Doorbell;
use common::sync::atomic::{AtomicU64, Ordering};
use common::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use common::sync::{Arc, Mutex, PoisonError};
use common::{Error, PartitionId, PartitionSet, Result};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::{Database, Shard};
use wal::{FileDevice, LogRecord, LogSet};

/// Live-runtime parameters: every field configures the [`LiveRuntime`]
/// itself (an embedding application mints its own [`Client`] handles and
/// decides its own request volume; the closed-loop [`run_live`] wrapper
/// takes its load shape as arguments).
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Seed for the clients' random-partition draws.
    pub seed: u64,
    /// One-way coordinator→participant message latency (µs of real sleep at
    /// the participant before it processes a fragment *message*, 0 = off;
    /// a whole `FragCmd::ExecBatch` counts once) — the live twin of
    /// `CostModel::remote_msg_us`. In-process lanes are otherwise
    /// near-instant, which would hide exactly the cost OP4 eliminates:
    /// the 2PC rounds a reserved partition sits through. Stays a field
    /// because the TPC-C OP4 ablation of `experiments -- live` sets it
    /// (60 µs) and every other caller leaves it off.
    pub msg_delay_us: u64,
    /// Durability (DESIGN.md §7): when set, every committed writer is
    /// command-logged under the configured directory and its
    /// call returns only once a real `write+fsync` covers it (group commit
    /// via the shared [`FlushSequencer`]: the calling client leads or rides
    /// the flush on its own thread, never a worker). `None` turns durability
    /// off: every reply goes out the moment its transaction finishes and
    /// a distributed commit waits on nothing.
    pub durability: Option<DurabilityConfig>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig { seed: 7, msg_delay_us: 0, durability: None }
    }
}

/// Everything the runtime's threads share. One `Arc<Shared>` is held by
/// the [`LiveRuntime`] handle, every worker thread, the maintenance
/// thread, and every minted [`Client`] — the ownership inversion that lets
/// the runtime outlive the stack frame that started it (no scoped
/// borrows).
pub(super) struct Shared<A: LiveAdvisor> {
    pub(super) registry: ProcedureRegistry,
    pub(super) catalog: Catalog,
    pub(super) advisor: A,
    pub(super) cfg: LiveConfig,
    pub(super) num_partitions: u32,
    pub(super) msg_delay: Duration,
    /// One control-channel + doorbell gate per partition worker. Calls
    /// bypass the gate's channel entirely: they ride the issuing client's
    /// connection and only ring the gate's bell.
    pub(super) workers: Vec<WorkerGate<A::Session>>,
    pub(super) locks: LockManager,
    /// Run-wide counters: [`Client::call`] folds each transaction's
    /// tallies in here *once, at the end of the call* — per-call scratch
    /// lives in cheap locals on the client, so the fast path touches this
    /// mutex exactly once per transaction and allocates nothing for it.
    /// Mid-run [`LiveRuntime::metrics`] snapshots therefore lag by at most
    /// the calls currently in flight.
    pub(super) metrics: Mutex<RunMetrics>,
    /// Bounded feedback channel toward the maintenance thread (§4.5),
    /// which drains it on its own tick; `None` when the advisor has no
    /// [`LiveMaintainer`].
    pub(super) fb_tx: Option<SyncSender<TxnFeedback>>,
    /// Next [`Client`] id — also selects the client's RNG stream.
    pub(super) next_client: AtomicU64,
    pub(super) started: Instant,
    /// Real-durability state ([`LiveConfig::durability`]): the open
    /// command log, the txn-id allocator, snapshot bookkeeping, and the
    /// flush sequencer. `None` when durability is off.
    pub(super) durable: Option<Durable>,
}

impl<A: LiveAdvisor> Shared<A> {
    /// The run-wide counters as of now, stamped with `window_us` and the
    /// flush-sequencer and durability counters kept outside the metrics
    /// mutex — the one snapshot both [`LiveRuntime::metrics`] and teardown
    /// report.
    pub(super) fn metrics_snapshot(&self, window_us: f64) -> RunMetrics {
        // Snapshots must stay available even if a client thread panicked
        // while folding its per-call metrics in: the aggregate is additive,
        // never half-updated in a way a reader could misread.
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
        m.window_us = window_us;
        m.worker_parks = self.workers.iter().map(|w| w.bell.parks()).sum();
        if let Some(d) = &self.durable {
            (m.flushes_total, m.flushes_coalesced) = d.seq.counters();
            (m.log_records, m.log_bytes_written) = d.logs.counters();
            // ordering: Relaxed — metrics-only counter.
            m.snapshots_taken = d.snapshots_taken.load(Ordering::Relaxed);
            m.recovery_ms = d.recovery_ms;
        }
        m
    }
}

/// Live durability state (DESIGN.md §7), shared by workers, clients, and
/// the snapshotter.
pub(super) struct Durable {
    pub(super) logs: Arc<LogSet>,
    /// The one [`FlushDevice`](common::flush::FlushDevice) over `logs`:
    /// every sequencer wait leads its `write+fsync` through this.
    pub(super) device: FileDevice,
    /// Flush sequencer for the log device. Every durable commit's wait
    /// goes through it, a fast-path writer's client and a 2PC
    /// coordinator alike, so concurrent flush demands coalesce into one
    /// device operation (epoch-ticketed; see [`common::flush`]).
    pub(super) seq: FlushSequencer,
    /// Next command-log transaction id. Ids only need global uniqueness —
    /// replay order comes from each partition's record order in the log,
    /// never from ids.
    pub(super) next_txn_id: AtomicU64,
    /// Snapshot generations completed (marker written).
    pub(super) snapshots_taken: AtomicU64,
    /// Generation the open segments belong to; a snapshot fence bumps it.
    pub(super) active_gen: AtomicU64,
    /// Milliseconds [`LiveRuntime::recover`] spent before this runtime
    /// started serving; zero for a fresh boot.
    pub(super) recovery_ms: f64,
}

impl Durable {
    pub(super) fn next_id(&self) -> u64 {
        // ordering: Relaxed — ids only need uniqueness (see field docs);
        // every use is published through a channel or the log mutex.
        self.next_txn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Command-logs one committed single-partition writer at its service
    /// position in `p`'s log and returns the sequencer ticket its client
    /// waits on. The ticket is taken after the append, so any flush that
    /// covers it covers the record.
    pub(super) fn append_local(&self, p: PartitionId, req: &Request) -> u64 {
        let record =
            LogRecord::Local { txn_id: self.next_id(), proc: req.proc, args: req.args.clone() };
        self.logs.append(p, &record);
        self.seq.enqueue()
    }

    /// Blocks the calling client until `ticket` is durable: it leads a
    /// device flush at once if the device is idle, rides the one in flight
    /// otherwise, and leads the next if that one started before the
    /// ticket. The wait is charged to `acc`'s Coordination/Flush.
    pub(super) fn wait_durable(&self, ticket: u64, acc: &mut StageAcc) {
        let t_flush = Instant::now();
        self.seq.wait_durable_dev(ticket, &self.device);
        acc.add_coord(CoordSub::Flush, us_since(t_flush));
    }
}

/// Takes a transaction-consistent snapshot of the whole cluster: fences
/// every partition through the lock manager (no distributed transaction
/// can straddle the cut — every rotation completes before any new lock
/// grant), has each worker rotate its command log to generation `gen` and
/// serialize its shard, then publishes the generation's completion marker
/// and truncates segments below it. Returns the published generation, or
/// `None` when durability is off, or a worker died or failed to rotate or
/// write mid-snapshot, or the marker could not be written (no marker ⇒
/// recovery ignores the partial generation).
pub(super) fn snapshot_cluster<A: LiveAdvisor>(env: &Shared<A>) -> Option<u64> {
    let d = env.durable.as_ref()?;
    // ordering: Relaxed — the lock fence below serializes the bump against
    // every worker's rotation; the counter only names the generation.
    let gen = d.active_gen.fetch_add(1, Ordering::Relaxed) + 1;
    let guard = env.locks.guard(PartitionSet::all(env.num_partitions));
    let (done_tx, done_rx) = channel();
    let mut sent = 0usize;
    for gate in env.workers.iter() {
        if gate.send_ctrl(CtrlMsg::Snapshot { gen, done: done_tx.clone() }) {
            sent += 1;
        }
    }
    drop(done_tx);
    if sent != env.num_partitions as usize {
        return None;
    }
    for _ in 0..sent {
        if done_rx.recv().is_err() {
            return None;
        }
    }
    drop(guard);
    wal::write_marker(d.logs.dir(), gen).ok()?;
    // ordering: Relaxed — metrics-only counter.
    d.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    let _ = wal::truncate_below(d.logs.dir(), gen);
    Some(gen)
}

/// The threads a running [`LiveRuntime`] owns; `None` once torn down.
/// No client ever wakes a background thread (a [`Ticker`]).
struct Running {
    workers: Vec<JoinHandle<Shard>>,
    maintenance: Option<Ticker<MaintenanceReport>>,
    snapshotter: Option<Ticker<()>>,
}

/// A background thread that sleeps in `park_timeout` between passes, and
/// its stop flag (0 = run, 1 = stop): teardown stores it, unparks, joins.
struct Ticker<T> {
    stop: Arc<AtomicU64>,
    handle: JoinHandle<T>,
}

impl<T: Send + 'static> Ticker<T> {
    /// Spawns thread `name` running `body`, handed a stop-flag probe.
    fn spawn(name: &str, body: impl FnOnce(&dyn Fn() -> bool) -> T + Send + 'static) -> Self {
        let stop = Arc::new(AtomicU64::new(0));
        let flag = Arc::clone(&stop);
        // ordering: Acquire pairs with `stop`'s Release: a thread that sees
        // the flag also sees everything queued before teardown set it.
        let body = move || body(&|| flag.load(Ordering::Acquire) != 0);
        let handle = std::thread::Builder::new().name(name.into()).spawn(body);
        Ticker { stop, handle: handle.expect("spawn background thread") }
    }

    /// Stops the thread and joins it; `Err` carries its panic.
    fn stop(self) -> std::thread::Result<T> {
        // ordering: Release — see `spawn`.
        self.stop.store(1, Ordering::Release);
        self.handle.thread().unpark();
        self.handle.join()
    }
}

/// What a recovered boot seeds [`LiveRuntime`]'s durability state with.
struct RecoverySeed {
    /// Generation the fresh log segments open at — strictly above every
    /// generation found on disk, because appending to a segment whose tail
    /// holds a torn frame would put the new records behind it, invisible
    /// to the decoder.
    gen: u64,
    /// First transaction id the recovered runtime may allocate.
    next_txn_id: u64,
    recovery_ms: f64,
}

/// An embeddable, running instance of the live partition runtime — the
/// *server* of the paper's Fig. 1, usable as a library.
///
/// The runtime owns its threads outright (no scoped borrows):
///
/// ```text
/// LiveRuntime ──owns──> worker thread per partition (owns its Shard)
///      │      ──owns──> maintenance thread (when the advisor learns, §4.5)
///      │      ──Arc───> Shared { registry, catalog, advisor, lock manager,
///      │                         worker queues, metrics, feedback channel }
///      └─mints─> Client handles (Send; Arc into Shared) — application-owned
/// ```
///
/// [`LiveRuntime::start`] consumes the database (splitting it into
/// per-worker shards), the procedure registry, and the advisor; wrap the
/// advisor in an `Arc` to keep a handle on it (the blanket
/// `LiveAdvisor for Arc<A>` impl delegates). [`LiveRuntime::client`] mints
/// any number of [`Client`] handles for application threads;
/// [`LiveRuntime::metrics`] snapshots run-wide counters mid-run;
/// [`LiveRuntime::shutdown`] drains in-flight work and returns the final
/// metrics plus the reassembled [`Database`]. Dropping the runtime without
/// calling `shutdown` tears it down the same way, discarding the results.
pub struct LiveRuntime<A: LiveAdvisor + 'static> {
    shared: Arc<Shared<A>>,
    running: Option<Running>,
}

#[cfg(test)]
impl<A: LiveAdvisor + 'static> LiveRuntime<A> {
    /// The state every runtime thread shares, for tests that drive the
    /// lock manager or the flush sequencer directly.
    pub(super) fn shared(&self) -> &Shared<A> {
        &self.shared
    }
}

impl<A: LiveAdvisor + 'static> LiveRuntime<A> {
    /// Boots the runtime: splits `db` into per-partition shards, spawns
    /// one owned worker thread per shard, and — when `advisor.maintainer()`
    /// yields a [`LiveMaintainer`] — the §4.5 feedback channel plus its
    /// background maintenance thread. Returns immediately; the server is
    /// ready for [`Client::call`] traffic as soon as this returns.
    pub fn start(db: Database, registry: ProcedureRegistry, advisor: A, cfg: LiveConfig) -> Self {
        Self::start_inner(db, registry, advisor, cfg, None)
    }

    /// Boots the runtime after a crash: loads the newest complete snapshot
    /// set from `cfg.durability.dir` (if any), replays each partition's
    /// command log ([`crate::durability`]), and starts serving on the
    /// recovered state with fresh log segments. Returns the running
    /// runtime plus a [`RecoveryReport`]. Panics if `cfg.durability` is
    /// `None` or the log directory is unreadable.
    pub fn recover(
        db: Database,
        registry: ProcedureRegistry,
        advisor: A,
        cfg: LiveConfig,
    ) -> (Self, RecoveryReport) {
        let dc = cfg.durability.as_ref().expect("recover requires LiveConfig::durability");
        let t0 = Instant::now();
        let mut state = wal::scan(&dc.dir, db.num_partitions()).expect("scan durability dir");
        let mut db = db;
        if let Some(rows) = state.snapshot.take() {
            let mut shards = db.into_shards();
            for (shard, tables) in shards.iter_mut().zip(rows) {
                shard.restore_tables(tables);
            }
            db = Database::from_shards(shards);
        }
        let catalog = registry.catalog();
        let (replayed, skipped) =
            crate::durability::replay(&mut db, &registry, &catalog, &mut state)
                .expect("read command-log segments");
        let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = RecoveryReport {
            recovery_ms,
            snapshot_gen: state.snapshot_gen,
            replayed,
            skipped,
            log_records_scanned: state.log_records_scanned,
        };
        let seed =
            RecoverySeed { gen: state.max_gen + 1, next_txn_id: state.max_txn_id + 1, recovery_ms };
        // The 2PC outcome table is spent: free it before the runtime
        // allocates its own state.
        drop(state);
        (Self::start_inner(db, registry, advisor, cfg, Some(seed)), report)
    }

    fn start_inner(
        db: Database,
        registry: ProcedureRegistry,
        advisor: A,
        cfg: LiveConfig,
        recovered: Option<RecoverySeed>,
    ) -> Self {
        let num_partitions = db.num_partitions();
        let catalog = registry.catalog();
        let shards = db.into_shards();
        // Durable mode: open the command log before any worker can serve
        // (a recovered boot starts a fresh generation above everything on
        // disk).
        let seed = recovered.unwrap_or(RecoverySeed { gen: 0, next_txn_id: 1, recovery_ms: 0.0 });
        let durable = cfg.durability.as_ref().map(|dc| {
            let logs = LogSet::open(&dc.dir, num_partitions, seed.gen)
                .expect("open command-log directory");
            let logs = Arc::new(logs);
            Durable {
                device: FileDevice(Arc::clone(&logs)),
                seq: FlushSequencer::new(),
                logs,
                next_txn_id: AtomicU64::new(seed.next_txn_id),
                snapshots_taken: AtomicU64::new(0),
                active_gen: AtomicU64::new(seed.gen),
                recovery_ms: seed.recovery_ms,
            }
        });
        // The §4.5 feedback pipeline exists only when the advisor can
        // learn: a bounded channel from session teardown to one background
        // maintenance thread that owns the advisor's `LiveMaintainer`.
        let (fb_tx, fb_rx) = if advisor.maintainer().is_some() {
            let (tx, rx) = sync_channel::<TxnFeedback>(super::FEEDBACK_CAPACITY);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mut gates: Vec<WorkerGate<A::Session>> = Vec::new();
        let mut worker_rx: Vec<Receiver<CtrlMsg<A::Session>>> = Vec::new();
        for _ in 0..num_partitions {
            let (tx, rx) = channel();
            gates.push(WorkerGate { ctrl: tx, bell: Arc::new(Doorbell::new()) });
            worker_rx.push(rx);
        }
        let shared = Arc::new(Shared {
            msg_delay: Duration::from_micros(cfg.msg_delay_us),
            registry,
            catalog,
            advisor,
            cfg,
            num_partitions,
            workers: gates,
            locks: LockManager::new(num_partitions),
            metrics: Mutex::new(RunMetrics::default()),
            fb_tx,
            next_client: AtomicU64::new(0),
            started: Instant::now(),
            durable,
        });
        let snapshotter =
            shared.cfg.durability.as_ref().and_then(|dc| dc.snapshot_every).map(|every| {
                let shared = Arc::clone(&shared);
                Ticker::spawn("snapshotter", move |stopped| loop {
                    // A spurious early wake just snapshots early.
                    std::thread::park_timeout(every);
                    if stopped() {
                        return;
                    }
                    snapshot_cluster(&shared);
                })
            });
        let workers = shards
            .into_iter()
            .zip(worker_rx)
            .enumerate()
            .map(|(p, (shard, rx))| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("partition-{p}"))
                    .spawn(move || worker_loop::<A>(shard, &rx, &shared, p))
                    .expect("spawn worker thread")
            })
            .collect();
        let maintenance = fb_rx.map(|rx| {
            let shared = Arc::clone(&shared);
            Ticker::spawn("maintenance", move |stopped| {
                // The maintainer borrows the advisor; building it here, on
                // the thread's own stack over its own Arc, keeps the runtime
                // free of self-references. An advisor whose `maintainer()`
                // answered `Some` to the start-time probe but `None` here
                // violates its contract: drain anyway and report zero work.
                let mut mt: Option<Box<dyn LiveMaintainer + '_>> = shared.advisor.maintainer();
                // One drain per tick, never a wake per record. The flag is
                // read *before* the drain, so the last pass absorbs every
                // record queued before teardown set it.
                loop {
                    let last = stopped();
                    while let Ok(fb) = rx.try_recv() {
                        if let Some(mt) = mt.as_mut() {
                            mt.absorb(fb);
                        }
                    }
                    if last {
                        return mt.map(|mt| mt.report()).unwrap_or_default();
                    }
                    std::thread::park_timeout(super::MAINTENANCE_TICK);
                }
            })
        });
        LiveRuntime { shared, running: Some(Running { workers, maintenance, snapshotter }) }
    }

    /// Takes a transaction-consistent snapshot of every partition right
    /// now (durable mode only): fences the cluster, rotates every command
    /// log, serializes every shard, publishes the generation marker, and
    /// truncates obsolete segments. Returns the published generation, or
    /// `None` when durability is off or the snapshot was abandoned: a
    /// worker died, or a log rotation or a snapshot write failed (the
    /// workers keep serving).
    pub fn snapshot_now(&self) -> Option<u64> {
        snapshot_cluster(&self.shared)
    }

    /// Mints a new [`Client`] handle. Handles are `Send`, independent, and
    /// may be created and dropped at any point of the run; ids are
    /// assigned in mint order starting at 0 and never reused.
    pub fn client(&self) -> Client<A> {
        Client::mint(&self.shared)
    }

    /// The advisor serving this runtime (e.g. to inspect published epochs).
    pub fn advisor(&self) -> &A {
        &self.shared.advisor
    }

    /// Number of partitions (= worker threads) this runtime serves.
    pub fn num_partitions(&self) -> u32 {
        self.shared.num_partitions
    }

    /// Snapshots the run-wide counters without stopping traffic:
    /// everything [`Client::call`] has folded in so far, with `window_us`
    /// set to the elapsed wall-clock time since [`LiveRuntime::start`].
    /// Maintenance-thread counters (`model_swaps`, `feedback_records`,
    /// per-epoch accuracy) are folded in at [`LiveRuntime::shutdown`] only.
    pub fn metrics(&self) -> RunMetrics {
        self.shared.metrics_snapshot(self.shared.started.elapsed().as_secs_f64() * 1e6)
    }

    /// Stops the runtime: every in-flight call resolves (workers finish
    /// the run they are executing and reservations still being served
    /// complete; clients block per call, so a quiesced application has
    /// nothing buffered), joins every owned thread, folds the maintenance
    /// report into the final metrics, and reassembles the [`Database`]
    /// from the workers' shards. The maintenance thread drains on its own
    /// tick and is never woken by a client; shutdown unparks it to absorb
    /// every feedback record queued so far.
    ///
    /// Outstanding [`Client`] handles stay valid as objects but their
    /// subsequent [`Client::call`]s return `Err`; calls racing the
    /// shutdown either complete normally or fail cleanly — they never
    /// hang. Panics if a worker or the maintenance thread panicked.
    pub fn shutdown(mut self) -> (RunMetrics, Database) {
        let (metrics, shards) = self.teardown().expect("LiveRuntime::shutdown called twice");
        (metrics, Database::from_shards(shards))
    }

    /// Shared teardown for [`LiveRuntime::shutdown`] and `Drop`. `None` if
    /// the runtime was already torn down. A panicked worker or maintenance
    /// thread re-raises here — unless this teardown itself runs during an
    /// unwind (`Drop` while panicking), where a second panic would abort
    /// the process and mask the original error.
    fn teardown(&mut self) -> Option<(RunMetrics, Vec<Shard>)> {
        let running = self.running.take()?;
        // Snapshotter first: a fence racing shutdown would wait on worker
        // completions that will never come.
        if let Some(snapshotter) = running.snapshotter {
            let _ = snapshotter.stop();
        }
        // Workers next: each finishes its current run (and any reservation
        // it is serving) before observing the sentinel, so in-flight
        // transactions complete and queue their feedback before the
        // maintenance thread stops below. A call still unanswered when its
        // worker exits fails cleanly: the worker's end of its connection
        // closes and rings the waiting client.
        for gate in &self.shared.workers {
            gate.send_ctrl(CtrlMsg::Shutdown);
        }
        let mut thread_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut shards: Vec<Shard> = Vec::with_capacity(running.workers.len());
        for h in running.workers {
            match h.join() {
                Ok(shard) => shards.push(shard),
                Err(p) => thread_panic = Some(p),
            }
        }
        // With the workers gone nothing appends any more: make whatever
        // no client is waiting on durable too (the records of an aborted
        // 2PC, or a writer whose client has yet to lead its flush).
        if let Some(d) = &self.shared.durable {
            d.logs.flush_all();
        }
        // Pin the measurement window at drain completion: every accepted
        // transaction has finished once the workers join. Charging the
        // maintenance join below (which can lag far behind on a deep
        // feedback backlog) to `window_us` would deflate `throughput_tps`
        // for work that finished long before.
        let window_us = self.shared.started.elapsed().as_secs_f64() * 1e6;
        // The flag stops it even while Client handles keep the channel open.
        let maint_report = running.maintenance.and_then(|m| match m.stop() {
            Ok(report) => Some(report),
            Err(p) => {
                thread_panic = Some(p);
                None
            }
        });
        if let Some(p) = thread_panic {
            // Re-raise a worker/maintainer panic — but never on top of an
            // unwind already in progress (that would abort).
            if !std::thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
        let mut metrics = self.shared.metrics_snapshot(window_us);
        if let Some(report) = maint_report {
            metrics.absorb_maintenance(&report);
        }
        Some((metrics, shards))
    }
}

impl<A: LiveAdvisor + 'static> Drop for LiveRuntime<A> {
    /// Best-effort teardown for runtimes dropped without
    /// [`LiveRuntime::shutdown`]: stops and joins every owned thread
    /// (worker panics propagate), discarding metrics and database.
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

/// Runs the live runtime as a closed-loop benchmark: starts a
/// [`LiveRuntime`], spawns `clients_per_partition × num_partitions`
/// closed-loop client threads (the paper uses 4 per partition), drives
/// every generator stream dry (`requests_per_client` each), then shuts
/// down and returns the final metrics plus the reassembled database. A
/// thin wrapper over the handle API, preserved for the exact sim↔live
/// agreement tests and the closed-loop experiments.
///
/// `make_gen` builds the independent request generator for one client
/// stream (see `workloads::Bench::client_generator`). To keep using the
/// advisor (or share it across runs), pass an `Arc<A>` — the blanket
/// `LiveAdvisor for Arc<A>` impl delegates.
///
/// Errors only on an unrecoverable abort (mirroring
/// [`crate::Simulation::run`]); the database is consumed either way since
/// partially-failed clusters are not reassembled.
pub fn run_live<A: LiveAdvisor + 'static>(
    db: Database,
    registry: ProcedureRegistry,
    advisor: A,
    make_gen: &(dyn Fn(u64) -> Box<dyn RequestGenerator + Send> + Sync),
    clients_per_partition: u32,
    requests_per_client: u64,
    cfg: &LiveConfig,
) -> Result<(RunMetrics, Database)> {
    let clients = u64::from(db.num_partitions() * clients_per_partition);
    let runtime = LiveRuntime::start(db, registry, advisor, cfg.clone());
    let mut failure: Option<Error> = None;
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                // Minted in order on this thread, so ids equal 0..clients
                // deterministically (they seed the per-client RNG streams).
                let mut client = runtime.client();
                s.spawn(move || -> Result<()> {
                    let mut gen = make_gen(c);
                    for _ in 0..requests_per_client {
                        let (proc, args) = gen.next_request(client.id());
                        client.call(proc, args)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failure = Some(e),
                // Deferred: the runtime must shut down its workers first,
                // or unwinding here would leak parked threads.
                Err(p) => panic = Some(p),
            }
        }
    });
    let (metrics, db) = runtime.shutdown();
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    match failure {
        None => Ok((metrics, db)),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::worker::tests::{sorted_rows, TableRows};
    use super::*;
    use crate::advisor::{PlanContext, TxnOutcome, TxnPlan};
    use crate::baselines::{AssumeDistributed, AssumeSinglePartition};
    use crate::procedure::testing::{kv_database, kv_registry, KvGen};
    use crate::profiler::{Bucket, CoordSub};
    use common::Value;
    use std::sync::mpsc;

    fn live_run<A: LiveAdvisor + 'static>(
        advisor: A,
        spread: u32,
        parts: u32,
        clients_per_partition: u32,
        requests_per_client: u64,
        cfg: &LiveConfig,
    ) -> (RunMetrics, Database) {
        let db = kv_database(parts, 8);
        let reg = kv_registry();
        run_live(
            db,
            reg,
            advisor,
            // `run_live` hands each stream its own client id per request.
            &move |_| Box::new(KvGen { spread, parts, counter: 0 }) as Box<_>,
            clients_per_partition,
            requests_per_client,
            cfg,
        )
        .expect("no halts")
    }

    fn sum_vals(db: &Database, parts: u32) -> i64 {
        (0..parts)
            .map(|p| db.table(p, 0).iter().map(|(_, row)| row[2].expect_int()).sum::<i64>())
            .sum()
    }

    #[test]
    fn lock_all_commits_everything_without_restarts() {
        let advisor = AssumeDistributed::new();
        let (m, db) = live_run(advisor, 2, 4, 4, 40, &LiveConfig::default());
        let total = 4 * 4 * 40;
        assert_eq!(m.committed + m.user_aborts, total);
        assert_eq!(m.restarts, 0);
        assert_eq!(m.user_aborts, 0, "all ids exist");
        assert_eq!(m.distributed, total, "lock-all is always distributed");
        // Every committed MultiGet bumps each of its 2 ids exactly once.
        assert_eq!(sum_vals(&db, 4), m.committed as i64 * 2);
        assert_eq!(db.total_rows(0), 32, "no rows created or lost");
    }

    #[test]
    fn assume_single_partition_restarts_and_stays_consistent() {
        let advisor = AssumeSinglePartition::new();
        let (m, db) = live_run(advisor, 2, 4, 4, 40, &LiveConfig::default());
        let total = 4 * 4 * 40;
        assert_eq!(m.committed + m.user_aborts, total);
        assert!(m.restarts > 0, "spread-2 work must trigger mispredicts");
        assert_eq!(sum_vals(&db, 4), m.committed as i64 * 2);
    }

    #[test]
    fn single_partition_fast_path_has_no_lock_contention() {
        // spread 1 + redirect-on-miss: after the first mispredict the plan
        // is exact, so most work runs on the lock-free fast path.
        let advisor = AssumeSinglePartition::new();
        let (m, db) = live_run(advisor, 1, 4, 4, 50, &LiveConfig::default());
        assert!(m.single_partition > 0);
        assert_eq!(sum_vals(&db, 4), m.committed as i64);
    }

    #[test]
    fn latency_histogram_is_populated() {
        let advisor = AssumeDistributed::new();
        let (m, _) = live_run(advisor, 1, 2, 4, 20, &LiveConfig::default());
        assert_eq!(m.latency.count(), m.committed);
        assert!(m.mean_latency_ms().is_some());
        assert!(m.latency.p50_ms().unwrap() <= m.latency.p99_ms().unwrap());
        assert!(m.throughput_tps() > 0.0);
    }

    /// Single-partition advisor with a test maintainer. A nonzero
    /// `absorb_sleep` builds a feedback backlog that drains long after the
    /// workers finish; `gate` makes the first record's `absorb` wait at a
    /// barrier the test reaches once its calls are done, so the backlog
    /// does not depend on how fast the calls ran. With `withdrawn` set it
    /// offers that maintainer to the start-time probe only and withdraws it
    /// when the maintenance thread asks again — the contract violation the
    /// maintenance loop must survive (regression: this used to panic the
    /// maintenance thread, turning shutdown into a join on a panicked
    /// thread).
    #[derive(Default)]
    struct TestMaintained {
        withdrawn: Option<std::sync::atomic::AtomicBool>,
        absorb_sleep: Duration,
        gate: Option<Arc<std::sync::Barrier>>,
        /// Receives the maintenance thread's own voluntary context-switch
        /// count at its first `absorb` (slot 0) and at `report` (slot 1).
        switches: Option<Arc<[AtomicU64; 2]>>,
    }

    impl TestMaintained {
        fn sleepy() -> Self {
            TestMaintained { absorb_sleep: Duration::from_millis(2), ..Default::default() }
        }
    }

    impl LiveAdvisor for TestMaintained {
        type Session = ();

        fn name(&self) -> &str {
            "test-maintained"
        }

        fn plan_live_reusing(
            &self,
            _req: &Request,
            ctx: &PlanContext<'_>,
            _spare: Option<()>,
        ) -> (TxnPlan, ()) {
            (TxnPlan::single(ctx.random_local_partition), ())
        }

        fn replan_live(
            &self,
            _req: &Request,
            _observed: PartitionSet,
            _attempt: u32,
            ctx: &PlanContext<'_>,
        ) -> (TxnPlan, ()) {
            (TxnPlan::lock_all(ctx.random_local_partition, ctx.num_partitions), ())
        }

        fn end_live_reclaim(
            &self,
            _session: (),
            _outcome: TxnOutcome,
        ) -> (Option<TxnFeedback>, Option<()>) {
            let feedback =
                TxnFeedback { proc: 0, model: 0, epoch: 0, path: Vec::new(), terminal: Some(true) };
            (Some(feedback), None)
        }

        fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
            let probed_before = self
                .withdrawn
                .as_ref()
                .is_some_and(|probed| probed.swap(true, std::sync::atomic::Ordering::SeqCst));
            (!probed_before).then(|| Box::new(TestMaintainer { seen: 0, of: self }) as Box<_>)
        }
    }

    struct TestMaintainer<'a> {
        seen: u64,
        of: &'a TestMaintained,
    }

    /// `voluntary_ctxt_switches` of the calling thread (0 off Linux).
    fn voluntary_switches() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    impl TestMaintainer<'_> {
        fn note_switches(&self, slot: usize) {
            if let Some(s) = &self.of.switches {
                s[slot].store(voluntary_switches(), Ordering::SeqCst);
            }
        }
    }

    impl LiveMaintainer for TestMaintainer<'_> {
        fn absorb(&mut self, _fb: TxnFeedback) {
            if self.seen == 0 {
                self.note_switches(0);
            }
            self.seen += 1;
            if let Some(gate) = self.of.gate.as_ref().filter(|_| self.seen == 1) {
                gate.wait();
            }
            std::thread::sleep(self.of.absorb_sleep);
        }

        fn report(&self) -> MaintenanceReport {
            self.note_switches(1);
            MaintenanceReport { feedback_records: self.seen, ..Default::default() }
        }
    }

    fn kv_call() -> Vec<Value> {
        vec![Value::Array(vec![Value::Int(0)])]
    }

    #[test]
    fn window_pins_at_drain_completion_not_maintenance_join() {
        // The first `absorb` waits for all 100 calls to return, so at least
        // 99 records (about 200 ms of 2 ms absorbs) are queued at shutdown
        // however slowly the calls ran; under load they can run slower than
        // the maintainer absorbs, which would leave no backlog.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let rt = LiveRuntime::start(
            kv_database(1, 8),
            kv_registry(),
            TestMaintained { gate: Some(Arc::clone(&gate)), ..TestMaintained::sleepy() },
            LiveConfig::default(),
        );
        let mut client = rt.client();
        for _ in 0..100 {
            client.call(0, kv_call()).unwrap();
        }
        gate.wait();
        let mid = rt.metrics();
        let t_shutdown = Instant::now();
        let (fin, _) = rt.shutdown();
        let shutdown_ms = t_shutdown.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fin.feedback_records + fin.feedback_dropped, 100);
        assert!(
            shutdown_ms >= 50.0,
            "expected a maintenance backlog to drain; took {shutdown_ms:.1} ms"
        );
        // The final window must exclude the maintenance drain: it may
        // exceed the mid-run snapshot only by the (fast) worker join.
        assert!(
            fin.window_us <= mid.window_us + 50_000.0,
            "teardown leaked into the window: final {} µs vs mid {} µs",
            fin.window_us,
            mid.window_us
        );
        // Closed-loop throughput stays consistent across the snapshots
        // (same committed count, near-identical window).
        assert!(
            fin.throughput_tps() >= mid.throughput_tps() * 0.5,
            "final tps {:.0} collapsed vs mid-run tps {:.0}",
            fin.throughput_tps(),
            mid.throughput_tps()
        );
    }

    #[test]
    fn maintenance_survives_withdrawn_maintainer() {
        let rt = LiveRuntime::start(
            kv_database(1, 8),
            kv_registry(),
            TestMaintained {
                withdrawn: Some(std::sync::atomic::AtomicBool::new(false)),
                ..TestMaintained::sleepy()
            },
            LiveConfig::default(),
        );
        let mut client = rt.client();
        for _ in 0..50 {
            client.call(0, kv_call()).unwrap();
        }
        // Shutdown must join a *live* maintenance thread (its tick loop
        // drained the feedback with no maintainer instead of panicking)
        // and fold in an all-zero report.
        let (fin, _) = rt.shutdown();
        assert_eq!(fin.committed, 50);
        assert_eq!(fin.feedback_records, 0, "no maintainer, so no absorbed records");
        assert_eq!(fin.model_swaps, 0);
    }

    /// Clients never wake the maintenance thread: it drains on its own
    /// tick, so its voluntary context switches are bounded by elapsed
    /// ticks, not by records (a thread blocked on `recv` makes about one
    /// per record).
    #[cfg(target_os = "linux")]
    #[test]
    fn maintenance_wakes_are_bounded_by_ticks_not_records() {
        let switches = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let advisor =
            TestMaintained { switches: Some(Arc::clone(&switches)), ..Default::default() };
        let rt =
            LiveRuntime::start(kv_database(1, 8), kv_registry(), advisor, LiveConfig::default());
        let mut client = rt.client();
        let calls = 4000u64;
        let t0 = Instant::now();
        for _ in 0..calls {
            client.call(0, kv_call()).unwrap();
        }
        // Both readings are taken inside this interval: the first at the
        // first absorb, the second in `report` during shutdown.
        let (fin, _) = rt.shutdown();
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fin.feedback_records + fin.feedback_dropped, calls);
        let delta = switches[1].load(Ordering::SeqCst) - switches[0].load(Ordering::SeqCst);
        let tick_ms = super::super::MAINTENANCE_TICK.as_secs_f64() * 1e3;
        let bound = 2.0 * elapsed_ms / tick_ms + 20.0;
        assert!(
            (delta as f64) <= bound,
            "maintenance thread switched {delta} times for {calls} records in \
             {elapsed_ms:.1} ms (bound {bound:.0}): woken per record, not per tick"
        );
    }

    /// Records queued while the maintenance thread is parked between ticks
    /// are all absorbed by its last pass: teardown sets the stop flag and
    /// unparks, and the thread reads the flag *before* its final drain.
    /// Several rounds, because a round only exposes a lost final drain
    /// when no tick fires between the last call and the stop.
    #[test]
    fn maintenance_shutdown_absorbs_everything_queued_while_parked() {
        let n = 200u64;
        for round in 0..5 {
            let rt = LiveRuntime::start(
                kv_database(1, 8),
                kv_registry(),
                TestMaintained::default(),
                LiveConfig::default(),
            );
            let mut client = rt.client();
            for _ in 0..n {
                client.call(0, kv_call()).unwrap();
            }
            let t_shutdown = Instant::now();
            let (fin, _) = rt.shutdown();
            let shutdown = t_shutdown.elapsed();
            assert_eq!(fin.feedback_dropped, 0, "round {round}");
            assert_eq!(fin.feedback_records, n, "round {round}: queued records lost at shutdown");
            assert!(shutdown < Duration::from_secs(1), "round {round}: shutdown took {shutdown:?}");
        }
    }

    #[test]
    fn live_profile_attributes_every_resolved_call() {
        let (m, _) = live_run(AssumeSinglePartition::new(), 2, 4, 4, 40, &LiveConfig::default());
        let total = m.committed + m.user_aborts;
        assert_eq!(m.profile.total_txns(), total, "one profile record per resolved call");
        assert!(m.profile.grand_total_us() > 0.0);
        assert!(m.profile.overall_share(Bucket::Execution) > 0.0);
        assert_eq!(m.profile.overall_share(Bucket::Planning), 0.0, "live runtime never plans");
        assert!(
            m.profile.overall_share(Bucket::Coordination) > 0.0,
            "spread-2 work must coordinate"
        );
        let sum: f64 = Bucket::ALL.iter().map(|&b| m.profile.overall_share(b)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Fresh (deleted) per-test durability directory under the system
    /// temp dir.
    pub(in crate::runtime) fn durability_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("engine-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Sorted `(key, row)` contents of table 0 on every partition — the
    /// byte-identical-state comparator for recovery tests.
    fn sorted_tables(db: &Database, parts: u32) -> Vec<TableRows> {
        (0..parts).map(|p| sorted_rows(db.table(p, 0))).collect()
    }

    /// Recovers a pristine `parts`-partition KV database from `cfg`'s log
    /// directory and shuts down again, removing the directory: (recovery
    /// report, final metrics, sorted tables).
    fn recover_kv<A: LiveAdvisor + 'static>(
        advisor: A,
        parts: u32,
        cfg: LiveConfig,
    ) -> (RecoveryReport, RunMetrics, Vec<TableRows>) {
        let dir = cfg.durability.as_ref().expect("durable config").dir.clone();
        let (rt, report) = LiveRuntime::recover(kv_database(parts, 8), kv_registry(), advisor, cfg);
        let (m, db) = rt.shutdown();
        let _ = std::fs::remove_dir_all(dir);
        (report, m, sorted_tables(&db, parts))
    }

    #[test]
    fn durable_log_replay_reproduces_fast_path_state() {
        let dir = durability_dir("fast");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let (m, db) = live_run(AssumeSinglePartition::new(), 1, 4, 4, 30, &cfg);
        assert!(m.log_records > 0, "committed writers must be command-logged");
        assert!(m.log_bytes_written > 0);
        assert_eq!(m.snapshots_taken, 0);
        // Replay the log against a pristine database: every committed
        // writer re-executes, reproducing the exact table contents.
        let (report, m2, tables2) = recover_kv(AssumeSinglePartition::new(), 4, cfg);
        assert_eq!(report.replayed, m.committed);
        assert_eq!(report.skipped, 0, "clean shutdown leaves no undecided work");
        assert_eq!(report.snapshot_gen, None);
        assert!(m2.recovery_ms > 0.0, "recovery time must be reported");
        assert_eq!(sorted_tables(&db, 4), tables2);
    }

    #[test]
    fn interleaved_reads_and_writes_replay_identically() {
        let dir = durability_dir("mixed");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt = LiveRuntime::start(
            kv_database(2, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg.clone(),
        );
        let mut client = rt.client();
        let (mut committed, mut aborted) = (0u64, 0u64);
        for i in 0..60i64 {
            // Alternate a committing write with a read-shaped call: a
            // missing id aborts before writing anything, so its reply
            // skips the log and its call waits on no device flush.
            let id = if i % 2 == 0 { i % 16 } else { 1_000 };
            match client.call(0, vec![Value::Array(vec![Value::Int(id)])]).unwrap() {
                TxnOutcome::Committed => committed += 1,
                TxnOutcome::UserAborted => aborted += 1,
                other => panic!("client calls resolve: {other:?}"),
            }
        }
        drop(client);
        let (m, db) = rt.shutdown();
        assert_eq!((committed, aborted), (30, 30));
        assert_eq!((m.committed, m.user_aborts), (30, 30));
        assert_eq!(m.log_records, 30, "only committed writers are logged");
        let (report, _, tables2) = recover_kv(AssumeSinglePartition::new(), 2, cfg);
        assert_eq!(report.replayed, 30);
        assert_eq!(sorted_tables(&db, 2), tables2);
    }

    #[test]
    fn fast_path_durable_wait_runs_on_the_client_and_is_attributed() {
        // The test holds a device flush open on the runtime's sequencer,
        // then lets one single-partition write commit. Its ticket names a
        // later epoch than the open flush, so its client parks behind it.
        // The worker acknowledged the write when it logged it, so a second
        // client's read on the same partition completes meanwhile. Holding
        // the device a further HOLD shows up in the writer's Flush
        // sub-bucket.
        const HOLD: Duration = Duration::from_millis(20);
        let dir = durability_dir("fast-hold");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt =
            LiveRuntime::start(kv_database(1, 8), kv_registry(), AssumeSinglePartition::new(), cfg);
        let seq = &rt.shared().durable.as_ref().expect("durable runtime").seq;
        let (mut writer, mut reader) = (rt.client(), rt.client());
        let read = std::thread::scope(|s| {
            let (in_device, in_device_rx) = mpsc::channel();
            let (release, release_rx) = mpsc::channel::<()>();
            s.spawn(move || {
                seq.wait_durable_with(seq.enqueue(), |_| {
                    in_device.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            });
            in_device_rx.recv().unwrap();
            let write =
                s.spawn(move || writer.call(0, vec![Value::Array(vec![Value::Int(0)])]).unwrap());
            // The open flush is one sequencer wait; the writer's is the
            // second.
            while seq.counters().0 < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let (done, done_rx) = mpsc::channel();
            s.spawn(move || {
                let _ = done.send(reader.call(0, vec![Value::Array(vec![Value::Int(1_000)])]));
            });
            let read = done_rx.recv_timeout(Duration::from_secs(10)).ok();
            std::thread::sleep(HOLD);
            release.send(()).unwrap();
            assert!(matches!(write.join().unwrap(), TxnOutcome::Committed));
            read
        });
        let read = read.expect("the read queued behind the writer's durable wait");
        assert!(matches!(read, Ok(TxnOutcome::UserAborted)), "missing id aborts: {read:?}");
        let (m, _) = rt.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let hold_us = HOLD.as_secs_f64() * 1e6;
        let flush_us = m.profile.coord_us(0, CoordSub::Flush);
        assert!(flush_us >= hold_us, "durable wait {flush_us:.0} µs, device held {hold_us:.0} µs");
    }

    /// The command-log segment is `/dev/full`, so the first device flush
    /// fails. The writer's call must end rather than wait for an
    /// acknowledgement that never comes. Today the failure is
    /// `LogSet::flush_all`'s panic, on the writer's thread and again at
    /// shutdown's final flush.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_durable_flush_fails_the_writer_without_hanging() {
        let dir = durability_dir("dev-full");
        std::fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", wal::segment_path(&dir, 0)).unwrap();
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt =
            LiveRuntime::start(kv_database(1, 8), kv_registry(), AssumeSinglePartition::new(), cfg);
        let mut client = rt.client();
        let (done, done_rx) = mpsc::channel();
        // Detached: if the call hangs, the test fails on the timeout below
        // instead of joining forever.
        let writer = std::thread::spawn(move || {
            let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                client.call(0, vec![Value::Array(vec![Value::Int(0)])])
            }));
            let _ = done.send(matches!(call, Ok(Ok(TxnOutcome::Committed))));
        });
        let acked = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the writer's call hung on a failed device flush");
        assert!(!acked, "a commit the device never took was acknowledged");
        writer.join().unwrap();
        let teardown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(teardown.is_err(), "shutdown's final flush hits the same device failure");
    }

    #[test]
    fn durable_log_replay_reproduces_distributed_state() {
        let dir = durability_dir("dist");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let (m, db) = live_run(AssumeDistributed::new(), 2, 4, 4, 30, &cfg);
        assert!(m.distributed > 0, "lock-all traffic is distributed");
        let (report, _, tables2) = recover_kv(AssumeDistributed::new(), 4, cfg);
        assert_eq!(report.replayed, m.committed, "each 2PC commit replays exactly once");
        assert_eq!(report.skipped, 0);
        assert_eq!(sorted_tables(&db, 4), tables2);
    }

    #[test]
    fn snapshot_bounds_replay_and_recovery_matches() {
        let dir = durability_dir("snap");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt = LiveRuntime::start(
            kv_database(4, 8),
            kv_registry(),
            AssumeSinglePartition::new(),
            cfg.clone(),
        );
        let mut client = rt.client();
        for i in 0..50i64 {
            client.call(0, vec![Value::Array(vec![Value::Int(i % 32)])]).unwrap();
        }
        let gen = rt.snapshot_now().expect("snapshot under live traffic pauses");
        for i in 0..40i64 {
            client.call(0, vec![Value::Array(vec![Value::Int((i * 3) % 32)])]).unwrap();
        }
        drop(client);
        let (m, db) = rt.shutdown();
        assert_eq!(m.committed, 90);
        assert_eq!(m.snapshots_taken, 1);
        let (report, _, tables2) = recover_kv(AssumeSinglePartition::new(), 4, cfg);
        assert_eq!(report.snapshot_gen, Some(gen));
        assert_eq!(report.replayed, 40, "only post-snapshot commits replay");
        assert_eq!(sorted_tables(&db, 4), tables2);
    }

    #[test]
    fn background_snapshotter_publishes_generations() {
        let dir = durability_dir("bg-snap");
        let cfg = LiveConfig {
            durability: Some(DurabilityConfig::new(&dir).snapshot_every(Duration::from_millis(25))),
            ..Default::default()
        };
        let rt =
            LiveRuntime::start(kv_database(2, 8), kv_registry(), AssumeSinglePartition::new(), cfg);
        let mut client = rt.client();
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < Duration::from_millis(120) {
            client.call(0, vec![Value::Array(vec![Value::Int((calls % 16) as i64)])]).unwrap();
            calls += 1;
        }
        drop(client);
        let (m, _) = rt.shutdown();
        assert_eq!(m.committed, calls);
        assert!(m.snapshots_taken >= 1, "25 ms cadence over 120 ms must snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_snapshot_is_abandoned_and_every_worker_keeps_serving() {
        // The durability directory moves away and a regular file takes its
        // path: no worker can open its new log segment, so the snapshot is
        // abandoned. The open segment moved with the directory, so later
        // writers still log and flush.
        let dir = durability_dir("snap-fail");
        let cfg =
            LiveConfig { durability: Some(DurabilityConfig::new(&dir)), ..Default::default() };
        let rt =
            LiveRuntime::start(kv_database(2, 8), kv_registry(), AssumeSinglePartition::new(), cfg);
        let moved = dir.with_extension("moved");
        std::fs::rename(&dir, &moved).expect("move the durability directory away");
        std::fs::write(&dir, b"not a directory").expect("a file in its place");
        assert_eq!(rt.snapshot_now(), None, "a snapshot no worker could write was published");
        let mut client = rt.client();
        for id in 0..4 {
            let outcome = client.call(0, vec![Value::Array(vec![Value::Int(id)])]);
            assert_eq!(outcome.expect("a worker died"), TxnOutcome::Committed);
        }
        drop(client);
        let (m, _) = rt.shutdown();
        let _ = std::fs::remove_file(&dir);
        let _ = std::fs::remove_dir_all(&moved);
        assert_eq!((m.committed, m.snapshots_taken), (4, 0));
    }
}
