//! Configuration, shared state, and the runtime's start / recover / teardown.

use super::client::Client;
use super::lock::LockManager;
use super::wire::{CtrlMsg, WorkerGate};
use super::worker::{flusher_loop, worker_loop, FlushJob};
use crate::advisor::{LiveAdvisor, LiveMaintainer, Request, TxnFeedback};
use crate::catalog::Catalog;
use crate::durability::{DurabilityConfig, RecoveryReport};
use crate::metrics::{MaintenanceReport, RunMetrics};
use crate::procedure::ProcedureRegistry;
use crate::sim::RequestGenerator;
use common::flush::FlushSequencer;
use common::ring::Doorbell;
use common::sync::atomic::{AtomicU64, Ordering};
use common::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
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
    /// Mispredict restarts before falling back to lock-all.
    pub max_restarts: u32,
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
    /// acknowledgement is withheld until a real `write+fsync` covers it
    /// (group commit via the shared [`FlushSequencer`], the fsync itself
    /// off-worker on a dedicated flusher thread). `None` turns durability
    /// off: every reply goes out the moment its transaction finishes and
    /// a distributed commit waits on nothing.
    pub durability: Option<DurabilityConfig>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig { max_restarts: 2, seed: 7, msg_delay_us: 0, durability: None }
    }
}

/// A record or a shutdown sentinel on the session-teardown → maintenance
/// channel. The explicit `Stop` lets [`LiveRuntime::shutdown`] end the
/// maintenance thread even while [`Client`] handles (each holding a sender
/// clone through [`Shared`]) are still alive in the embedding application.
pub(super) enum FeedbackMsg {
    Record(TxnFeedback),
    Stop,
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
    /// One control-channel + doorbell gate per partition worker. Fast-path
    /// traffic bypasses the gate's channel entirely: it rides the issuing
    /// client's SPSC lane and only rings the gate's bell.
    pub(super) workers: Vec<WorkerGate<A::Session>>,
    pub(super) locks: LockManager,
    /// Run-wide counters: [`Client::call`] folds each transaction's
    /// tallies in here *once, at the end of the call* — per-call scratch
    /// lives in cheap locals on the client, so the fast path touches this
    /// mutex exactly once per transaction and allocates nothing for it.
    /// Mid-run [`LiveRuntime::metrics`] snapshots therefore lag by at most
    /// the calls currently in flight.
    pub(super) metrics: Mutex<RunMetrics>,
    /// Bounded feedback channel toward the maintenance thread (§4.5);
    /// `None` when the advisor has no [`LiveMaintainer`].
    pub(super) fb_tx: Option<SyncSender<FeedbackMsg>>,
    /// Next [`Client`] id — also selects the client's RNG stream.
    pub(super) next_client: AtomicU64,
    pub(super) started: Instant,
    /// Real-durability state ([`LiveConfig::durability`]): the open
    /// command-log segments, the txn-id allocator, snapshot bookkeeping,
    /// the flush sequencer, and the flusher-thread intake. `None` when
    /// durability is off.
    pub(super) durable: Option<Durable<A::Session>>,
}

impl<A: LiveAdvisor> Shared<A> {
    /// The run-wide counters as of now, stamped with `window_us` and the
    /// flush-sequencer and durability counters kept outside the metrics
    /// mutex — the one snapshot both [`LiveRuntime::metrics`] and teardown
    /// report.
    fn metrics_snapshot(&self, window_us: f64) -> RunMetrics {
        // Snapshots must stay available even if a client thread panicked
        // while folding its per-call metrics in: the aggregate is additive,
        // never half-updated in a way a reader could misread.
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
        m.window_us = window_us;
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

/// Live durability state (DESIGN.md §7), shared by workers, coordinators,
/// the flusher thread, and the snapshotter.
pub(super) struct Durable<S> {
    pub(super) logs: Arc<LogSet>,
    /// The one [`FlushDevice`](common::flush::FlushDevice) over `logs`:
    /// every sequencer wait — flusher, coordinators, the teardown-race
    /// fallback — leads its `write+fsync` through this.
    pub(super) device: FileDevice,
    /// Flush sequencer for the log device: flusher-thread groups and
    /// coordinator 2PC durability waits all go through it, so concurrent
    /// flush demands — from *different* workers and coordinators —
    /// coalesce into one device operation (epoch-ticketed; see
    /// [`common::flush`]).
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
    /// Intake of the dedicated flusher thread ([`flusher_loop`]): held
    /// fast-path commit acks ride here with their sequencer ticket, so the
    /// real fsync happens off every worker's serving path.
    pub(super) flusher: Sender<FlushJob<S>>,
}

impl<S> Durable<S> {
    pub(super) fn next_id(&self) -> u64 {
        // ordering: Relaxed — ids only need uniqueness (see field docs);
        // every use is published through a channel or the log mutex.
        self.next_txn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Command-logs one committed single-partition writer at its service
    /// position in `p`'s log.
    pub(super) fn append_local(&self, p: PartitionId, req: &Request) {
        let record =
            LogRecord::Local { txn_id: self.next_id(), proc: req.proc, args: req.args.clone() };
        self.logs.append(p, &record);
    }
}

/// Takes a transaction-consistent snapshot of the whole cluster: fences
/// every partition through the lock manager (no distributed transaction
/// can straddle the cut — every rotation completes before any new lock
/// grant), has each worker rotate its command log to generation `gen` and
/// serialize its shard, then publishes the generation's completion marker
/// and truncates segments below it. Returns the published generation, or
/// `None` when durability is off or a worker died mid-snapshot (no
/// marker ⇒ recovery ignores the partial generation).
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
    wal::write_marker(d.logs.dir(), gen).expect("write snapshot marker");
    // ordering: Relaxed — metrics-only counter.
    d.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    let _ = wal::truncate_below(d.logs.dir(), gen);
    Some(gen)
}

/// The threads a running [`LiveRuntime`] owns; `None` once torn down.
struct Running {
    workers: Vec<JoinHandle<Shard>>,
    maintenance: Option<JoinHandle<MaintenanceReport>>,
    /// Durable mode's dedicated fsync thread (see [`flusher_loop`]).
    flusher: Option<JoinHandle<()>>,
    /// Background snapshotter: its stop flag (0 = run, 1 = stop) and
    /// handle. The thread sleeps via `park_timeout`, so teardown stores
    /// the flag and unparks.
    snapshotter: Option<(Arc<AtomicU64>, JoinHandle<()>)>,
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
        // Durable mode: open the command-log segments (a recovered boot
        // starts a fresh generation above everything on disk) and the
        // flusher intake before any worker can serve.
        let seed = recovered.unwrap_or(RecoverySeed { gen: 0, next_txn_id: 1, recovery_ms: 0.0 });
        let mut flusher_rx: Option<Receiver<FlushJob<A::Session>>> = None;
        let durable = cfg.durability.as_ref().map(|dc| {
            let logs = LogSet::open(&dc.dir, num_partitions, seed.gen)
                .expect("open command-log directory");
            let logs = Arc::new(logs);
            let (tx, rx) = channel();
            flusher_rx = Some(rx);
            Durable {
                device: FileDevice(Arc::clone(&logs)),
                seq: FlushSequencer::new(),
                logs,
                next_txn_id: AtomicU64::new(seed.next_txn_id),
                snapshots_taken: AtomicU64::new(0),
                active_gen: AtomicU64::new(seed.gen),
                recovery_ms: seed.recovery_ms,
                flusher: tx,
            }
        });
        // The §4.5 feedback pipeline exists only when the advisor can
        // learn: a bounded channel from session teardown to one background
        // maintenance thread that owns the advisor's `LiveMaintainer`.
        let (fb_tx, fb_rx) = if advisor.maintainer().is_some() {
            let (tx, rx) = sync_channel::<FeedbackMsg>(super::FEEDBACK_CAPACITY);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mut gates: Vec<WorkerGate<A::Session>> = Vec::new();
        let mut worker_rx: Vec<Receiver<CtrlMsg<A::Session>>> = Vec::new();
        for _ in 0..num_partitions {
            let (tx, rx) = channel();
            gates.push(WorkerGate { ctrl: tx, bell: Doorbell::new() });
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
        let flusher = flusher_rx.map(|rx| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop::<A>(&shared, &rx))
                .expect("spawn flusher thread")
        });
        let snapshotter =
            shared.cfg.durability.as_ref().and_then(|dc| dc.snapshot_every).map(|every| {
                let stop = Arc::new(AtomicU64::new(0));
                let flag = Arc::clone(&stop);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("snapshotter".into())
                    .spawn(move || {
                        loop {
                            std::thread::park_timeout(every);
                            // ordering: Relaxed — the join in teardown is
                            // the only consumer of this thread's effects; a
                            // spurious early wake just snapshots early.
                            if flag.load(Ordering::Relaxed) != 0 {
                                return;
                            }
                            snapshot_cluster(&shared);
                        }
                    })
                    .expect("spawn snapshotter thread");
                (stop, handle)
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
            std::thread::Builder::new()
                .name("maintenance".into())
                .spawn(move || {
                    // The maintainer borrows the advisor; building it here,
                    // on the thread's own stack over its own Arc, keeps the
                    // runtime free of self-references. Drain until Stop (or
                    // every sender is gone): records queued before shutdown
                    // are consumed, so `feedback_records + feedback_dropped`
                    // equals the records the clients emitted.
                    // An advisor whose `maintainer()` answered `Some` to the
                    // start-time probe but `None` here violates its
                    // contract; drain
                    // the queue (so client try_sends keep succeeding and
                    // shutdown still joins cleanly) and report zero work
                    // instead of taking the maintenance thread down.
                    let mt: Option<Box<dyn LiveMaintainer + '_>> = shared.advisor.maintainer();
                    let Some(mut mt) = mt else {
                        while let Ok(FeedbackMsg::Record(_)) = rx.recv() {}
                        return MaintenanceReport::default();
                    };
                    while let Ok(FeedbackMsg::Record(fb)) = rx.recv() {
                        mt.absorb(fb);
                    }
                    mt.report()
                })
                .expect("spawn maintenance thread")
        });
        LiveRuntime {
            shared,
            running: Some(Running { workers, maintenance, flusher, snapshotter }),
        }
    }

    /// Takes a transaction-consistent snapshot of every partition right
    /// now (durable mode only): fences the cluster, rotates every command
    /// log, serializes every shard, publishes the generation marker, and
    /// truncates obsolete segments. Returns the published generation, or
    /// `None` when durability is off or the snapshot was abandoned.
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
    /// from the workers' shards.
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
        if let Some((stop, handle)) = running.snapshotter {
            // ordering: Relaxed — the unpark and join below synchronize
            // the thread's exit; the flag only requests it.
            stop.store(1, Ordering::Relaxed);
            handle.thread().unpark();
            let _ = handle.join();
        }
        // Workers next: each finishes its current run (and any reservation
        // it is serving) before observing the sentinel, so
        // in-flight transactions complete and their feedback records get
        // a chance to precede the Stop below. Calls still buffered in a
        // lane when its worker exits fail cleanly (see `Intake::fail_lanes`).
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
        // Flusher after the workers: every ack they routed is already
        // queued ahead of the Stop, so every held ack drains and flushes
        // before the join; the final flush_all makes any buffered
        // shutdown stragglers durable too.
        if let Some(h) = running.flusher {
            if let Some(d) = &self.shared.durable {
                let _ = d.flusher.send(FlushJob::Stop);
            }
            match h.join() {
                Ok(()) => {}
                Err(p) => thread_panic = Some(p),
            }
            if let Some(d) = &self.shared.durable {
                d.logs.flush_all();
            }
        }
        // Pin the measurement window at drain completion: every accepted
        // transaction has finished once the workers join. Charging the
        // maintenance join below (which can lag far behind on a deep
        // feedback backlog) to `window_us` would deflate `throughput_tps`
        // for work that finished long before.
        let window_us = self.shared.started.elapsed().as_secs_f64() * 1e6;
        let maint_report = running.maintenance.and_then(|h| {
            // The explicit Stop ends the maintenance thread even while
            // Client handles (each holding the channel open through
            // `Shared`) are still alive somewhere in the application. A
            // failed send means the thread is already gone; join tells.
            if let Some(tx) = &self.shared.fb_tx {
                let _ = tx.send(FeedbackMsg::Stop);
            }
            match h.join() {
                Ok(report) => Some(report),
                Err(p) => {
                    thread_panic = Some(p);
                    None
                }
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
    use crate::profiler::Bucket;
    use common::Value;

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

    /// Single-partition advisor whose maintainer sleeps per record,
    /// building a feedback backlog that drains long after the workers
    /// finish. With `withdrawn` set it offers that maintainer to the
    /// start-time probe only and withdraws it when the maintenance thread
    /// asks again — the contract violation the maintenance loop must
    /// survive (regression: this used to panic the maintenance thread,
    /// turning shutdown into a join on a panicked thread).
    struct SlowMaintained {
        withdrawn: Option<std::sync::atomic::AtomicBool>,
    }

    impl LiveAdvisor for SlowMaintained {
        type Session = ();

        fn name(&self) -> &str {
            "slow-maintained"
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
            let feedback = TxnFeedback {
                proc: 0,
                model: 0,
                epoch: 0,
                path: Vec::new(),
                terminal: Some(true),
                deviated: false,
                predicted: PartitionSet::single(0),
            };
            (Some(feedback), None)
        }

        fn maintainer(&self) -> Option<Box<dyn LiveMaintainer + '_>> {
            let probed_before = self
                .withdrawn
                .as_ref()
                .is_some_and(|probed| probed.swap(true, std::sync::atomic::Ordering::SeqCst));
            (!probed_before).then(|| Box::new(SleepyMaintainer { seen: 0 }) as Box<_>)
        }
    }

    struct SleepyMaintainer {
        seen: u64,
    }

    impl LiveMaintainer for SleepyMaintainer {
        fn absorb(&mut self, _fb: TxnFeedback) {
            self.seen += 1;
            std::thread::sleep(Duration::from_millis(2));
        }

        fn report(&self) -> MaintenanceReport {
            MaintenanceReport { feedback_records: self.seen, ..Default::default() }
        }
    }

    #[test]
    fn window_pins_at_drain_completion_not_maintenance_join() {
        let rt = LiveRuntime::start(
            kv_database(1, 8),
            kv_registry(),
            SlowMaintained { withdrawn: None },
            LiveConfig::default(),
        );
        let mut client = rt.client();
        for _ in 0..100 {
            client.call(0, vec![Value::Array(vec![Value::Int(0)])]).unwrap();
        }
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
            SlowMaintained { withdrawn: Some(std::sync::atomic::AtomicBool::new(false)) },
            LiveConfig::default(),
        );
        let mut client = rt.client();
        for _ in 0..50 {
            client.call(0, vec![Value::Array(vec![Value::Int(0)])]).unwrap();
        }
        // Shutdown must join a *live* maintenance thread (it drained the
        // feedback instead of panicking) and fold in an all-zero report.
        let (fin, _) = rt.shutdown();
        assert_eq!(fin.committed, 50);
        assert_eq!(fin.feedback_records, 0, "no maintainer, so no absorbed records");
        assert_eq!(fin.model_swaps, 0);
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
            // skips the log and is acknowledged at once, even while the
            // preceding write's ack is still in the flusher's hands.
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
}
