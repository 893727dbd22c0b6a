//! The timed cluster simulation.
//!
//! Closed-loop clients (the paper uses 4 per partition, §6.4) issue stored
//! procedure requests against a cluster of `num_partitions` partitions,
//! `partitions_per_node` per node. Transactions execute for real against
//! [`storage::Database`]; the simulator tracks *when* each partition is busy
//! and charges [`crate::CostModel`] microseconds for CPU and messages.
//!
//! Concurrency model: each partition is a single-threaded server. A
//! transaction waits until every partition in its lock set is available,
//! occupies them while it runs, and releases them at commit — except
//! partitions the advisor declared *finished* (OP4), which early-prepare
//! exactly as in the live runtime: a participant the transaction only read
//! frees when its last fragment completes, and one it wrote stays reserved
//! until the commit notification reaches it.
//!
//! Prediction is *not* simulated: every attempt runs the live runtime's
//! transaction-step kernel (`crate::txn`: the control-code cursor, the
//! batch check, the footprint fold and advisor update, the mispredict
//! fallback and the outcome record), so the simulator drives the same
//! [`LiveAdvisor`] calls, in the same order per transaction, as
//! `Client::call`, and feeds the advisor's [`LiveMaintainer`] every
//! teardown's feedback synchronously (§4.5). What the simulator owns is
//! time, whole-database batch execution, and its partition occupancy model.

use crate::advisor::{LiveAdvisor, LiveMaintainer, PlanContext, Request, TxnOutcome, TxnPlan};
use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::exec::execute_query;
use crate::metrics::RunMetrics;
use crate::procedure::{ProcedureRegistry, Step};
use crate::profiler::Bucket;
use crate::txn::{replan, Cursor, Footprint};
use common::{
    derive_seed, seeded_rng, Error, FxHashMap, PartitionId, PartitionSet, ProcId, Result, Value,
};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use storage::{Database, UndoLog};

/// Supplies the next request for a given client stream. Implemented by the
/// benchmark workload generators.
pub trait RequestGenerator {
    /// The next (procedure, args) pair for client `client`.
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>);
}

impl<G: RequestGenerator + ?Sized> RequestGenerator for Box<G> {
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
        self.as_mut().next_request(client)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of partitions in the cluster (≤ 64).
    pub num_partitions: u32,
    /// Partitions hosted per node (the paper uses 2).
    pub partitions_per_node: u32,
    /// Closed-loop clients per partition (the paper uses 4).
    pub clients_per_partition: u32,
    /// Simulated warm-up before measurement starts (µs).
    pub warmup_us: f64,
    /// Measurement window length (µs).
    pub measure_us: f64,
    /// RNG seed (origin-node draws, random-partition policies).
    pub seed: u64,
    /// When set, each closed-loop client issues at most this many requests
    /// and then stops. Used to compare a `Simulation` against the live
    /// runtime on an identical request population (set `measure_us` large
    /// enough to cover the whole run).
    pub max_requests_per_client: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_partitions: 4,
            partitions_per_node: 2,
            clients_per_partition: 4,
            warmup_us: 100_000.0,
            measure_us: 1_000_000.0,
            seed: 7,
            max_requests_per_client: None,
        }
    }
}

impl SimConfig {
    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_partitions.div_ceil(self.partitions_per_node)
    }

    /// Node hosting partition `p`.
    pub fn node_of(&self, p: PartitionId) -> u32 {
        p / self.partitions_per_node
    }
}

/// Outcome of one execution attempt.
enum Attempt {
    /// Committed or user-aborted; the client has its answer at `client_done`.
    Done { committed: bool, client_done: f64, fp: Footprint },
    /// The transaction touched (or was about to touch) a partition outside
    /// its lock set, or re-touched an early-released partition.
    Mispredict { observed: PartitionSet, t_fail: f64 },
}

/// The simulation driver. Borrows the database, advisor, and generator; owns
/// clocks and metrics (the Fig. 11 profile included).
pub struct Simulation<'a, A: LiveAdvisor> {
    db: &'a mut Database,
    registry: &'a ProcedureRegistry,
    catalog: Catalog,
    advisor: &'a A,
    /// The advisor's §4.5 driver, fed at every session teardown.
    maintainer: Option<Box<dyn LiveMaintainer + 'a>>,
    gen: &'a mut dyn RequestGenerator,
    costs: CostModel,
    cfg: SimConfig,
    avail: Vec<f64>,
    metrics: RunMetrics,
}

/// Heap key: earliest event first. Times are finite by construction.
#[derive(PartialEq, PartialOrd)]
struct Tf(f64);
impl Eq for Tf {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Tf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite times")
    }
}

impl<'a, A: LiveAdvisor> Simulation<'a, A> {
    /// Builds a simulation over `db` using `advisor` and `gen`.
    pub fn new(
        db: &'a mut Database,
        registry: &'a ProcedureRegistry,
        advisor: &'a A,
        gen: &'a mut dyn RequestGenerator,
        costs: CostModel,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(db.num_partitions(), cfg.num_partitions, "db/config mismatch");
        let n = cfg.num_partitions as usize;
        let catalog = registry.catalog();
        Simulation {
            db,
            registry,
            catalog,
            advisor,
            maintainer: advisor.maintainer(),
            gen,
            costs,
            cfg,
            avail: vec![0.0; n],
            metrics: RunMetrics::default(),
        }
    }

    /// Runs the closed loop to completion and returns the metrics, with
    /// the Fig. 11 time attribution in [`RunMetrics::profile`].
    /// Errors only on an unrecoverable abort (a transaction aborted after
    /// its advisor disabled undo logging — "the node must halt", §2 OP3).
    pub fn run(mut self) -> Result<RunMetrics> {
        let end = self.cfg.warmup_us + self.cfg.measure_us;
        let clients = u64::from(self.cfg.num_partitions * self.cfg.clients_per_partition);
        let mut heap: BinaryHeap<Reverse<(Tf, u64)>> = BinaryHeap::new();
        let mut rng = seeded_rng(derive_seed(self.cfg.seed, 0xC11E47));
        for c in 0..clients {
            // Slight arrival jitter so clients do not lockstep at t=0.
            heap.push(Reverse((Tf(c as f64 * 0.1), c)));
        }
        let mut issued: Vec<u64> = vec![0; clients as usize];
        while let Some(Reverse((Tf(t), client))) = heap.pop() {
            if t >= end {
                break;
            }
            if let Some(cap) = self.cfg.max_requests_per_client {
                if issued[client as usize] >= cap {
                    continue; // this client's stream has run dry
                }
            }
            issued[client as usize] += 1;
            let (proc, args) = self.gen.next_request(client);
            let origin_node = rng.gen_range(0..self.cfg.num_nodes());
            let local_part = origin_node * self.cfg.partitions_per_node
                + rng.gen_range(0..self.cfg.partitions_per_node);
            let local_part = local_part.min(self.cfg.num_partitions - 1);
            let req = Request { proc, args, origin_node };
            let client_done = self.process_txn(&req, t, local_part)?;
            heap.push(Reverse((Tf(client_done + self.costs.client_think_us), client)));
        }
        self.metrics.window_us = self.cfg.measure_us;
        if let Some(m) = &self.maintainer {
            self.metrics.absorb_maintenance(&m.report());
        }
        Ok(self.metrics)
    }

    /// One request, start to finish — the same attempt loop as the live
    /// `Client::call`: plan, execute, and on a mispredict tear the
    /// superseded session down (its executed prefix is maintenance signal,
    /// §4.5) before replanning. Returns when the client has its answer.
    fn process_txn(
        &mut self,
        req: &Request,
        t_arrive: f64,
        random_local_partition: PartitionId,
    ) -> Result<f64> {
        let num_partitions = self.cfg.num_partitions;
        let (mut plan, mut session) = {
            let ctx =
                PlanContext { catalog: &self.catalog, num_partitions, random_local_partition };
            self.advisor.plan_with_database(req, &ctx, self.db, self.registry)
        };
        let mut t = t_arrive;
        let mut attempt = 0u32;
        loop {
            match self.try_execute(req, &plan, &mut session, t)? {
                Attempt::Done { committed, client_done, fp } => {
                    let window = self.cfg.warmup_us..self.cfg.warmup_us + self.cfg.measure_us;
                    let latency = window.contains(&client_done).then_some(client_done - t_arrive);
                    self.metrics.profile.finish_txn(req.proc);
                    self.metrics.record_txn(
                        req.proc,
                        &plan,
                        committed,
                        &fp,
                        num_partitions,
                        latency,
                    );
                    let outcome =
                        if committed { TxnOutcome::Committed } else { TxnOutcome::UserAborted };
                    self.end_session(session, outcome);
                    return Ok(client_done);
                }
                Attempt::Mispredict { observed, t_fail } => {
                    self.metrics.restarts += 1;
                    t = t_fail + self.costs.restart_penalty_us;
                    self.end_session(session, TxnOutcome::Mispredicted);
                    let ctx = PlanContext {
                        catalog: &self.catalog,
                        num_partitions,
                        random_local_partition,
                    };
                    session = replan(self.advisor, req, &ctx, observed, &mut attempt, &mut plan);
                }
            }
        }
    }

    /// Session teardown: whatever feedback the advisor emits goes straight
    /// to its maintainer, in issue order.
    fn end_session(&mut self, session: A::Session, outcome: TxnOutcome) {
        let (feedback, _spare) = self.advisor.end_live_reclaim(session, outcome);
        if let (Some(fb), Some(m)) = (feedback, self.maintainer.as_mut()) {
            m.absorb(fb);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn try_execute(
        &mut self,
        req: &Request,
        plan: &TxnPlan,
        session: &mut A::Session,
        t0: f64,
    ) -> Result<Attempt> {
        let proc = req.proc;
        let base = plan.base_partition;
        let base_node = self.cfg.node_of(base);
        let lock_set = plan.lock_set;
        let distributed = !lock_set.is_single();

        // Arrival-node work: estimation, planning, setup.
        let mut t = t0;
        self.metrics.profile.add(proc, Bucket::Estimation, plan.estimate_cost_us);
        self.metrics.profile.add(proc, Bucket::Planning, self.costs.planning_us);
        self.metrics.profile.add(proc, Bucket::Other, self.costs.setup_us);
        t += plan.estimate_cost_us + self.costs.planning_us + self.costs.setup_us;
        if base_node != req.origin_node {
            let hop = self.costs.msg_us(req.origin_node, base_node);
            self.metrics.profile.add(proc, Bucket::Coordination, hop);
            t += hop;
        }

        // Lazy lock acquisition (H-Store fragment queues): the control code
        // starts when the base partition frees; remote partitions are
        // occupied only when their first fragment arrives, and partitions
        // that are locked but never used are reserved retroactively until
        // commit. `held` tracks each used partition's latest fragment
        // completion.
        t = t.max(self.avail[base as usize]);
        let mut held: FxHashMap<PartitionId, f64> = FxHashMap::default();
        held.insert(base, t);

        let (mut fp, mut undo) = Footprint::begin(plan);
        let mut cursor = Cursor::new(self.registry, proc, &req.args);
        let mut targets = Vec::new();
        let mut wrote = PartitionSet::EMPTY;

        loop {
            // Partitions this attempt still reserves: every locked one but
            // those early-prepared after only being read.
            let reserved = lock_set.difference(fp.early_released.difference(wrote));
            match cursor.next() {
                Step::Queries(batch) => {
                    self.metrics.profile.add(proc, Bucket::Execution, self.costs.control_code_us);
                    t += self.costs.control_code_us;

                    // Validate targets before touching storage so a
                    // mispredicted batch can abort cleanly.
                    let n = self.cfg.num_partitions;
                    let def = self.catalog.proc(proc);
                    if let Err(observed) = fp.check_batch(def, n, &batch, plan, &mut targets) {
                        let txn = u64::from(proc) + 1000;
                        let t_fail = self.roll_back(proc, t, &mut undo, reserved, txn)?;
                        return Ok(Attempt::Mispredict { observed, t_fail });
                    }

                    // Execute: local queries run at the base engine; remote
                    // queries are shipped once per partition per batch.
                    let t_batch_start = t;
                    let mut batch_results = Vec::with_capacity(batch.len());
                    let mut remote_work: FxHashMap<PartitionId, f64> = FxHashMap::default();
                    let mut pending_release = PartitionSet::EMPTY;
                    for inv in batch {
                        let def = self.catalog.proc(proc).query(inv.query);
                        let is_write = def.is_write();
                        let (rows, parts) =
                            match execute_query(self.db, def, &inv.params, &mut undo) {
                                Ok(v) => v,
                                Err(Error::Constraint(msg)) => {
                                    cursor.constraint(msg);
                                    break;
                                }
                                Err(e) => return Err(e),
                            };
                        if is_write {
                            wrote = wrote.union(parts);
                        }
                        let qcost = self.costs.query_cost_us(is_write, undo.is_enabled());
                        for p in parts.iter() {
                            if p == base {
                                self.metrics.profile.add(proc, Bucket::Execution, qcost);
                                t += qcost;
                            } else {
                                *remote_work.entry(p).or_insert(0.0) += qcost;
                            }
                        }
                        let upd = fp.observe(
                            self.advisor,
                            session,
                            plan,
                            Some(&mut undo),
                            def,
                            inv,
                            parts,
                        );
                        if upd.cost_us > 0.0 {
                            self.metrics.profile.add(proc, Bucket::Estimation, upd.cost_us);
                            t += upd.cost_us;
                        }
                        pending_release = pending_release.union(upd.finished);
                        batch_results.push(rows);
                    }

                    // Remote fragments overlap: each partition starts its
                    // fragment when it is free (its queue reaches us) and
                    // the batch completes when the slowest response returns.
                    if !remote_work.is_empty() {
                        let mut batch_done = t;
                        let mut net_total = 0.0f64;
                        for (&p, &work) in &remote_work {
                            let oneway = self.costs.msg_us(base_node, self.cfg.node_of(p));
                            let arrive = t_batch_start + oneway;
                            let start = match held.get(&p) {
                                Some(&last) => last.max(arrive),
                                None => arrive.max(self.avail[p as usize]),
                            };
                            let done = start + work;
                            held.insert(p, done);
                            batch_done = batch_done.max(done + oneway);
                            net_total += 2.0 * oneway;
                            self.metrics.profile.add(proc, Bucket::Execution, work);
                        }
                        self.metrics.profile.add(proc, Bucket::Coordination, net_total);
                        t = batch_done;
                    }

                    // Early prepare (OP4): the prepare piggybacks on this
                    // batch's dispatch ("the query and the prepare message
                    // can be combined", §2 OP4), so the participant's vote
                    // rides its last fragment. One that only read becomes
                    // available as soon as that fragment completes — not
                    // when the whole batch returns to the base partition.
                    // One that wrote stays reserved until the commit round
                    // notifies it. The base runs the control code and stays
                    // busy until commit: never released here.
                    let kept = PartitionSet::single(base);
                    for p in fp.releasable(pending_release, lock_set, kept).iter() {
                        fp.early_released.insert(p);
                        if !wrote.contains(p) {
                            let oneway = self.costs.msg_us(base_node, self.cfg.node_of(p));
                            let done_at = match held.get(&p) {
                                Some(&last) => last,
                                None => t_batch_start + oneway,
                            };
                            self.avail[p as usize] = self.avail[p as usize].max(done_at);
                        }
                    }
                    cursor.resume(batch_results);
                }
                Step::Commit => {
                    undo.clear();
                    let t_commit;
                    if !distributed {
                        t += self.costs.twopc_cpu_us; // commit bookkeeping
                        self.metrics.profile.add(
                            proc,
                            Bucket::Coordination,
                            self.costs.twopc_cpu_us,
                        );
                        self.avail[base as usize] = self.avail[base as usize].max(t);
                        t_commit = t;
                    } else {
                        // Two-phase commit over partitions not already
                        // early-prepared (early prepare piggybacks the vote
                        // on the last query — "unsolicited vote", §2 OP4).
                        // Locked-but-unused partitions still vote: wasted
                        // locks cost real time (§2 OP2).
                        let mut prepare_rtt = 0.0f64;
                        let mut msgs = 0.0f64;
                        for p in lock_set.difference(fp.early_released).iter() {
                            if p != base {
                                let oneway = self.costs.msg_us(base_node, self.cfg.node_of(p));
                                prepare_rtt = prepare_rtt.max(2.0 * oneway);
                                msgs += 2.0 * oneway;
                            }
                        }
                        t += prepare_rtt + self.costs.twopc_cpu_us;
                        t_commit = t;
                        // Commit round: one-way notifications release the
                        // remaining partitions — the early-prepared ones
                        // that wrote, and ones the transaction locked but
                        // never touched, which were reserved for its whole
                        // lifetime.
                        for p in reserved.iter() {
                            if p == base {
                                self.avail[p as usize] = self.avail[p as usize].max(t_commit);
                            } else {
                                let oneway = self.costs.msg_us(base_node, self.cfg.node_of(p));
                                msgs += oneway;
                                let release = t_commit + oneway;
                                let idle_from = held.get(&p).copied().unwrap_or(t0).min(release);
                                self.metrics.reserved_idle_us += release - idle_from;
                                self.avail[p as usize] = self.avail[p as usize].max(release);
                            }
                        }
                        self.metrics.profile.add(
                            proc,
                            Bucket::Coordination,
                            msgs + self.costs.twopc_cpu_us,
                        );
                    }
                    // Client acknowledgement. The return hop counts towards
                    // client latency but not the profile — profiling stops
                    // when the result is sent (§6.3).
                    let client_done = t_commit + self.costs.msg_us(base_node, req.origin_node);
                    return Ok(Attempt::Done { committed: true, client_done, fp });
                }
                Step::Abort(_) => {
                    let txn = u64::from(proc);
                    let t = self.roll_back(proc, t, &mut undo, reserved, txn)?;
                    let client_done = t + self.costs.msg_us(base_node, req.origin_node);
                    return Ok(Attempt::Done { committed: false, client_done, fp });
                }
            }
        }
    }

    /// Rolls an attempt back (user abort or mispredict) and frees the
    /// partitions it still `reserved` when the rollback ends, which it
    /// returns. Every fragment finished by then, so no held partition
    /// outlives it. Without undo the node must halt (§2 OP3):
    /// `Error::UnrecoverableAbort { txn }`.
    fn roll_back(
        &mut self,
        proc: ProcId,
        t: f64,
        undo: &mut UndoLog,
        reserved: PartitionSet,
        txn: u64,
    ) -> Result<f64> {
        if !undo.can_rollback() {
            return Err(Error::UnrecoverableAbort { txn });
        }
        let rb = undo.len() as f64 * self.costs.rollback_record_us;
        self.metrics.profile.add(proc, Bucket::Execution, rb);
        let t = t + rb;
        self.db.rollback(undo)?;
        for p in reserved.iter() {
            self.avail[p as usize] = self.avail[p as usize].max(t);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{AssumeDistributed, AssumeSinglePartition, Oracle};
    use crate::catalog::{ColumnOp, PartitionHint, ProcDef, QueryDef, QueryOp};
    use crate::procedure::testing::{kv_database, kv_registry, KvGen};
    use crate::procedure::{Linear, ProcInstance, Procedure, QueryInvocation};
    use common::{QueryId, Value};
    use storage::Schema;

    fn run_with<A: LiveAdvisor>(advisor: A, spread: u32, parts: u32) -> RunMetrics {
        let mut db = kv_database(parts, 8);
        let reg = kv_registry();
        let mut gen = KvGen { spread, parts, counter: 0 };
        let cfg = SimConfig {
            num_partitions: parts,
            warmup_us: 20_000.0,
            measure_us: 300_000.0,
            ..Default::default()
        };
        let sim = Simulation::new(&mut db, &reg, &advisor, &mut gen, CostModel::default(), cfg);
        sim.run().expect("no halts")
    }

    #[test]
    fn oracle_single_partition_commits() {
        let m = run_with(Oracle::new(), 1, 4);
        assert!(m.committed > 100, "committed = {}", m.committed);
        assert_eq!(m.restarts, 0, "oracle never mispredicts");
        assert!(m.single_partition > 0);
        assert_eq!(m.distributed, 0);
    }

    #[test]
    fn oracle_distributed_commits() {
        let m = run_with(Oracle::new(), 2, 4);
        assert!(m.committed > 50);
        assert_eq!(m.restarts, 0);
        assert!(m.distributed > 0);
    }

    #[test]
    fn assume_single_partition_restarts_on_distributed() {
        let m = run_with(AssumeSinglePartition::new(), 2, 4);
        assert!(m.committed > 0);
        assert!(m.restarts > 0, "distributed work must trigger restarts");
    }

    #[test]
    fn assume_distributed_never_restarts_but_is_slow() {
        let dist = run_with(AssumeDistributed::new(), 1, 8);
        let oracle = run_with(Oracle::new(), 1, 8);
        assert_eq!(dist.restarts, 0);
        assert!(
            oracle.throughput_tps() > 2.0 * dist.throughput_tps(),
            "oracle {} vs lock-all {}",
            oracle.throughput_tps(),
            dist.throughput_tps()
        );
    }

    #[test]
    fn oracle_scales_with_partitions() {
        let small = run_with(Oracle::new(), 1, 4);
        let big = run_with(Oracle::new(), 1, 16);
        assert!(
            big.throughput_tps() > 2.0 * small.throughput_tps(),
            "4p {} vs 16p {}",
            small.throughput_tps(),
            big.throughput_tps()
        );
    }

    #[test]
    fn lock_all_is_flat_across_cluster_sizes() {
        let a = run_with(AssumeDistributed::new(), 1, 4);
        let b = run_with(AssumeDistributed::new(), 1, 16);
        let ratio = b.throughput_tps() / a.throughput_tps();
        assert!(
            ratio < 1.5 && ratio > 0.3,
            "lock-all should not scale: {} vs {}",
            a.throughput_tps(),
            b.throughput_tps()
        );
    }

    #[test]
    fn database_consistent_after_run() {
        // Sum of VAL equals number of successful bumps; invariant: every
        // committed MultiGet bumps each of its ids exactly once, and aborted
        // work is rolled back — so all VALs are non-negative and the DB has
        // the same row count as loaded.
        let mut db = kv_database(4, 8);
        let reg = kv_registry();
        let advisor = Oracle::new();
        let mut gen = KvGen { spread: 2, parts: 4, counter: 0 };
        let cfg = SimConfig {
            num_partitions: 4,
            warmup_us: 0.0,
            measure_us: 100_000.0,
            ..Default::default()
        };
        let sim = Simulation::new(&mut db, &reg, &advisor, &mut gen, CostModel::default(), cfg);
        sim.run().unwrap();
        assert_eq!(db.total_rows(0), 32);
    }

    #[test]
    fn early_prepare_never_hurts_distributed_work() {
        let with = run_with(Oracle::new(), 3, 8);
        let without = run_with(Oracle::without_early_prepare(), 3, 8);
        assert!(
            with.throughput_tps() >= without.throughput_tps() * 0.95,
            "OP4 {} vs no-OP4 {}",
            with.throughput_tps(),
            without.throughput_tps()
        );
        assert!(
            with.reserved_idle_us <= without.reserved_idle_us,
            "early prepare reclaims reserved-idle time: {} vs {}",
            with.reserved_idle_us,
            without.reserved_idle_us
        );
    }

    #[test]
    fn single_partition_work_reserves_nothing() {
        let m = run_with(Oracle::new(), 1, 4);
        assert_eq!(m.reserved_idle_us, 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_with(Oracle::new(), 2, 4);
        let b = run_with(Oracle::new(), 2, 4);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn latency_histogram_tracks_committed_window() {
        let m = run_with(Oracle::new(), 2, 4);
        assert_eq!(m.latency.count(), m.committed);
        let mean = m.mean_latency_ms().expect("commits happened");
        assert!(mean > 0.0);
        assert!(m.latency.p50_ms().unwrap() <= m.latency.p99_ms().unwrap());
    }

    #[test]
    fn request_cap_bounds_each_client_stream() {
        let mut db = kv_database(4, 8);
        let reg = kv_registry();
        let advisor = Oracle::new();
        let mut gen = KvGen { spread: 1, parts: 4, counter: 0 };
        let cfg = SimConfig {
            num_partitions: 4,
            warmup_us: 0.0,
            measure_us: 1e12, // effectively unbounded: the cap ends the run
            max_requests_per_client: Some(25),
            ..Default::default()
        };
        let clients = u64::from(cfg.num_partitions * cfg.clients_per_partition);
        let sim = Simulation::new(&mut db, &reg, &advisor, &mut gen, CostModel::default(), cfg);
        let m = sim.run().unwrap();
        assert_eq!(m.committed + m.user_aborts, clients * 25);
    }

    /// `Script(queries, keys)`: one batch running query `queries[i]` on key
    /// `keys[i]`, then commit. Query 0 reads `KV`, query 1 bumps `KV`, query
    /// 2 reads `AUX`; both tables are partitioned on their key.
    fn script(args: &[Value]) -> Box<dyn ProcInstance> {
        let ints = |v: &Value| -> Vec<i64> {
            v.as_array().expect("array arg").iter().map(Value::expect_int).collect()
        };
        let batch = ints(&args[0])
            .into_iter()
            .zip(ints(&args[1]))
            .map(|(q, key)| QueryInvocation::new(q as QueryId, vec![key.into(), Value::Int(1)]))
            .collect();
        Box::new(Linear::one(batch))
    }

    /// The `Script` registry over `KV(ID, V)` and `AUX(ID, V)`, one row per
    /// partition in each.
    fn script_registry_and_db(parts: u32) -> (ProcedureRegistry, Database) {
        let get = |name, table| {
            let op = QueryOp::GetByKey { key_params: vec![0] };
            QueryDef::new(name, table, op, PartitionHint::Param(0))
        };
        let add = QueryOp::UpdateByKey {
            key_params: vec![0],
            sets: vec![ColumnOp::Add { column: 1, param: 1 }],
        };
        let bump = QueryDef::new("BumpKV", 0, add, PartitionHint::Param(0));
        let def = ProcDef {
            name: "Script".into(),
            queries: vec![get("GetKV", 0), bump, get("GetAux", 1)],
            read_only: false,
            can_abort: false,
        };
        let schemas = ["KV", "AUX"].map(|t| Schema::new(t, &["ID", "V"], &[0], Some(0)));
        let mut db = Database::new(schemas.to_vec(), parts, &[]);
        let mut undo = UndoLog::new();
        for table in 0..2 {
            for id in 0..i64::from(parts) {
                let p = db.partition_for_value(&Value::Int(id));
                db.insert(p, table, vec![Value::Int(id), Value::Int(0)], &mut undo).unwrap();
            }
        }
        (ProcedureRegistry::new(vec![Procedure { def, start: script }]), db)
    }

    #[test]
    fn early_prepare_frees_a_read_participant_and_parks_a_written_one() {
        // Two partitions per node: p0 and p1 on node 0, p2 on node 1. The
        // distributed transaction reads KV at p0 (its base) and p1 and bumps
        // KV at p2; the oracle early-prepares p1 and p2 after their last
        // fragment. Then single-partition reads of AUX, a table the
        // distributed transaction never touched, queue on p1 and p2.
        let (reg, mut db) = script_registry_and_db(4);
        let advisor = Oracle::new();
        let mut unused = KvGen { spread: 1, parts: 4, counter: 0 };
        let costs = CostModel::default();
        let cfg = SimConfig { num_partitions: 4, ..Default::default() };
        let mut sim = Simulation::new(&mut db, &reg, &advisor, &mut unused, costs.clone(), cfg);
        let script = |queries: &[i64], keys: &[i64]| Request {
            proc: 0,
            args: vec![queries.to_vec().into(), keys.to_vec().into()],
            origin_node: 0,
        };
        let dist_done = sim.process_txn(&script(&[0, 0, 1], &[0, 1, 2]), 0.0, 0).unwrap();
        // Its ack leaves base p0 for origin node 0 at the commit point; the
        // commit notification to p2 crosses to node 1.
        let commit = dist_done - costs.msg_us(0, 0);
        let notified = commit + costs.msg_us(0, 1);
        let on_read = sim.process_txn(&script(&[2], &[1]), 0.0, 1).unwrap();
        let on_written = sim.process_txn(&script(&[2], &[2]), 0.0, 2).unwrap();
        assert!(on_read < commit, "read participant frees early: {on_read} vs commit {commit}");
        assert!(
            on_written >= notified,
            "written participant stays reserved until notified: {on_written} vs {notified}"
        );
    }
}
