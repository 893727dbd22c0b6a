//! The live multi-threaded partition runtime.
//!
//! Where [`crate::Simulation`] charges a cost model for time, this module
//! runs the paper's architecture (§2, Fig. 1) for real: one OS worker
//! thread per partition with *exclusive ownership* of that partition's
//! [`storage::Shard`], one lock-free SPSC connection per (client, worker)
//! pair plus a doorbell-parked control channel, and any number of caller-owned
//! [`Client`] handles that route every request through a shared, trained,
//! read-only [`LiveAdvisor`].
//!
//! ## Module map — one protocol per module
//!
//! * `lock` — the partition-lock manager (`LockManager`, `LockGuard`).
//! * `wire` — every cross-thread message and its carrier (`Call`, `Reply`,
//!   `SingleMsg`, `FragCmd`, `CtrlMsg`; a connection's `End`s, a client's
//!   `Conns`, a worker's `WorkerGate`).
//! * `worker` — the partition server: `Intake`, `worker_loop`, and the
//!   `run_single` fast path.
//! * `participant` — the participant side of a distributed transaction
//!   (`serve_reservation`).
//! * `coord` — the coordinator side (`run_distributed`).
//! * `client` — [`Client`].
//! * `lifecycle` — [`LiveConfig`], `Shared`, `Durable`, [`LiveRuntime`]
//!   start / recover / teardown, cluster snapshots, [`run_live`].
//!
//! The per-transaction protocol itself — the batch check, the per-query
//! fold and advisor update, the release rule, the reserved set, the
//! rollback-or-halt end, the mispredict fallback — is not here: it is the
//! crate's transaction-step kernel, one steppable `crate::txn::Attempt`,
//! which `worker` (the fast path) and `coord` / `client` (the
//! coordinator) step exactly as [`crate::Simulation`] does.
//!
//! ## Thread and ownership model
//!
//! The runtime is a *server*, embeddable as a library: [`LiveRuntime::
//! start`] owns the worker threads, the lock manager, and (when the
//! advisor learns) the maintenance thread; everything those threads share
//! lives in one `Arc`-held `Shared` block, so the runtime outlives the
//! stack frame that started it. [`LiveRuntime::client`] mints cheap `Send`
//! [`Client`] handles; [`Client::call`] plans, coordinates, and blocks for
//! one transaction. [`LiveRuntime::shutdown`] drains in-flight work, stops
//! every owned thread, and reassembles the [`Database`]. The closed-loop
//! benchmark entry point [`run_live`] is a thin wrapper over exactly this
//! lifecycle.
//!
//! * **Connections.** Each [`Client`] opens one *connection* with each
//!   worker it talks to, on first contact: a bounded lock-free SPSC
//!   request ring ([`common::ring`]) carrying fast-path calls and fragment
//!   commands, a reply ring carrying every answer, and the two sides'
//!   [`common::ring::Doorbell`]s — the worker's, which the client rings
//!   after each push, and the client's own, which the worker rings after
//!   each reply. Both sides wait the same way, `Doorbell::wait`: spin,
//!   then park. The hot path crosses no shared mutex and no MPSC channel;
//!   rare control traffic (registration, snapshot fences, shutdown) rides
//!   a plain shared channel. Dropping either end closes its rings and
//!   then rings the peer, so a client that goes away wakes the worker to
//!   retire the connection, and a worker that shuts down or dies wakes
//!   every client waiting on it with an error.
//! * **Workers** (one per partition) own their shard outright — no locks
//!   guard row access, ever. A worker collects work *in runs*: it drains
//!   the control channel, then sweeps its connections fairly (round-robin,
//!   one message per connection per pass) until a pass comes up empty.
//!   Each swept single-partition transaction is acknowledged the moment it
//!   finishes.
//!   If durability is on and it committed a write, it is first
//!   command-logged at its service position, and the ack carries a
//!   flush-sequencer ticket: the client, not the worker, waits for the
//!   `write+fsync` that covers it (DESIGN.md §7). A fragment command
//!   swept from a connection opens a reservation, served once the run
//!   has executed (everything swept before it has executed; per-client
//!   FIFO order is the request ring itself).
//! * **Clients** (the paper's §6.4 load generators, or any embedding
//!   application thread) plan each request via the shared advisor, then
//!   either hand the whole transaction to its base partition's worker, or
//!   — for a multi-partition lock set — become the transaction's
//!   *coordinator*: they acquire the cluster lock atomically, drive the
//!   control code themselves, and ship query fragments over the same
//!   connections, batched per participant per query batch
//!   (`FragCmd::ExecBatch`). Holding a partition's lock entitles the
//!   client to send fragment commands on its connection — the lock *is*
//!   the reservation, so the steady state has no per-transaction channel
//!   setup and no reservation round trip at all.
//! * **The lock manager** is sharded by partition: one FIFO ticket queue
//!   and condvar per partition, claimed in ascending partition order —
//!   distributed transactions on disjoint shards never touch the same
//!   mutex. The globally consistent claim order makes lock acquisition
//!   deadlock-free (the classic ordered-resource argument), and no wait
//!   edge ever points *into* the lock manager after acquisition: workers
//!   never take locks, and a coordinator acquires its whole set up front
//!   and only releases afterwards. A reservation only ever waits behind
//!   finite single-partition work or reservations of already-granted (and
//!   therefore progressing) transactions, so the runtime as a whole stays
//!   deadlock-free by construction.
//!
//! Mispredicts go through the kernel the simulator uses: a query batch that
//! targets a partition outside the lock set (or an early-released one)
//! rolls the transaction back, the advisor replans (`attempt` counting
//! up), and after two restarts the transaction falls back to a lock-all
//! plan that cannot mispredict.
//!
//! Commit runs real two-phase commit, coalesced per (coordinator,
//! participant) pair: participants in this engine always vote yes (every
//! fragment error already surfaced at execution), so the coordinator ships
//! one `VoteFinish` message carrying the flush-and-vote *and* the decision
//! together and awaits one acknowledgement — halving the per-participant
//! round trips and the modeled network hops of the split `Vote` + `Finish`
//! rounds while keeping identical outcomes. With durability on, commit
//! durability is paid once per distributed write transaction, *by the
//! coordinator*: after every participant acked it waits on the shared
//! [`common::flush::FlushSequencer`], exactly as a fast-path writer's
//! client waits on its ticket. The sequencer's epoch tickets let every
//! concurrent waiter coalesce into one `write+fsync` — participants never
//! flush on their own thread, so a distributed commit does not stall its
//! partitions' fast paths. With durability off it waits on nothing.
//! `LiveConfig::msg_delay_us` optionally sleeps at the participant before
//! each fragment *message* (a whole `ExecBatch` counts once) — the live
//! twin of `CostModel::remote_msg_us` — so 2PC costs wall-clock lock-hold
//! time as it would over a network.
//!
//! ## Early prepare (OP4, §2/§4.4)
//!
//! When the advisor declares locked partitions *finished* mid-transaction
//! (`Updates::finished`, which the kernel ignores unless
//! `TxnPlan::early_prepare` holds), the attempt marks them released at the
//! end of the batch and the coordinator releases their slots in the lock
//! manager; touching one again is a mispredict (the kernel's batch check,
//! shared with the simulator, which models the same two release flavours
//! below). Unlike the simulator's engine the base
//! partition is releasable too: live control code runs on the
//! coordinating client, so the base is just another fragment executor. A
//! *read-only* participant is sent an early prepare and simply drops the
//! reservation — nothing to flush, undo, or decide (the classic 2PC
//! read-only optimization); nothing is awaited, and the worker (serving
//! this connection's commands in order) observes it before anything a
//! later lock holder pushes. A participant whose fragment *wrote* is sent
//! nothing: its worker stays in `serve_reservation` on this coordinator's
//! connection, keeps the fragment's undo log, and ends the reservation on
//! the ordinary `VoteFinish` (commit keeps the effects, abort rolls them
//! back). If the coordinator dies first, its connection closes and the
//! worker rolls back. A later lock holder of that partition, and
//! fast-path singles routed to it, wait for the outcome.
//!
//! Deadlock-freedom still holds: a parked participant waits only for the
//! coordinator that released it, and "C' reserves a worker parked for C"
//! implies C' acquired its (atomic, all-or-nothing) lock set *after* C
//! released that slot — so every wait edge points from a later-granted
//! transaction to an earlier-granted one and no cycle can form; blocked
//! single-partition clients hold no locks at all.
//!
//! ## On-line model maintenance (§4.5)
//!
//! Every session teardown (commit, user abort, or mispredict replan) may
//! yield structured [`TxnFeedback`]; clients push it into a *bounded*
//! channel with `try_send` — never blocking the acknowledgement path — and
//! a background **maintenance thread** (spawned by [`LiveRuntime::start`]
//! when the advisor provides a [`LiveMaintainer`]) drains it on its own
//! tick (`MAINTENANCE_TICK`) and is never woken by a client, so a call's
//! `try_send` costs no futex wake and puts no third runnable thread on the
//! host per transaction. It accumulates per-model accuracy and transition
//! deltas, rebuilds only drifted models, and publishes them as new advisor
//! epochs that *fresh* transactions pick up while in-flight ones keep
//! their snapshot (see DESIGN.md §5). Teardown stops it like the
//! snapshotter — flag, unpark, join — and its last pass drains whatever
//! is queued. Dropped records (`RunMetrics::feedback_dropped`) cost
//! signal, not correctness.
//!
//! ## Per-stage time attribution (Fig. 11, live)
//!
//! Every [`Client::call`] attributes its wall time across the paper's
//! Fig. 11 buckets into `RunMetrics::profile`: advisor planning/updates →
//! `Estimation`; fragment/control-code execution → `Execution`; lock
//! acquisition, 2PC, fast-path ring hops, and the sequenced commit
//! flush → `Coordination`,
//! further split into `CoordSub::{LockWait, TwoPc, Flush}` sub-buckets
//! (a fast-path writer's durable wait is `Flush` too); time a fast-path
//! message sat on the worker queue → `Queueing`; the unattributed
//! remainder (session teardown, the glue between timed regions) →
//! `Other`. `Planning`
//! stays a sim-only bucket — the live runtime ships pre-compiled
//! fragments.

mod client;
mod coord;
mod lifecycle;
mod lock;
mod participant;
mod wire;
mod worker;

pub use client::Client;
pub use lifecycle::{run_live, LiveConfig, LiveRuntime};

#[cfg(doc)]
use crate::{LiveAdvisor, LiveMaintainer, TxnFeedback};
use std::time::Duration;
#[cfg(doc)]
use storage::Database;

/// Capacity of each of a connection's two SPSC rings. A blocking
/// [`Client`] keeps at most one fast-path call, or three fragment
/// commands, in the request ring, and has at most one reply outstanding,
/// so a push that finds a ring full is reported as an error, never retried.
const LANE_CAPACITY: usize = 8;

/// Bound of the session-teardown → maintenance-thread feedback channel
/// (§4.5). Clients never block on maintenance: a full channel drops the
/// record (counted in `RunMetrics::feedback_dropped`) and the
/// transaction's acknowledgement proceeds untouched. The maintenance
/// thread drains on its own tick and is never woken by a client, so the
/// channel must hold one tick of peak traffic: about 170 records at the
/// ~170 k calls/s the 1-worker TATP fast path reaches on a 2-core host
/// (`tatp-sp-1w`, median of 5 runs).
/// The rest is headroom for ticks the maintainer spends rebuilding a
/// model.
const FEEDBACK_CAPACITY: usize = 4096;

/// Period of the maintenance thread's drain (§4.5). The thread sleeps in
/// `park_timeout` between passes and only teardown unparks it, so it
/// wakes about once per tick however many records arrive.
const MAINTENANCE_TICK: Duration = Duration::from_millis(1);
