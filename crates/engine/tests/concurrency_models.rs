//! Model-checked protocols of the live runtime (see DESIGN.md §"Concurrency
//! model & checking").
//!
//! Each protocol here is a *compact reimplementation* of the corresponding
//! `engine::runtime` mechanism over `checkers::sync`, small enough for the
//! checker to exhaust its interleavings at the stated bounds, faithful
//! enough that the line-level logic matches the production code
//! (`LockManager::acquire`/`release`). Every model has a seeded-bug twin
//! proving the checker actually catches the failure mode the real code's
//! design prevents. The runtime's reply path (a client waiting on its
//! connection while the worker answers or goes away) is checked on the
//! real `common::ring` in `crates/common/tests/ring_model.rs`.

use checkers::sync::atomic::{AtomicU64, Ordering};
use checkers::sync::{Arc, Condvar, Mutex};
use checkers::{explore, FailureKind, Options, Report};
use std::collections::VecDeque;

fn opts() -> Options {
    Options::default()
}

fn assert_pass(report: &Report, what: &str) {
    assert!(report.passed(), "{what} must verify: {report}");
    eprintln!("[model::{what}] {report}");
}

// ===========================================================================
// 1. Sharded lock manager: ticket FIFO + ascending-partition claim order
//    (mirrors LockManager::acquire/release in engine/src/runtime/lock.rs)
// ===========================================================================

struct ShardQueue {
    busy: bool,
    waiters: VecDeque<u64>,
    /// Model-only audit: tickets in enqueue order. FIFO-fairness means the
    /// grant log below replays this exactly (a ticket can't be overtaken by
    /// one that arrived at the shard after it — note arrival order, not
    /// global ticket order: a multi-partition claim may reach a shard after
    /// a younger ticket that started there).
    arrived: Vec<u64>,
    /// Tickets in grant order.
    granted: Vec<u64>,
}

struct LockModel {
    next_ticket: AtomicU64,
    shards: Vec<(Mutex<ShardQueue>, Condvar)>,
}

impl LockModel {
    fn new(partitions: usize) -> Self {
        LockModel {
            next_ticket: AtomicU64::new(0),
            shards: (0..partitions)
                .map(|_| {
                    (
                        Mutex::new(ShardQueue {
                            busy: false,
                            waiters: VecDeque::new(),
                            arrived: Vec::new(),
                            granted: Vec::new(),
                        }),
                        Condvar::new(),
                    )
                })
                .collect(),
        }
    }

    /// `LockManager::acquire`, line for line: Relaxed global ticket, then
    /// each partition in ascending order; FIFO by ticket under the shard
    /// mutex. `descending` / `skip_fifo` / `notify_one` seed the bugs the
    /// real design excludes.
    fn acquire(&self, set: &[usize], descending: bool, skip_fifo: bool) -> u64 {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let order: Vec<usize> =
            if descending { set.iter().rev().copied().collect() } else { set.to_vec() };
        for &p in &order {
            let (m, cv) = &self.shards[p];
            let mut st = m.lock().unwrap();
            st.waiters.push_back(ticket);
            st.arrived.push(ticket);
            if skip_fifo {
                // Seeded bug: wait only for the slot, not for FIFO turn.
                while st.busy {
                    st = cv.wait(st).unwrap();
                }
                let pos = st.waiters.iter().position(|&t| t == ticket).unwrap();
                st.waiters.remove(pos);
            } else {
                while st.busy || st.waiters.front() != Some(&ticket) {
                    st = cv.wait(st).unwrap();
                }
                st.waiters.pop_front();
            }
            st.busy = true;
            st.granted.push(ticket);
        }
        ticket
    }

    /// `LockManager::release`: free each slot, notify_all (or the seeded
    /// notify_one, which can land on a non-front waiter and strand the
    /// front).
    fn release(&self, set: &[usize], notify_one: bool) {
        for &p in set {
            let (m, cv) = &self.shards[p];
            let mut st = m.lock().unwrap();
            assert!(st.busy, "released a partition nobody holds");
            st.busy = false;
            let wake = !st.waiters.is_empty();
            drop(st);
            if wake {
                if notify_one {
                    cv.notify_one();
                } else {
                    cv.notify_all();
                }
            }
        }
    }
}

/// Three transactions over two partitions, lock sets {0,1} / {0} / {1}:
/// deadlock-freedom and per-partition FIFO-by-ticket must hold on every
/// interleaving.
fn lock_manager_scenario(
    sets: &'static [&'static [usize]],
    partitions: usize,
    descending_in_last: bool,
    skip_fifo: bool,
    notify_one: bool,
) -> impl Fn(&mut checkers::Model) {
    move |model| {
        let lm = Arc::new(LockModel::new(partitions));
        for (i, set) in sets.iter().enumerate() {
            let lm = lm.clone();
            let descending = descending_in_last && i == sets.len() - 1;
            model.thread(move || {
                let _ticket = lm.acquire(set, descending, skip_fifo);
                // Hold the set across one schedule point so conflicting
                // claims really overlap, as they do during execution.
                checkers::yield_now();
                lm.release(set, notify_one);
            });
        }
        let lm2 = lm.clone();
        model.after(move || {
            for (p, (m, _)) in lm2.shards.iter().enumerate() {
                let st = m.lock().unwrap();
                assert!(!st.busy, "partition {p} still held at quiescence");
                assert!(st.waiters.is_empty(), "stranded waiters at partition {p}");
                // FIFO-fairness: each partition serves its waiters in the
                // order they joined its queue.
                assert_eq!(st.granted, st.arrived, "partition {p} granted out of arrival order");
            }
        });
    }
}

const SETS_2P: &[&[usize]] = &[&[0, 1], &[0], &[1]];
const SETS_3P: &[&[usize]] = &[&[0, 1], &[1, 2], &[0, 2]];
/// Three transactions fighting over one partition: the only configuration
/// in which two waiters queue *simultaneously*, which is what the FIFO turn
/// check and the `notify_all` wakeup exist for.
const SETS_1P: &[&[usize]] = &[&[0], &[0], &[0]];

#[test]
fn lock_manager_fifo_and_deadlock_free_2p() {
    let r = explore(opts(), lock_manager_scenario(SETS_2P, 2, false, false, false));
    assert_pass(&r, "lock_manager_2p_x3");
}

#[test]
fn lock_manager_fifo_and_deadlock_free_3p_overlapping() {
    let r = explore(opts(), lock_manager_scenario(SETS_3P, 3, false, false, false));
    assert_pass(&r, "lock_manager_3p_x3");
}

#[test]
fn seeded_descending_claim_order_deadlocks() {
    // One transaction claiming {0,2} as 2-then-0 against {0,1} and {1,2}
    // ascending recreates the wait cycle the ascending rule excludes.
    let r = explore(opts(), lock_manager_scenario(SETS_3P, 3, true, false, false));
    let f = r.failure().expect("descending claim order must deadlock");
    assert_eq!(f.kind, FailureKind::Deadlock);
    eprintln!("[model::seeded_descending_deadlock] {r}");
}

#[test]
fn lock_manager_single_partition_contention_is_fifo() {
    let r = explore(opts(), lock_manager_scenario(SETS_1P, 1, false, false, false));
    assert_pass(&r, "lock_manager_1p_x3");
}

#[test]
fn seeded_fifo_skip_breaks_ticket_order() {
    // Waiting only for the slot (not the FIFO turn) lets whichever waiter
    // the wakeup reaches first overtake the queue front.
    let r = explore(opts(), lock_manager_scenario(SETS_1P, 1, false, true, false));
    let f = r.failure().expect("skipping the FIFO turn check must break arrival order");
    assert!(
        f.message.contains("granted out of arrival order") || f.kind == FailureKind::Deadlock,
        "unexpected failure: {} ({:?})",
        f.message,
        f.kind
    );
    eprintln!("[model::seeded_fifo_skip] {r}");
}

#[test]
fn seeded_notify_one_strands_the_front_waiter() {
    // notify_one can wake a non-front waiter, which re-checks its FIFO turn
    // and goes back to sleep with nobody left to wake the front: the exact
    // lost wakeup the notify_all comment in LockManager::release cites.
    let r = explore(opts(), lock_manager_scenario(SETS_1P, 1, false, false, true));
    let f = r.failure().expect("notify_one must strand a waiter");
    assert_eq!(f.kind, FailureKind::Deadlock);
    eprintln!("[model::seeded_notify_one] {r}");
}

// ===========================================================================
// Replay: a failing schedule recorded from one seeded model reproduces
// identically when fed back (the engine-side twin of the checker selftest).
// ===========================================================================

#[test]
fn seeded_deadlock_replays_deterministically() {
    let r = explore(opts(), lock_manager_scenario(SETS_3P, 3, true, false, false));
    let f = r.failure().expect("seeded deadlock");
    let replayed = checkers::replay(
        opts(),
        lock_manager_scenario(SETS_3P, 3, true, false, false),
        &f.trace.picks,
    );
    let rf = replayed.failure().expect("replay must reproduce the deadlock");
    assert_eq!(rf.kind, f.kind);
    assert_eq!(rf.message, f.message);
    assert_eq!(rf.trace.steps, f.trace.steps);
}
