//! The partition-lock manager (see the module map in [`super`]).

use common::sync::atomic::{AtomicU64, Ordering};
use common::sync::{Condvar, Mutex};
use common::{PartitionId, PartitionSet};
use std::collections::VecDeque;

/// Grants distributed transactions their whole lock set, sharded by
/// partition.
///
/// One FIFO ticket queue and condvar per partition: transactions on
/// disjoint shards never touch the same mutex (the previous design
/// serialized every grant, release, and wakeup of the whole cluster on one
/// global mutex — a scalability ceiling exactly where distributed traffic
/// is hottest). A transaction claims its partitions one at a time in
/// ascending partition order, waiting FIFO at each; the globally
/// consistent claim order means no cycle of lock waits can form (the
/// classic ordered-resource argument — it replaces the old design's
/// all-or-nothing-under-one-mutex argument). Single-partition
/// transactions never touch this structure: their ordering is the owning
/// worker's queue itself.
///
/// Fairness: per-partition FIFO by global ticket, which preserves the old
/// manager's FIFO-among-conflicting behaviour and additionally keeps a
/// lock-all transaction from being starved by a stream of small disjoint
/// ones (it holds its low partitions while queueing at the contended one).
pub(super) struct LockManager {
    next_ticket: AtomicU64,
    shards: Vec<LockShard>,
}

struct LockShard {
    state: Mutex<ShardQueue>,
    cv: Condvar,
}

#[derive(Default)]
struct ShardQueue {
    /// Whether some transaction currently holds this partition's slot.
    busy: bool,
    /// Tickets waiting for this partition, FIFO.
    waiters: VecDeque<u64>,
}

impl LockManager {
    pub(super) fn new(num_partitions: u32) -> Self {
        LockManager {
            next_ticket: AtomicU64::new(0),
            shards: (0..num_partitions.max(1))
                .map(|_| LockShard { state: Mutex::new(ShardQueue::default()), cv: Condvar::new() })
                .collect(),
        }
    }

    fn acquire(&self, set: PartitionSet) {
        // ordering: Relaxed — the ticket only needs global uniqueness and
        // atomicity of the counter itself; FIFO ordering per shard comes
        // from the shard mutex (the ticket is enqueued and compared only
        // under it), so no cross-thread publication rides on this RMW.
        // Verified by the ticket-FIFO model in tests/concurrency_models.rs.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        for p in set.iter() {
            let shard = &self.shards[p as usize];
            let mut st = shard.state.lock().expect("lock shard poisoned");
            st.waiters.push_back(ticket);
            while st.busy || st.waiters.front() != Some(&ticket) {
                st = shard.cv.wait(st).expect("lock shard poisoned");
            }
            st.waiters.pop_front();
            st.busy = true;
        }
    }

    fn release(&self, set: PartitionSet) {
        for p in set.iter() {
            let shard = &self.shards[p as usize];
            let mut st = shard.state.lock().expect("lock shard poisoned");
            debug_assert!(st.busy, "released a partition nobody holds");
            st.busy = false;
            let wake = !st.waiters.is_empty();
            drop(st);
            if wake {
                // Distinct tickets share the shard's condvar and only the
                // front one may proceed, so notify_all — a notify_one could
                // land on a non-front waiter and strand the front.
                shard.cv.notify_all();
            }
        }
    }

    /// Acquires `set` and returns a guard that releases it on drop — so a
    /// coordinator that unwinds mid-transaction cannot strand its lock set
    /// and wedge every later conflicting transaction.
    pub(super) fn guard(&self, set: PartitionSet) -> LockGuard<'_> {
        self.acquire(set);
        LockGuard { mgr: self, set }
    }
}

pub(super) struct LockGuard<'a> {
    mgr: &'a LockManager,
    set: PartitionSet,
}

impl LockGuard<'_> {
    /// Releases one partition's slot ahead of the rest (OP4 early prepare);
    /// the drop release then covers only the remaining set.
    pub(super) fn release_early(&mut self, p: PartitionId) {
        if self.set.contains(p) {
            self.set.remove(p);
            self.mgr.release(PartitionSet::single(p));
        }
    }

    /// The partitions still held.
    pub(super) fn held(&self) -> PartitionSet {
        self.set
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.mgr.release(self.set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn lock_guard_release_early_frees_the_slot() {
        let mgr = LockManager::new(2);
        let mut guard = mgr.guard(PartitionSet::from_iter([0u32, 1]));
        guard.release_early(0);
        // Partition 0 is grantable again while 1 stays held.
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                mgr.acquire(PartitionSet::single(0));
                mgr.release(PartitionSet::single(0));
            });
            h.join().expect("early-released slot must be grantable");
        });
        let held = guard.set;
        assert_eq!(held, PartitionSet::single(1));
    }

    #[test]
    fn disjoint_lock_sets_do_not_serialize() {
        let mgr = LockManager::new(4);
        mgr.acquire(PartitionSet::from_iter([0u32, 1]));
        // A disjoint set is grantable while {0,1} is held — the sharded
        // manager must not serialize them on one mutex.
        std::thread::scope(|s| {
            s.spawn(|| {
                mgr.acquire(PartitionSet::from_iter([2u32, 3]));
                mgr.release(PartitionSet::from_iter([2u32, 3]));
            })
            .join()
            .expect("disjoint shards must not serialize");
        });
        // An overlapping set still excludes until the holder releases.
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            let mgr = &mgr;
            s.spawn(move || {
                mgr.acquire(PartitionSet::from_iter([1u32, 2]));
                tx.send(()).unwrap();
                mgr.release(PartitionSet::from_iter([1u32, 2]));
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "overlapping set acquired while partition 1 was held"
            );
            mgr.release(PartitionSet::from_iter([0u32, 1]));
            rx.recv_timeout(Duration::from_secs(30)).expect("blocked acquirer must wake");
        });
    }
}
