//! Cross-worker commit-flush coalescing: a shared per-log-device flush
//! sequencer.
//!
//! The durable live runtime has one log device per box. A durable commit
//! needs *a* device flush that starts after its log writes — not a flush
//! of its own. [`FlushSequencer`] turns that observation into shared
//! state:
//!
//! * A writer whose log writes are in the device buffer grabs a **ticket**
//!   with [`enqueue`](FlushSequencer::enqueue). The ticket names the next
//!   flush *epoch*: any device flush that starts after the ticket was
//!   issued covers it.
//! * Anyone needing durability waits on the ticket
//!   ([`wait_durable_dev`](FlushSequencer::wait_durable_dev)). A waiter
//!   that finds no flush in flight becomes the **leader** for a fresh
//!   epoch at once: it claims `next_epoch`, performs the device operation
//!   (the `write+fsync` of `wal::FileDevice` in the live runtime) *outside*
//!   the lock, then publishes `durable = epoch` and wakes every waiter. A
//!   ticket issued before the claim is `<= epoch`, so one device flush
//!   retires every waiter that enqueued before it started.
//! * A waiter that arrives while a flush is in flight rides it. If that
//!   flush started before the waiter's ticket was issued, it does not
//!   cover the ticket, and the waiter leads the *next* flush, which covers
//!   every ticket issued while the previous one ran.
//!
//! That is self-clocking group commit: there is no accumulation window to
//! tune. A lone writer pays one device flush and nothing more; under load,
//! the commits that arrive during one flush share the next, so the group
//! is one device flush long and the flush rate never exceeds one per
//! device-flush time. Waiters whose ticket is already durable — or becomes
//! durable while they wait on another leader's flush — never touch the
//! device at all; they are counted in `flushes_coalesced`.
//!
//! Deadlock-freedom: a waiter that finds `flushing == false` becomes the
//! leader itself, so the only blocked state is "a leader is inside the
//! device operation", which ends with `notify_all` — also when the device
//! operation *panics*: the unwinding leader clears `flushing` and wakes
//! everyone without publishing the epoch, and a woken waiter leads its own
//! flush (fail-stop per caller, never a hang). Every wake re-checks
//! `durable >= ticket` under the lock (condvar waits are spurious-wakeup
//! safe by construction).
//!
//! Both entry points run the same private wait loop and leader body. The
//! protocol is model-checked — including two seeded-bug twins — in
//! `crates/common/tests/flush_model.rs`; the `check` build drives this
//! exact code through [`wait_durable_with`](FlushSequencer::wait_durable_with)
//! with a recording device in place of the fsync.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, Mutex, PoisonError};

/// The pluggable device operation behind a flush epoch: whatever makes the
/// log writes issued before the flush started durable. The sequencer calls
/// [`FlushDevice::flush`] exactly once per led epoch, outside its lock, so
/// implementations may block (an `fwrite+fsync` pass).
pub trait FlushDevice: Send + Sync {
    /// Performs one device flush for `epoch`. On return, every log write
    /// made before this flush started must be durable.
    fn flush(&self, epoch: u64);
}

/// Shared flush state, all under one mutex (held only for bookkeeping —
/// the leader drops it for the device operation itself).
#[derive(Debug)]
struct State {
    /// The epoch the next leader will claim. Doubles as the ticket
    /// counter: `enqueue` returns it un-bumped, so a ticket equals the
    /// epoch of the first flush that starts after it.
    next_epoch: u64,
    /// Highest epoch whose device flush has completed.
    durable: u64,
    /// A leader is currently inside the device operation.
    flushing: bool,
    /// Flush demands served (flusher-thread groups + coordinator waits).
    total: u64,
    /// Demands satisfied without a dedicated device operation of their
    /// own (rode another leader's flush, or found the ticket durable).
    coalesced: u64,
}

/// Epoch/ticket-based flush coalescer for one log device. See the module
/// docs for the protocol.
pub struct FlushSequencer {
    state: Mutex<State>,
    cv: Condvar,
    /// Lock-free monotonic mirror of `State::durable` so workers can ask
    /// "is this ticket durable yet?" without taking the mutex (see
    /// [`FlushSequencer::durable_epoch`]).
    durable_lo: AtomicU64,
}

impl Default for FlushSequencer {
    fn default() -> Self {
        Self::new()
    }
}

/// A leader inside its device operation. Dropping it ends the epoch —
/// clear `flushing`, publish the epoch iff the device operation `landed`,
/// wake every waiter — so an unwinding device operation releases the
/// sequencer exactly like a returning one, minus the publication.
struct Leading<'a> {
    seq: &'a FlushSequencer,
    epoch: u64,
    landed: bool,
}

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        // Never poisoned in practice (nothing panics under this lock), and
        // a panic here could land on top of the device's own unwind.
        let mut s = self.seq.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.flushing = false;
        if self.landed && s.durable < self.epoch {
            s.durable = self.epoch;
            // ordering: Relaxed — monotonic mirror of `durable` for the
            // lock-free `durable_epoch` peek. A reader that sees a stale
            // (lower) value merely treats a durable ticket as still
            // pending and takes the conservative path; it can never see
            // a value ahead of a completed device flush, because this
            // store only happens after `device(epoch)` returned.
            self.seq.durable_lo.store(self.epoch, Ordering::Relaxed);
        }
        self.seq.cv.notify_all();
    }
}

impl FlushSequencer {
    pub fn new() -> Self {
        FlushSequencer {
            state: Mutex::new(State {
                next_epoch: 1,
                durable: 0,
                flushing: false,
                total: 0,
                coalesced: 0,
            }),
            cv: Condvar::new(),
            durable_lo: AtomicU64::new(0),
        }
    }

    /// Grab a ticket covering every log write made before this call. The
    /// ticket is durable once a device flush that started after it
    /// completes; pass it to [`wait_durable_dev`](Self::wait_durable_dev).
    pub fn enqueue(&self) -> u64 {
        self.state.lock().unwrap().next_epoch
    }

    /// Blocks until `ticket` is durable, leading one real device flush if
    /// none is in flight (or if the one in flight started before the
    /// ticket). Returns `true` iff this caller led the device flush.
    pub fn wait_durable_dev(&self, ticket: u64, device: &dyn FlushDevice) -> bool {
        self.wait(ticket, |epoch| device.flush(epoch))
    }

    /// [`wait_durable_dev`](Self::wait_durable_dev) with the device
    /// operation as a closure (it receives the epoch being flushed): the
    /// model tests and probes drive the production protocol through this
    /// with a recording closure in place of the fsync. Returns `true` iff
    /// this caller ran the device operation itself (it led a flush).
    pub fn wait_durable_with(&self, ticket: u64, device: impl FnMut(u64)) -> bool {
        self.wait(ticket, device)
    }

    /// The one wait loop behind both entry points: ride a flush in flight,
    /// lead as soon as none is.
    fn wait(&self, ticket: u64, device: impl FnOnce(u64)) -> bool {
        let mut s = self.state.lock().unwrap();
        s.total += 1;
        loop {
            if s.durable >= ticket {
                s.coalesced += 1;
                return false;
            }
            if s.flushing {
                // A leader is inside the device op; it will notify_all.
                s = self.cv.wait(s).unwrap();
                continue;
            }
            // Become the leader for a fresh epoch. Tickets only ever hold
            // past values of next_epoch, so epoch >= ticket and one pass
            // suffices.
            let epoch = s.next_epoch;
            s.next_epoch += 1;
            s.flushing = true;
            drop(s);
            let mut leading = Leading { seq: self, epoch, landed: false };
            device(epoch);
            leading.landed = true;
            return true;
        }
    }

    /// Lock-free peek at the highest epoch whose device flush has
    /// completed: a ticket `t` is durable iff `durable_epoch() >= t`. The
    /// value may lag the truth (never lead it), so callers using it to
    /// *skip* a wait are safe and callers seeing "not yet durable" must
    /// fall back to a real [`wait_durable_dev`](Self::wait_durable_dev).
    pub fn durable_epoch(&self) -> u64 {
        // ordering: Relaxed — monotonic, write-once-per-epoch mirror; see
        // the store in `Leading::drop` for the staleness argument.
        self.durable_lo.load(Ordering::Relaxed)
    }

    /// `(flushes_total, flushes_coalesced)` snapshot.
    pub fn counters(&self) -> (u64, u64) {
        let s = self.state.lock().unwrap();
        (s.total, s.coalesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A recording device: proves `wait_durable_dev` drives the exact
    /// protocol `wait_durable_with` does (same epochs, same counters).
    struct Recorder(StdAtomicU64);

    impl FlushDevice for Recorder {
        fn flush(&self, epoch: u64) {
            self.0.store(epoch, StdOrdering::SeqCst);
        }
    }

    #[test]
    fn device_waits_lead_and_coalesce_like_the_closure_path() {
        let seq = FlushSequencer::new();
        let dev = Recorder(StdAtomicU64::new(0));
        let t = seq.enqueue();
        assert!(seq.wait_durable_dev(t, &dev), "sole waiter must lead");
        assert_eq!(dev.0.load(StdOrdering::SeqCst), t, "device saw the claimed epoch");
        assert!(!seq.wait_durable_dev(t, &dev), "durable ticket coalesces");
        assert_eq!(seq.counters(), (2, 1));
    }

    #[test]
    fn durable_epoch_mirror_tracks_completed_flushes() {
        let seq = FlushSequencer::new();
        assert_eq!(seq.durable_epoch(), 0);
        let t = seq.enqueue();
        seq.wait_durable_with(t, |_| {});
        assert!(seq.durable_epoch() >= t);
        let t2 = seq.enqueue();
        assert!(seq.durable_epoch() < t2, "a fresh ticket is not durable yet");
    }

    #[test]
    fn single_thread_flush_leads_and_advances_durability() {
        let seq = FlushSequencer::new();
        let t = seq.enqueue();
        assert_eq!(t, 1);
        let led = seq.wait_durable_with(t, |_| {});
        assert!(led, "sole waiter must lead its own flush");
        // The same ticket is now durable: a second wait coalesces.
        assert!(!seq.wait_durable_with(t, |_| panic!("no device op needed")));
        assert_eq!(seq.counters(), (2, 1));
    }

    #[test]
    fn tickets_issued_after_a_claim_need_a_fresh_flush() {
        let seq = FlushSequencer::new();
        let t1 = seq.enqueue();
        assert!(seq.wait_durable_with(t1, |_| {}));
        let t2 = seq.enqueue();
        assert!(t2 > t1);
        assert!(seq.wait_durable_with(t2, |_| {}), "new ticket demands a new flush");
    }

    #[test]
    fn concurrent_waiters_coalesce_into_few_device_ops() {
        let seq = Arc::new(FlushSequencer::new());
        let device_ops = Arc::new(StdAtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (seq, ops) = (seq.clone(), device_ops.clone());
                std::thread::spawn(move || {
                    let t = seq.enqueue();
                    seq.wait_durable_with(t, |_| {
                        ops.fetch_add(1, StdOrdering::Relaxed);
                        std::thread::sleep(Duration::from_millis(2));
                    });
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let ops = device_ops.load(StdOrdering::Relaxed);
        assert!((1..=8).contains(&ops));
        let (total, coalesced) = seq.counters();
        assert_eq!(total, 8);
        assert_eq!(coalesced, 8 - ops, "every non-leader wait coalesced");
    }

    #[test]
    fn panicking_device_op_releases_later_waiters() {
        let seq = Arc::new(FlushSequencer::new());
        let ticket = seq.enqueue();
        let s1 = seq.clone();
        let leader = std::thread::spawn(move || {
            s1.wait_durable_with(ticket, |_| {
                // Hold the device until the second waiter has registered
                // its demand: `total` is bumped under the state lock, which
                // that waiter only gives up by sleeping on the condvar — so
                // reading 2 here means it is parked behind this flush.
                while s1.counters().0 < 2 {
                    std::thread::yield_now();
                }
                panic!("injected device failure");
            })
        });
        let s2 = seq.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            while s2.counters().0 < 1 {
                std::thread::yield_now();
            }
            let led = s2.wait_durable_with(ticket, |_| {
                assert_eq!(s2.durable_epoch(), 0, "the panicked epoch must stay unpublished");
            });
            let _ = done_tx.send(led);
        });
        let led = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a waiter parked behind a panicked leader must be woken");
        assert!(led, "the woken waiter leads its own device op");
        waiter.join().expect("second waiter");
        assert!(leader.join().is_err(), "the device panic propagates to its caller");
        assert_eq!(seq.durable_epoch(), 2, "only the second epoch landed");
        assert_eq!(seq.counters(), (2, 0));
    }
}
