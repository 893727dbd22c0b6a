//! Model-checked flush-sequencer protocol of [`common::flush`] (see the
//! module docs there for the leader/epoch protocol this file exhausts).
//!
//! Two layers, mirroring `ring_model.rs`:
//!
//! * **Compact reimplementation** (always compiled): the sequencer with
//!   the *device* as a model atomic so the checker can observe a flush
//!   that was claimed durable before the device write landed — the real
//!   sequencer's device op is an fsync the model cannot see — plus seeded
//!   twins: publishing `durable` before the device operation (lost
//!   flush, caught as a panic) and a leader that skips `notify_all`
//!   (stranded waiter, caught as a deadlock).
//! * **The real `common::flush`** (under `--features check`): the facade
//!   resolves to `checkers::sync`, so the models drive the production
//!   `FlushSequencer` itself through `wait_durable_with`: two eager
//!   waiters plus a third that takes its ticket while the first flush is
//!   inside the device — it must ride that flush and then lead (or ride)
//!   the next one — with a recording device in place of the fsync. No
//!   lost flush and no overlapping (double) device operations.
//!
//! Properties checked:
//! * **No lost flush** — a waiter returns only after a device operation
//!   that covers its ticket has completed.
//! * **No double flush** — device operations never overlap (one leader
//!   per epoch; the `in_device` counter must never exceed 1).
//! * **FIFO ack order after a shared flush** — `durable` is a watermark:
//!   when a waiter with ticket `t` is released, every ticket `<= t` is
//!   durable too, so acks release in ticket order, never leapfrogging.

use checkers::sync::atomic::{AtomicU64, Ordering};
use checkers::sync::{Arc, Condvar, Mutex};
use checkers::{explore, FailureKind, Options, Report};

fn opts() -> Options {
    Options::default()
}

fn assert_pass(report: &Report, what: &str) {
    assert!(report.passed(), "{what} must verify: {report}");
    eprintln!("[model::{what}] {report}");
}

// ===========================================================================
// 1. Reimplemented sequencer with a model-atomic device. Mirrors
//    common::flush line for line; the `publish_early` and `notify`
//    parameters seed the two bugs the protocol comments warn about.
// ===========================================================================

/// Bookkeeping under the mutex, as in the real `State` (counters elided —
/// they are plain arithmetic the unit tests already pin).
struct St {
    next_epoch: u64,
    durable: u64,
    flushing: bool,
}

/// The sequencer with its *device* visible to the checker: `device` is
/// the highest epoch actually written to stable storage, `in_device`
/// counts threads inside the device operation (must never exceed 1).
struct SeqModel {
    m: Mutex<St>,
    cv: Condvar,
    device: AtomicU64,
    in_device: AtomicU64,
}

impl SeqModel {
    fn new() -> Self {
        SeqModel {
            m: Mutex::new(St { next_epoch: 1, durable: 0, flushing: false }),
            cv: Condvar::new(),
            device: AtomicU64::new(0),
            in_device: AtomicU64::new(0),
        }
    }

    /// `FlushSequencer::enqueue`.
    fn enqueue(&self) -> u64 {
        self.m.lock().unwrap().next_epoch
    }

    /// `FlushSequencer::wait_durable_with`. `publish_early = true` seeds
    /// the lost-flush bug (durability claimed before the device write
    /// lands); `notify = false` seeds the stranded-waiter bug.
    fn wait(&self, ticket: u64, publish_early: bool, notify: bool) {
        let mut s = self.m.lock().unwrap();
        loop {
            if s.durable >= ticket {
                return;
            }
            if s.flushing {
                s = self.cv.wait(s).unwrap();
                continue;
            }
            let epoch = s.next_epoch;
            s.next_epoch += 1;
            s.flushing = true;
            if publish_early {
                // BUG twin: waiters may now release before the device
                // write below has happened.
                s.durable = epoch;
            }
            drop(s);
            let was = self.in_device.fetch_add(1, Ordering::AcqRel);
            assert_eq!(was, 0, "double flush: overlapping device operations");
            // Publication to post-wait readers rides the mutex, as the
            // real device's side effects would.
            self.device.store(epoch, Ordering::Relaxed);
            self.in_device.store(0, Ordering::Release);
            s = self.m.lock().unwrap();
            s.flushing = false;
            if !publish_early && s.durable < epoch {
                s.durable = epoch;
            }
            if notify {
                self.cv.notify_all();
            }
            return;
        }
    }
}

/// Each of `writers` threads grabs a ticket and waits for durability,
/// then asserts its ticket's flush actually reached the device — the
/// no-lost-flush / watermark property (a watermark device count `>=
/// ticket` also implies every earlier ticket is durable, i.e. FIFO ack
/// order after a shared flush).
fn seq_scenario(writers: u64, publish_early: bool, notify: bool) -> impl Fn(&mut checkers::Model) {
    move |model| {
        let seq = Arc::new(SeqModel::new());
        for _ in 0..writers {
            let s = seq.clone();
            model.thread(move || {
                let ticket = s.enqueue();
                s.wait(ticket, publish_early, notify);
                let dev = s.device.load(Ordering::Relaxed);
                assert!(dev >= ticket, "lost flush: device at {dev} < ticket {ticket}");
            });
        }
    }
}

#[test]
fn model_sequencer_coalesces_without_losing_flushes() {
    let r = explore(opts(), seq_scenario(2, false, true));
    assert_pass(&r, "seq_no_lost_flush");
}

#[test]
fn seeded_early_durable_publication_loses_a_flush() {
    // With durable published before the device write, a second waiter can
    // observe its ticket "durable", return, and find the device behind —
    // a commit reported durable that a crash would lose.
    let r = explore(opts(), seq_scenario(2, true, true));
    let f = r.failure().expect("early durability publication must lose a flush");
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("lost flush"), "message: {}", f.message);
    eprintln!("[model::seeded_early_durable] {r}");
}

#[test]
fn seeded_skipped_notify_strands_a_waiter() {
    // A leader that completes its flush without notify_all leaves any
    // waiter blocked on the condvar with nobody left to wake it — the
    // checker reports the stuck schedule as a deadlock.
    let r = explore(opts(), seq_scenario(2, false, false));
    let f = r.failure().expect("skipping notify_all must strand a waiter");
    assert_eq!(f.kind, FailureKind::Deadlock);
    eprintln!("[model::seeded_skipped_notify] {r}");
}

// ===========================================================================
// 2. The real common::flush, driven through the facade (check feature).
// ===========================================================================

#[cfg(feature = "check")]
mod real_seq {
    use super::{assert_pass, opts};
    use checkers::explore;
    use checkers::sync::atomic::{AtomicU64, Ordering};
    use checkers::sync::{Arc, Condvar, Mutex};
    use common::flush::{FlushDevice, FlushSequencer};

    /// Where the late waiter is: 0 = no flush has started yet, 1 = the
    /// first flush is inside the device, 2 = the late waiter holds its
    /// ticket (so the first flush may finish).
    struct Handshake {
        stage: Mutex<u8>,
        cv: Condvar,
    }

    /// The device as the checker sees it: the highest epoch written, and
    /// how many threads are inside the operation (must never exceed 1).
    /// The first flush holds the device until the late waiter has taken
    /// its ticket, so that ticket is always issued mid-flush.
    struct Recording {
        device: AtomicU64,
        in_device: AtomicU64,
        late: Handshake,
    }

    impl FlushDevice for Recording {
        fn flush(&self, epoch: u64) {
            let was = self.in_device.fetch_add(1, Ordering::AcqRel);
            assert_eq!(was, 0, "double flush: overlapping device ops");
            let mut stage = self.late.stage.lock().unwrap();
            if *stage == 0 {
                *stage = 1;
                self.late.cv.notify_all();
                while *stage != 2 {
                    stage = self.late.cv.wait(stage).unwrap();
                }
            }
            drop(stage);
            self.device.store(epoch, Ordering::Relaxed);
            self.in_device.store(0, Ordering::Release);
        }
    }

    impl Recording {
        /// No lost flush, and (watermark) FIFO ack order.
        fn assert_covers(&self, ticket: u64) {
            let dev = self.device.load(Ordering::Relaxed);
            assert!(dev >= ticket, "lost flush: device {dev} < ticket {ticket}");
        }
    }

    /// Two eager waiters, plus a third that arrives while the first flush
    /// is in flight. Its ticket names the epoch after the one being
    /// flushed, so that flush cannot cover it: the late waiter rides it,
    /// then leads the next flush (or rides it, if another waiter led it
    /// first) — the self-clocking group commit, with no window anywhere.
    fn scenario() -> impl Fn(&mut checkers::Model) {
        move |model| {
            let seq = Arc::new(FlushSequencer::new());
            let dev = Arc::new(Recording {
                device: AtomicU64::new(0),
                in_device: AtomicU64::new(0),
                late: Handshake { stage: Mutex::new(0), cv: Condvar::new() },
            });
            for _ in 0..2 {
                let (s, d) = (seq.clone(), dev.clone());
                model.thread(move || {
                    let ticket = s.enqueue();
                    s.wait_durable_with(ticket, |epoch| d.flush(epoch));
                    d.assert_covers(ticket);
                });
            }
            model.thread(move || {
                let mut stage = dev.late.stage.lock().unwrap();
                while *stage != 1 {
                    stage = dev.late.cv.wait(stage).unwrap();
                }
                let ticket = seq.enqueue();
                assert!(ticket > seq.durable_epoch(), "a mid-flush ticket is not durable yet");
                *stage = 2;
                dev.late.cv.notify_all();
                drop(stage);
                seq.wait_durable_with(ticket, |epoch| dev.flush(epoch));
                dev.assert_covers(ticket);
            });
        }
    }

    #[test]
    fn real_sequencer_never_loses_or_doubles_a_flush() {
        let r = explore(opts(), scenario());
        assert_pass(&r, "real_seq_late_waiter");
    }
}
