//! Model-checked SPSC ring + doorbell protocols of [`common::ring`] (see
//! the module docs there for the park protocol this file exhausts).
//!
//! Two layers:
//!
//! * **Compact reimplementations** (always compiled): the ring with its
//!   slots as *model atomics* so the checker can observe a mispublished
//!   slot — the real ring's slots are plain memory the model cannot see —
//!   plus seeded twins: a `Relaxed` tail publication (stale slot read,
//!   caught as a panic) and a doorbell consumer that skips the mandatory
//!   second sweep (lost wakeup, caught as a deadlock).
//! * **The real `common::ring`** (under `--features check`): the facade
//!   resolves to `checkers::sync`, so these models drive the production
//!   `spsc`/`Doorbell` code itself, consumers waiting through
//!   `Doorbell::wait` (its spin collapses to one probe under the feature)
//!   — in-order delivery, the producer-drop handshake (`is_closed` must
//!   not report closed-and-empty while a final element is in flight), and
//!   the engine runtime's reply path: a client waits for the reply to its
//!   call while the worker either answers or drops its end of the
//!   connection and rings — plus seeded twins of `wait` that skip the
//!   second look, and of a worker that drops its end without ringing
//!   (both lost wakeups, caught as deadlocks).

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
// 1. Reimplemented ring with model-atomic slots, + the doorbell word.
//    Mirrors common::ring line for line; the `release_tail` and `resweep`
//    parameters seed the two bugs the protocol comments warn about.
// ===========================================================================

/// Capacity-2 SPSC ring. Slots are model atomics (data stored `Relaxed`)
/// so publication rides entirely on the tail store's ordering — exactly
/// the role the real ring's non-atomic slot writes play.
struct RingModel {
    head: AtomicU64,
    tail: AtomicU64,
    slots: [AtomicU64; 2],
}

impl RingModel {
    fn new() -> Self {
        RingModel {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// `Producer::push`. `release_tail = false` seeds the bug: the slot
    /// write is then allowed to surface after the tail that publishes it.
    fn push(&self, v: u64, release_tail: bool) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > 1 {
            return false;
        }
        // Data rides the tail store's Release edge, like the real ring's
        // plain-memory slot write.
        self.slots[(tail & 1) as usize].store(v, Ordering::Relaxed);
        let ord = if release_tail { Ordering::Release } else { Ordering::Relaxed };
        self.tail.store(tail.wrapping_add(1), ord);
        true
    }

    /// `Consumer::pop`.
    fn pop(&self) -> Option<u64> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let v = self.slots[(head & 1) as usize].load(Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == self.tail.load(Ordering::Acquire)
    }
}

/// `common::ring::Doorbell`: bit 0 = parked, upper bits = ring count.
struct BellModel {
    word: AtomicU64,
    m: Mutex<()>,
    cv: Condvar,
}

impl BellModel {
    fn new() -> Self {
        BellModel { word: AtomicU64::new(0), m: Mutex::new(()), cv: Condvar::new() }
    }

    fn ring(&self) {
        let prev = self.word.fetch_add(2, Ordering::AcqRel);
        if prev & 1 == 1 {
            drop(self.m.lock().unwrap());
            self.cv.notify_all();
        }
    }

    fn prepare_park(&self) -> u64 {
        self.word.fetch_add(1, Ordering::AcqRel).wrapping_add(1)
    }

    fn cancel_park(&self) {
        self.word.fetch_add(1, Ordering::AcqRel);
    }

    fn park(&self, token: u64) {
        let mut g = self.m.lock().unwrap();
        while self.word.load(Ordering::Acquire) == token {
            g = self.cv.wait(g).unwrap();
        }
        drop(g);
        self.cancel_park();
    }
}

/// Producer pushes `1..=n` (ringing after each publish); consumer drains
/// under the park protocol. `resweep = false` seeds the lost-wakeup bug:
/// parking without re-checking after `prepare_park` misses an element whose
/// ring landed before the parked bit went up.
fn ring_scenario(n: u64, release_tail: bool, resweep: bool) -> impl Fn(&mut checkers::Model) {
    move |model| {
        let ring = Arc::new(RingModel::new());
        let bell = Arc::new(BellModel::new());
        let (r_p, b_p) = (ring.clone(), bell.clone());
        model.thread(move || {
            let mut v = 1;
            while v <= n {
                if r_p.push(v, release_tail) {
                    b_p.ring();
                    v += 1;
                } else {
                    // Ring full: wait for the consumer to drain. The model
                    // has no producer-side doorbell, so just let the
                    // scheduler run the consumer (capacity 2, n <= 2 in
                    // every scenario keeps this branch unreachable).
                    unreachable!("scenarios keep n within ring capacity");
                }
            }
        });
        let (r_c, b_c) = (ring.clone(), bell.clone());
        model.thread(move || {
            let mut got = Vec::new();
            while (got.len() as u64) < n {
                while let Some(v) = r_c.pop() {
                    got.push(v);
                }
                if got.len() as u64 == n {
                    break;
                }
                let token = b_c.prepare_park();
                if resweep && !r_c.is_empty() {
                    b_c.cancel_park();
                    continue;
                }
                b_c.park(token);
            }
            let want: Vec<u64> = (1..=n).collect();
            assert_eq!(got, want, "stale or reordered slot read");
        });
    }
}

#[test]
fn model_ring_delivers_in_order() {
    let r = explore(opts(), ring_scenario(2, true, true));
    assert_pass(&r, "ring_in_order");
}

#[test]
fn seeded_relaxed_tail_reads_a_stale_slot() {
    // Without Release on the tail store, the consumer's Acquire tail load
    // observes the new count with no edge back to the slot write, so the
    // pop is allowed to read the slot's previous (stale) value.
    let r = explore(opts(), ring_scenario(2, false, true));
    let f = r.failure().expect("a Relaxed tail publication must leak a stale slot");
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("stale or reordered"), "message: {}", f.message);
    eprintln!("[model::seeded_relaxed_tail] {r}");
}

#[test]
fn seeded_skipped_resweep_loses_the_wakeup() {
    // Park without the post-prepare_park sweep: an element whose ring
    // landed before the parked bit went up is never re-observed, and the
    // producer (already done) will never ring again — the consumer sleeps
    // forever. checkers reports the stuck schedule as a deadlock.
    let r = explore(opts(), ring_scenario(1, true, false));
    let f = r.failure().expect("skipping the second sweep must lose a wakeup");
    assert_eq!(f.kind, FailureKind::Deadlock);
    eprintln!("[model::seeded_skipped_resweep] {r}");
}

// ===========================================================================
// 2. The real common::ring, driven through the facade (check feature).
// ===========================================================================

#[cfg(feature = "check")]
mod real_ring {
    use super::{assert_pass, opts};
    use checkers::sync::Arc;
    use checkers::{explore, FailureKind};
    use common::ring::{spin, spsc, Consumer, Doorbell};

    /// The runtime's connection probe (`End::poll`): the next element, or
    /// `Some(None)` once the producer is gone and the ring is drained.
    fn next_or_closed(rx: &mut Consumer<u64>) -> Option<Option<u64>> {
        match rx.pop() {
            Some(v) => Some(Some(v)),
            None => rx.is_closed().then_some(None),
        }
    }

    #[test]
    fn real_ring_delivers_in_order_under_the_park_protocol() {
        let r = explore(opts(), |model| {
            // Capacity 4 > the 3 pushes, so the producer never sees Full
            // (a push retry loop would spin, which a model cannot do).
            let (mut tx, mut rx) = spsc::<u64>(4);
            let bell = Arc::new(Doorbell::new());
            let b_p = bell.clone();
            model.thread(move || {
                for v in 1..=3 {
                    tx.push(v).expect("capacity covers all pushes");
                    b_p.ring();
                }
            });
            model.thread(move || {
                let got: Vec<u64> = (0..3).map(|_| bell.wait(|| rx.pop())).collect();
                assert_eq!(got, vec![1, 2, 3], "lost or reordered elements");
            });
        });
        assert_pass(&r, "real_ring_in_order");
    }

    #[test]
    fn real_producer_drop_handshake_never_strands_an_element() {
        let r = explore(opts(), |model| {
            let (mut tx, mut rx) = spsc::<u64>(2);
            let bell = Arc::new(Doorbell::new());
            let b_p = bell.clone();
            model.thread(move || {
                tx.push(1).expect("capacity covers the push");
                b_p.ring();
                drop(tx);
                // A connection end's drop rings the peer after closing its
                // rings, so a parked peer can observe the close.
                b_p.ring();
            });
            model.thread(move || {
                // is_closed is the lane-retirement check: its Acquire load
                // of producer_alive must order the final element in, or
                // this exits with `got` short.
                let mut got = Vec::new();
                while let Some(v) = bell.wait(|| next_or_closed(&mut rx)) {
                    got.push(v);
                }
                assert_eq!(got, vec![1], "final element stranded by the drop handshake");
            });
        });
        assert_pass(&r, "real_producer_drop");
    }

    /// `Doorbell::wait` with the seeded bug: it parks straight after
    /// `prepare_park`, without the second look.
    fn wait_skipping_second_look<T>(bell: &Doorbell, mut probe: impl FnMut() -> Option<T>) -> T {
        loop {
            if let Some(v) = spin(&mut probe) {
                return v;
            }
            let token = bell.prepare_park();
            bell.park(token);
        }
    }

    #[test]
    fn seeded_wait_without_the_second_look_loses_the_wakeup() {
        // A push and ring that land between the twin's probe and its
        // `prepare_park` are already counted in the token, so `park` finds
        // the word unchanged and sleeps on an element it never saw; no
        // ring follows.
        let r = explore(opts(), |model| {
            let (mut tx, mut rx) = spsc::<u64>(2);
            let bell = Arc::new(Doorbell::new());
            let b_p = bell.clone();
            model.thread(move || {
                tx.push(1).expect("capacity covers the push");
                b_p.ring();
            });
            model.thread(move || {
                assert_eq!(wait_skipping_second_look(&bell, || rx.pop()), 1);
            });
        });
        let f = r.failure().expect("skipping the second look must lose a wakeup");
        assert_eq!(f.kind, FailureKind::Deadlock);
        eprintln!("[model::seeded_wait_without_second_look] {r}");
    }

    /// One call on a runtime connection: a request ring and a reply ring,
    /// and each side's own doorbell. The client pushes the call, rings the
    /// worker, and waits for the reply through `Doorbell::wait`. The
    /// worker takes one look for the call — as a worker does when it
    /// shuts down or dies, it may find the call or not — answers what it
    /// found, then drops its end of the connection and, with `ring_on_drop`,
    /// rings the client. The client must get the reply or `None`.
    fn reply_path_scenario(ring_on_drop: bool) -> impl Fn(&mut checkers::Model) {
        move |model| {
            let (mut call_tx, mut call_rx) = spsc::<u64>(2);
            let (mut reply_tx, mut reply_rx) = spsc::<u64>(2);
            let worker_bell = Arc::new(Doorbell::new());
            let client_bell = Arc::new(Doorbell::new());
            let c_bell = client_bell.clone();
            model.thread(move || {
                if let Some(call) = call_rx.pop() {
                    reply_tx.push(call * 10).expect("one reply fits");
                    c_bell.ring();
                }
                drop(call_rx);
                drop(reply_tx);
                if ring_on_drop {
                    c_bell.ring();
                }
            });
            model.thread(move || {
                // A push the dropped worker end refuses is an error at
                // once, with nothing to wait for.
                if call_tx.push(7).is_ok() {
                    worker_bell.ring();
                    let got = client_bell.wait(|| next_or_closed(&mut reply_rx));
                    assert!(matches!(got, Some(70) | None), "wrong reply {got:?}");
                }
            });
        }
    }

    #[test]
    fn real_reply_path_answers_or_reports_the_closed_connection() {
        let r = explore(opts(), reply_path_scenario(true));
        assert_pass(&r, "real_reply_path");
    }

    #[test]
    fn seeded_worker_drop_without_a_ring_strands_the_client() {
        // The client parked after its second look still saw the worker's
        // end alive; with no ring after the drop, nothing wakes it.
        let r = explore(opts(), reply_path_scenario(false));
        let f = r.failure().expect("a drop with no ring must strand the parked client");
        assert_eq!(f.kind, FailureKind::Deadlock);
        eprintln!("[model::seeded_worker_drop_without_ring] {r}");
    }
}
