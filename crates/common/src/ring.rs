//! Bounded lock-free SPSC ring queue plus an eventcount-style doorbell,
//! built on the [`crate::sync`] facade so the `checkers` model checker can
//! exhaust both protocols (`crates/common/tests/ring_model.rs`).
//!
//! The engine's live runtime gives every client a dedicated
//! [`spsc`] lane to each worker: producer and consumer are each a single
//! thread, so the ring needs no CAS loops — one Release store publishes an
//! element, one Acquire load observes it. Parked workers are woken through
//! a shared [`Doorbell`] whose word packs a ring count with a parked bit,
//! so the producer fast path is a single uncontended RMW and the mutex +
//! condvar are touched only when someone is actually asleep.
//!
//! # Doorbell protocol
//!
//! The consumer must never sleep while an element it has not observed sits
//! in a lane. The protocol that guarantees this, written once as
//! [`Doorbell::wait`]:
//!
//! 1. Producer: publish the element (ring `push`), then [`Doorbell::ring`].
//! 2. Consumer: probe the lanes; if empty, [`Doorbell::prepare_park`],
//!    then **probe again**, and only then [`Doorbell::park`] on the token.
//!
//! The second look is load-bearing: `prepare_park`'s acquire RMW joins the
//! release clock of every `ring` already in the word's modification order,
//! so any element published before its ring is visible to that probe. A
//! ring that lands *after* `prepare_park` observes the parked bit and takes
//! the mutex to notify, which serializes with the consumer's check-then-wait
//! under the same mutex — so the wakeup cannot be lost on that side either.
//! Dropping the second look reintroduces the lost-wakeup deadlock; the model
//! test keeps a seeded twin of exactly that bug.
//!
//! # Spin, then park
//!
//! A park costs a futex sleep and a wake that lands on the ringer's path,
//! so every waiter first yield-spins ([`spin`]) for one time budget, the
//! spin-then-block rule of Karlin, Li, Manasse and Owicki (SOSP 1991).
//! Each spin step is a `yield_now`, which hands the core to the thread
//! being waited for on a host with more runnable threads than cores.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
#[cfg(not(feature = "check"))]
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Condvar, Mutex, PoisonError};

/// Error returned by [`Producer::push`]; the rejected value is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity; retry after the consumer drains.
    Full(T),
    /// The consumer handle was dropped; no one will ever pop this.
    Disconnected(T),
}

struct RingShared<T> {
    /// Count of elements popped; stored only by the consumer.
    head: AtomicU64,
    /// Count of elements pushed; stored only by the producer.
    tail: AtomicU64,
    /// 1 while the producer handle is alive.
    producer_alive: AtomicU64,
    /// 1 while the consumer handle is alive.
    consumer_alive: AtomicU64,
    /// Slot count minus one (capacity is a power of two).
    mask: u64,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// Safety: the ring moves owned `T` values between exactly two threads; the
// slot array's interior mutability is governed by the head/tail protocol
// (a slot is written only while tail points at it and read only while head
// points at it, with Release/Acquire edges on both cursors).
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Only the last Arc drop runs this, and Arc's refcount protocol
        // already ordered both handles' final cursor stores before it.
        // ordering: Relaxed — last-Arc exclusivity (see above) makes these
        // plain reads; there is no concurrent writer left to pair with.
        let head = self.head.load(Ordering::Relaxed);
        // ordering: Relaxed — same last-Arc argument as the head load.
        let tail = self.tail.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            let idx = (i & self.mask) as usize;
            // Safety: slots in [head, tail) were initialized by push and
            // never reclaimed by pop.
            unsafe { self.slots[idx].get_mut().assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Sending half of an [`spsc`] ring. Not cloneable: single producer is a
/// type-level invariant, and `push` takes `&mut self` to keep one thread
/// at a time on the cursor.
pub struct Producer<T> {
    shared: Arc<RingShared<T>>,
}

/// Receiving half of an [`spsc`] ring; same single-owner rules as
/// [`Producer`].
pub struct Consumer<T> {
    shared: Arc<RingShared<T>>,
}

/// Creates a bounded single-producer/single-consumer ring holding at least
/// `capacity` elements (rounded up to a power of two, minimum 1).
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1).next_power_of_two() as u64;
    let slots = (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(RingShared {
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
        producer_alive: AtomicU64::new(1),
        consumer_alive: AtomicU64::new(1),
        mask: cap - 1,
        slots,
    });
    (Producer { shared: shared.clone() }, Consumer { shared })
}

impl<T> Producer<T> {
    /// Publishes one element, or hands it back if the ring is full or the
    /// consumer is gone.
    pub fn push(&mut self, v: T) -> Result<(), PushError<T>> {
        let r = &*self.shared;
        // ordering: Relaxed — consumer_alive is a monotonic flag used only
        // to fail fast; a stale 1 merely stores one extra element that the
        // shared-block drain reclaims.
        if r.consumer_alive.load(Ordering::Relaxed) == 0 {
            return Err(PushError::Disconnected(v));
        }
        // ordering: Relaxed — tail is stored only by this producer, so we
        // read back our own latest value.
        let tail = r.tail.load(Ordering::Relaxed);
        // ordering: Acquire — pairs with the consumer's Release head store
        // in pop(): observing head == n proves the consumer finished
        // reading slot n-1, so reusing slot (tail & mask) cannot trample a
        // read in progress.
        let head = r.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > r.mask {
            return Err(PushError::Full(v));
        }
        let idx = (tail & r.mask) as usize;
        // Safety: single producer (handle is !Clone and push is &mut), and
        // the head load above proves the slot is vacated.
        unsafe { (*r.slots[idx].get()).write(v) };
        // ordering: Release — publishes the slot write; pairs with the
        // consumer's Acquire tail load in pop().
        r.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Whether the consumer handle has been dropped.
    pub fn is_closed(&self) -> bool {
        // ordering: Relaxed — monotonic flag, no payload to order.
        self.shared.consumer_alive.load(Ordering::Relaxed) == 0
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // ordering: Release — orders this producer's final tail store
        // before the flag, so a consumer that observes producer-gone via
        // Acquire also observes every published element (is_closed cannot
        // report "closed and empty" while a final element is in flight).
        self.shared.producer_alive.store(0, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Pops the oldest element, if any.
    pub fn pop(&mut self) -> Option<T> {
        let r = &*self.shared;
        // ordering: Relaxed — head is stored only by this consumer, so we
        // read back our own latest value.
        let head = r.head.load(Ordering::Relaxed);
        // ordering: Acquire — pairs with the producer's Release tail store
        // in push(): observing tail > head makes the slot write visible.
        let tail = r.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let idx = (head & r.mask) as usize;
        // Safety: head < tail proves the producer initialized this slot,
        // and it will not rewrite it until head advances past it.
        let v = unsafe { (*r.slots[idx].get()).assume_init_read() };
        // ordering: Release — returns the slot to the producer; pairs with
        // the producer's Acquire head load in push().
        r.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Elements currently buffered (racy by nature; exact once the
    /// producer is quiescent).
    pub fn len(&self) -> usize {
        let r = &*self.shared;
        // ordering: Relaxed — own cursor, see pop().
        let head = r.head.load(Ordering::Relaxed);
        // ordering: Acquire — same pairing as pop(): a length used to
        // justify draining must make those elements' writes visible.
        let tail = r.tail.load(Ordering::Acquire);
        tail.wrapping_sub(head) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the producer is gone *and* everything it published has
    /// been drained — the point where a worker can retire the lane.
    pub fn is_closed(&self) -> bool {
        let r = &*self.shared;
        // ordering: Acquire — pairs with the producer-drop Release store:
        // observing 0 here makes the producer's final tail store visible
        // to the emptiness check below, so no final element is missed.
        if r.producer_alive.load(Ordering::Acquire) != 0 {
            return false;
        }
        self.is_empty()
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // ordering: Release — orders the final head store before the flag
        // for symmetry with the producer side; correctness of the shared
        // drain rests on Arc's refcount edges, not this store.
        self.shared.consumer_alive.store(0, Ordering::Release);
    }
}

/// How long a waiter yield-spins before it parks: long enough to cover a
/// coordinator's next fragment message and a closed-loop client's next
/// call on an oversubscribed two-core host, where a 4 µs budget missed
/// them and parked anyway. EXPERIMENTS.md has the 32–256 µs sweep.
#[cfg(not(feature = "check"))]
const SPIN_BUDGET: Duration = Duration::from_micros(128);

/// Probes, then yield-spins re-probing until the spin budget runs out;
/// `None` means the caller should block. Under `--features check` only the
/// first probe runs: a model explores schedules, not wall-clock time.
pub fn spin<T>(mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    if let Some(v) = probe() {
        return Some(v);
    }
    #[cfg(not(feature = "check"))]
    {
        let start = Instant::now();
        while start.elapsed() < SPIN_BUDGET {
            std::thread::yield_now();
            if let Some(v) = probe() {
                return Some(v);
            }
        }
    }
    None
}

/// Eventcount-style doorbell: one word shared by many ringers and a single
/// parker. Bit 0 is the parked flag (flipped only by the parker); the
/// upper bits count rings. The uncontended ring is a single RMW; the mutex
/// and condvar are touched only while the parked bit is set. See the
/// module docs for the park protocol and why the second look after
/// [`Doorbell::prepare_park`] is mandatory.
pub struct Doorbell {
    word: AtomicU64,
    m: Mutex<()>,
    cv: Condvar,
    /// Times the parker went to sleep on `cv`; touched only on that path.
    parks: AtomicU64,
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::new()
    }
}

impl Doorbell {
    pub fn new() -> Self {
        Doorbell {
            word: AtomicU64::new(0),
            m: Mutex::new(()),
            cv: Condvar::new(),
            parks: AtomicU64::new(0),
        }
    }

    /// Blocks until `probe` yields a value: [`spin`], then the park
    /// protocol of the module docs, repeated until a probe succeeds. Every
    /// runtime waiter on a doorbell waits through this.
    pub fn wait<T>(&self, mut probe: impl FnMut() -> Option<T>) -> T {
        loop {
            if let Some(v) = spin(&mut probe) {
                return v;
            }
            let token = self.prepare_park();
            // The mandatory second look (module docs).
            if let Some(v) = probe() {
                self.cancel_park();
                return v;
            }
            self.park(token);
        }
    }

    /// Times the parker has gone to sleep since the doorbell was made.
    pub fn parks(&self) -> u64 {
        // ordering: Relaxed — a statistic; it publishes no other data.
        self.parks.load(Ordering::Relaxed)
    }

    /// Signals the parker that new work may exist. Call *after* publishing
    /// the work (e.g. after `Producer::push` returns).
    pub fn ring(&self) {
        // ordering: AcqRel — the release half publishes this ringer's lane
        // stores into the word's modification order so the parker's acquire
        // RMW in prepare_park() joins them; the acquire half chains earlier
        // ringers' clocks forward for the same reason.
        let prev = self.word.fetch_add(2, Ordering::AcqRel);
        if prev & 1 == 1 {
            // Parker is (or is about to be) asleep. Taking the mutex before
            // notifying serializes with the parker's check-then-wait, so
            // the notify cannot slip between its word check and its wait.
            drop(self.m.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }

    /// Announces intent to park and returns the token to park on. The
    /// caller MUST re-check for work between this and [`Doorbell::park`]
    /// (and call [`Doorbell::cancel_park`] instead if it finds any): this
    /// RMW is the acquire edge that makes pre-announcement work visible.
    /// [`Doorbell::wait`] does all of this; the steps are public so a
    /// caller can time a bare park.
    #[must_use]
    pub fn prepare_park(&self) -> u64 {
        // ordering: AcqRel — the acquire half joins the release clock of
        // every ring() already in the modification order, guaranteeing the
        // mandatory re-sweep sees any element published before its ring;
        // the release half publishes the parked bit's position in the
        // order so later ringers know to notify.
        self.word.fetch_add(1, Ordering::AcqRel).wrapping_add(1)
    }

    /// Withdraws a [`Doorbell::prepare_park`] announcement (parked bit off).
    pub fn cancel_park(&self) {
        // ordering: AcqRel — flips the word back to even and joins any
        // rings that raced with the aborted park attempt.
        self.word.fetch_add(1, Ordering::AcqRel);
    }

    /// Blocks until some ring moves the word past `token`. The parked bit
    /// is cleared on return.
    pub fn park(&self, token: u64) {
        let mut g = self.m.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Acquire — pairs with ring()'s release RMW: leaving the
        // loop because the word moved past the token makes the ringer's
        // lane stores visible to the sweep that follows the park.
        while self.word.load(Ordering::Acquire) == token {
            // ordering: Relaxed — a statistic; it publishes no other data.
            self.parks.fetch_add(1, Ordering::Relaxed);
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        drop(g);
        self.cancel_park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc as StdArc;

    #[test]
    fn fifo_order_and_capacity() {
        let (mut tx, mut rx) = spsc::<u32>(3); // rounds up to 4
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(PushError::Full(99)));
        assert_eq!(rx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        assert!(rx.is_empty());
        // Wrap around the slot array a few times.
        for round in 0..3 {
            for i in 0..3 {
                tx.push(round * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn disconnect_is_observed_on_both_sides() {
        let (mut tx, rx) = spsc::<u8>(2);
        assert!(!tx.is_closed());
        drop(rx);
        assert!(tx.is_closed());
        assert_eq!(tx.push(7), Err(PushError::Disconnected(7)));

        let (tx, mut rx) = spsc::<u8>(2);
        let mut tx = tx;
        tx.push(1).unwrap();
        drop(tx);
        // Producer gone but an element remains: not closed yet.
        assert!(!rx.is_closed());
        assert_eq!(rx.pop(), Some(1));
        assert!(rx.is_closed());
    }

    #[test]
    fn dropping_the_ring_drops_buffered_elements() {
        #[derive(Debug)]
        struct Counted(StdArc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, StdOrdering::Relaxed);
            }
        }
        let drops = StdArc::new(AtomicUsize::new(0));
        let (mut tx, mut rx) = spsc::<Counted>(4);
        for _ in 0..3 {
            tx.push(Counted(drops.clone())).unwrap();
        }
        drop(rx.pop()); // one reclaimed by pop
        assert_eq!(drops.load(StdOrdering::Relaxed), 1);
        drop(tx);
        drop(rx); // last Arc drains the remaining two
        assert_eq!(drops.load(StdOrdering::Relaxed), 3);
    }

    #[test]
    fn doorbell_wakes_parked_thread() {
        let bell = StdArc::new(Doorbell::new());
        let (mut tx, mut rx) = spsc::<u64>(8);
        let b2 = bell.clone();
        let consumer =
            std::thread::spawn(move || (0..100).map(|_| b2.wait(|| rx.pop())).collect::<Vec<_>>());
        for i in 0..100u64 {
            if i == 50 {
                // Let the consumer run dry and go to sleep, so the second
                // half is delivered through a wake.
                while bell.parks() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            loop {
                match tx.push(i) {
                    Ok(()) => break,
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Disconnected(_)) => panic!("consumer died"),
                }
            }
            bell.ring();
        }
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
