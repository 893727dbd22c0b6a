//! `common::ring`: the SPSC lane and the doorbell under it — a push + pop
//! on one thread, a two-thread round trip with both sides polling (the
//! runtime's yield-spin path), and a round trip that has to wake a parked
//! consumer through the doorbell.

use super::{calls, time_ns, LayerValue, ProbeCtx};
use crate::stats::median;
use common::ring::{spsc, Consumer, Doorbell, Producer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message that tells the echo thread to exit.
const QUIT: u64 = u64::MAX;

fn pop_polling(rx: &mut Consumer<u64>) -> u64 {
    loop {
        if let Some(v) = rx.pop() {
            return v;
        }
        std::thread::yield_now();
    }
}

fn push(tx: &mut Producer<u64>, v: u64) {
    tx.push(v).expect("ring has room: one message in flight");
}

/// Pops with the doorbell's park protocol: sweep, announce, sweep again,
/// and only then sleep.
fn pop_parking(rx: &mut Consumer<u64>, bell: &Doorbell) -> u64 {
    loop {
        if let Some(v) = rx.pop() {
            return v;
        }
        let token = bell.prepare_park();
        if let Some(v) = rx.pop() {
            bell.cancel_park();
            return v;
        }
        bell.park(token);
    }
}

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut out = Vec::new();

    let (mut tx, mut rx) = spsc::<u64>(64);
    let (ns, n) = time_ns(ctx.budget, 1024, || {
        push(&mut tx, 1);
        black_box(rx.pop());
    });
    out.push(("ring.push_pop_ns", ns, calls(n)));

    // Ping on one ring, pong on the other; both threads poll.
    let (mut ping_tx, mut ping_rx) = spsc::<u64>(4);
    let (mut pong_tx, mut pong_rx) = spsc::<u64>(4);
    let (ns, n) = std::thread::scope(|s| {
        s.spawn(move || loop {
            let v = pop_polling(&mut ping_rx);
            if v == QUIT {
                break;
            }
            push(&mut pong_tx, v);
        });
        let timed = time_ns(ctx.budget, 256, || {
            push(&mut ping_tx, 1);
            black_box(pop_polling(&mut pong_rx));
        });
        push(&mut ping_tx, QUIT);
        timed
    });
    out.push(("ring.roundtrip_ns", ns, calls(n)));

    // The echo thread parks between pings; the pause before each ping is
    // long enough for it to have gone to sleep, and is not timed.
    let (mut ping_tx, mut ping_rx) = spsc::<u64>(4);
    let (mut pong_tx, mut pong_rx) = spsc::<u64>(4);
    let bell = Arc::new(Doorbell::new());
    let echo_bell = Arc::clone(&bell);
    let wake_us = std::thread::scope(|s| {
        s.spawn(move || loop {
            let v = pop_parking(&mut ping_rx, &echo_bell);
            if v == QUIT {
                break;
            }
            push(&mut pong_tx, v);
        });
        let deadline = Instant::now() + ctx.budget;
        let mut wake_us = Vec::new();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
            let t0 = Instant::now();
            push(&mut ping_tx, 1);
            bell.ring();
            black_box(pop_polling(&mut pong_rx));
            wake_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        push(&mut ping_tx, QUIT);
        bell.ring();
        wake_us
    });
    out.push((
        "ring.park_wake_us",
        median(&wake_us).expect("at least one wake-up"),
        calls(wake_us.len() as u64),
    ));
    out
}
