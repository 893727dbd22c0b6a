//! `common::flush`: one ticket through the flush sequencer against a device
//! that costs nothing, so what is left is the sequencer's own bookkeeping
//! (mutex, epoch claim, wake-up) that every distributed commit pays.

use super::{calls, time_ns, LayerValue, ProbeCtx};
use common::flush::FlushSequencer;
use std::hint::black_box;

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let seq = FlushSequencer::new();
    let (ns, n) = time_ns(ctx.budget, 512, || {
        let ticket = seq.enqueue();
        black_box(seq.wait_durable_with(ticket, |_epoch| {}));
    });
    vec![("flush.ticket_ns", ns, calls(n))]
}
