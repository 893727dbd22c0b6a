//! The kill-and-recover plan shared by `src/bin/crash_harness.rs` (the run
//! that dies) and `tests/recovery.rs` (its uninterrupted twin): cluster
//! shape, phase sizes, and the per-client request streams.
//!
//! The streams are *write-disjoint*: client `c` issues only requests whose
//! subscriber satisfies `s_id % CLIENTS == c`. Every row a TATP procedure
//! writes (SUBSCRIBER, SPECIAL_FACILITY, CALL_FORWARDING) is keyed by its
//! subscriber, and whether it commits depends only on that subscriber's
//! rows, so no two clients ever write — or condition on — the same row.
//! Each row's final value, and each call's outcome, is then fixed by one
//! client's own program order, whatever the interleaving across clients:
//! two runs of the same plan end in byte-identical tables with identical
//! commit / user-abort counts. (The unfiltered TATP streams do not have
//! this property: `UpdateLocation` and `UpdateSubscriber` are blind
//! overwrites, so two clients hitting one subscriber leave whichever value
//! committed last.)

use common::{ProcId, Value};
use workloads::Bench;

/// Partitions (= worker threads) of the crash cluster.
pub const PARTS: u32 = 2;
/// Concurrent client threads.
pub const CLIENTS: u64 = 4;
/// Requests per client before the (optional) snapshot.
pub const PHASE1: u64 = 150;
/// Requests per client after it (the `snaplog` cells only).
pub const PHASE2: u64 = 100;

/// Client `c`'s request stream: its seeded TATP stream, keeping only the
/// requests on subscribers it owns (`s_id % CLIENTS == c`) and redrawing
/// the rest.
pub fn client_stream(seed: u64, c: u64) -> impl FnMut() -> (ProcId, Vec<Value>) + Send {
    let mut gen = Bench::Tatp.client_generator(PARTS, seed, c);
    move || loop {
        let (proc, args) = gen.next_request(c);
        if subscriber(&args) % CLIENTS == c {
            return (proc, args);
        }
    }
}

/// The subscriber a TATP request addresses: always its first argument,
/// as `s_id` or as the `NBR`-prefixed subscriber number.
fn subscriber(args: &[Value]) -> u64 {
    match &args[0] {
        Value::Int(s_id) => u64::try_from(*s_id).expect("subscriber ids are non-negative"),
        Value::Str(nbr) => nbr[3..].parse().expect("NBR-prefixed subscriber number"),
        other => panic!("TATP request keyed by {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_partition_the_subscribers() {
        for c in 0..CLIENTS {
            let mut next = client_stream(417, c);
            for _ in 0..200 {
                assert_eq!(subscriber(&next().1) % CLIENTS, c);
            }
        }
    }
}
