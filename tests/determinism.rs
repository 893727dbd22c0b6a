//! Reproducibility guarantees: every randomized component is seeded, so
//! identical seeds must yield bit-identical traces and different seeds must
//! diverge. Future performance work (parallel collection, batching) must
//! keep this contract — the paper's experiments are only comparable because
//! reruns see the same workload.

use bench::collect_trace;
use workloads::Bench;

#[test]
fn tpcc_trace_collection_is_deterministic() {
    let (_, a) = collect_trace(Bench::Tpcc, 4, 400, 1234);
    let (_, b) = collect_trace(Bench::Tpcc, 4, 400, 1234);
    assert_eq!(a.records.len(), 400);
    assert_eq!(a.records, b.records, "same seed must reproduce the trace exactly");
}

#[test]
fn tpcc_trace_collection_diverges_across_seeds() {
    let (_, a) = collect_trace(Bench::Tpcc, 4, 400, 1234);
    let (_, c) = collect_trace(Bench::Tpcc, 4, 400, 4321);
    assert_ne!(a.records, c.records, "different seeds must produce different traces");
}

#[test]
fn every_benchmark_trace_is_deterministic() {
    for bench in Bench::ALL {
        let (_, a) = collect_trace(bench, 2, 120, 7);
        let (_, b) = collect_trace(bench, 2, 120, 7);
        assert_eq!(a.records, b.records, "{} trace must be reproducible", bench.name());
    }
}

/// Pins trace *content*, not just self-consistency: the acceptance
/// benchmark trains from `bench::collect_trace`, so a refactor that shifts
/// one record shifts every recorded number. FNV-1a of the records' `Debug`
/// rendering; the constants were computed at the commit before
/// `engine::collect_trace` replaced the hand-copied loops.
#[test]
fn trace_content_is_pinned() {
    let got = Bench::ALL.map(|bench| {
        let (_, wl) = collect_trace(bench, 2, 200, 7);
        wal::codec::fnv1a(format!("{:?}", wl.records).as_bytes())
    });
    let want = [0x3fc8_3114_78cb_1773, 0x55ab_dc5a_44f5_5a2e, 0xab91_4a5f_e97b_2719];
    assert_eq!(got, want, "TATP / TPC-C / AuctionMark trace content changed: {got:#018x?}");
}
