//! Reproducibility guarantees: every randomized component is seeded, so
//! identical seeds must yield bit-identical traces and different seeds must
//! diverge. Future performance work (parallel collection, batching) must
//! keep this contract — the paper's experiments are only comparable because
//! reruns see the same workload.

use bench::{collect_trace, trained_houdini};
use engine::baselines::{AssumeDistributed, AssumeSinglePartition, Oracle};
use engine::{Bucket, CostModel, LiveAdvisor, SimConfig, Simulation};
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

/// FNV-1a of one short 4-partition simulation's outcome counters, Table 4
/// counters, latency quantiles and Fig. 11 bucket totals.
fn simulation_digest<A: LiveAdvisor>(bench: Bench, advisor: &A) -> u64 {
    let mut db = bench.database(4);
    let reg = bench.registry();
    let mut gen = bench.generator(4, 11);
    let cfg = SimConfig {
        num_partitions: 4,
        warmup_us: 10_000.0,
        measure_us: 60_000.0,
        ..Default::default()
    };
    let sim = Simulation::new(&mut db, &reg, advisor, &mut gen, CostModel::default(), cfg);
    let (m, profile) = sim.run().expect("simulation must not halt");
    let mut by_proc: Vec<_> = m.committed_by_proc.into_iter().collect();
    by_proc.sort_unstable();
    let mut ops: Vec<_> = m.ops.into_iter().map(|(p, o)| (p, format!("{o:?}"))).collect();
    ops.sort_unstable();
    let buckets =
        Bucket::ALL.map(|b| (profile.overall_share(b) * profile.grand_total_us()).to_bits());
    let rendered = format!(
        "{:?}",
        (
            (m.committed, m.user_aborts, m.restarts, m.distributed, m.single_partition),
            (m.speculative, m.no_undo, m.reserved_idle_us.to_bits()),
            by_proc,
            ops,
            (m.latency.count(), m.latency.p50_ms(), m.latency.p99_ms()),
            (profile.total_txns(), buckets),
        )
    );
    wal::codec::fnv1a(rendered.as_bytes())
}

/// Pins what the simulator *computes*, not just that it is repeatable:
/// every paper figure is a `Simulation` run, so a refactor of the shared
/// transaction protocol must leave these digests untouched. Grid: every
/// benchmark × {Oracle, assume-single-partition, assume-distributed,
/// globally trained Houdini, Houdini with partitioned models}; the two
/// assume-* constants were computed at the commit before `engine::txn`
/// replaced the simulator's own attempt loop, the Oracle and Houdini ones
/// at the commit that made the simulator's OP4 the live runtime's early
/// prepare (no speculation windows).
#[test]
fn simulation_outcomes_are_pinned() {
    let got = Bench::ALL.map(|bench| {
        let global = trained_houdini(bench, 4, 400, false, 0.5, 7);
        let partitioned = trained_houdini(bench, 4, 400, true, 0.5, 7);
        [
            simulation_digest(bench, &Oracle::new()),
            simulation_digest(bench, &AssumeSinglePartition::new()),
            simulation_digest(bench, &AssumeDistributed::new()),
            simulation_digest(bench, &global),
            simulation_digest(bench, &partitioned),
        ]
    });
    let want = [
        [
            0xd7c1_98f7_ea7f_c3ba,
            0x77b0_7c61_f002_8e55,
            0xafa9_288f_348e_a0df,
            0x61b2_f9b2_bdfb_03c0,
            0xf72a_c591_42ad_2400,
        ],
        [
            0xea1a_1981_1b25_8383,
            0xaeb2_0389_0c44_0974,
            0xee75_951e_a58e_f418,
            0x84d6_c9b9_69f1_9bcb,
            0x84d6_c9b9_69f1_9bcb, // no split pays on TPC-C: the global digest
        ],
        [
            0x3c52_6772_d276_1063,
            0xd229_739d_2677_6b26,
            0x36b5_19ab_298d_a2fb,
            0xf7f1_1c3a_0863_7d31,
            0x4a23_f48b_bc2d_3020,
        ],
    ];
    assert_eq!(
        got, want,
        "simulated outcomes changed (rows TATP / TPC-C / AuctionMark): {got:#018x?}"
    );
}
