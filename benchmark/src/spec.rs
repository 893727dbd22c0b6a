//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and the `BENCHMARK.json`
//! text generated from them (so the file and the harness cannot disagree).

use crate::json::{array, Obj};
use workloads::Bench;

/// Length of one measuring run in seconds, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 20;

/// Requests in the offline trace every round's Houdini is trained on.
pub const TRAIN_TRACE_LEN: usize = 12_000;

/// One benchmark workload: a traffic mix and the cluster it runs against.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it exercises or bypasses.
    pub why: &'static str,
    pub bench: Bench,
    /// Partitions, and so worker threads.
    pub parts: u32,
    /// Closed-loop client threads; never more than the host's cores.
    pub clients: usize,
    /// Command logging with `DurabilityConfig::new` defaults.
    pub durable: bool,
    /// Share of calls expected to end in a user abort, as `[low, high]`.
    /// The mix and the control code fix it; a value outside the band means
    /// the program dropped or mis-executed procedures.
    pub abort_band: (f64, f64),
}

/// Procedures that never write, by name: the benchmark's own read/write
/// classification, frozen here so a catalog edit cannot move a procedure
/// between latency classes unnoticed.
pub fn read_only_procs(bench: Bench) -> &'static [&'static str] {
    match bench {
        Bench::Tatp => &["GetSubscriber", "GetAccessData", "GetNewDest"],
        Bench::Tpcc => &["OrderStatus", "StockLevel"],
        Bench::AuctionMark => &[],
    }
}

/// TATP's mix aborts about 2.5% of calls (call-forwarding inserts and
/// deletes that miss); measured 1.8–3.2% per round at the seed commit.
const TATP_ABORTS: (f64, f64) = (0.01, 0.05);
/// TPC-C aborts the 1% of NewOrders that carry an invalid item, about 0.45%
/// of all calls; measured 0.30–0.56% per round at the seed commit.
const TPCC_ABORTS: (f64, f64) = (0.001, 0.012);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tatp-sp-1w",
        why: "TATP, 1 partition, 1 client: every call is the single-partition fast path, so \
              plan/estimate + ring round trip + execution are the whole call; locks, 2PC, log bypassed",
        bench: Bench::Tatp,
        parts: 1,
        clients: 1,
        durable: false,
        abort_band: TATP_ABORTS,
    },
    Workload {
        name: "tatp-mix-2w",
        why: "TATP, 2 partitions, 2 clients: ~19% of calls broadcast then write, so lock shards, \
              fragment lanes, 2PC and the flush sequencer set write latency and reads queue behind them",
        bench: Bench::Tatp,
        parts: 2,
        clients: 2,
        durable: false,
        abort_band: TATP_ABORTS,
    },
    Workload {
        name: "tpcc-2w",
        why: "TPC-C, 2 partitions, 2 clients: long ~92%-write procedures with undo, per-query \
              tracking and OP4, ~14% distributed with restarts; taxes what a TATP-only trick skips",
        bench: Bench::Tpcc,
        parts: 2,
        clients: 2,
        durable: false,
        abort_band: TPCC_ABORTS,
    },
    Workload {
        name: "tatp-durable-2w",
        why: "tatp-mix-2w plus the command log on the checkout's disk (1 ms group commit, fsync per \
              group): writers wait on the flusher, reads skip the log; only wal/flusher work shows here",
        bench: Bench::Tatp,
        parts: 2,
        clients: 2,
        durable: true,
        abort_band: TATP_ABORTS,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "throughput_tps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "read_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "write_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_txn", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// A metric of one layer (named `<crate or module>.<what>`), measured in
/// the traced pass. The README's table says which end-to-end metric each is
/// expected to move, and on which workload.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

pub const PER_LAYER: [PerLayer; 58] = [
    // Probes of each layer's public functions (`layers/<layer>.rs`).
    lo("workloads.gen_ns", "ns"),
    lo("storage.get_ns", "ns"),
    lo("storage.get_1m_ns", "ns"),
    lo("storage.update_undo_ns", "ns"),
    lo("storage.update_noundo_ns", "ns"),
    lo("storage.insert_delete_ns", "ns"),
    lo("storage.rollback_ns", "ns"),
    lo("exec.us", "us"),
    lo("exec.queries_per_txn", "count"),
    lo("markov.estimate_us", "us"),
    lo("markov.track_us", "us"),
    lo("markov.states", "count"),
    lo("houdini.plan_us", "us"),
    lo("houdini.train_s", "s"),
    lo("ring.push_pop_ns", "ns"),
    lo("ring.roundtrip_ns", "ns"),
    lo("ring.park_wake_us", "us"),
    lo("flush.ticket_ns", "ns"),
    lo("runtime.call_asp_us", "us"),
    lo("runtime.call_houdini_us", "us"),
    lo("runtime.call_dist2_us", "us"),
    lo("runtime.call_durable_disk_us", "us"),
    lo("wal.encode_ns", "ns"),
    lo("wal.append_ns", "ns"),
    lo("wal.bytes_per_record", "B"),
    lo("wal.flush_disk_us", "us"),
    lo("wal.scan_us_per_record", "us"),
    lo("wal.snapshot_ms", "ms"),
    lo("wal.recover_snapshot_ms", "ms"),
    // From the traced round's spans (harness-side, `trace.rs`).
    lo("runtime.call_mean_us", "us"),
    lo("runtime.read_p99_us", "us"),
    lo("runtime.write_p99_us", "us"),
    lo("runtime.residual_us", "us"),
    lo("houdini.plan_span_us", "us"),
    lo("markov.estimate_span_us", "us"),
    lo("exec.offline_span_us", "us"),
    lo("wal.append_span_us", "us"),
    lo("workloads.gen_pct", "%"),
    lo("trace_overhead_pct", "%"),
    // From the traced round's public `RunMetrics`.
    lo("runtime.est_pct", "%"),
    hi("runtime.exec_pct", "%"),
    lo("runtime.queue_pct", "%"),
    lo("runtime.lock_pct", "%"),
    lo("runtime.twopc_pct", "%"),
    lo("runtime.flush_pct", "%"),
    lo("runtime.other_pct", "%"),
    lo("runtime.distributed_ratio", "ratio"),
    lo("runtime.restart_ratio", "ratio"),
    hi("runtime.speculative_ratio", "ratio"),
    lo("runtime.lock_hold_p50_us", "us"),
    hi("houdini.op2_pct", "%"),
    hi("houdini.op3_pct", "%"),
    hi("houdini.op4_pct", "%"),
    hi("flush.coalesce_ratio", "ratio"),
    hi("wal.records_per_flush", "count"),
    lo("wal.records_per_write", "count"),
    lo("wal.log_bytes_per_write", "B"),
    lo("runtime.recovery_us_per_txn", "us"),
];

fn metric_obj(name: &str, unit: &str, better: Better, bound: Option<f64>) -> String {
    let mut o = Obj::new();
    o.str("name", name).str("unit", unit).str("better", better.as_str());
    if let Some(b) = bound {
        o.num("bound", b);
    }
    o.render()
}

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let command: Vec<String> =
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"]
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = Obj::new();
            o.str("name", w.name).str("why", w.why);
            o.render()
        })
        .collect();
    let e2e: Vec<String> =
        END_TO_END.iter().map(|m| metric_obj(m.name, m.unit, m.better, Some(m.bound))).collect();
    let layers: Vec<String> =
        PER_LAYER.iter().map(|m| metric_obj(m.name, m.unit, m.better, None)).collect();
    let lines = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        array(&command),
        RUN_SECONDS,
        lines(&workloads),
        lines(&e2e),
        lines(&layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&s.len()) && s.chars().all(ok)
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            let why = w.why;
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                why.len()
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.abort_band.0 <= w.abort_band.1);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_text() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `-- spec > BENCHMARK.json`");
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn read_only_tables_match_the_catalogs() {
        for bench in [Bench::Tatp, Bench::Tpcc] {
            let catalog = bench.registry().catalog();
            for p in &catalog.procs {
                let listed = read_only_procs(bench).contains(&p.name.as_str());
                assert_eq!(listed, p.read_only, "{} {}", bench.name(), p.name);
            }
        }
    }
}
