//! Per-layer probes: each file times calls into one layer's public
//! functions from outside the program, so an API move breaks one file.
//! Layer names are the program's crate or module names.

pub mod exec;
pub mod flush;
pub mod houdini;
pub mod markov;
pub mod ring;
pub mod runtime;
pub mod storage;
pub mod wal;
pub mod workloads;

use crate::spec::Workload;
use crate::stats::median;
use crate::workload::Trained;
use common::{ProcId, Value};
use std::path::Path;
use std::time::{Duration, Instant};

/// One per-layer result: metric name, value, and what stands behind it.
pub type LayerValue = (&'static str, f64, String);

/// What every probe may use: the workload under test, its trained advisor,
/// a prefix of its request stream, and a scratch directory in the checkout.
pub struct ProbeCtx<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub trained: &'a Trained,
    /// The first requests of client 0's stream.
    pub requests: &'a [(ProcId, Vec<Value>)],
    pub scratch: &'a Path,
    /// Wall time each timed probe may spend.
    pub budget: Duration,
}

/// Times `op` in batches of `batch` calls until `budget` is spent and
/// returns the median over batches of nanoseconds per call, with the number
/// of calls made. Batching keeps the clock reads out of the measurement;
/// the median keeps a descheduled batch out of the result.
pub fn time_ns(budget: Duration, batch: usize, mut op: impl FnMut()) -> (f64, u64) {
    let deadline = Instant::now() + budget;
    let mut per_call = Vec::new();
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        let t1 = Instant::now();
        per_call.push((t1 - t0).as_nanos() as f64 / batch as f64);
        if t1 >= deadline {
            break;
        }
    }
    let calls = (per_call.len() * batch) as u64;
    (median(&per_call).expect("at least one batch"), calls)
}

/// Runs `op` once on each of `items`, timing batches of `BATCH`, and returns
/// the median over batches of microseconds per item — `time_ns` for work
/// that consumes a fixed input instead of a time budget.
pub fn median_us_each<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    const BATCH: usize = 100;
    let per_item: Vec<f64> = items
        .chunks(BATCH)
        .map(|batch| {
            let t0 = Instant::now();
            batch.iter().for_each(&mut op);
            t0.elapsed().as_secs_f64() * 1e6 / batch.len() as f64
        })
        .collect();
    median(&per_item).expect("at least one item")
}

pub fn calls(n: u64) -> String {
    format!("{n} calls")
}

/// Every probe of every layer, in layer order.
pub fn probe_all(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut out = Vec::new();
    for probe in [
        workloads::probe,
        storage::probe,
        exec::probe,
        markov::probe,
        houdini::probe,
        ring::probe,
        flush::probe,
        runtime::probe,
        wal::probe,
    ] {
        out.extend(probe(ctx));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_counts_calls_and_reports_a_positive_time() {
        let mut n = 0u64;
        let (ns, calls) = time_ns(Duration::from_millis(5), 100, || {
            n += std::hint::black_box(1);
        });
        assert_eq!(calls, n);
        assert!(calls >= 100 && ns > 0.0);
    }

    #[test]
    fn median_us_each_visits_every_item_once() {
        let items: Vec<u64> = (0..250).collect();
        let mut sum = 0;
        let us = median_us_each(&items, |i| sum += std::hint::black_box(*i));
        assert_eq!(sum, 249 * 250 / 2);
        assert!(us >= 0.0);
    }
}
