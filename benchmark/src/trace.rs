//! The traced pass: where a call's time goes, measured from outside.
//!
//! One untraced reference round and one traced round of the same seed give
//! the tracing overhead. The traced round records a span per `next_request`
//! (`workloads.gen`) and per `Client::call` (`runtime.call`). Afterwards
//! the same seeded stream of client 0 is driven again, single-threaded,
//! through the layers a call is made of — `houdini.plan`,
//! `markov.estimate` (inside the plan), `exec.offline`, and on a durable
//! workload `wal.append` — each a child span under the same request id.
//! What the call took beyond plan + execution (+ append) is its self time:
//! ring, doorbell, queueing, lock wait, 2PC, flush wait. End-to-end metrics
//! are never taken from this pass.

use crate::json::Obj;
use crate::layers::{self, LayerValue, ProbeCtx};
use crate::report::{p_us, per_layer_metrics, round_config, RunResult};
use crate::spec::Workload;
use crate::workload::{client_stream, run_round, train_houdini, write_classes, CallSpan, Round};
use crate::RunShape;
use engine::{run_offline, Bucket, CoordSub, LiveAdvisor, PlanContext, Request, TxnOutcome};
use houdini::CatalogRule;
use markov::{estimate_path, EstimateConfig};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use wal::{LogRecord, LogSet};

/// The reference round and the traced round.
pub const ROUNDS: usize = 2;
/// Requests of client 0 driven again through the layers, and per client
/// the number of requests whose spans are written out.
const REDRIVE: usize = 20_000;
/// Requests handed to the layer probes.
const PROBE_REQUESTS: usize = 5_000;

/// Half of `--seconds` goes to the two rounds' windows; the probes, each
/// on a budget proportional to `--seconds`, take the rest.
pub fn window_s(shape: &RunShape) -> f64 {
    shape.seconds / 4.0
}

fn probe_budget(shape: &RunShape) -> Duration {
    Duration::from_secs_f64(shape.seconds * 0.015)
}

/// `(start, end)` in nanoseconds since the re-drive began.
type Span = (u64, u64);

/// Child spans of one re-driven request.
struct Redriven {
    seq: u64,
    plan: Span,
    estimate: Span,
    exec: Span,
    append: Option<Span>,
}

fn mean_us(spans: impl Iterator<Item = Span>, over: usize) -> f64 {
    // A fold from +0.0: `sum` of nothing is -0.0, which prints as "-0".
    spans.fold(0.0, |acc, (s, e)| acc + (e - s) as f64) / 1e3 / over.max(1) as f64
}

/// Drives client 0's stream again from its first request: untimed up to the
/// first request of the traced window (so the database is in the state the
/// window met), then up to `REDRIVE` requests with a span around each layer.
fn redrive(w: &Workload, seed: u64, round: &Round, scratch: &Path) -> Vec<Redriven> {
    let Some(first) = round.spans[0].first() else { return Vec::new() };
    let count = round.spans[0].len().min(REDRIVE);
    let catalog = &round.trained.catalog;
    let advisor = &round.trained.advisor;
    let predictors = advisor.live_predictors();
    let is_write = write_classes(w, catalog);
    let registry = w.bench.registry();
    let mut db = w.bench.database(w.parts);
    let mut gen = client_stream(w, seed, 0);
    let plan_ctx = PlanContext { catalog, num_partitions: w.parts, random_local_partition: 0 };
    let estimate_cfg = EstimateConfig::default();
    let log_dir = w.durable.then(|| {
        crate::workload::ScratchDir::create(
            scratch.join(format!("wal-redrive-{}", std::process::id())),
        )
    });
    let logs = log_dir.as_ref().map(|d| LogSet::open(d.path(), 1, 0).expect("open re-drive log"));
    for _ in 0..first.seq {
        let (proc, args) = gen.next_request(0);
        run_offline(&mut db, &registry, catalog, proc, &args, true).expect("offline execution");
    }
    let mut spare = common::FxHashMap::default();
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let (proc, args) = gen.next_request(0);
        let req = Request { proc, args, origin_node: 0 };

        let t0 = now();
        let (plan, session) = advisor.plan_live_reusing(&req, &plan_ctx, spare.remove(&proc));
        black_box(plan);
        let (feedback, reclaimed) = advisor.end_live_reclaim(session, TxnOutcome::Committed);
        black_box(feedback);
        let t1 = now();
        if let Some(s) = reclaimed {
            spare.insert(proc, s);
        }

        let pred = &predictors[proc as usize];
        let rule = CatalogRule::new(catalog, proc, w.parts);
        let t2 = now();
        let model = pred.models.model(pred.models.select(&req.args));
        black_box(estimate_path(model, &rule, &pred.mapping, &req.args, &estimate_cfg).touched);
        let t3 = now();

        let outcome = run_offline(&mut db, &registry, catalog, proc, &req.args, true)
            .expect("offline execution");
        let t4 = now();

        // The runtime logs committed writers only.
        let append = match &logs {
            Some(logs) if outcome.committed && is_write[proc as usize] => {
                let record =
                    LogRecord::Local { txn_id: first.seq + i, proc, args: req.args.clone() };
                let t5 = now();
                logs.append(0, &record);
                Some((t5, now()))
            }
            _ => None,
        };
        out.push(Redriven {
            seq: first.seq + i,
            plan: (t0, t1),
            estimate: (t2, t3),
            exec: (t3, t4),
            append,
        });
    }
    out
}

/// The fields every span line carries; the caller adds its own and renders.
fn span_obj(req: &str, name: &str, parent: Option<&str>, clock: &str, (start, end): Span) -> Obj {
    let mut o = Obj::new();
    o.str("req", req).str("span", name);
    match parent {
        Some(p) => o.str("parent", p),
        None => o.raw("parent", "null".into()),
    };
    o.str("clock", clock).int("start_ns", start).int("end_ns", end);
    o
}

/// Writes `out/trace-<workload>.jsonl`: per client the spans of its first
/// `REDRIVE` window requests, then client 0's re-driven child spans. The
/// two groups run on different clocks (`clock` says which); a request id
/// (`c<client>-<seq in the client's stream>`) ties them together.
fn write_spans(
    w: &Workload,
    round: &Round,
    redriven: &[Redriven],
    out: &Path,
) -> std::io::Result<u64> {
    let catalog = &round.trained.catalog;
    let is_write = write_classes(w, catalog);
    let path = out.join(format!("trace-{}.jsonl", w.name));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut lines = 0;
    for (client, spans) in round.spans.iter().enumerate() {
        for s in spans.iter().take(REDRIVE) {
            let req = format!("c{client}-{}", s.seq);
            let gen = span_obj(&req, "workloads.gen", None, "live", (s.gen_start, s.gen_end));
            writeln!(file, "{}", gen.render())?;
            let mut call = span_obj(&req, "runtime.call", None, "live", (s.gen_end, s.call_end));
            call.int("client", client as u64)
                .str("proc", &catalog.proc(s.proc).name)
                .str("class", if is_write[s.proc as usize] { "write" } else { "read" })
                .str("outcome", if s.committed { "committed" } else { "user_aborted" });
            writeln!(file, "{}", call.render())?;
            lines += 2;
        }
    }
    for r in redriven {
        let req = format!("c0-{}", r.seq);
        let children = [
            ("houdini.plan", "runtime.call", Some(r.plan)),
            ("markov.estimate", "houdini.plan", Some(r.estimate)),
            ("exec.offline", "runtime.call", Some(r.exec)),
            ("wal.append", "runtime.call", r.append),
        ];
        for (name, parent, span) in children {
            if let Some(span) = span {
                writeln!(file, "{}", span_obj(&req, name, Some(parent), "redrive", span).render())?;
                lines += 1;
            }
        }
    }
    file.flush()?;
    Ok(lines)
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The traced round's public `RunMetrics`, as per-layer values: the Fig. 11
/// time shares, how often coordination and wasted work happened, how often
/// each optimisation held, and what the log cost per write.
fn runtime_values(round: &Round) -> Vec<LayerValue> {
    let m = &round.metrics;
    let calls = m.committed + m.user_aborts;
    let behind = format!("{calls} calls");
    let p = &m.profile;
    let pct = |share: f64| share * 100.0;
    let est = pct(p.overall_share(Bucket::Estimation));
    let exec = pct(p.overall_share(Bucket::Execution));
    let queue = pct(p.overall_share(Bucket::Queueing));
    let lock = pct(p.overall_coord_share(CoordSub::LockWait));
    let twopc = pct(p.overall_coord_share(CoordSub::TwoPc));
    let flush = pct(p.overall_coord_share(CoordSub::Flush));
    // Everything else: the profiler's own `Other`, plus coordination time
    // outside the three sub-buckets (the fast path's reply wait).
    let other = 100.0 - (est + exec + queue + lock + twopc + flush);
    let ops = |f: fn(&engine::OpCounters) -> u64| m.ops.values().map(f).sum::<u64>();
    let device_flushes = m.flushes_total - m.flushes_coalesced;
    let writers = round.committed_writers;
    let v = |name: &'static str, value: f64| (name, value, behind.clone());
    vec![
        v("runtime.est_pct", est),
        v("runtime.exec_pct", exec),
        v("runtime.queue_pct", queue),
        v("runtime.lock_pct", lock),
        v("runtime.twopc_pct", twopc),
        v("runtime.flush_pct", flush),
        v("runtime.other_pct", other),
        v("runtime.distributed_ratio", ratio(m.distributed, m.distributed + m.single_partition)),
        v("runtime.restart_ratio", ratio(m.restarts + m.cascaded_aborts, calls)),
        v("runtime.speculative_ratio", ratio(m.speculative, calls)),
        v("runtime.lock_hold_p50_us", m.lock_hold.quantile_us(0.5).unwrap_or(0.0)),
        v("houdini.op2_pct", pct(ratio(ops(|o| o.op2), ops(|o| o.op2_applicable)))),
        v("houdini.op3_pct", pct(ratio(ops(|o| o.op3), ops(|o| o.txns)))),
        v("houdini.op4_pct", pct(ratio(ops(|o| o.op4), ops(|o| o.txns)))),
        v("flush.coalesce_ratio", ratio(m.flushes_coalesced, m.flushes_total)),
        v(
            "wal.records_per_flush",
            if m.log_records == 0 { 0.0 } else { ratio(m.log_records, device_flushes) },
        ),
        v("wal.records_per_write", ratio(m.log_records, writers)),
        v("wal.log_bytes_per_write", ratio(m.log_bytes_written, writers)),
        (
            "runtime.recovery_us_per_txn",
            round.recovery.map_or(0.0, |r| r.us_per_txn),
            round
                .recovery
                .map_or_else(|| "not durable".into(), |r| format!("{} replayed", r.replayed)),
        ),
    ]
}

fn tps(r: &Round) -> f64 {
    r.window_calls() as f64 / r.window_s
}

pub fn traced_run(w: &Workload, shape: &RunShape, out: &Path) -> RunResult {
    let seed = common::derive_seed(shape.seed, 0);
    // Probes first, while the heap is as the process start left it: where
    // a table's rows land decides whether a point read hits the cache, and
    // after two rounds of allocation that is no longer the same every run.
    let probe_trained = train_houdini(w, seed);
    let mut gen = client_stream(w, seed, 0);
    let requests: Vec<_> = (0..PROBE_REQUESTS).map(|_| gen.next_request(0)).collect();
    let ctx = ProbeCtx {
        w,
        seed,
        trained: &probe_trained,
        requests: &requests,
        scratch: out,
        budget: probe_budget(shape),
    };
    let probed = layers::probe_all(&ctx);

    let window = window_s(shape);
    let reference = run_round(w, seed, &round_config(shape, window, false), out, 1);
    eprintln!("  reference round: {:.0} calls/s", tps(&reference));
    let traced = run_round(w, seed, &round_config(shape, window, true), out, 3);
    eprintln!("  traced round:    {:.0} calls/s", tps(&traced));

    let all_spans = || traced.spans.iter().flatten();
    let calls = all_spans().count();
    let call_mean_us = mean_us(all_spans().map(|s: &CallSpan| (s.gen_end, s.call_end)), calls);
    let gen_mean_us = mean_us(all_spans().map(|s| (s.gen_start, s.gen_end)), calls);

    let redriven = redrive(w, seed, &traced, out);
    let n = redriven.len();
    let plan_us = mean_us(redriven.iter().map(|r| r.plan), n);
    let estimate_us = mean_us(redriven.iter().map(|r| r.estimate), n);
    let exec_us = mean_us(redriven.iter().map(|r| r.exec), n);
    let append_us = mean_us(redriven.iter().filter_map(|r| r.append), n);
    let lines = write_spans(w, &traced, &redriven, out).expect("write span file");
    eprintln!(
        "  {lines} spans written to {}",
        out.join(format!("trace-{}.jsonl", w.name)).display()
    );

    let behind_calls = format!("{calls} calls");
    let behind_redrive = format!("{n} requests");
    let mut values: Vec<LayerValue> = vec![
        ("runtime.call_mean_us", call_mean_us, behind_calls.clone()),
        (
            "runtime.read_p99_us",
            p_us(&traced.read_ns, 0.99),
            format!("{} calls", traced.read_ns.len()),
        ),
        (
            "runtime.write_p99_us",
            p_us(&traced.write_ns, 0.99),
            format!("{} calls", traced.write_ns.len()),
        ),
        (
            "runtime.residual_us",
            call_mean_us - (plan_us + exec_us + append_us),
            behind_redrive.clone(),
        ),
        ("houdini.plan_span_us", plan_us, behind_redrive.clone()),
        ("markov.estimate_span_us", estimate_us, behind_redrive.clone()),
        ("exec.offline_span_us", exec_us, behind_redrive.clone()),
        ("wal.append_span_us", append_us, behind_redrive),
        ("workloads.gen_pct", 100.0 * gen_mean_us / (gen_mean_us + call_mean_us), behind_calls),
        ("trace_overhead_pct", 100.0 * (1.0 - tps(&traced) / tps(&reference)), "2 rounds".into()),
    ];
    values.extend(runtime_values(&traced));
    values.extend(probed);

    let mut result = RunResult::default();
    for (name, value, _) in &mut values {
        // E.g. a class with no call in the window has no percentile.
        if !value.is_finite() {
            result.check_failures.push(format!("{name} has no value: nothing was measured"));
            *value = 0.0;
        }
    }
    for (label, r) in [("reference round", &reference), ("traced round", &traced)] {
        let mut row = Obj::new();
        row.str("round", label)
            .num("throughput_tps", tps(r))
            .num("setup_s", r.setup_s)
            .num("stolen_share", r.stolen_share);
        result.rounds.push(row);
        result.absorb(label, r);
    }
    result.metrics = per_layer_metrics(&values);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_objects_carry_id_parent_clock_and_times() {
        let mut call = span_obj("c1-7", "runtime.call", None, "live", (10, 25));
        call.int("client", 1);
        assert_eq!(
            call.render(),
            r#"{"req": "c1-7", "span": "runtime.call", "parent": null, "clock": "live", "start_ns": 10, "end_ns": 25, "client": 1}"#
        );
        assert_eq!(
            span_obj("c0-7", "exec.offline", Some("runtime.call"), "redrive", (1, 2)).render(),
            r#"{"req": "c0-7", "span": "exec.offline", "parent": "runtime.call", "clock": "redrive", "start_ns": 1, "end_ns": 2}"#
        );
    }

    #[test]
    fn mean_and_ratio_handle_empty_input() {
        assert_eq!(mean_us(std::iter::empty(), 0), 0.0);
        assert_eq!(mean_us([(0, 2_000), (0, 4_000)].into_iter(), 2), 3.0);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
