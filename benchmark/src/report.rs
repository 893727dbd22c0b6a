//! Turns rounds into named metrics, prints them, writes the output files,
//! and drives the multi-run commands (`all`, `compare`) through child
//! processes so each workload gets a clean set-up time, CPU and peak RSS.

use crate::json::{array, find_number, Obj};
use crate::spec::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, percentile_sorted, spread};
use crate::workload::{run_round, Round, RoundConfig};
use crate::{bench_dir, host, trace, RunShape};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One metric as measured: the value, and how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: String,
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    /// Per-round values of each metric, for the output file.
    pub rounds: Vec<Obj>,
}

impl RunResult {
    /// Counts a round's calls and check failures, whether or not its
    /// measurements end up being used.
    pub fn absorb(&mut self, label: &str, r: &Round) {
        self.attempted += r.issued;
        self.failed += r.failed;
        self.check_failures.extend(r.check_failures.iter().map(|f| format!("{label}: {f}")));
    }
}

pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

pub fn p_us(sorted_ns: &[u32], q: f64) -> f64 {
    // A class with no samples in a round reads as NaN, which the median
    // refuses, which fails the run: every workload must exercise both.
    percentile_sorted(sorted_ns, q).map_or(f64::NAN, |ns| f64::from(ns) / 1e3)
}

/// What is measured in every round, in this order; a run's value is the
/// median over rounds. The end-to-end metrics are the subset `END_TO_END`
/// names; the rest is printed and filed beside them without a bound.
const ROUND_METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_tps", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("cpu_us_per_txn", "us"),
];

fn round_values(r: &Round) -> [f64; 7] {
    let calls = r.window_calls() as f64;
    [
        r.setup_s,
        calls / r.window_s,
        p_us(&r.read_ns, 0.50),
        p_us(&r.read_ns, 0.99),
        p_us(&r.write_ns, 0.50),
        p_us(&r.write_ns, 0.99),
        r.cpu_us / calls,
    ]
}

pub fn round_config(shape: &RunShape, window_s: f64, traced: bool) -> RoundConfig {
    RoundConfig {
        warmup: Duration::from_secs_f64(shape.warmup_s),
        window: Duration::from_secs_f64(window_s),
        traced,
    }
}

/// A round during which other guests of the hypervisor took more than this
/// share of the cores measured them, not the program.
const STOLEN_LIMIT: f64 = 0.01;
/// Wall time after which a run stops repeating disturbed rounds (the
/// repeat in progress finishes). Kept small: the acceptance driver's 92
/// runs share one time budget.
const RETRY_BUDGET: Duration = Duration::from_secs(10);

/// The untraced pass: `shape.rounds` rounds, each a fresh database and
/// runtime; every metric is the median over rounds. A round the hypervisor
/// disturbed is run again, while the retry budget lasts.
fn end_to_end(w: &Workload, shape: &RunShape, scratch: &Path) -> RunResult {
    let cfg = round_config(shape, shape.seconds / shape.rounds as f64, false);
    let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); ROUND_METRICS.len()];
    let mut result = RunResult::default();
    let (mut reads, mut writes) = (0usize, 0usize);
    let mut peak_rss_mb = 0.0;
    let mut retry_spent = Duration::ZERO;
    for i in 0..shape.rounds {
        let seed = common::derive_seed(shape.seed, i as u64);
        let r = loop {
            let t0 = Instant::now();
            let r = run_round(w, seed, &cfg, scratch, 1);
            if r.stolen_share <= STOLEN_LIMIT || retry_spent >= RETRY_BUDGET {
                break r;
            }
            eprintln!(
                "  round {i}: {:.1}% of the cores stolen by other guests, running it again",
                r.stolen_share * 100.0
            );
            result.absorb(&format!("round {i}, disturbed"), &r);
            retry_spent += t0.elapsed();
        };
        if i == 0 {
            // Later rounds build on memory the allocator kept from earlier
            // ones, so only the first round's peak is a property of the
            // program rather than of the round count.
            peak_rss_mb = host::peak_rss_mb();
        }
        let values = round_values(&r);
        let mut row = Obj::new();
        row.int("round", i as u64)
            .int("calls_in_window", r.window_calls() as u64)
            .num("stolen_share", r.stolen_share)
            .num("user_abort_share", r.abort_share);
        for (((name, _), v), acc) in ROUND_METRICS.iter().zip(values).zip(&mut per_metric) {
            acc.push(v);
            if v.is_finite() {
                row.num(name, v);
            }
        }
        eprintln!(
            "  round {i}: {:.0} calls/s, setup {:.2} s, {} reads, {} writes",
            values[1],
            r.setup_s,
            r.read_ns.len(),
            r.write_ns.len()
        );
        result.rounds.push(row);
        result.absorb(&format!("round {i}"), &r);
        reads += r.read_ns.len();
        writes += r.write_ns.len();
    }
    for ((name, unit), values) in ROUND_METRICS.iter().zip(&per_metric) {
        let samples = match *name {
            "read_p50_us" | "read_p99_us" => format!("{reads} calls"),
            "write_p50_us" | "write_p99_us" => format!("{writes} calls"),
            "throughput_tps" | "cpu_us_per_txn" => format!("{} calls", reads + writes),
            _ => format!("{} rounds", shape.rounds),
        };
        match median(values) {
            Some(value) => result.metrics.push(Measured { name, unit, value, samples }),
            None => result.check_failures.push(format!("{name}: a round had no samples")),
        }
    }
    result.metrics.push(Measured {
        name: "peak_rss_mb",
        unit: "MB",
        value: peak_rss_mb,
        samples: "first round".into(),
    });
    result
}

/// `{"<name>": {"value": .., "unit": ..}, ..}`, in the iterator's order.
fn metrics_obj<'a>(metrics: impl Iterator<Item = &'a Measured>) -> Obj {
    let mut o = Obj::new();
    for m in metrics {
        let mut v = Obj::new();
        v.num("value", m.value).str("unit", m.unit);
        o.obj(m.name, &v);
    }
    o
}

/// True for the metrics `BENCHMARK.json` lists for this pass; the others
/// are printed and filed, but stay out of the result line.
fn in_contract(m: &Measured, traced: bool) -> bool {
    if traced {
        PER_LAYER.iter().any(|l| l.name == m.name)
    } else {
        END_TO_END.iter().any(|e| e.name == m.name)
    }
}

/// The result line the acceptance driver reads: exactly these four keys,
/// and under `metrics` exactly the pass's metrics of `BENCHMARK.json`.
fn result_line(r: &RunResult, traced: bool) -> String {
    let mut o = Obj::new();
    o.bool("correct", r.check_failures.is_empty())
        .int("attempted", r.attempted.max(1))
        .int("failed", r.failed)
        .obj("metrics", &metrics_obj(r.metrics.iter().filter(|m| in_contract(m, traced))));
    o.render()
}

/// Runs one workload in this process. Prints the table to stderr, writes
/// `out/result-<workload>-trace<t>.json`, and prints the result line last
/// on stdout. Returns false when an output check missed.
pub fn run_one(w: &Workload, shape: &RunShape) -> bool {
    if host::nproc() < w.clients {
        eprintln!(
            "{} drives {} client threads; this host offers {} core(s). Refusing to run: \
             oversubscribed closed-loop clients measure the scheduler.",
            w.name,
            w.clients,
            host::nproc()
        );
        return false;
    }
    let out = out_dir();
    let (rounds, window_s) = if shape.traced {
        (trace::ROUNDS, trace::window_s(shape))
    } else {
        (shape.rounds, shape.seconds / shape.rounds as f64)
    };
    let provenance = host::provenance(&bench_dir(), shape.seed, rounds, shape.warmup_s, window_s);
    eprintln!(
        "workload {}  seed {}  {rounds} rounds x {window_s:.2} s window ({:.2} s warm-up)  trace {}",
        w.name,
        shape.seed,
        shape.warmup_s,
        if shape.traced { "on" } else { "off" }
    );
    let result =
        if shape.traced { trace::traced_run(w, shape, &out) } else { end_to_end(w, shape, &out) };

    eprintln!("  {:<30} {:>16}  {:<6} samples", "metric", "value", "unit");
    for m in &result.metrics {
        let note = if in_contract(m, shape.traced) { "" } else { "  (no bound)" };
        eprintln!("  {:<30} {:>16.4}  {:<6} {}{note}", m.name, m.value, m.unit, m.samples);
    }
    let error_rate = result.failed as f64 / result.attempted.max(1) as f64;
    eprintln!(
        "  {:<30} {:>16.6}  {:<6} {} calls",
        "error_rate", error_rate, "ratio", result.attempted
    );
    for f in &result.check_failures {
        eprintln!("  CHECK FAILED: {f}");
    }

    let mut file = Obj::new();
    let failures: Vec<String> =
        result.check_failures.iter().map(|f| format!("\"{}\"", crate::json::escape(f))).collect();
    file.str("workload", w.name)
        .str("why", w.why)
        .obj("provenance", &provenance)
        .bool("correct", result.check_failures.is_empty())
        .int("attempted", result.attempted)
        .int("failed", result.failed)
        .num("error_rate", error_rate)
        .raw("check_failures", array(&failures))
        .obj("metrics", &metrics_obj(result.metrics.iter()))
        .raw("rounds", array(&result.rounds.iter().map(Obj::render).collect::<Vec<_>>()));
    let path = out.join(format!("result-{}-trace{}.json", w.name, u8::from(shape.traced)));
    std::fs::write(&path, file.render() + "\n").expect("write result file");

    println!("{}", result_line(&result, shape.traced));
    result.check_failures.is_empty()
}

/// Runs `w` in a child process of this same binary and returns its result
/// line, or `None` when the child failed.
fn run_child(w: &Workload, shape: &RunShape, smoke: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &shape.seed.to_string()])
        .args(["--seconds", &shape.seconds.to_string()])
        .args(["--trace", if shape.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().map(str::to_string);
    if out.status.success() {
        line
    } else {
        eprintln!("{}: child exited with {}", w.name, out.status);
        None
    }
}

/// All four workloads, one child process each. Writes `out/summary.json`.
pub fn run_all(shape: &RunShape, smoke: bool) -> bool {
    let mut ok = true;
    let mut summary = Obj::new();
    for w in &WORKLOADS {
        match run_child(w, shape, smoke) {
            Some(line) => {
                summary.raw(w.name, line);
            }
            None => ok = false,
        }
    }
    let path = out_dir().join(format!("summary-trace{}.json", u8::from(shape.traced)));
    std::fs::write(&path, summary.render() + "\n").expect("write summary file");
    eprintln!("{} workloads run, results in {}", WORKLOADS.len(), path.display());
    ok
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two sets of `runs` untraced runs per workload on this build (seeds
/// `seed..seed+runs` in both sets). Per workload and end-to-end metric it
/// prints both medians, how much worse the second is, each set's spread
/// (interquartile range over median, needs `runs >= 2`) and the bound, and
/// fails when a worsening or a spread exceeds the bound — the same code
/// must agree with itself before a bound can carry a claim.
pub fn compare(runs: usize, shape: &RunShape, only: Option<&'static Workload>) -> bool {
    let mut ok = true;
    let mut file = Obj::new();
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o.name == w.name)) {
        // sets[set][metric] = the runs' values.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for set in &mut sets {
            for run in 0..runs {
                let shape = RunShape { seed: shape.seed + run as u64, ..*shape };
                let Some(line) = run_child(w, &shape, false) else {
                    ok = false;
                    continue;
                };
                for (m, acc) in END_TO_END.iter().zip(set.iter_mut()) {
                    acc.extend(find_number(&line, m.name));
                }
            }
        }
        println!("{}", w.name);
        println!(
            "  {:<16} {:>12} {:>12} {:>8} {:>9} {:>9} {:>7}",
            "metric", "first", "second", "worse", "spread1", "spread2", "bound"
        );
        let mut rows = Obj::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let (Some(a), Some(b)) = (median(&sets[0][i]), median(&sets[1][i])) else {
                println!("  {:<16} missing", m.name);
                ok = false;
                continue;
            };
            let worse = worsening(m.better, a, b);
            let spreads = [spread(&sets[0][i]), spread(&sets[1][i])];
            // setup_s is held to the median rule only, as in acceptance.
            let spread_bad = m.name != "setup_s" && spreads.iter().flatten().any(|s| *s > m.bound);
            let bad = worse > m.bound || spread_bad;
            ok &= !bad;
            let pct =
                |s: Option<f64>| s.map_or_else(|| "-".into(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "  {:<16} {:>12.3} {:>12.3} {:>7.1}% {:>9} {:>9} {:>6.0}%{}",
                m.name,
                a,
                b,
                worse * 100.0,
                pct(spreads[0]),
                pct(spreads[1]),
                m.bound * 100.0,
                if bad { "  EXCEEDED" } else { "" }
            );
            let mut row = Obj::new();
            row.num("first", a).num("second", b).num("worse", worse).num("bound", m.bound);
            for (key, s) in ["spread_first", "spread_second"].iter().zip(spreads) {
                if let Some(s) = s {
                    row.num(key, s);
                }
            }
            rows.obj(m.name, &row);
        }
        file.obj(w.name, &rows);
    }
    let provenance = host::provenance(&bench_dir(), shape.seed, shape.rounds, shape.warmup_s, 0.0);
    file.obj("provenance", &provenance).int("runs_per_set", runs as u64);
    std::fs::write(out_dir().join("compare.json"), file.render() + "\n")
        .expect("write compare file");
    println!("{}", if ok { "compare: within bounds" } else { "compare: OUT OF BOUNDS" });
    ok
}

/// Per-layer results in `PER_LAYER` order; a name the traced pass did not
/// produce is a harness bug.
pub fn per_layer_metrics(values: &[(&'static str, f64, String)]) -> Vec<Measured> {
    PER_LAYER
        .iter()
        .map(|m| {
            let (_, value, samples) = values
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .unwrap_or_else(|| panic!("traced pass produced no {}", m.name));
            Measured { name: m.name, unit: m.unit, value: *value, samples: samples.clone() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            metrics: vec![
                Measured { name: "setup_s", unit: "s", value: 0.8127, samples: String::new() },
                Measured { name: "read_p99_us", unit: "us", value: 30.5, samples: String::new() },
            ],
            attempted: 1000,
            ..RunResult::default()
        };
        assert_eq!(
            result_line(&r, false),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
        assert_eq!(find_number(&result_line(&r, false), "setup_s"), Some(0.8127));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }
}
