//! Regenerates the paper's tables and figures.
//!
//! Usage: `experiments [--full] <id>...` where ids are `fig3 fig4 fig5 fig7
//! fig8 fig9 fig10 table3 fig11 table4 fig12 fig13 live live-latency
//! live-drift check` or `all` (the list is
//! `bench::experiments::EXPERIMENTS`; an unknown id prints the usage and
//! exits 2 before anything runs). `--full` uses the larger trace sizes
//! and longer simulated windows recorded in EXPERIMENTS.md; the default
//! quick scale finishes in seconds per experiment. `live` measures real
//! wall-clock throughput on the multi-threaded partition runtime instead of
//! simulated time (closed-loop advisor sweeps at every worker count the
//! host has cores for, the open-loop latency-vs-offered-load sweep and the
//! live Fig. 11 attribution); `live-latency` runs just the open-loop
//! sweep; `live-drift` measures on-line model maintenance (§4.5) under a
//! mid-run TATP skew flip. Every live table is print-only and starts with
//! a `# host:` line (commit, cores, UTC date). `check` is the CI smoke
//! gate: it evaluates every row of `bench::live::GATES` (1-worker TATP
//! coordination share, 2-worker TATP throughput floor with pinned
//! commit/abort counts, command-logging overhead), prints one PASS/FAIL
//! line per row and exits 1 if any failed. `table3` also exits 1, after
//! printing the table, if any row's OP3 reads below 100.0.

use bench::experiments::{run_experiment, EXPERIMENTS};
use bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let ids: Vec<&str> = args.iter().map(String::as_str).filter(|a| !a.starts_with("--")).collect();
    let known = |id: &str| EXPERIMENTS.iter().any(|(name, _)| *name == id);
    if ids.is_empty() || !ids.iter().all(|id| known(id)) {
        for id in ids.iter().filter(|id| !known(id)) {
            eprintln!("unknown experiment id: {id}");
        }
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: experiments [--full] <{}>...", names.join("|"));
        std::process::exit(2);
    }
    for id in ids {
        print!("{}", run_experiment(id, scale));
        println!();
    }
}
