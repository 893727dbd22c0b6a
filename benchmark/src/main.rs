//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! oltp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! oltp-benchmark [--seed n] [--seconds s] [--trace 0|1] [--smoke]           all four, each in a child
//! oltp-benchmark compare [--runs n] [--seed n] [--seconds s]                two sets of runs vs the bounds
//! oltp-benchmark spec                                                       the text of BENCHMARK.json
//! ```

mod host;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use spec::{Workload, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Sizes of one run. The measured time (`--seconds`) is split evenly over
/// `rounds` fresh database + runtime instances; a metric's value is the
/// median over rounds, and `setup_s` is the median of the rounds' set-ups.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub warmup_s: f64,
    pub traced: bool,
}

#[derive(Debug)]
enum Command {
    Run,
    Compare,
    Spec,
}

#[derive(Debug)]
struct Args {
    command: Command,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    /// Runs per set for `compare`.
    runs: usize,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: oltp-benchmark [compare [--runs N] | spec] [--workload {}] [--seed N] \
         [--seconds S] [--trace 0|1 | --traced] [--smoke]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Run,
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        runs: 1,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "compare" => args.command = Command::Compare,
            "spec" => args.command = Command::Spec,
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

impl Args {
    fn shape(&self) -> RunShape {
        if self.smoke {
            // One short round: a wiring check, not a measurement.
            RunShape {
                seed: self.seed,
                seconds: 0.5,
                rounds: 1,
                warmup_s: 0.2,
                traced: self.traced,
            }
        } else {
            RunShape {
                seed: self.seed,
                seconds: self.seconds,
                rounds: 10,
                warmup_s: 0.3,
                traced: self.traced,
            }
        }
    }
}

/// The benchmark's own directory in this checkout; outputs go to `out/`
/// under it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.command, args.workload) {
        (Command::Spec, _) => {
            print!("{}", spec::benchmark_json());
            true
        }
        (Command::Run, Some(w)) => report::run_one(w, &args.shape()),
        (Command::Run, None) => report::run_all(&args.shape(), args.smoke),
        (Command::Compare, only) => report::compare(args.runs, &args.shape(), only),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload tpcc-2w --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "tpcc-2w");
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        assert!(matches!(a.command, Command::Run));
        let shape = a.shape();
        assert_eq!((shape.rounds, shape.seconds), (10, 10.0));
        assert_eq!(parse("").unwrap().shape().seconds, RUN_SECONDS as f64);
    }

    #[test]
    fn parses_subcommands_and_rejects_nonsense() {
        let compare = parse("compare --runs 10").unwrap();
        assert!(matches!(compare.command, Command::Compare) && compare.runs == 10);
        assert!(matches!(parse("spec").unwrap().command, Command::Spec));
        assert_eq!(parse("--smoke").unwrap().shape().rounds, 1);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--runs 0").is_err());
    }
}
