//! What the benchmark reads from the host: process CPU time and peak
//! memory for the metrics, and the provenance stamp every output carries.

use crate::json::Obj;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported 100 to user space on every architecture since 2.6 (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU time this process has consumed, in microseconds.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields count from the
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("cpu ticks");
    (tick() + tick()) / USER_HZ * 1e6
}

/// CPU time the hypervisor ran someone else while this guest wanted to run,
/// summed over all cores, in microseconds (`steal` in `/proc/stat`). Zero
/// on bare metal. A window with much of it measured the neighbours.
pub fn stolen_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / USER_HZ * 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(cwd).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The stamp written into every output file: which code ran, where, when,
/// and with which sizes. `commit` is "unknown" outside a git checkout (the
/// acceptance driver's checkout is not one).
pub fn provenance(bench_dir: &Path, seed: u64, rounds: usize, warmup_s: f64, window_s: f64) -> Obj {
    let commit = command_line("git", &["rev-parse", "HEAD"], bench_dir)
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let date = command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"], bench_dir).unwrap_or_default();
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut o = Obj::new();
    o.str("commit", &commit)
        .str("date_utc", &date)
        .int("nproc", nproc() as u64)
        .int("seed", seed)
        .int("rounds", rounds as u64)
        .num("warmup_s", warmup_s)
        .num("window_s", window_s)
        .str("scratch_fs", &fs_type(bench_dir))
        .str("loadavg_at_start", loadavg.trim());
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_us() >= 0.0);
        assert!(stolen_cpu_us() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
