//! Host-side probes: process CPU time, peak resident memory, and the host
//! fingerprint every result carries.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far (10 ms
/// resolution), or 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// A `kB` field of `/proc/self/status` in MiB.
fn status_mb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Where and with what a result was measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain that built the benchmark (passed in by
    /// the launcher through `NOWLAB_BENCH_RUSTC`).
    pub rustc: String,
    /// Commit under test (passed in through `NOWLAB_BENCH_COMMIT`).
    pub commit: String,
}

impl Fingerprint {
    /// Probes this host.
    pub fn probe() -> Self {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: env("NOWLAB_BENCH_RUSTC"),
            commit: env("NOWLAB_BENCH_COMMIT"),
        }
    }
}
