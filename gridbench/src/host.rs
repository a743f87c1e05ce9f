//! Host fingerprint and process memory, so figures from different hosts
//! are never compared silently.

use std::fs;
use std::io;

/// One line naming the host and build every result was measured on.
pub fn fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: logical_cpus={cpus} cpu=\"{model}\" rustc=\"{}\" commit={} grid_threads=1",
        env!("GRIDBENCH_RUSTC"),
        env!("GRIDBENCH_COMMIT"),
    )
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}
