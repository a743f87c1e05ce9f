//! `gridbench`: the figure-grid benchmark.
//!
//! ```text
//! gridbench --workload <fig1-cold|large-n-cold|fig1-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole figure grids (every matrix of the workload × all 14 formats)
//! through `ExperimentPlan` → `Session::run` on one thread for about
//! `--seconds` and prints, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. The exit code is
//! 0 only when every operation succeeded and every check passed. See
//! README.md for the workloads, metrics and checks.

mod checks;
mod eigen;
mod formats;
mod host;
mod run;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::Workload;

const USAGE: &str =
    "usage: gridbench --workload <fig1-cold|large-n-cold|fig1-warm> --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The program reads `LPA_*` knobs and `RAYON_NUM_THREADS` from the
/// environment; any of them would change what is measured.
fn ambient_knob() -> Option<String> {
    std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .find(|key| key.starts_with("LPA_") || key == "RAYON_NUM_THREADS")
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gridbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(key) = ambient_knob() {
        eprintln!("gridbench: refusing to start: {key} is set and would change what is measured; unset it");
        return ExitCode::from(2);
    }
    println!("{}", host::fingerprint());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run::run(&args, started) {
        Ok(report) => {
            println!("{}", report.json());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "gridbench: {} of {} operations failed",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(error) => {
            eprintln!("gridbench: {error}");
            ExitCode::from(1)
        }
    }
}
