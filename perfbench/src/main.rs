//! `deep500-perfbench` — one benchmark over the whole deep500-rs stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-resnet|serve-lenet|dist-mlp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with `--trace 1`
//! it measures the same workload untraced and then traced, and prints the
//! per-layer metrics, the coverage of the end-to-end time they explain and
//! the tracing overhead. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! run exits non-zero when an output check fails. See `README.md`.

mod dist;
mod probe;
mod report;
mod serve;
mod stats;
mod train;

use report::Outcome;
use std::time::Duration;

/// What the command line asked for.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "train-resnet" => train::run(&args, budget),
        "serve-lenet" => serve::run(&args, budget),
        "dist-mlp" => dist::run(&args, budget),
        other => Err(format!(
            "unknown workload {other} (train-resnet, serve-lenet, dist-mlp)"
        )),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if !args.trace {
        outcome.set("peak_rss_mb", report::peak_rss_mb());
    }
    outcome.check(outcome.attempted > 0, "no operation was attempted");

    println!("manifest {}", report::manifest());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for failure in &outcome.check_failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    println!("{}", outcome.result_json(args.trace));
    if !outcome.check_failures.is_empty() {
        std::process::exit(1);
    }
}
