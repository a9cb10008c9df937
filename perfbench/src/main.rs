//! The vericomp benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <release_cold|wcet_audit|served_edit|served_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is derived from `--seed`. With `--trace 0` the run
//! measures for `--seconds` and reports the end-to-end metrics; with
//! `--trace 1` it measures the same window untraced, runs the workload
//! once more with the benchmark's spans on, and reports the per-layer
//! metrics, writing a layer table and a Chrome trace under
//! `.perfbench_out/`. Outputs are checked by correctness oracles; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, and the exit code is nonzero when a check
//! failed. See `perfbench/README.md` for the workloads and metrics.

mod audit;
mod calib;
mod cold;
mod inputs;
mod layers;
mod served;
mod spans;
mod util;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <release_cold|wcet_audit|served_edit|served_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "release_cold" => cold::run(&args),
        "wcet_audit" => audit::run(&args),
        "served_edit" => served::run_edit(&args),
        "served_churn" => served::run_churn(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.info("failed_frac", failed_frac);
    outcome.info("probe_ns", calib::median_probe());
    let mut summary = format!(
        "perfbench: workload={} seed={} trace={}",
        args.workload, args.seed, args.trace as u8
    );
    for (key, value) in &outcome.info {
        summary.push_str(&format!(" {key}={value}"));
    }
    println!("{summary}");
    for (name, value, unit) in &outcome.metrics {
        println!("perfbench: {name} = {value} {unit}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
