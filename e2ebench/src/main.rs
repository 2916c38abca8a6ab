//! Command line of the end-to-end serving-round benchmark.
//!
//! ```text
//! bloc-e2ebench --workload <corridor_track|fleet_faults>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! check fails and 2 on a usage error.

use std::process::ExitCode;

use bloc_e2ebench::workload::Kind;
use bloc_e2ebench::{run, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bloc-e2ebench --workload <corridor_track|fleet_faults> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(kind) = value("--workload").and_then(Kind::parse) else {
        return usage("--workload must name a workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a non-negative integer");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("--seconds must be a positive number");
    };
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    let opts = Options::new(kind, seed, seconds, trace);

    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAILED: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", report.context);
    match report.result_line(trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("FAILED: {e}");
            return ExitCode::from(1);
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
