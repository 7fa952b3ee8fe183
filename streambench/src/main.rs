//! Command-line entry point of the streamhist benchmark.
//!
//! ```text
//! cargo run --release --manifest-path streambench/Cargo.toml -- \
//!     --workload <window_maintain|serve_cached|ingest_fresh> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable notes go to stderr. Standard output carries one
//! `provenance` line, then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

#![allow(clippy::disallowed_macros)] // a report binary prints by design

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use streambench::{run, unit_of, RunOpts, Scale, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: streambench --workload <window_maintain|serve_cached|ingest_fresh> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<RunOpts, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunOpts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        trace_dir: Some(PathBuf::from(".bench_trace")),
    })
}

/// The checkout's commit, read from `.git` in the working directory only
/// (never from a parent directory); `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(opts: &RunOpts, config: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"available_parallelism\": {cores}, \"profile\": \"{profile}\", \"features\": [], \
         \"git_sha\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"config\": {config}}}",
        git_sha(),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    if let Some((name, value)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("benchmark error: metric {name} is {value}");
        return ExitCode::FAILURE;
    }
    let mut metrics = String::new();
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let unit = unit_of(name).expect("every reported metric is in a table");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
        eprintln!("{name:<36} {value:>16.4} {unit}");
    }
    println!("provenance {}", provenance(&opts, &report.config));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}
