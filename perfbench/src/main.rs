//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <stack-churn|queue-batch|served-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload, checks its outputs, prints a short human
//! summary and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The plain run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer metrics and writes its spans to
//! `perfbench/traces/`. The exit code is 0 only when every check passed.

mod inproc;
mod ledger;
mod measure;
mod report;
mod served;
mod sysstat;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_line, Checks, Metrics, END_TO_END, PER_LAYER};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["stack-churn", "queue-batch", "served-mix"];

/// The command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input and every builder derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every value measured, by metric name.
    pub metrics: Metrics,
    /// The correctness verdict.
    pub checks: Checks,
    /// Kept spans of the traced run.
    pub spans: Vec<trace::Span>,
    /// Human-readable lines printed before the result line.
    pub summary: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.2..=600.0).contains(&s) {
                    return Err(format!("--seconds must be in 0.2..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "stack-churn" => inproc::stack_churn(&args),
        "queue-batch" => inproc::queue_batch(&args),
        _ => served::served_mix(&args),
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // Layers this workload does not load read 0.
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        let path = PathBuf::from("perfbench/traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => outcome.summary.push(format!(
                "{} spans written to {}",
                outcome.spans.len(),
                path.display()
            )),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for line in &outcome.summary {
        println!("# {line}");
    }
    let m = &outcome.metrics;
    let metric = |name| m.get(name).copied().unwrap_or(0.0);
    println!(
        "# latency p99 {:.3} us ({} samples); memory {:.2} MiB resident, {:.2} MiB peak",
        metric("latency.p99_us"),
        metric("latency.samples"),
        metric("os.rss_mib"),
        metric("os.rss_peak_mib")
    );
    let checks = &outcome.checks;
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        report::ratio(checks.failed() as f64, checks.attempted.max(1) as f64),
        checks.failed(),
        checks.attempted
    );
    for failure in &checks.failures {
        println!("# FAILED: {failure}");
    }
    match result_line(checks, &outcome.metrics, names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload served-mix --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            RunArgs { workload: "served-mix".into(), seed: 7, seconds: 10.0, trace: true }
        );
    }

    #[test]
    fn every_workload_reports_every_metric_and_passes_its_checks() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs { workload: workload.to_string(), seed: 5, seconds: 0.5, trace };
                let outcome = match *workload {
                    "stack-churn" => inproc::stack_churn(&args),
                    "queue-batch" => inproc::queue_batch(&args),
                    _ => served::served_mix(&args),
                };
                assert!(outcome.checks.correct(), "{workload}: {:?}", outcome.checks.failures);
                assert!(outcome.checks.attempted > 0);
                let names = if trace { PER_LAYER } else { END_TO_END };
                for (name, _) in names {
                    let value = outcome.metrics.get(name).copied();
                    if trace {
                        // Per-layer metrics of layers the workload does
                        // not load are filled with 0 by `main`.
                        assert!(value.is_none_or(f64::is_finite), "{workload}: {name}");
                    } else {
                        assert!(value.is_some_and(|v| v > 0.0), "{workload}: {name} = {value:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload stack-churn --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload stack-churn --seed x --seconds 1")).is_err());
        assert!(parse_args(&args("--workload stack-churn --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload stack-churn --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload stack-churn --seed")).is_err());
    }
}
