//! `spine` — the repo's benchmark: four workloads over the whole
//! request path, measured from outside through public items only.
//!
//! ```text
//! spine --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
//! spine all [--seed N] [--seconds S]                    every workload, untraced and traced
//! spine compare A.json… -- B.json…                      two sets of result files
//! ```
//!
//! See `README.md` beside this package for the metrics and workloads.

mod client;
mod compare;
mod inputs;
mod oracle;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{Outcome, RunRecord};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Invalid, Run};

/// A wrong answer.
const EXIT_INCORRECT: u8 = 1;
/// Bad arguments, or a run whose numbers would mislead.
const EXIT_INVALID: u8 = 2;

/// The package's directory: results, traces and scratch files go to
/// `out/` inside it, nowhere else.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u32,
    traced: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("not a whole number"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err(bad("must be 1 to 60"));
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

/// One run of one workload. Traced, the workload runs twice: first the
/// first quarter of its work with tracing off, as the reference the
/// tracing overhead is measured against, then all of it traced.
fn run_once(args: &RunArgs, out: &Path) -> Result<Outcome, Invalid> {
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    let ctx = |traced: bool, work_div: usize| Ctx {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced,
        work_div,
        tmp: &tmp,
        trace_path: out.join(format!("trace-{}.json", args.workload)),
    };
    let result = if args.traced {
        workloads::run(&ctx(false, 4)).and_then(|reference| {
            let mut traced = workloads::run(&ctx(true, 1))?;
            tracing_overhead(&reference, &mut traced)?;
            Ok(traced.outcome)
        })
    } else {
        workloads::run(&ctx(false, 1)).map(|run| run.outcome)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

/// Median latency of the traced run over the requests the reference
/// also made, divided by the reference's: the same requests in the same
/// order, once with every span and server trace on and once with none.
fn tracing_overhead(reference: &Run, traced: &mut Run) -> Result<(), Invalid> {
    let mut same_requests = Vec::new();
    for (r, t) in reference.primary_ns.iter().zip(&traced.primary_ns) {
        same_requests.extend(t[..r.len()].iter().map(|&ns| ns as f64));
    }
    let of_reference: Vec<f64> = reference
        .primary_ns
        .iter()
        .flatten()
        .map(|&ns| ns as f64)
        .collect();
    let ratio = stats::median(&same_requests) / stats::median(&of_reference);
    traced
        .outcome
        .metrics
        .set("obs.tracing_overhead_ratio", ratio);
    // Tracing must observe the work, not change it: over the calls both
    // runs made, the index's own counters have to agree exactly.
    for (block, (r, t)) in reference
        .s1_counters
        .iter()
        .zip(&traced.s1_counters)
        .enumerate()
    {
        let traced_sum = atsq_core::EngineCounters::sum(t[..r.len()].iter().copied());
        let reference_sum = atsq_core::EngineCounters::sum(r.iter().copied());
        if traced_sum != reference_sum {
            return Err(Invalid(format!(
                "engine counters differ between the untraced and the traced run \
                 (block {block}: {reference_sum:?} against {traced_sum:?})"
            )));
        }
    }
    Ok(())
}

fn result_path(out: &Path, args: &RunArgs) -> PathBuf {
    out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.traced)
    ))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(args) if workloads::NAMES.contains(&args.workload.as_str()) => args,
        Ok(args) => {
            eprintln!(
                "spine: --workload `{}` is not one of {:?}",
                args.workload,
                workloads::NAMES
            );
            return ExitCode::from(EXIT_INVALID);
        }
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(EXIT_INVALID);
        }
    };
    let out = package_dir().join("out");
    std::fs::create_dir_all(&out).expect("create output directory");
    let outcome = match run_once(&args, &out) {
        Ok(outcome) => outcome,
        Err(Invalid(reason)) => {
            eprintln!("spine: invalid run of {}: {reason}", args.workload);
            return ExitCode::from(EXIT_INVALID);
        }
    };
    let record = RunRecord::collect(&args.workload, args.seed, args.seconds, args.traced);
    outcome
        .write_file(&result_path(&out, &args), &record)
        .expect("write result file");
    print!("{}", outcome.table(args.traced));
    println!("{}", outcome.result_line(args.traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "spine: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(EXIT_INCORRECT)
    }
}

/// Every workload untraced and traced, each in a process of its own so
/// that peak memory and allocator state do not leak between them.
fn cmd_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    for workload in workloads::NAMES {
        for trace in ["0", "1"] {
            println!("## {workload} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(args)
                .status()
                .expect("start a run");
            if !status.success() {
                return ExitCode::from(status.code().unwrap_or(i32::from(EXIT_INVALID)) as u8);
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut sides = args.split(|a| a == "--");
    let a = sides.next().unwrap_or_default();
    let b = sides.next().unwrap_or_default();
    match compare::compare(a, b, &package_dir().join("../BENCHMARK.json")) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_INCORRECT),
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(EXIT_INVALID)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        _ => cmd_run(&args),
    }
}
