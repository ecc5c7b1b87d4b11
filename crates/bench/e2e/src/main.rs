//! `cfs-e2e-bench`: the end-to-end benchmark of cfs.
//!
//! ```text
//! cfs-e2e-bench --cfs PATH --workload batch_paper|serve_read|serve_mixed \
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a detail line (environment, sample counts, checks) and, as the
//! last line of standard output, the result object. See `README.md`.

#![forbid(unsafe_code)]

mod batch;
mod clock;
mod load;
mod out;
mod probe;
mod procfs;
mod serve;
mod spans;
mod stats;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use out::{Env, RunResult, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    cfs: Option<PathBuf>,
    child_batch: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        cfs: None,
        child_batch: false,
    };
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--child-batch" {
            a.child_batch = true;
            i += 1;
            continue;
        }
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} wants a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a number, got {value:?}"))
        };
        match flag {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.max(1),
            "--trace" => a.trace = number()? != 0,
            "--cfs" => a.cfs = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfs-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child_batch {
        return match batch::child(args.seed, args.trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cfs-e2e-bench child: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let scale = match args.workload.as_str() {
        "batch_paper" => "paper",
        "serve_read" | "serve_mixed" => "default",
        w => {
            eprintln!(
                "cfs-e2e-bench: unknown workload {w:?} (batch_paper, serve_read, serve_mixed)"
            );
            return ExitCode::from(2);
        }
    };
    let mut r = RunResult::default();
    let outcome = match args.workload.as_str() {
        "batch_paper" => batch::run(args.seed, args.seconds, args.trace, &mut r),
        w => match &args.cfs {
            Some(cfs) if cfs.is_file() => serve::run(
                w == "serve_mixed",
                cfs,
                args.seed,
                args.seconds,
                args.trace,
                &mut r,
            ),
            _ => Err("the serve workloads need --cfs PATH to a built cfs binary".into()),
        },
    };
    if let Err(e) = outcome {
        eprintln!("cfs-e2e-bench: {e}");
        return ExitCode::FAILURE;
    }

    let wanted: Vec<&'static str> = if args.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|(n, _)| *n)
        .collect();
    if args.trace {
        // A layer this workload does not exercise did no work.
        for name in &wanted {
            r.metrics.entry(name).or_insert(0.0);
        }
    }
    let missing: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|n| {
            !r.metrics
                .get(n)
                .is_some_and(|v| v.is_finite() && (args.trace || *v > 0.0))
        })
        .collect();
    if !missing.is_empty() {
        r.fail(format!(
            "metrics not measured (or not positive): {missing:?}"
        ));
    }
    let env = Env {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        scale,
    };
    out::print(&env, &r, &wanted);
    ExitCode::SUCCESS
}
