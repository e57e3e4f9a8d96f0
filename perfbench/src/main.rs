//! The repository's benchmark: three workloads (`ingest`, `serve`,
//! `reason`) that drive the HiLog engine, store and HTTP server through
//! their public interfaces, check every answer against an independent
//! oracle, and print end-to-end metrics (untraced run) or per-layer
//! metrics (traced run).  See README.md.
//!
//! ```text
//! perfbench --workload <ingest|serve|reason> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  The exit code is 0 only when every
//! answer was correct.

mod alloc;
mod calib;
mod http;
mod ingest;
mod oracle;
mod reason;
mod report;
mod serve;
mod stats;
mod timing_io;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Evaluation options of every in-process `HiLogDb`: one evaluation thread,
/// so the `pool` layer stays out of the measurements on a 2-core machine.
pub fn eval_options() -> hilog_engine::EvalOptions {
    hilog_engine::EvalOptions {
        eval_threads: 1,
        ..hilog_engine::EvalOptions::default()
    }
}

/// Scratch directory for data files and traces, under the working
/// directory (the root of the checkout).
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|serve|reason> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so the server's threads inherit it.
    let pinned = stats::pin_to_one_cpu();
    let mut outcome = match args.workload.as_str() {
        "ingest" => ingest::run(&args),
        "serve" => serve::run(&args),
        "reason" => reason::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (ingest, serve, reason)");
            return ExitCode::from(2);
        }
    };
    outcome.config.insert(
        0,
        match pinned {
            Some(cpu) => format!(
                "all threads pinned to CPU {cpu}; timings are process CPU time (wall time for the traced layer spans)"
            ),
            None => "CPU pinning failed; timings are process CPU time (wall time for the traced layer spans)".into(),
        },
    );
    if args.trace {
        let dir = scratch_dir();
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| trace::write_jsonl(&path)) {
            Ok(n) => println!("trace: {n} spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    report::print(&args.workload, &outcome, args.trace);
    if outcome.attempted == 0 || !outcome.is_correct() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
