//! `skbench` — the performance ledger of the SlackSim reproduction.
//!
//! ```text
//! skbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! skbench noise [--runs N] [--seed N] [--seconds S]
//! skbench compare PARENT.json CHANGE.json
//! ```
//!
//! `run --workload W` measures one workload in this process and ends its
//! standard output with one JSON result line. `run` without a workload
//! runs all five, one child process each (so `peak_rss_mb` is per
//! workload), and ends with a JSON summary. README.md has the rest.

mod calib;
mod cells;
mod compare;
mod layers;
mod metrics;
mod serve;
mod sim;
mod span;
mod stats;
mod suite;

use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 5] =
    ["ooo_compute", "inorder_slack", "coordinator_cc", "threads_slack", "serve_jobs"];

/// `run` options. `seconds` is how long the timed phase measures.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Corrupt one expected value, to show the correctness gate trips.
    pub perturb: bool,
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Where result and span files go: `out/` beside this crate's manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the traced pass's spans to `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, rec: &span::Recorder, out: &mut Outcome) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, rec.to_json(workload)));
    match written {
        Ok(()) => out.notes.push(format!("{} spans in {}", rec.spans().len(), path.display())),
        Err(e) => out.notes.push(format!("could not write {}: {e}", path.display())),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: skbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      skbench noise [--runs N] [--seed N] [--seconds S]\n\
         \x20      skbench compare PARENT.json CHANGE.json\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

/// Flags shared by `run` and `noise`.
struct Args {
    opts: Opts,
    workload: Option<String>,
    out: Option<String>,
    runs: usize,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        opts: Opts { seed: 1, seconds: 10.0, traced: false, perturb: false },
        workload: None,
        out: None,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => parsed.opts.traced = true,
            "--perturb" => parsed.opts.perturb = true,
            _ => {
                let value = it.next()?;
                match flag.as_str() {
                    "--workload" => parsed.workload = Some(value.clone()),
                    "--seed" => parsed.opts.seed = value.parse().ok()?,
                    "--seconds" => {
                        parsed.opts.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?
                    }
                    "--trace" => parsed.opts.traced = value.parse::<u8>().ok()? != 0,
                    "--out" => parsed.out = Some(value.clone()),
                    "--runs" => parsed.runs = value.parse().ok().filter(|n| *n >= 2)?,
                    _ => return None,
                }
            }
        }
    }
    Some(parsed)
}

/// The metrics a run in this mode reports.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Measure one workload in this process and print its result line.
fn run_one(workload: &str, opts: &Opts) -> ExitCode {
    let out = match (workload, opts.traced) {
        ("serve_jobs", false) => serve::run(opts),
        ("serve_jobs", true) => serve::run_traced(opts),
        (w, _) if cells::matrix(w).is_none() => return usage(),
        (w, false) => sim::run(w, opts),
        (w, true) => layers::run(w, opts),
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let defs = defs(opts.traced);
    for d in defs {
        println!("{workload:15} {:36} {:>18.6} {}", d.name, out.values.get(d.name), d.unit);
    }
    println!(
        "{workload:15} {:36} {:>18.6} frac ({} of {})",
        "ops_failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", out.result_json(defs));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload and print (and optionally append) the summary.
fn run_suite(args: &Args) -> ExitCode {
    let summary = match suite::run_all(&args.opts) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("skbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", summary.json);
    if let Some(path) = &args.out {
        if let Err(e) = suite::append_line(path, &summary.json) {
            eprintln!("skbench: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if summary.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else { return usage() };
    match (command.as_str(), rest) {
        ("compare", [parent, change]) => compare::main(parent, change),
        ("run" | "noise", flags) => {
            let Some(args) = parse_args(flags) else { return usage() };
            match (command.as_str(), &args.workload) {
                ("noise", _) => suite::noise(&args.opts, args.runs),
                (_, Some(workload)) => run_one(workload, &args.opts),
                (_, None) => run_suite(&args),
            }
        }
        _ => usage(),
    }
}
