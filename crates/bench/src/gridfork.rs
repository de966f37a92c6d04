//! Fig. 6-style error grid from a single ROI checkpoint.
//!
//! Instead of simulating every (benchmark, scheme) cell from scratch, each
//! benchmark is warmed up ONCE under the deterministic cycle-by-cycle
//! scheme to its ROI safe-point, snapshotted, and every scheme of the
//! paper suite is forked from that one snapshot. The shared prefix makes
//! the grid cheaper by ~`(n_schemes - 1) × warmup` and guarantees every
//! scheme starts from the identical architectural state.
//!
//! `verify` additionally runs every cell from scratch, prints
//! `forked/scratch` error pairs, and asserts that each CC fork's cycle
//! count equals the from-scratch run's. Eager forks (S100, SU) are
//! approximate by construction: their slack-dependent timing differs
//! run to run with or without a checkpoint. The footer prints the worst
//! error among the other conservative forks (Q, S*) of this run.
//!
//! A `metrics_out` path attaches one sk-obs hub to every forked engine
//! and dumps the aggregated telemetry (slack/park histograms across the
//! whole grid) there as sk-obs-metrics JSON.

use crate::{bench_config, check, print_table, run_par, run_seq};
use sk_core::engine::{Engine, RunOutcome};
use sk_core::{CoreModel, Scheme};
use sk_kernels::Scale;
use std::path::Path;
use std::sync::Arc;

/// Print the forked error grid of the extended suite at `scale`.
pub fn gridfork(scale: Scale, model: CoreModel, verify: bool, metrics_out: Option<&Path>) {
    let cfg = bench_config(model);
    let obs = metrics_out
        .map(|_| Arc::new(sk_obs::Metrics::new(cfg.n_cores, sk_obs::ObsConfig::default())));
    let schemes = Scheme::paper_suite(cfg.critical_latency());

    println!("Checkpointed error grid: fork every scheme from one CC ROI snapshot\n");
    let mut headers: Vec<String> = vec!["Benchmark".into(), "ROI@".into()];
    headers.extend(schemes.iter().map(|s| s.short_name()));
    let mut rows = Vec::new();
    let mut worst_conservative: f64 = 0.0;

    for w in sk_kernels::extended_suite(8, scale) {
        let base = run_seq(&w, &cfg);
        // exec_cycles = exec_end - roi_start, so the warmup boundary (the
        // cycle RoiBegin fired) falls out of the baseline report.
        let exec_end = base.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        let roi_start = exec_end.saturating_sub(base.exec_cycles).max(1);

        let mut warm = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
        let bytes = match warm.run_until(Some(roi_start)) {
            RunOutcome::CheckpointReady => warm.snapshot().expect("snapshot at the ROI safe-point"),
            RunOutcome::Finished => {
                println!("{}: finished before the ROI boundary; skipped", w.name);
                continue;
            }
            // gridfork never raises the cancel token.
            RunOutcome::Cancelled => unreachable!("cancelled without a cancel token holder"),
        };

        let mut row = vec![w.name.clone(), roi_start.to_string()];
        for &scheme in &schemes {
            let mut fork = Engine::resume(&bytes, Some(scheme)).expect("fork from snapshot");
            if let Some(o) = &obs {
                fork.attach_metrics(o.clone());
            }
            fork.run_until(None);
            let r = fork.into_report();
            check(&w, &r);
            let err = 100.0 * r.exec_time_error(&base);
            if scheme.is_conservative() {
                worst_conservative = worst_conservative.max(err.abs());
            }
            if verify {
                let scratch = run_par(&w, scheme, &cfg);
                if scheme == Scheme::CycleByCycle {
                    assert_eq!(
                        r.exec_cycles, scratch.exec_cycles,
                        "{}: CC fork must take the from-scratch run's cycles",
                        w.name
                    );
                }
                row.push(format!("{err:.2}/{:.2}%", 100.0 * scratch.exec_time_error(&base)));
            } else {
                row.push(format!("{err:.2}%"));
            }
        }
        rows.push(row);
    }

    let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&hdr, &rows);
    println!("\nAll cells share one CC warmup to the ROI safe-point per benchmark.");
    println!(
        "This run: the worst conservative fork (CC, Q, S*) error is {worst_conservative:.2}%."
    );
    println!("Eager forks (S, SU) are approximate; their error is the grid's measurement,");
    println!("isolated from warmup noise.");
    if verify {
        println!("Cells are forked/scratch percent-error pairs (CC cycles asserted equal).");
    }
    if let (Some(path), Some(o)) = (metrics_out, &obs) {
        if let Err(e) = std::fs::write(path, o.to_json()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}
