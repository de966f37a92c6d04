//! Table 3 — "Relative errors in the execution times due to slack".
//!
//! For each benchmark: the execution time of parallel S9, S100 and SU runs
//! relative to the deterministic cycle-by-cycle baseline (the parallel CC
//! engine is asserted cycle-exact against it elsewhere).
//!
//! Note (EXPERIMENTS.md): eager-scheme errors are host-dependent; the paper
//! ran on 8 host cores where simulation threads progress in near-lockstep,
//! so its S100/SU errors are smaller than what a 1-CPU host produces.

use crate::{bench_config, print_table, run_par, run_seq};
use sk_core::{CoreModel, Scheme};
use sk_kernels::Scale;
use std::num::NonZeroUsize;

/// Print Table 3; each cell is the worst error over `reps` parallel runs.
pub fn table3(scale: Scale, model: CoreModel, reps: NonZeroUsize) {
    let cfg = bench_config(model);
    println!("Table 3: relative execution-time error vs cycle-by-cycle\n");
    let schemes = [Scheme::BoundedSlack(9), Scheme::BoundedSlack(100), Scheme::Unbounded];
    let mut rows = Vec::new();
    for w in sk_kernels::extended_suite(8, scale) {
        let base = run_seq(&w, &cfg);
        let mut row = vec![w.name.clone(), format!("{}", base.exec_cycles)];
        for scheme in schemes {
            let mut worst: f64 = 0.0;
            for _ in 0..reps.get() {
                let r = run_par(&w, scheme, &cfg);
                worst = worst.max(r.exec_time_error(&base));
            }
            row.push(format!("{:.2}%", 100.0 * worst));
        }
        rows.push(row);
    }
    print_table(&["Benchmark", "CC cycles", "S9", "S100", "SU"], &rows);
    println!("\nPaper reference (8-core host): S9 0.01-0.08%, S100 0.07-1.82%, SU 1.83-5.94%.");
    println!("Eager-scheme errors grow on hosts with fewer cores than simulation threads;");
    println!("the ordering S9 < S100 < SU is the reproduced result.");
}
