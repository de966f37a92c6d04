//! Table 3 — "Relative errors in the execution times due to slack".
//!
//! For each benchmark: the execution time of parallel S9, S100 and SU runs
//! relative to `run_sequential` CC (the pool's CC run equals it cycle for
//! cycle: `tests/suite_integration.rs::parallel_cc_is_cycle_exact_on_every_kernel`).
//!
//! Note (EXPERIMENTS.md "Table 3"): eager-scheme errors depend on the
//! schedule the host produces; the paper ran on 8 host cores where its
//! simulation threads progressed in near-lockstep, so its S100/SU errors
//! are smaller than what a pool worker that runs each core to its window
//! produces on the host this runs on. The footer says on how many kernels
//! this run's errors kept the paper's S9 ≤ S100 ≤ SU order.

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
    let mut ordered_rows = 0;
    for w in sk_kernels::extended_suite(8, scale) {
        let base = run_seq(&w, &cfg);
        let mut row = vec![w.name.clone(), format!("{}", base.exec_cycles)];
        let mut errors = [0.0f64; 3];
        for (scheme, error) in schemes.into_iter().zip(&mut errors) {
            for _ in 0..reps.get() {
                let r = run_par(&w, scheme, &cfg);
                *error = error.max(r.exec_time_error(&base));
            }
            row.push(format!("{:.2}%", 100.0 * *error));
        }
        ordered_rows += usize::from(ordered(errors));
        rows.push(row);
    }
    print_table(&["Benchmark", "CC cycles", "S9", "S100", "SU"], &rows);
    println!("\nPaper reference (8-core host): S9 0.01-0.08%, S100 0.07-1.82%, SU 1.83-5.94%.");
    println!("This run: S9 <= S100 <= SU held on {ordered_rows} of {} kernels.", rows.len());
}

/// Whether one kernel's worst errors keep the paper's order,
/// S9 ≤ S100 ≤ SU.
fn ordered([s9, s100, su]: [f64; 3]) -> bool {
    s9 <= s100 && s100 <= su
}

#[cfg(test)]
mod tests {
    use super::ordered;

    #[test]
    fn a_row_is_ordered_only_when_each_error_is_at_most_the_next() {
        assert!(ordered([0.0009, 0.0338, 0.344]));
        assert!(ordered([0.0, 0.0, 0.0]));
        assert!(!ordered([0.0829, 0.746, 0.05]));
        assert!(!ordered([0.01, 0.001, 0.5]));
    }
}
