//! # sk-bench — the experiment harness
//!
//! One function per table/figure of the paper (see DESIGN.md §8), run
//! by `slacksim reproduce <name>`:
//!
//! | function | regenerates |
//! |---|---|
//! | [`fig2`] | Figure 2 — pedagogical scheme timelines |
//! | [`table2`] | Table 2 — benchmarks and baseline KIPS |
//! | [`table3`] | Table 3 — relative exec-time errors of S9/S100/SU |
//! | [`violations`] | Figures 3–7 — slack-induced violation counters |
//! | [`fig8`] | Figure 8 — measured speedups vs pool workers, with error |
//! | [`gridfork`] | Fig. 6-style error grid forked from one ROI checkpoint |
//! | [`ablation`] | design ablations |
//! | [`scaleout`] | sharded clock domains at 8–64 cores |
//!
//! Each prints its table on stdout and panics when a run computes a
//! wrong result. Criterion benches (`primitives`, `hot_paths`) time
//! single layers. Speed claims are made by the ledger in `benchmark/`,
//! not here.

mod ablation;
mod fig2;
mod fig8;
mod gridfork;
mod scaleout;
mod table2;
mod table3;
mod violations;

pub use ablation::ablation;
pub use fig2::fig2;
pub use fig8::fig8;
pub use gridfork::gridfork;
pub use scaleout::scaleout;
pub use table2::table2;
pub use table3::table3;
pub use violations::violations;

use sk_core::{CoreModel, Scheme, SimReport, TargetConfig};
use sk_kernels::Workload;

/// The paper's 8-core target configuration with the chosen core model.
pub fn bench_config(model: CoreModel) -> TargetConfig {
    let mut cfg = TargetConfig::paper_8core();
    cfg.core.model = model;
    cfg
}

/// Run a workload on the sequential reference engine.
pub fn run_seq(w: &Workload, cfg: &TargetConfig) -> SimReport {
    let r = sk_core::run_sequential(&w.program, cfg);
    check(w, &r);
    r
}

/// Run a workload on the parallel engine under `scheme`.
pub fn run_par(w: &Workload, scheme: Scheme, cfg: &TargetConfig) -> SimReport {
    let r = sk_core::run_parallel(&w.program, scheme, cfg);
    check(w, &r);
    r
}

/// Assert the workload printed its expected values ("the workloads always
/// execute correctly", paper §3.2.3 — this is the check).
pub fn check(w: &Workload, r: &SimReport) {
    let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
    assert_eq!(printed, w.expected, "{}: workload output corrupted (scheme {})", w.name, r.scheme);
}

/// Harmonic mean (the paper's Figure 8(e) aggregation).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    n / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Render a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut width: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = width[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(width.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_of_equal_values() {
        assert!((harmonic_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_is_dominated_by_small_values() {
        let hm = harmonic_mean(&[1.0, 100.0]);
        assert!(hm < 2.0 && hm > 1.0);
    }
}
