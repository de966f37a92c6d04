//! # sk-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table2` | Table 2 — benchmarks and baseline KIPS |
//! | `table3` | Table 3 — relative exec-time errors of S9/S100/SU |
//! | `fig2`   | Figure 2 — pedagogical scheme timelines |
//! | `fig8`   | Figure 8 — speedups vs host cores (virtual host) |
//! | `violations` | Figures 3–7 — slack-induced violation counters |
//! | `gridfork` | Fig. 6-style error grid forked from one ROI checkpoint |
//! | `scaleout` | sharded clock domains at 8–64 cores |
//! | `ablation`, `calibrate` | design ablations; the virtual host's constants |
//!
//! plus Criterion benches (`primitives`, `hot_paths`) that time single
//! layers. Speed claims are made by the ledger in `benchmark/`, not here.

use sk_core::{CoreModel, Scheme, SimReport, TargetConfig};
use sk_kernels::{Scale, Workload};

/// Parse the common `--scale {test|bench|full}` argument (default bench).
pub fn scale_from_args() -> Scale {
    let mut scale = Scale::Bench;
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            scale = match args.get(i + 1).map(String::as_str) {
                Some("test") => Scale::Test,
                Some("bench") | None => Scale::Bench,
                Some("full") => Scale::Full,
                Some(other) => panic!("unknown scale '{other}'"),
            };
        }
    }
    scale
}

/// Parse `--model {inorder|ooo}` (default ooo, the paper's target core).
pub fn model_from_args() -> CoreModel {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--model" {
            return match args.get(i + 1).map(String::as_str) {
                Some("inorder") => CoreModel::InOrder,
                Some("ooo") | None => CoreModel::OutOfOrder,
                Some(other) => panic!("unknown model '{other}'"),
            };
        }
    }
    CoreModel::OutOfOrder
}

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
