//! Figure 8 — simulation speedups of each scheme on 2/4/8 host cores,
//! per benchmark plus harmonic means.
//!
//! The paper measured wall-clock speedups on a dual quad-core Xeon. This
//! container exposes one CPU, so (per DESIGN.md §2) the host itself is
//! simulated: a real engine run records each core thread's per-cycle work
//! trace, and `sk-hostsim`'s deterministic virtual host replays those
//! traces under every scheme's window discipline. The baseline is the
//! H = 1 cycle-by-cycle replay, mirroring the paper's.

use crate::{bench_config, harmonic_mean, print_table, run_seq};
use sk_core::{CoreModel, Scheme};
use sk_hostsim::{CostModel, VirtualHost};
use sk_kernels::Scale;

/// Print Figure 8's per-benchmark speedup tables and their harmonic means.
pub fn fig8(scale: Scale, model: CoreModel) {
    let mut cfg = bench_config(model);
    cfg.record_trace = true;

    let schemes = Scheme::paper_suite(cfg.critical_latency());
    let hosts = [2usize, 4, 8];
    let cost = CostModel::default();

    println!("Figure 8: simulation speedup vs host cores (virtual host replay)\n");
    let mut all: Vec<Vec<f64>> = vec![vec![]; schemes.len() * hosts.len()];
    for w in sk_kernels::extended_suite(8, scale) {
        let r = run_seq(&w, &cfg);
        let traces = r.traces.expect("trace recording enabled");
        let ev_rate = r.engine.events_processed as f64 / r.exec_cycles.max(1) as f64;
        let base =
            VirtualHost { h: 1, cost }.run_with_events(&traces, Scheme::CycleByCycle, ev_rate);

        println!("{} ({}):", w.name, w.input);
        let mut rows = Vec::new();
        for (si, &scheme) in schemes.iter().enumerate() {
            let mut row = vec![scheme.short_name()];
            for (hi, &h) in hosts.iter().enumerate() {
                let run = VirtualHost { h, cost }.run_with_events(&traces, scheme, ev_rate);
                let s = run.speedup_vs(&base);
                all[si * hosts.len() + hi].push(s);
                row.push(format!("{s:.2}"));
            }
            rows.push(row);
        }
        print_table(&["scheme", "2 cores", "4 cores", "8 cores"], &rows);
        println!();
    }

    println!("Harmonic means (Figure 8e):");
    let mut rows = Vec::new();
    for (si, &scheme) in schemes.iter().enumerate() {
        let mut row = vec![scheme.short_name()];
        for hi in 0..hosts.len() {
            row.push(format!("{:.2}", harmonic_mean(&all[si * hosts.len() + hi])));
        }
        rows.push(row);
    }
    print_table(&["scheme", "2 cores", "4 cores", "8 cores"], &rows);
    println!("\nPaper shape: CC poor and flat (~2-2.6 at 8 cores); all slack schemes");
    println!(">= 3.3 even on 2 host cores; S9 ~20% above Q10 at 8 cores; S9* ~ S9;");
    println!("S100 above S9; SU best. See EXPERIMENTS.md for the S10* (L10) deviation note.");
}
