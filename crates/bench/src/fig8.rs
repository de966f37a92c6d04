//! Figure 8 — simulation speedups of each scheme on 1/2/4/8 host cores,
//! per benchmark plus harmonic means.
//!
//! The paper measured wall-clock speedups on a dual quad-core Xeon against
//! "all threads executed by one single host core". Here each cell is
//! measured on this host: the wall of `Engine::new` + `set_workers(H)` +
//! `run_until(None)` against the wall of `run_sequential` (CC on one host
//! thread), with the cell's Table 3 error against that CC run beside it,
//! since slack buys its speed with that error. A column whose H exceeds the
//! CPUs this process may use prints `unmeasured`: a pool of more workers
//! than CPUs shows the host, not the scheme. One run per cell; speedups are
//! printed, never asserted.

use crate::{bench_config, check, harmonic_mean, print_table, run_seq};
use sk_core::{CoreModel, Engine, Scheme, SimReport, TargetConfig};
use sk_kernels::{Scale, Workload};
use std::time::Instant;

const HOSTS: [usize; 4] = [1, 2, 4, 8];

/// Print Figure 8's per-benchmark speedup tables and their harmonic means.
pub fn fig8(scale: Scale, model: CoreModel) {
    let cfg = bench_config(model);
    let schemes = Scheme::paper_suite(cfg.critical_latency());
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let headers: Vec<String> = HOSTS.iter().map(|h| format!("H={h}")).collect();
    let headers: Vec<&str> =
        ["scheme"].into_iter().chain(headers.iter().map(|h| h.as_str())).collect();

    println!("Figure 8: wall-clock speedup vs sequential CC on H pool workers (measured)");
    println!("cell = speedup, error vs CC; one run each; host has {cpus} CPUs");
    for h in HOSTS.iter().filter(|&&h| h > cpus) {
        println!("H={h}: unmeasured (host has {cpus} CPUs)");
    }
    println!();
    let mut all: Vec<Vec<f64>> = vec![vec![]; schemes.len() * HOSTS.len()];
    for w in sk_kernels::extended_suite(8, scale) {
        let t0 = Instant::now();
        let base = run_seq(&w, &cfg);
        let base_wall = t0.elapsed().as_secs_f64();

        println!("{} ({}):", w.name, w.input);
        let mut rows = Vec::new();
        for (si, &scheme) in schemes.iter().enumerate() {
            let mut row = vec![scheme.short_name()];
            for (hi, &h) in HOSTS.iter().enumerate() {
                if h > cpus {
                    row.push("unmeasured".into());
                    continue;
                }
                let (wall, r) = run_pool(&w, scheme, &cfg, h);
                let s = base_wall / wall;
                all[si * HOSTS.len() + hi].push(s);
                row.push(format!("{s:.2}, {:.2}%", 100.0 * r.exec_time_error(&base)));
            }
            rows.push(row);
        }
        print_table(&headers, &rows);
        println!();
    }

    println!("Harmonic means of the speedups (Figure 8e):");
    let mut rows = Vec::new();
    for (si, &scheme) in schemes.iter().enumerate() {
        let mut row = vec![scheme.short_name()];
        for (hi, &h) in HOSTS.iter().enumerate() {
            row.push(if h > cpus {
                "unmeasured".into()
            } else {
                format!("{:.2}", harmonic_mean(&all[si * HOSTS.len() + hi]))
            });
        }
        rows.push(row);
    }
    print_table(&headers, &rows);
    println!("\nPaper (8 host cores): CC ~2-2.6; every slack scheme >= 3.3 even on 2");
    println!("host cores; S100 above S9; SU best. See EXPERIMENTS.md, Figure 8.");
}

/// One pool run of `w` under `scheme` on `h` workers, output checked, and
/// its wall from engine construction to the end of the run.
fn run_pool(w: &Workload, scheme: Scheme, cfg: &TargetConfig, h: usize) -> (f64, SimReport) {
    let t0 = Instant::now();
    let mut e = Engine::new(&w.program, scheme, cfg);
    e.set_workers(h);
    e.run_until(None);
    let wall = t0.elapsed().as_secs_f64();
    let r = e.into_report();
    check(w, &r);
    (wall, r)
}
