//! Table 2 — "Benchmarks": input sets and the KIPS of the single-host-core
//! cycle-by-cycle baseline simulation of the 8-core target.

use crate::{bench_config, print_table, run_seq};
use sk_core::CoreModel;
use sk_kernels::Scale;

/// Print Table 2 for the extended suite at `scale` on `model` cores.
pub fn table2(scale: Scale, model: CoreModel) {
    let cfg = bench_config(model);
    println!("Table 2: benchmarks and baseline simulation throughput");
    println!("(sequential cycle-by-cycle simulation of the 8-core target, {model:?} cores)\n");
    let mut rows = Vec::new();
    for w in sk_kernels::extended_suite(8, scale) {
        eprintln!("running {} ...", w.name);
        let r = run_seq(&w, &cfg);
        rows.push(vec![
            w.name.clone(),
            w.input.clone(),
            format!("{}", r.total_committed()),
            format!("{}", r.exec_cycles),
            format!("{:.1}", r.kips()),
        ]);
    }
    print_table(&["Benchmark", "Input Set", "Instructions", "Cycles", "KIPS"], &rows);
    println!("\nPaper reference (100 M instructions on a 1.6 GHz Xeon): 111–127 KIPS.");
}
