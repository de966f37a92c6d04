//! Mini Table 3: execution-time error of every slack scheme against the
//! cycle-by-cycle baseline, on the FFT kernel.
//!
//! ```text
//! cargo run --release --example accuracy_sweep
//! ```

use slacksim_suite::prelude::*;

fn main() {
    let w = kernels::fft::fft(8, 7); // 128 points, quick
    let cfg = TargetConfig::paper_8core();
    let baseline = run_sequential(&w.program, &cfg);
    println!(
        "FFT ({}): baseline {} cycles, {} instructions\n",
        w.input,
        baseline.exec_cycles,
        baseline.total_committed()
    );
    println!("{:<6} {:>10} {:>10} {:>12} {:>10}", "scheme", "cycles", "error", "blocks", "output");
    for scheme in Scheme::paper_suite(cfg.critical_latency()) {
        let r = run_parallel(&w.program, scheme, &cfg);
        let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
        println!(
            "{:<6} {:>10} {:>9.3}% {:>12} {:>10}",
            scheme.short_name(),
            r.exec_cycles,
            100.0 * r.exec_time_error(&baseline),
            r.engine.blocks,
            if printed == w.expected { "OK" } else { "MISMATCH" },
        );
    }
    println!("\nConservative schemes (CC, Q10, S10*, S9*) track the baseline exactly;");
    println!("bounded slack drifts a little; unbounded slack drifts the most —");
    println!("while every scheme still computes the correct FFT (paper S3.2.3).");
}
