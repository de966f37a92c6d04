//! The paper's §2.2 remark — "it is possible to split the functionality of
//! the manager thread also into several threads" — implemented and
//! demonstrated: sharded memory managers keep conservative schemes
//! cycle-exact while giving eager schemes more reply throughput.
//!
//! ```text
//! cargo run --release --example sharded_managers
//! ```

use slacksim_suite::prelude::*;

fn main() {
    let w = kernels::barnes::barnes(8, 24, 1);
    let mut cfg = TargetConfig::paper_8core();
    let base = run_sequential(&w.program, &cfg);
    println!(
        "Barnes ({}), single-manager cycle-by-cycle baseline: {} cycles\n",
        w.input, base.exec_cycles
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "managers", "CC cycles", "CC error", "S16 error", "SU error"
    );
    for shards in [0usize, 2, 4] {
        cfg.mem_shards = shards;
        let cc = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
        let s16 = run_parallel(&w.program, Scheme::BoundedSlack(16), &cfg);
        let su = run_parallel(&w.program, Scheme::Unbounded, &cfg);
        assert_eq!(cc.printed(), base.printed());
        assert_eq!(s16.printed(), base.printed());
        assert_eq!(su.printed(), base.printed());
        println!(
            "{:<16} {:>10} {:>9.2}% {:>9.2}% {:>9.1}%",
            if shards == 0 { "1 (classic)".into() } else { format!("1 + {shards} shards") },
            cc.exec_cycles,
            100.0 * cc.exec_time_error(&base),
            100.0 * s16.exec_time_error(&base),
            100.0 * su.exec_time_error(&base),
        );
    }
    println!("\nConservative schemes stay deterministic under sharding (the frontier");
    println!("backpressure guarantees it; the tiny CC difference is the per-shard");
    println!("interconnect channel). Unbounded slack's host-induced error shrinks");
    println!("as manager throughput grows, while S16 bounds how far any core may");
    println!("run ahead of global time at every shard count.");

    // Many-core scale-out: the same invariant at 64 cores on a
    // `many_core` target — sharded CC reproduces the single-manager run
    // bit for bit (whole-report fingerprint, not just printed output),
    // so partitioning both the directory and the window fan-out is
    // invisible to simulated time.
    let w64 = kernels::micro::lock_sweep(64, 2);
    let mut cfg64 = TargetConfig::many_core(64);
    cfg64.max_cycles = 20_000_000;
    let cc1 = run_parallel(&w64.program, Scheme::CycleByCycle, &cfg64);
    println!("\n64-core lock_sweep, CC, single manager: {} cycles", cc1.exec_cycles);
    for shards in [4usize, 8] {
        cfg64.mem_shards = shards;
        let ccs = run_parallel(&w64.program, Scheme::CycleByCycle, &cfg64);
        assert_eq!(ccs.fingerprint(), cc1.fingerprint());
        println!(
            "64-core lock_sweep, CC, 1 + {shards} shards: {} cycles (bit-identical)",
            ccs.exec_cycles
        );
    }
}
