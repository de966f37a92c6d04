//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! 1. **Slack sweep** — error and host-efficiency proxies as the bounded
//!    slack grows through and past the critical latency (where does the
//!    accuracy cliff sit?).
//! 2. **Quantum sweep** — the same for the quantum scheme.
//! 3. **Core model** — OoO vs. in-order target cores: simulation cost
//!    and workload cycles.
//! 4. **Event ordering** — eager (S9) vs. oldest-first (S9*) processing.
//! 5. **Manager sharding** — error and manager events on this host.
//! 6. **Target-core scaling** — the simulated workload at 1–16 cores.

use crate::{bench_config, print_table, run_par, run_seq};
use sk_core::{CoreModel, Scheme};
use sk_kernels::Scale;

/// Print the six ablation tables on Barnes at `scale` (OoO cores).
pub fn ablation(scale: Scale) {
    let cfg = bench_config(CoreModel::OutOfOrder);
    let w = &sk_kernels::paper_suite(8, scale)[0]; // Barnes
    let base = run_seq(w, &cfg);
    println!(
        "Workload: {} ({}), baseline {} cycles (critical latency = {})\n",
        w.name,
        w.input,
        base.exec_cycles,
        cfg.critical_latency()
    );

    // 1. slack sweep
    println!("1. Bounded-slack sweep (S s):");
    let mut rows = Vec::new();
    for s in [1u64, 3, 9, 30, 100, 300] {
        let r = run_par(w, Scheme::BoundedSlack(s), &cfg);
        rows.push(vec![
            format!("S{s}"),
            format!("{}", r.exec_cycles),
            format!("{:.3}%", 100.0 * r.exec_time_error(&base)),
            format!("{}", r.engine.blocks),
            format!("{}", r.engine.max_observed_slack),
        ]);
    }
    print_table(&["scheme", "cycles", "error", "window blocks", "max slack"], &rows);

    // 2. quantum sweep
    println!("\n2. Quantum sweep (Q q):");
    let crit = cfg.critical_latency();
    let mut rows = Vec::new();
    let mut worst_within_crit: f64 = 0.0;
    for q in [1u64, 5, 10, 20, 50, 100] {
        let r = run_par(w, Scheme::Quantum(q), &cfg);
        let error = r.exec_time_error(&base);
        if q <= crit {
            worst_within_crit = worst_within_crit.max(error.abs());
        }
        rows.push(vec![
            format!("Q{q}"),
            format!("{}", r.exec_cycles),
            format!("{:.3}%", 100.0 * error),
            format!("{}", r.engine.blocks),
        ]);
    }
    print_table(&["scheme", "cycles", "error", "window blocks"], &rows);
    println!("\nPaper: Q is conservative while q <= the critical latency ({crit}).");
    println!("This run: the worst error at q <= {crit} is {:.3}%.", 100.0 * worst_within_crit);

    // 3. core model
    println!("\n3. Target core model (sequential engine):");
    let mut rows = Vec::new();
    for model in [CoreModel::InOrder, CoreModel::OutOfOrder] {
        let cfg2 = bench_config(model);
        let r = run_seq(w, &cfg2);
        rows.push(vec![
            format!("{model:?}"),
            format!("{}", r.exec_cycles),
            format!("{:.2}", r.cores.iter().map(|c| c.ipc()).sum::<f64>() / 8.0),
            format!("{:.1}", r.kips()),
        ]);
    }
    print_table(&["core model", "workload cycles", "avg IPC", "KIPS"], &rows);

    // 4. event ordering
    println!("\n4. Event ordering at slack 9 (eager S9 vs oldest-first S9*):");
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for scheme in [Scheme::BoundedSlack(9), Scheme::OldestFirstBounded(9)] {
        let r = run_par(w, scheme, &cfg);
        errors.push(r.exec_time_error(&base).abs());
        rows.push(vec![
            scheme.short_name(),
            format!("{}", r.exec_cycles),
            format!("{:.3}%", 100.0 * r.exec_time_error(&base)),
            format!("{}", r.bus.inversions),
        ]);
    }
    print_table(&["scheme", "cycles", "error", "bus inversions"], &rows);
    println!("\nS9* processes events oldest-first, S9 eagerly in arrival order.");
    let verb = if errors[1] <= errors[0] { "at most" } else { "above" };
    println!(
        "This run: S9*'s error {:.3}% is {verb} S9's {:.3}%.",
        100.0 * errors[1],
        100.0 * errors[0]
    );

    // 5. sharded memory managers (the paper's §2.2 "split the manager")
    println!("\n5. Sharded memory managers (SU, this host):");
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for shards in [0usize, 2, 4] {
        let mut cfg2 = cfg;
        cfg2.mem_shards = shards;
        let r = run_par(w, Scheme::Unbounded, &cfg2);
        errors.push(r.exec_time_error(&base).abs());
        rows.push(vec![
            if shards == 0 { "single manager".into() } else { format!("{shards} shards") },
            format!("{}", r.exec_cycles),
            format!("{:.3}%", 100.0 * r.exec_time_error(&base)),
            format!("{}", r.engine.events_processed),
        ]);
    }
    print_table(&["memory managers", "cycles", "error", "events"], &rows);
    // The paper expects a split manager to answer closer to the requests'
    // timestamps, shrinking the error; say whether this run shows it.
    let verb = if errors.windows(2).all(|e| e[1] < e[0]) { "shrank" } else { "did not shrink" };
    println!("\nSU's error {verb} with every added shard in this run.");

    // 6. target-core scaling (the paper fixes 8 targets; how does the
    // simulated workload scale with target cores?)
    println!("\n6. Target-core scaling (Barnes, sequential CC):");
    let barnes = sk_kernels::kernel(&w.name, 1).expect("the suite's kernels are registered");
    let mut rows = Vec::new();
    let (mut cycles, mut coherence) = (Vec::new(), Vec::new());
    for cores in [1usize, 2, 4, 8, 16] {
        let cfg2 = {
            let mut c = bench_config(CoreModel::OutOfOrder);
            c.n_cores = cores;
            c
        };
        let r = run_seq(&barnes.at(cores, scale), &cfg2);
        cycles.push(r.exec_cycles);
        coherence.push(r.dir.invalidations_out + r.dir.downgrades_out);
        rows.push(vec![
            format!("{cores}"),
            format!("{}", r.exec_cycles),
            format!("{}", r.total_committed()),
            format!("{}", r.dir.invalidations_out + r.dir.downgrades_out),
            format!("{}", r.sync.barrier_episodes),
        ]);
    }
    print_table(
        &["target cores", "workload cycles", "instructions", "coherence msgs", "barriers"],
        &rows,
    );
    let shrank = cycles.windows(2).all(|p| p[1] <= p[0]);
    let grew = coherence.windows(2).all(|p| p[0] <= p[1]);
    println!(
        "\nThis run, 1 -> 16 target cores: workload cycles {}; coherence messages {}.",
        if shrank { "never rose" } else { "rose at least once" },
        if grew { "never fell" } else { "fell at least once" }
    );
}
