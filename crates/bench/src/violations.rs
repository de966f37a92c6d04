//! Figures 3-7 — slack-induced violations made observable.
//!
//! Runs a deliberately racy kernel (unsynchronized conflicting accesses)
//! and a properly locked kernel under CC / S9 / S100 / SU with violation
//! tracking on, reporting:
//!
//! * workload-state violations (Fig. 7): conflicting Load/Store pairs
//!   executed against their timestamp order;
//! * simulation-state distortions (Fig. 4): interconnect timestamp
//!   inversions;
//! * simulated-system-state distortions (Figs. 5-6): directory transition
//!   inversions;
//! * the effect of fast-forwarding compensation (§3.2.3), which SlackSim
//!   proposed but did not implement.

use crate::{bench_config, print_table};
use sk_core::{run_parallel, CoreModel, Scheme};
use sk_kernels::micro;

/// Print the violation counters of a racy and a locked kernel per scheme,
/// then the racy kernel under SU with and without fast-forwarding.
pub fn violations(model: CoreModel) {
    let mut cfg = bench_config(model);
    cfg.n_cores = 8;
    cfg.track_workload_violations = true;

    let schemes = [
        Scheme::CycleByCycle,
        Scheme::BoundedSlack(9),
        Scheme::BoundedSlack(100),
        Scheme::Unbounded,
    ];

    for (name, w) in [
        ("racy (unsynchronized increments)", micro::racy_increment(8, 300)),
        ("locked (lock-protected increments)", micro::lock_sweep(8, 100)),
    ] {
        println!("Workload: {name}\n");
        let mut rows = Vec::new();
        for scheme in schemes {
            let r = run_parallel(&w.program, scheme, &cfg);
            rows.push(vec![
                scheme.short_name(),
                format!("{}", r.violations.store_past_load),
                format!("{}", r.violations.load_past_store),
                format!("{}", r.bus.inversions),
                format!("{}", r.dir.transition_inversions),
                format!("{}", r.exec_cycles),
            ]);
        }
        print_table(
            &["scheme", "st-past-ld", "ld-past-st", "bus-inv", "dir-inv", "exec cycles"],
            &rows,
        );
        println!();
    }

    // Fast-forward compensation (paper §3.2.3, proposed but unimplemented
    // in SlackSim): re-run the racy kernel under SU with compensation on.
    let w = micro::racy_increment(8, 300);
    let mut rows = Vec::new();
    for ff in [false, true] {
        cfg.fast_forward_compensation = ff;
        let r = run_parallel(&w.program, Scheme::Unbounded, &cfg);
        rows.push(vec![
            if ff { "SU + fast-forward" } else { "SU" }.to_string(),
            format!("{}", r.violations.total()),
            format!("{}", r.violations.compensations),
            format!("{}", r.violations.compensation_cycles),
        ]);
    }
    println!("Fast-forward compensation on the racy kernel (SU):\n");
    print_table(&["config", "violations", "compensations", "ff idle cycles"], &rows);
    println!("\nCC shows zero violations by construction; violations appear and grow");
    println!("with slack, and only on workloads with unsynchronized conflicting");
    println!("accesses - the paper's central accuracy argument (S3.2).");
}
