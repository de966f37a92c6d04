//! The paper's violation taxonomy (S3.2, Figures 3-7), demonstrated: a
//! racy workload accumulates conflicting-pair inversions under slack,
//! a properly synchronized one does not, and fast-forwarding compensates.
//!
//! ```text
//! cargo run --release --example violations_demo
//! ```

use slacksim_suite::prelude::*;

fn run(w: &Workload, scheme: Scheme, ff: bool) -> SimReport {
    let mut cfg = TargetConfig::paper_8core();
    cfg.n_cores = w.n_threads;
    cfg.track_workload_violations = true;
    cfg.fast_forward_compensation = ff;
    run_parallel(&w.program, scheme, &cfg)
}

fn main() {
    let racy = kernels::micro::racy_increment(8, 200);
    let locked = kernels::micro::lock_sweep(8, 100);

    println!(
        "{:<38} {:>8} {:>8} {:>8} {:>8}",
        "workload / scheme", "WL-viol", "bus-inv", "dir-inv", "cycles"
    );
    for (name, w) in [("racy_increment", &racy), ("lock_sweep", &locked)] {
        for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack(100), Scheme::Unbounded] {
            let r = run(w, scheme, false);
            println!(
                "{:<38} {:>8} {:>8} {:>8} {:>8}",
                format!("{name} / {}", scheme.short_name()),
                r.violations.total(),
                r.bus.inversions,
                r.dir.transition_inversions,
                r.exec_cycles,
            );
        }
    }

    let r = run(&racy, Scheme::Unbounded, true);
    println!(
        "\nfast-forwarding (S3.2.3) on racy/SU: {} compensations injected {} idle cycles",
        r.violations.compensations, r.violations.compensation_cycles
    );
    println!("\nCycle-by-cycle shows zero violations by construction. Violations");
    println!("appear only under slack, and only for unsynchronized conflicting");
    println!("accesses; locked code stays clean - the paper's S3.2 argument.");
}
