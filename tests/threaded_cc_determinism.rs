//! Threaded CC must be bit-identical to the deterministic backend however
//! the host schedules the threads.
//!
//! `superblock_differential::threads_backend_cc_is_bit_identical_on_vs_off`
//! used to fail about one run in fifty on a loaded host: a threaded CC run
//! of Ocean came back with another core winning a same-cycle race, or
//! with a stall counter off by a few cycles. Two races in the engine, both
//! only reachable when the host preempts a thread at the wrong moment:
//!
//! * the manager decided "every core is parked" *after* draining the
//!   OutQs, so a core that pushed an event and parked in between had its
//!   event left in the ring while the quiescent path processed another
//!   core's event of the same cycle first;
//! * a core read its window bound several times per scheduling quantum,
//!   and the manager raising it in between turned a stepped dead cycle
//!   into a jumped one (`stall_cycles` differs, timing does not).
//!
//! Competing busy threads make the preemptions; the reference is the det
//! backend, which has no threads to preempt. The runs cycle through 1, 2
//! and 4 worker threads, so both races are also looked for with cores
//! sharing a worker and with the manager on either side of a core.

use sk_core::Engine;
use slacksim_suite::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn threaded_cc_matches_det_under_load(runs: usize) {
    let n = 4;
    let suite = sk_kernels::extended_suite(n, Scale::Test);
    let ocean = suite.iter().find(|w| w.name == "Ocean").expect("Ocean is in the suite");
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::InOrder;
    let reference = sk_core::run_det(&ocean.program, Scheme::CycleByCycle, &cfg, 7).fingerprint();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        for run in 0..runs {
            // Alternate superblock dispatch: the original failure showed on
            // either side of that comparison. Six runs cover every pairing
            // with the worker count.
            let mut cfg = cfg;
            cfg.superblocks = run % 2 == 0;
            let workers = [1, 2, 4][run % 3];
            let mut e = Engine::new(&ocean.program, Scheme::CycleByCycle, &cfg);
            e.set_workers(workers);
            e.run_until(None);
            let got = e.into_report().fingerprint();
            if got != reference {
                stop.store(true, Ordering::Relaxed);
                let diff: Vec<_> =
                    reference.lines().zip(got.lines()).filter(|(a, b)| a != b).collect();
                panic!(
                    "threaded CC run {run} of {runs} (W={workers}) diverged from det CC: {diff:#?}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn threaded_cc_ocean_matches_det_with_competing_busy_threads() {
    threaded_cc_matches_det_under_load(24);
}

/// The soak: at the old failure rate (about 2 % of runs in a debug build)
/// 400 runs miss a regression with probability 0.03 %.
#[test]
#[ignore = "about two minutes; CI runs it with --ignored"]
fn threaded_cc_ocean_matches_det_with_competing_busy_threads_soak() {
    threaded_cc_matches_det_under_load(400);
}
