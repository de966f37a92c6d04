//! An instruction-count stop on the worker pool. A core keeps the ROI
//! instructions it commits inside a run-ahead batch to itself and adds
//! them to the shared count once, just before it publishes the clock that
//! covers them; the manager's stop check reads that count.
//!
//! Under CC a batch is one cycle. The budget is crossed inside one target
//! cycle, and the manager ends the run on that cycle or the next, with
//! each core on global time or one cycle past it. Which of those it is
//! depends on the host's interleaving (on the det scheduler, on the seed:
//! the pinned CC/roi lines of `det_schedule.txt` differ in fingerprint
//! across seeds), so a CC stop on the pool is held to det's within two
//! cycles per core. Under S10 a stop may land up to a batch later, but
//! never before the budget is spent.

use sk_core::{run_det, Engine, RunOutcome};
use slacksim_suite::prelude::*;

const ROI_LIMIT: u64 = 3_000;

fn cfg() -> TargetConfig {
    let mut cfg = TargetConfig::small(4);
    cfg.core.model = CoreModel::InOrder;
    cfg.stop = StopCondition::RoiInstructions(ROI_LIMIT);
    cfg
}

fn pooled(w: &Workload, scheme: Scheme, workers: usize) -> SimReport {
    let mut e = Engine::new(&w.program, scheme, &cfg());
    e.set_workers(workers);
    assert_eq!(e.run_until(None), RunOutcome::Finished, "{} {scheme} W={workers}", w.name);
    e.into_report()
}

/// The run was cut by the budget, not by the workload's end.
fn assert_cut_short(r: &SimReport, what: &str) {
    let roi = r.total_roi_committed();
    assert!(roi >= ROI_LIMIT, "{what}: stopped at {roi} ROI instructions");
    assert!(r.printed().is_empty(), "{what}: ran to the workload's output");
}

#[test]
fn a_cc_roi_stop_on_the_pool_lands_within_two_cycles_of_det() {
    for w in sk_kernels::extended_suite(4, Scale::Test).iter().take(3) {
        let det = run_det(&w.program, Scheme::CycleByCycle, &cfg(), 1);
        assert_cut_short(&det, &format!("{} det", w.name));
        let max_commits = 2 * cfg().core.commit_width as u64;
        for workers in [1, 2, 4] {
            let what = format!("{} CC W={workers}", w.name);
            let r = pooled(w, Scheme::CycleByCycle, workers);
            assert_cut_short(&r, &what);
            assert!(r.exec_cycles.abs_diff(det.exec_cycles) <= 2, "{what}: exec cycles");
            for (c, (p, d)) in r.cores.iter().zip(&det.cores).enumerate() {
                assert!(p.cycles.abs_diff(d.cycles) <= 2, "{what}: core {c} clock");
                let commits = p.committed.abs_diff(d.committed);
                assert!(commits <= max_commits, "{what}: core {c} commits");
            }
        }
    }
}

#[test]
fn an_s10_roi_stop_on_the_pool_spends_the_budget() {
    for w in sk_kernels::extended_suite(4, Scale::Test).iter().take(3) {
        for workers in [1, 2, 4] {
            let r = pooled(w, Scheme::BoundedSlack(10), workers);
            assert_cut_short(&r, &format!("{} S10 W={workers}", w.name));
        }
    }
}
