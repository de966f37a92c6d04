//! The deterministic backend's schedule stream, pinned.
//!
//! `DetEngine::run` draws one interleaver pick per scheduling decision, and
//! everything downstream — the run a seeded regression scenario replays, the
//! decision hash two runs are compared by, the simulated outcome of every
//! racy scheme — is a function of that exact sequence: the size of the
//! runnable set at each pick, who was in it, and where the forced-manager
//! rounds and virtual timeouts fell. The scheduler and the manager body are
//! host-speed-critical and get rewritten for speed; the stream must not
//! move when they do. The reference is a golden file captured at PR 13's
//! commit (the always-dispatch scheduler): per run the pick count, the
//! decision hash, the execution time, a digest of the whole report and
//! the largest observed slack.
//!
//! An *intended* schedule change regenerates the file with
//! `SK_REGEN_GOLDEN=1 cargo test --test det_schedule_identity` and says so
//! in its PR; a speed-only change must leave it alone.

mod common;

use common::{check_golden, fnv1a64, printed};
use sk_core::DetEngine;
use slacksim_suite::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const SEEDS: [u64; 3] = [0, 1, 7];
/// Instruction budget of the ROI-limited runs: about a third of the kernel.
const ROI_LIMIT: u64 = 3_000;

fn schemes() -> Vec<Scheme> {
    ["CC", "S10", "S10*", "S100", "SU", "Q100"]
        .iter()
        .map(|s| s.parse().expect("scheme name"))
        .collect()
}

/// Run `det` to the end and spell out everything the schedule determines.
fn golden_line(label: &str, w: &Workload, det: DetEngine) -> String {
    let (line, r) = schedule_line(label, det);
    assert_eq!(printed(&r), w.expected, "{label}: wrong output");
    line
}

/// [`golden_line`] for a run that may stop before the workload's output.
fn schedule_line(label: &str, mut det: DetEngine) -> (String, SimReport) {
    det.run();
    let (picks, hash) = (det.picks(), det.decision_hash());
    let r = det.into_report();
    let line = format!(
        "{label} picks={picks} hash={hash:016x} cycles={} fp={:016x} slack={}\n",
        r.exec_cycles,
        fnv1a64(r.fingerprint()),
        r.engine.max_observed_slack,
    );
    (line, r)
}

/// One golden line per job, computed on every host CPU, kept in job order.
fn run_all(jobs: &[(String, &Workload, Scheme, TargetConfig, u64)]) -> String {
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get()).min(8);
    let mut lines: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((label, w, scheme, cfg, seed)) = jobs.get(i) else { break };
                        let det = DetEngine::new(&w.program, *scheme, cfg, *seed);
                        mine.push((i, golden_line(label, w, det)));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    lines.sort_by_key(|&(i, _)| i);
    lines.into_iter().map(|(_, l)| l).collect()
}

#[test]
fn schedule_stream_matches_the_pinned_scheduler() {
    // 8 cores, one manager: the paper kernels, the irregular kernels and
    // the two micro kernels under every ordering discipline (eager S/SU,
    // timestamp-ordered CC/S*, at-barrier Q).
    let n = 8;
    let mut suite = sk_kernels::extended_suite(n, Scale::Test);
    suite.extend(sk_kernels::irregular_suite(n, Scale::Test));
    suite.push(kernels::micro::lock_sweep(n, 6));
    suite.push(kernels::micro::private_compute(n, 60));
    // 64 cores over 4 shards: shard tasks, signal-gated picks, the window
    // grant and the frontier clamp, and the sharded runnable-set rule.
    let many_n = 64;
    let many = [kernels::micro::lock_sweep(many_n, 2), kernels::micro::private_compute(many_n, 20)];
    let mut many_cfg = TargetConfig::many_core(many_n);
    many_cfg.mem_shards = 4;

    let mut jobs = Vec::new();
    for (ws, cfg) in [(&suite[..], TargetConfig::small(n)), (&many[..], many_cfg)] {
        for w in ws {
            for scheme in schemes() {
                for seed in SEEDS {
                    let label =
                        format!("{}/{}c/{}/{seed}", w.name, cfg.n_cores, scheme.short_name());
                    jobs.push((label, w, scheme, cfg, seed));
                }
            }
        }
    }
    let mut actual = run_all(&jobs);

    // A run replayed from its seed, as `slacksim run --scenario` does from
    // a seeded scenario: a fresh engine on the same seed takes the same
    // schedule.
    let w = &suite[1];
    let cfg = TargetConfig::small(n);
    let mut rec = DetEngine::new(&w.program, Scheme::Unbounded, &cfg, 5);
    rec.run();
    let rec_hash = rec.decision_hash();
    let rep = DetEngine::new(&w.program, Scheme::Unbounded, &cfg, rec.seed());
    let line = golden_line(&format!("{}/replay-of-5", w.name), w, rep);
    assert!(line.contains(&format!("hash={rec_hash:016x}")), "replay diverged: {line}");
    actual += &line;

    // A pick hook that overrides two picks in three (always the first
    // runnable task, then the last) and defers the third to the PRNG.
    let mut hooked = DetEngine::new(&w.program, Scheme::BoundedSlack(10), &cfg, 3);
    hooked.set_pick_hook(Box::new(|idx, n| match idx % 3 {
        0 => Some(0),
        1 => Some(n - 1),
        _ => None,
    }));
    actual += &golden_line(&format!("{}/hooked", w.name), w, hooked);

    // Barriers under a quantum longer than the kernel's phases: cores park
    // in SyncWait inside the quantum, nothing moves for a full round of
    // picks, and the run only advances through the forced-manager round
    // and the virtual timeout.
    let w = &suite[2];
    for seed in SEEDS {
        let det = DetEngine::new(&w.program, Scheme::Quantum(5000), &cfg, seed);
        actual += &golden_line(&format!("{}/{}c/Q5000/{seed}", w.name, n), w, det);
    }

    // An instruction-count stop: the manager ends the run once the cores'
    // shared ROI counter crosses the limit, the one input of its verdict
    // that is neither a clock, a core state nor a ring. The run is cut
    // short of the workload's output, so only the schedule is compared.
    let w = &suite[1];
    let mut roi_cfg = cfg;
    roi_cfg.stop = StopCondition::RoiInstructions(ROI_LIMIT);
    for scheme in ["CC", "S10", "SU"] {
        for seed in SEEDS {
            let det = DetEngine::new(&w.program, scheme.parse().expect("scheme"), &roi_cfg, seed);
            let (line, r) = schedule_line(&format!("{}/{n}c/{scheme}/roi/{seed}", w.name), det);
            let roi: u64 = r.cores.iter().map(|c| c.roi_committed).sum();
            assert!(roi >= ROI_LIMIT && r.printed().is_empty(), "{line}: not cut short ({roi})");
            actual += &line;
        }
    }
    check_golden(
        "det_schedule.txt",
        &actual,
        "the deterministic schedule stream moved (label = kernel/cores/scheme/seed). Regenerate \
         with SK_REGEN_GOLDEN=1 only for an intended schedule change",
    );
}
