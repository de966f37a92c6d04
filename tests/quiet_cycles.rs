//! An in-order core's stalls, pinned cycle by cycle.
//!
//! A stalled in-order core does nothing but count: a functional unit holds
//! the pipeline, a queued miss reply has not come due, or fast-forward
//! compensation burns cycles. Inside a run-ahead batch such a span may be
//! advanced in one step instead of one step per cycle, and that must be
//! invisible: every statistic, every per-core work trace (one entry per
//! cycle, so a skipped span must still leave one per cycle), the schedule
//! and the output stay what the stepped core produced. The reference is a
//! golden file captured with the stepped core, over the batching schemes
//! (S10, S100, SU), a batch-cap-1 scheme (Q100) and the same with its cap
//! forced to 64, on an FU-bound, a miss-bound and a lock-bound kernel.
//!
//! An *intended* timing change regenerates the file with
//! `SK_REGEN_GOLDEN=1 cargo test --test quiet_cycles` and says so in its
//! PR; a speed-only change must leave it alone.

mod common;

use common::{check_golden, fnv1a64, printed};
use sk_core::{DetEngine, Engine, RunOutcome};
use slacksim_suite::prelude::*;

const N: usize = 4;
const SEEDS: [u64; 2] = [0, 1];

fn cfg() -> TargetConfig {
    let mut cfg = TargetConfig::small(N);
    cfg.core.model = CoreModel::InOrder;
    cfg.max_cycles = 5_000_000;
    cfg
}

fn kernels() -> Vec<Workload> {
    vec![
        kernels::micro::private_compute(N, 200),
        kernels::fft::fft(N, 7),
        kernels::micro::lock_sweep(N, 10),
    ]
}

/// Length and FNV-1a digest of every core's work trace.
fn traces(r: &SimReport) -> String {
    let traces = r.traces.as_ref().expect("trace recording was on");
    let digest = |t: &[u16]| {
        t.iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    };
    traces.iter().map(|t| format!("{}:{:016x}", t.len(), digest(t))).collect::<Vec<_>>().join(",")
}

/// Run `det` to the end, check the output, and spell out its timing.
fn golden_line(label: &str, w: &Workload, mut det: DetEngine) -> (String, SimReport) {
    det.run();
    let picks = det.picks();
    let r = det.into_report();
    assert_eq!(printed(&r), w.expected, "{label}: wrong output");
    let line = format!(
        "{label} picks={picks} cycles={} fp={:016x} traces={}\n",
        r.exec_cycles,
        fnv1a64(r.fingerprint()),
        traces(&r)
    );
    (line, r)
}

#[test]
fn stalled_in_order_cores_match_the_pinned_stepped_core() {
    let mut cfg = cfg();
    cfg.record_trace = true;
    let schemes = [
        ("S10", Scheme::BoundedSlack(10), None),
        ("S100", Scheme::BoundedSlack(100), None),
        ("SU", Scheme::Unbounded, None),
        ("Q100", Scheme::Quantum(100), None),
        ("Q100/cap64", Scheme::Quantum(100), Some(64)),
    ];
    let mut actual = String::new();
    for w in kernels() {
        for (name, scheme, cap) in schemes {
            for seed in SEEDS {
                let mut det = DetEngine::new(&w.program, scheme, &cfg, seed);
                if let Some(cap) = cap {
                    det.engine_mut().set_batch_cap(cap);
                }
                actual += &golden_line(&format!("{}/{name}/{seed}", w.name), &w, det).0;
            }
        }
    }

    // Racy SU with fast-forward compensation: the tracker hands the core
    // stall cycles it burns as `ff_stall_cycles`, the one stall that is not
    // a `stall_cycles` tick.
    let mut ff = cfg;
    ff.track_workload_violations = true;
    ff.fast_forward_compensation = true;
    let w = kernels::micro::private_compute(N, 200);
    for seed in SEEDS {
        let det = DetEngine::new(&w.program, Scheme::Unbounded, &ff, seed);
        let (line, r) = golden_line(&format!("{}/SU/ff/{seed}", w.name), &w, det);
        let burnt: u64 = r.cores.iter().map(|c| c.ff_stall_cycles).sum();
        assert!(burnt > 0, "{line}: no compensation cycles to skip");
        actual += &line;
    }
    check_golden(
        "quiet_cycles.txt",
        &actual,
        "an in-order run's timing or work trace moved (label = kernel/scheme/seed). Regenerate \
         with SK_REGEN_GOLDEN=1 only for an intended timing change",
    );
}

/// CC publishes every cycle (batch cap 1), so it never advances a span in
/// one step: the threaded pool equals the deterministic scheduler.
#[test]
fn threaded_cc_equals_det_on_in_order_cores() {
    let cfg = cfg();
    for w in kernels() {
        let det = sk_core::run_det(&w.program, Scheme::CycleByCycle, &cfg, 1);
        assert_eq!(printed(&det), w.expected, "{}: det output", w.name);
        for workers in [1, 2] {
            let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
            e.set_workers(workers);
            assert_eq!(e.run_until(None), RunOutcome::Finished);
            let thr = e.into_report();
            assert_eq!(det.fingerprint(), thr.fingerprint(), "{} W={workers}", w.name);
        }
    }
}

/// A safe-point snapshot of a run-ahead S100 run resumes to what the
/// interrupted engine goes on to produce. One worker thread makes the
/// threaded pool deterministic, so the two continuations must agree.
#[test]
fn s100_snapshot_resumes_to_the_uninterrupted_run() {
    let cfg = cfg();
    let w = kernels::micro::private_compute(N, 200);
    let run = |e: &mut Engine, until| {
        e.set_workers(1);
        e.run_until(until)
    };
    let mut e = Engine::new(&w.program, Scheme::BoundedSlack(100), &cfg);
    assert_eq!(run(&mut e, None), RunOutcome::Finished);
    let at = (e.into_report().cores.iter().map(|c| c.cycles).max().unwrap_or(0) / 3) | 1;

    let mut e = Engine::new(&w.program, Scheme::BoundedSlack(100), &cfg);
    assert_eq!(run(&mut e, Some(at)), RunOutcome::CheckpointReady, "at {at}");
    let bytes = e.snapshot().expect("snapshot");
    assert_eq!(run(&mut e, None), RunOutcome::Finished);
    let on = e.into_report();
    assert_eq!(printed(&on), w.expected);
    let mut resumed = Engine::resume(&bytes, None).expect("resume");
    assert_eq!(run(&mut resumed, None), RunOutcome::Finished);
    assert_eq!(on.fingerprint(), resumed.into_report().fingerprint(), "resume from {at}");
}
