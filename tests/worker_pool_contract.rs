//! What the threaded backend owes its callers, however it maps target
//! cores onto host threads: CC is bit-identical to the deterministic
//! scheduler, every bounded scheme keeps its inversion bound, a safe-point
//! snapshot resumes bit-identically, a cancel from another thread stops a
//! run that can then continue, and a workload deadlock ends with the
//! deterministic scheduler's report (on the sequential engine too). Every cell runs on 1, 2 and 4 worker
//! threads and on the host's default. The segment contract (checkpoint,
//! snapshot, cancel) holds on the det scheduler too, and a checkpoint is a
//! hand-over point between the two: a run cut on one finishes on the other.

use sk_core::{run_det, DetEngine, Engine, RunOutcome};
use sk_isa::Program;
use slacksim_suite::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

fn cfg(model: CoreModel, shards: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(4);
    cfg.core.model = model;
    cfg.max_cycles = 5_000_000;
    cfg.mem_shards = shards;
    cfg
}

fn kernels() -> Vec<Workload> {
    vec![kernels::fft::fft(4, 6), kernels::lu::lu(4, 12), kernels::ocean::ocean(4, 8, 2)]
}

/// Worker counts every cell runs at: 1, 2, 4 and the host's default
/// (`0`) where that is none of them.
fn pools() -> Vec<usize> {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get()).min(4);
    let mut w = vec![1, 2, 4];
    if !w.contains(&host) {
        w.push(0);
    }
    w
}

fn engine(program: &Program, scheme: Scheme, cfg: &TargetConfig, workers: usize) -> Engine {
    let mut e = Engine::new(program, scheme, cfg);
    e.set_workers(workers);
    e
}

fn threaded(program: &Program, scheme: Scheme, cfg: &TargetConfig, workers: usize) -> SimReport {
    let mut e = engine(program, scheme, cfg, workers);
    assert_eq!(e.run_until(None), RunOutcome::Finished);
    e.into_report()
}

/// The scheduler a segment runs on: the pool at W workers, or the det
/// scheduler under a seed.
#[derive(Clone, Copy, Debug)]
enum Sched {
    Pool(usize),
    Det(u64),
}

/// Every pool size of [`pools`], then two det seeds.
fn schedulers() -> Vec<Sched> {
    pools().into_iter().map(Sched::Pool).chain([Sched::Det(1), Sched::Det(2)]).collect()
}

impl Sched {
    /// Run `e` to the cycle-`at` safe-point on this scheduler and snapshot it.
    fn checkpoint(self, mut e: Engine, at: u64) -> Vec<u8> {
        match self {
            Sched::Pool(w) => {
                e.set_workers(w);
                assert_eq!(e.run_until(Some(at)), RunOutcome::CheckpointReady, "{self:?} at {at}");
                e.snapshot().expect("snapshot")
            }
            Sched::Det(seed) => {
                let mut det = DetEngine::from_engine(e, seed);
                let outcome = det.run_until(Some(at));
                assert_eq!(outcome, RunOutcome::CheckpointReady, "{self:?} at {at}");
                det.engine_mut().snapshot().expect("snapshot")
            }
        }
    }

    /// Run `e` to the end on this scheduler; its report's fingerprint.
    fn finish(self, mut e: Engine) -> String {
        match self {
            Sched::Pool(w) => {
                e.set_workers(w);
                assert_eq!(e.run_until(None), RunOutcome::Finished, "{self:?}");
                e.into_report().fingerprint()
            }
            Sched::Det(seed) => {
                let mut det = DetEngine::from_engine(e, seed);
                assert_eq!(det.run(), RunOutcome::Finished, "{self:?}");
                det.into_report().fingerprint()
            }
        }
    }

    /// The scheduler of the other kind a snapshot taken on this one is
    /// also resumed on.
    fn other(self) -> Sched {
        match self {
            Sched::Pool(_) => Sched::Det(3),
            Sched::Det(_) => Sched::Pool(0),
        }
    }
}

/// `f` on a thread of its own, failing the cell if it has not returned
/// within 60 s: a scheduler that never finishes fails the test instead of
/// hanging the suite.
fn watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    // Detached on purpose: a hung run must fail the test, not the join
    // that waits for it.
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{what} hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// Every (kernel, core model, shard count) cell of the crossing tests,
/// with its uninterrupted det CC report and an odd cycle a third of the
/// way through it.
fn crossing_cells() -> Vec<(Workload, TargetConfig, SimReport, u64)> {
    let mut cells = Vec::new();
    for w in kernels() {
        for model in [CoreModel::InOrder, CoreModel::OutOfOrder] {
            for shards in [0usize, 2] {
                let cfg = cfg(model, shards);
                let full = run_det(&w.program, Scheme::CycleByCycle, &cfg, 1);
                let end = full.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
                cells.push((w.clone(), cfg, full, (end / 3) | 1));
            }
        }
    }
    cells
}

#[test]
fn threaded_cc_equals_det_cc_on_fft_lu_ocean_both_core_models_and_shard_counts() {
    for w in kernels() {
        for model in [CoreModel::InOrder, CoreModel::OutOfOrder] {
            for shards in [0usize, 2] {
                let cfg = cfg(model, shards);
                let det = run_det(&w.program, Scheme::CycleByCycle, &cfg, 1);
                let what = format!("{} {model:?} shards={shards}", w.name);
                let printed: Vec<i64> = det.printed().iter().map(|&(_, v)| v).collect();
                assert_eq!(printed, w.expected, "{what}: det output");
                for workers in pools() {
                    let thr = threaded(&w.program, Scheme::CycleByCycle, &cfg, workers);
                    let what = format!("{what} W={workers}");
                    assert_eq!(det.fingerprint(), thr.fingerprint(), "{what}: threaded != det");
                }
            }
        }
    }
}

#[test]
fn bounded_schemes_keep_their_inversion_bound_and_the_output() {
    let schemes = [
        Scheme::BoundedSlack(10),
        Scheme::BoundedSlack(100),
        Scheme::Unbounded,
        Scheme::Quantum(10),
    ];
    for w in [kernels::fft::fft(4, 6), kernels::ocean::ocean(4, 8, 2)] {
        for (scheme, workers) in
            schemes.into_iter().flat_map(|s| pools().into_iter().map(move |w| (s, w)))
        {
            let mut cfg = cfg(CoreModel::InOrder, 0);
            cfg.track_workload_violations = true;
            let r = threaded(&w.program, scheme, &cfg, workers);
            let what = format!("{} {scheme} W={workers}", w.name);
            let printed: Vec<i64> = r.printed().iter().map(|&(_, v)| v).collect();
            assert_eq!(printed, w.expected, "{what}: output");
            if let Some(bound) = scheme.slack_bound() {
                let inv = r.violations.max_inversion_cycles;
                assert!(inv <= bound, "{what}: inversion {inv} > bound {bound}");
            }
        }
    }
}

/// Cut at an odd cycle on every pool size and on two det seeds; each
/// snapshot resumes on the scheduler that took it and on one of the other
/// kind.
#[test]
fn cc_snapshot_at_an_odd_cycle_resumes_to_the_uninterrupted_fingerprint() {
    let w = kernels::lu::lu(4, 12);
    let cfg = cfg(CoreModel::OutOfOrder, 2);
    let full = threaded(&w.program, Scheme::CycleByCycle, &cfg, 0);
    let end = full.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    let at = (end / 3) | 1;
    for sched in schedulers() {
        let bytes = sched.checkpoint(Engine::new(&w.program, Scheme::CycleByCycle, &cfg), at);
        for on in [sched, sched.other()] {
            let got = on.finish(Engine::resume(&bytes, None).expect("resume"));
            assert_eq!(full.fingerprint(), got, "{sched:?} -> {on:?}: resume from {at} diverged");
        }
    }
}

/// The cancel is raised by another thread once the run has simulated a
/// few hundred cycles (read off the telemetry hub, which is cycle-neutral).
/// On a loaded host a short run can finish before that thread is
/// scheduled: such an attempt is inconclusive and is retried on a fresh
/// engine, up to `ATTEMPTS` times per pool size. Every attempt that was
/// cancelled must continue to the uninterrupted fingerprint, and a pool
/// size with no cancelled attempt fails.
#[test]
fn cancel_from_another_thread_stops_mid_run_and_the_run_continues_identically() {
    const ATTEMPTS: usize = 20;
    let w = kernels::ocean::ocean(4, 8, 2);
    let cfg = cfg(CoreModel::InOrder, 0);
    let full = threaded(&w.program, Scheme::CycleByCycle, &cfg, 0);
    for workers in pools() {
        let cancelled = (0..ATTEMPTS).any(|_| {
            let mut e = engine(&w.program, Scheme::CycleByCycle, &cfg, workers);
            let obs = e.attach_new_metrics(Default::default());
            let token = e.cancel_token();
            let outcome = std::thread::scope(|s| {
                s.spawn(|| {
                    while obs.cores[0].cycles.get() < 500 {
                        std::thread::yield_now();
                    }
                    token.store(true, Ordering::Relaxed);
                });
                e.run_until(None)
            });
            if outcome == RunOutcome::Finished {
                assert_eq!(full.fingerprint(), e.into_report().fingerprint(), "W={workers}");
                return false;
            }
            assert_eq!(outcome, RunOutcome::Cancelled, "W={workers}");
            assert!(!e.is_finished());
            token.store(false, Ordering::Relaxed);
            assert_eq!(e.run_until(None), RunOutcome::Finished);
            let got = e.into_report().fingerprint();
            assert_eq!(full.fingerprint(), got, "W={workers}: cancel then continue");
            true
        });
        assert!(cancelled, "W={workers}: every one of {ATTEMPTS} runs finished before its cancel");
    }
}

/// The pool stops a checkpoint with cores blocked at their windows, which
/// only its own raise ends: the det scheduler adopting that engine must
/// still run it to the end.
#[test]
fn a_pool_checkpoint_finishes_on_the_det_scheduler() {
    for (w, cfg, full, at) in crossing_cells() {
        let what = format!("{} {:?} shards={} at {at}", w.name, cfg.core.model, cfg.mem_shards);
        let mut e = engine(&w.program, Scheme::CycleByCycle, &cfg, 2);
        assert_eq!(e.run_until(Some(at)), RunOutcome::CheckpointReady, "{what}");
        let got = watchdog(&what, move || {
            let mut det = DetEngine::from_engine(e, 5);
            assert_eq!(det.run(), RunOutcome::Finished);
            det.into_report().fingerprint()
        });
        assert_eq!(full.fingerprint(), got, "{what}: pool -> det diverged");
    }
}

/// A det checkpoint continues in place on the det scheduler, and its
/// snapshot finishes on the pool.
#[test]
fn a_det_checkpoint_continues_in_place_and_on_the_pool() {
    for (w, cfg, full, at) in crossing_cells() {
        let what = format!("{} {:?} shards={} at {at}", w.name, cfg.core.model, cfg.mem_shards);
        let mut det = DetEngine::new(&w.program, Scheme::CycleByCycle, &cfg, 7);
        assert_eq!(det.run_until(Some(at)), RunOutcome::CheckpointReady, "{what}");
        let bytes = det.engine_mut().snapshot().expect("snapshot");
        assert_eq!(det.run(), RunOutcome::Finished, "{what}");
        assert_eq!(full.fingerprint(), det.into_report().fingerprint(), "{what}: det in place");
        let got = Sched::Pool(2).finish(Engine::resume(&bytes, None).expect("resume"));
        assert_eq!(full.fingerprint(), got, "{what}: det -> pool diverged");
    }
}

/// Ocean on seed `seed` with the cancel token raised at pick `k` (by a
/// pick hook, so the cancel lands exactly there whatever the host does),
/// then continued to the end. Returns the outcome of the first segment,
/// the finished engine's schedule `(picks, decision hash)` and its
/// report's fingerprint.
fn det_cancelled_at(scheme: Scheme, seed: u64, k: u64) -> (RunOutcome, (u64, u64), String) {
    let w = kernels::ocean::ocean(4, 8, 2);
    let mut det = DetEngine::new(&w.program, scheme, &cfg(CoreModel::InOrder, 0), seed);
    let token = det.engine_mut().cancel_token();
    let raise = token.clone();
    det.set_pick_hook(Box::new(move |idx, _| {
        if idx == k {
            raise.store(true, Ordering::Relaxed);
        }
        None
    }));
    let outcome = det.run();
    assert!(!det.engine_mut().is_finished(), "a cancelled run is not over");
    token.store(false, Ordering::Relaxed);
    assert_eq!(det.run(), RunOutcome::Finished);
    let schedule = (det.picks(), det.decision_hash());
    (outcome, schedule, det.into_report().fingerprint())
}

/// The det scheduler looks at the cancel token before every manager body
/// and forced round, as the pool does: a token raised at a pick half way
/// through the uninterrupted schedule cannot miss. A CC run then continues
/// to the uninterrupted fingerprint, and an S10 run cancelled at the same
/// pick repeats bit for bit under the same seed.
#[test]
fn a_det_cancel_at_a_pick_stops_mid_run_and_the_run_continues_identically() {
    let w = kernels::ocean::ocean(4, 8, 2);
    let cfg = cfg(CoreModel::InOrder, 0);
    for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack(10)] {
        let mut full = DetEngine::new(&w.program, scheme, &cfg, 4);
        assert_eq!(full.run(), RunOutcome::Finished);
        let k = full.picks() / 2;
        let a = det_cancelled_at(scheme, 4, k);
        assert_eq!(a.0, RunOutcome::Cancelled, "{scheme}: cancel at pick {k}");
        if scheme == Scheme::CycleByCycle {
            assert_eq!(full.into_report().fingerprint(), a.2, "{scheme}: cancel then continue");
        } else {
            assert_eq!(a, det_cancelled_at(scheme, 4, k), "{scheme}: same seed, same cancel");
        }
    }
}

/// `n` threads meet at a barrier initialised for `n + 1`: nobody is ever
/// released, and nothing is in flight once they all wait.
fn barrier_that_never_releases(n: usize) -> Program {
    let (a0, a1) = (Reg::arg(0), Reg::arg(1));
    let mut b = ProgramBuilder::new();
    let worker = b.new_label("worker");
    let main = b.here("main");
    b.li(a0, 1);
    b.li(a1, n as i64 + 1);
    b.sys(Syscall::InitBarrier);
    for _ in 1..n {
        b.la_text(a0, worker);
        b.li(a1, 0);
        b.sys(Syscall::Spawn);
    }
    b.bind(worker);
    b.li(a0, 1);
    b.sys(Syscall::Barrier);
    b.sys(Syscall::Exit);
    b.entry(main);
    b.build().unwrap()
}

#[test]
fn a_barrier_that_never_releases_ends_with_the_det_report() {
    let p = barrier_that_never_releases(4);
    let cfg = cfg(CoreModel::InOrder, 0);
    let det = run_det(&p, Scheme::CycleByCycle, &cfg, 1);
    for workers in pools() {
        let thr = threaded(&p, Scheme::CycleByCycle, &cfg, workers);
        assert!(thr.printed().is_empty());
        assert_eq!(det.fingerprint(), thr.fingerprint(), "W={workers}: deadlock report");
    }
    // The sequential engine ends by the same rule, not at `max_cycles`,
    // with the det report.
    let seq = run_sequential(&p, &cfg);
    assert_eq!(det.fingerprint(), seq.fingerprint(), "sequential deadlock report");
    assert!(
        seq.engine.global_updates < cfg.max_cycles / 1000,
        "the sequential engine spun {} cycles of {}",
        seq.engine.global_updates,
        cfg.max_cycles
    );
}
