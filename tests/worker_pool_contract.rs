//! What the threaded backend owes its callers, however it maps target
//! cores onto host threads: CC is bit-identical to the deterministic
//! scheduler, every bounded scheme keeps its inversion bound, a safe-point
//! snapshot resumes bit-identically, a cancel from another thread stops a
//! run that can then continue, and a workload deadlock ends with the
//! deterministic scheduler's report. Every cell runs on 1, 2 and 4 worker
//! threads and on the host's default.

use sk_core::{run_det, Engine, RunOutcome};
use sk_isa::Program;
use slacksim_suite::prelude::*;
use std::sync::atomic::Ordering;

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
        Scheme::Adaptive { budget: 64 },
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

#[test]
fn cc_snapshot_at_an_odd_cycle_resumes_to_the_uninterrupted_fingerprint() {
    let w = kernels::lu::lu(4, 12);
    let cfg = cfg(CoreModel::OutOfOrder, 2);
    let full = threaded(&w.program, Scheme::CycleByCycle, &cfg, 0);
    let end = full.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    let at = (end / 3) | 1;
    for workers in pools() {
        let mut e = engine(&w.program, Scheme::CycleByCycle, &cfg, workers);
        assert_eq!(e.run_until(Some(at)), RunOutcome::CheckpointReady, "W={workers} at {at}");
        let bytes = e.snapshot().expect("snapshot");
        drop(e);
        let mut r = Engine::resume(&bytes, None).expect("resume");
        r.set_workers(workers);
        assert_eq!(r.run_until(None), RunOutcome::Finished);
        let got = r.into_report().fingerprint();
        assert_eq!(full.fingerprint(), got, "W={workers}: resume from {at} diverged");
    }
}

/// The cancel is raised by another thread once the run has simulated a
/// few hundred cycles (read off the telemetry hub, which is cycle-neutral),
/// so it always lands mid-run.
#[test]
fn cancel_from_another_thread_stops_mid_run_and_the_run_continues_identically() {
    let w = kernels::ocean::ocean(4, 8, 2);
    let cfg = cfg(CoreModel::InOrder, 0);
    let full = threaded(&w.program, Scheme::CycleByCycle, &cfg, 0);
    for workers in pools() {
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
        assert_eq!(outcome, RunOutcome::Cancelled, "W={workers}");
        assert!(!e.is_finished());
        token.store(false, Ordering::Relaxed);
        assert_eq!(e.run_until(None), RunOutcome::Finished);
        let got = e.into_report().fingerprint();
        assert_eq!(full.fingerprint(), got, "W={workers}: cancel then continue");
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
}
