//! A threaded engine of any core count runs on at most W OS threads: the
//! calling thread and W − 1 spawned workers, named `sk-worker-<i>`. Alone
//! in its test binary, so no other engine's workers are counted.

use sk_core::{Engine, RunOutcome};
use slacksim_suite::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Live threads of this process named by the pool.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux /proc")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sk-worker"))
        .count()
}

#[test]
fn a_64_core_engine_runs_on_at_most_w_threads() {
    let w = kernels::micro::lock_sweep(64, 6);
    let mut cfg = TargetConfig::many_core(64);
    cfg.mem_shards = 4;
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    for workers in [1, 2, 4, 0] {
        let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
        e.set_workers(workers);
        let allowed = if workers == 0 { host } else { workers }.min(64);
        let (done, most) = (AtomicBool::new(false), AtomicUsize::new(0));
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    most.fetch_max(pool_threads(), Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
            let outcome = e.run_until(None);
            done.store(true, Ordering::Relaxed);
            outcome
        });
        assert_eq!(outcome, RunOutcome::Finished);
        let values: Vec<i64> = e.into_report().printed().iter().map(|&(_, v)| v).collect();
        assert_eq!(values, w.expected, "W={workers}: output");
        let most = most.into_inner();
        assert!(most < allowed, "W={workers}: {most} pool threads beside the caller");
        assert_eq!(pool_threads(), 0, "W={workers}: a worker outlived its segment");
    }
}
