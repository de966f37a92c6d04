//! Cross-crate integration: the four paper kernels through every layer of
//! the stack (ISA -> engine -> schemes -> kernels).

use slacksim_suite::prelude::*;

fn test_cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::paper_8core();
    cfg.n_cores = n;
    cfg.core.model = CoreModel::InOrder; // fast; the OoO path has its own tests
    cfg
}

fn printed(r: &SimReport) -> Vec<i64> {
    r.printed().into_iter().map(|(_, v)| v).collect()
}

#[test]
fn all_kernels_compute_correctly_on_the_sequential_engine() {
    let cfg = test_cfg(8);
    for w in paper_suite(8, Scale::Test) {
        let r = run_sequential(&w.program, &cfg);
        assert_eq!(printed(&r), w.expected, "{}", w.name);
        assert!(r.total_committed() > 1000, "{} did real work", w.name);
    }
}

#[test]
fn all_kernels_are_deterministic_across_sequential_runs() {
    let cfg = test_cfg(8);
    for w in paper_suite(8, Scale::Test) {
        let a = run_sequential(&w.program, &cfg);
        let b = run_sequential(&w.program, &cfg);
        assert_eq!(a.exec_cycles, b.exec_cycles, "{}", w.name);
        assert_eq!(a.dir, b.dir, "{}", w.name);
        for (ca, cb) in a.cores.iter().zip(&b.cores) {
            assert_eq!(ca.committed, cb.committed, "{}", w.name);
            assert_eq!(ca.l1d, cb.l1d, "{}", w.name);
        }
    }
}

#[test]
fn parallel_cc_is_cycle_exact_on_every_kernel() {
    let cfg = test_cfg(8);
    for w in paper_suite(8, Scale::Test) {
        let seq = run_sequential(&w.program, &cfg);
        let par = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
        assert_eq!(printed(&par), w.expected, "{}", w.name);
        assert_eq!(par.exec_cycles, seq.exec_cycles, "{} cycle-exactness", w.name);
        assert_eq!(par.dir.gets, seq.dir.gets, "{}", w.name);
        assert_eq!(par.dir.invalidations_out, seq.dir.invalidations_out, "{}", w.name);
    }
}

#[test]
fn every_scheme_preserves_every_kernels_output() {
    let cfg = test_cfg(8);
    for w in paper_suite(8, Scale::Test) {
        for scheme in Scheme::paper_suite(cfg.critical_latency()) {
            let r = run_parallel(&w.program, scheme, &cfg);
            assert_eq!(printed(&r), w.expected, "{} under {}", w.name, scheme);
        }
    }
}

#[test]
fn conservative_schemes_are_accurate_on_kernels() {
    let cfg = test_cfg(8);
    let crit = cfg.critical_latency();
    for w in paper_suite(8, Scale::Test) {
        let base = run_sequential(&w.program, &cfg);
        for scheme in [
            Scheme::Quantum(crit),
            Scheme::OldestFirstBounded(crit),
            Scheme::OldestFirstBounded(crit - 1),
        ] {
            let r = run_parallel(&w.program, scheme, &cfg);
            let err = r.exec_time_error(&base);
            assert!(err < 0.02, "{} under {scheme}: err {err}", w.name);
        }
    }
}

#[test]
fn ooo_and_inorder_agree_functionally() {
    // Same kernel, both core models: identical output, different timing.
    let w = kernels::water::water(4, 8, 1);
    let mut cfg = test_cfg(4);
    cfg.core.model = CoreModel::InOrder;
    let io = run_sequential(&w.program, &cfg);
    cfg.core.model = CoreModel::OutOfOrder;
    let ooo = run_sequential(&w.program, &cfg);
    assert_eq!(printed(&io), w.expected);
    assert_eq!(printed(&ooo), w.expected);
    assert!(
        ooo.exec_cycles < io.exec_cycles,
        "the 4-wide OoO core should be faster: {} vs {}",
        ooo.exec_cycles,
        io.exec_cycles
    );
}

#[test]
fn microbenchmarks_run_under_slack() {
    let cfg = test_cfg(8);
    for w in [
        kernels::micro::pingpong(50),
        kernels::micro::lock_sweep(8, 10),
        kernels::micro::private_compute(8, 50),
    ] {
        let mut c = cfg;
        c.n_cores = w.n_threads;
        for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack(9), Scheme::Unbounded] {
            let r = run_parallel(&w.program, scheme, &c);
            assert_eq!(printed(&r), w.expected, "{} under {}", w.name, scheme);
        }
    }
}

#[test]
fn sharded_engine_handles_the_full_suite() {
    let mut cfg = test_cfg(8);
    cfg.mem_shards = 2;
    for w in sk_kernels::extended_suite(8, Scale::Test) {
        let seq = run_sequential(&w.program, &{
            let mut c = cfg;
            c.mem_shards = 0;
            c
        });
        for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack(9)] {
            let r = run_parallel(&w.program, scheme, &cfg);
            assert_eq!(printed(&r), w.expected, "{} under {} (sharded)", w.name, scheme);
            if scheme.is_conservative() {
                // Deterministic, and within the per-shard interconnect
                // channel difference of the single manager (< 1%).
                let r2 = run_parallel(&w.program, scheme, &cfg);
                assert_eq!(r.exec_cycles, r2.exec_cycles, "{} sharded CC deterministic", w.name);
                let err = r.exec_time_error(&seq);
                assert!(err < 0.01, "{} sharded CC err {err}", w.name);
            }
        }
    }
}

#[test]
fn extended_suite_runs_end_to_end() {
    let cfg = test_cfg(8);
    for w in sk_kernels::extended_suite(8, Scale::Test) {
        let r = run_sequential(&w.program, &cfg);
        assert_eq!(printed(&r), w.expected, "{}", w.name);
    }
}

#[test]
fn pure_interpreter_validates_every_kernels_assembly() {
    // Three independent oracles must agree: the host Rust reference
    // (Workload::expected), the timing-free interpreter, and the timed
    // engines. This test closes the interpreter leg for all six kernels.
    for w in sk_kernels::extended_suite(8, Scale::Test) {
        let r = sk_core::interpret(&w.program, 8, 50_000_000);
        assert_eq!(r.stop, sk_core::InterpStop::Completed, "{}", w.name);
        let printed: Vec<i64> = r.printed_by_tid().into_iter().map(|(_, v)| v).collect();
        assert_eq!(printed, w.expected, "{} diverged in the interpreter", w.name);
    }
}

#[test]
fn interpreter_and_engine_agree_on_microbenchmarks() {
    let cfg = test_cfg(4);
    for w in [
        kernels::micro::pingpong(30),
        kernels::micro::lock_sweep(4, 10),
        kernels::micro::private_compute(4, 40),
        kernels::micro::false_sharing(4, 15),
    ] {
        let mut c = cfg;
        c.n_cores = w.n_threads;
        let engine = run_sequential(&w.program, &c);
        let interp = sk_core::interpret(&w.program, w.n_threads, 10_000_000);
        assert_eq!(interp.stop, sk_core::InterpStop::Completed, "{}", w.name);
        assert_eq!(interp.printed_by_tid(), engine.printed(), "{}: interpreter vs engine", w.name);
    }
}

#[test]
fn kips_metric_is_populated() {
    let cfg = test_cfg(8);
    let w = kernels::fft::fft(8, 5);
    let r = run_sequential(&w.program, &cfg);
    assert!(r.kips() > 1.0, "KIPS {}", r.kips());
    assert!(r.wall.as_nanos() > 0);
}
