//! The out-of-order core's simulated behaviour, pinned.
//!
//! `sk-core::cpu::ooo` is a host-speed-critical model that gets rewritten
//! for speed; what it *simulates* must not move when it does. There is one
//! OoO model and no reference implementation to diff against, so the
//! reference is a golden file: fingerprints, execution times and per-core
//! counters captured from the polling pipeline of PR 12's commit, across
//! the backends whose results are a pure function of the program (the
//! sequential engine, and the det backend under CC, S10 and SU), plus a
//! sweep over ROB / LSQ sizes that exercises the structural limits (a ROB
//! of one entry, an odd size, one larger than a 64-bit ready mask).
//!
//! An *intended* model change regenerates the files with
//! `SK_REGEN_GOLDEN=1 cargo test --test ooo_equivalence` and says so in
//! its PR; a speed-only change must leave them alone.

mod common;

use common::{fnv1a64, printed};
use slacksim_suite::prelude::*;
use std::fmt::Write as _;

fn check_golden(file: &str, actual: &str) {
    common::check_golden(
        file,
        actual,
        "the OoO model's simulated statistics moved. Fields after the digest are per core \
         [cycles committed fetched issued branches mispredicts loads stores stall idle \
         sys_retries]; regenerate with SK_REGEN_GOLDEN=1 only for an intended model change",
    );
}

const DET_SEED: u64 = 7;

/// The SPLASH-2 kernels: every thread waits at a barrier, so every OoO
/// core polls a pending syscall at least once and reports the count.
const BARRIER_KERNELS: [&str; 6] = ["Barnes", "FFT", "LU", "Water-Nsquared", "Radix", "Ocean"];

fn assert_counts_sys_retries(label: &str, r: &SimReport) {
    for (i, c) in r.cores.iter().enumerate() {
        assert!(c.sys_retries > 0, "{label}: core {i} reports no syscall retries");
    }
}

fn ooo_cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::OutOfOrder;
    cfg
}

/// One golden line: the whole-report digest, the execution time, and the
/// pipeline counters of every core spelled out so a divergence names the
/// counter that moved (cache counters are covered by the digest).
fn golden_line(label: &str, r: &SimReport) -> String {
    let mut s = format!("{label} cycles={} fp={:016x}", r.exec_cycles, fnv1a64(r.fingerprint()));
    for c in &r.cores {
        let _ = write!(
            s,
            " [{} {} {} {} {} {} {} {} {} {} {}]",
            c.cycles,
            c.committed,
            c.fetched,
            c.issued,
            c.branches,
            c.mispredicts,
            c.loads,
            c.stores,
            c.stall_cycles,
            c.idle_cycles,
            c.sys_retries
        );
    }
    s.push('\n');
    s
}

#[test]
fn suite_fingerprints_match_the_pinned_model() {
    let n = 4;
    let mut suite = sk_kernels::extended_suite(n, Scale::Test);
    suite.extend(sk_kernels::irregular_suite(n, Scale::Test));
    let mut actual = String::new();
    for w in &suite {
        let cfg = ooo_cfg(w.n_threads);
        let seq = run_sequential(&w.program, &cfg);
        assert_eq!(printed(&seq), w.expected, "{} sequential: wrong output", w.name);
        let barrier = BARRIER_KERNELS.contains(&w.name.as_str());
        if barrier {
            assert_counts_sys_retries(&format!("{}/seq", w.name), &seq);
        }
        actual += &golden_line(&format!("{}/seq", w.name), &seq);
        for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack(10), Scheme::Unbounded] {
            let r = sk_core::run_det(&w.program, scheme, &cfg, DET_SEED);
            assert_eq!(printed(&r), w.expected, "{} det {scheme}: wrong output", w.name);
            if scheme == Scheme::CycleByCycle {
                assert_eq!(r.fingerprint(), seq.fingerprint(), "{}: det CC vs sequential", w.name);
            }
            let label = format!("{}/det-{}", w.name, scheme.short_name());
            if barrier {
                assert_counts_sys_retries(&label, &r);
            }
            actual += &golden_line(&label, &r);
        }
    }
    check_golden("ooo_suite.txt", &actual);
}

#[test]
fn rob_and_lsq_size_sweep_matches_the_pinned_model() {
    // Integer, floating-point and manager-routed-CAS kernels: between them
    // every functional-unit class, store-to-load forwarding, MSHR-merged
    // loads and syscall serialization run under each window size.
    let n = 2;
    let workloads = [
        kernels::fft::fft(n, 5),
        kernels::radix::radix(n, 32),
        kernels::treiber::treiber_stack(n, 3),
    ];
    let mut actual = String::new();
    for w in &workloads {
        for rob in [1, 3, 16, 64, 100] {
            for lsq in [1, 32] {
                let mut cfg = ooo_cfg(w.n_threads);
                cfg.core.rob_entries = rob;
                cfg.core.lsq_entries = lsq;
                let r = run_sequential(&w.program, &cfg);
                assert_eq!(printed(&r), w.expected, "{} rob={rob} lsq={lsq}: wrong output", w.name);
                actual += &golden_line(&format!("{}/rob{rob}/lsq{lsq}", w.name), &r);
            }
        }
        // The retry paths: one MSHR and a one-entry store buffer keep
        // loads bouncing off `MshrAlloc::Full` and commit blocked on stores.
        let mut cfg = ooo_cfg(w.n_threads);
        cfg.mem.mshrs = 1;
        cfg.core.store_buffer = 1;
        let r = run_sequential(&w.program, &cfg);
        assert_eq!(printed(&r), w.expected, "{} mshr=1 sb=1: wrong output", w.name);
        actual += &golden_line(&format!("{}/mshr1/sb1", w.name), &r);
    }
    check_golden("ooo_sweep.txt", &actual);
}
