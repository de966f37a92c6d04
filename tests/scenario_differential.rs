//! Differential wall for the irregular kernel family.
//!
//! Every kernel in `irregular_suite` synchronises exclusively through
//! manager-ordered primitives (semaphores, per-object locks, barriers,
//! manager-routed CAS), so each is data-race-free: a happens-before chain
//! in *host* time covers every conflicting access. Two consequences are
//! pinned here:
//!
//! 1. Under the conservative scheme the deterministic backend and the
//!    threads backend are the same machine — bit-for-bit, across seeds.
//! 2. Under bounded slack the *values* still cannot drift (the sync path
//!    orders them); only timestamps skew, and the violation tracker's
//!    `max_inversion_cycles` must respect the scheme's `slack_bound()`.

use sk_kernels::{irregular_suite, Scale, Workload};
use slacksim_suite::prelude::*;

/// Conformance-corpus seeds: mixed small/Fibonacci, fixed forever.
const SEEDS: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];

fn cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::InOrder;
    cfg.max_cycles = 50_000_000;
    cfg.track_workload_violations = true;
    cfg
}

fn suite() -> Vec<Workload> {
    irregular_suite(4, Scale::Test)
}

fn assert_output(r: &SimReport, w: &Workload, what: &str) {
    let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
    assert_eq!(printed, w.expected, "{what}: {} printed wrong values", w.name);
}

/// Under CC, every det schedule seed and the live threads backend must
/// produce the identical fingerprint: zero slack leaves no freedom for
/// the schedule to matter, DRF or not.
#[test]
fn cc_det_equals_cc_threaded_for_every_seed() {
    for w in suite() {
        let c = cfg(w.n_threads);
        let threaded = run_parallel(&w.program, Scheme::CycleByCycle, &c);
        assert_output(&threaded, &w, "threads CC");
        for seed in SEEDS {
            let det = sk_core::run_det(&w.program, Scheme::CycleByCycle, &c, seed);
            assert_eq!(
                det.fingerprint(),
                threaded.fingerprint(),
                "{} seed {seed}: det CC diverged from threaded CC",
                w.name
            );
        }
    }
}

/// Bounded schemes may reorder in target time, but values are pinned by
/// the sync path and inversions are capped by the slack window.
#[test]
fn bounded_schemes_respect_slack_bound_and_preserve_values() {
    let schemes = [
        Scheme::BoundedSlack(10),
        Scheme::OldestFirstBounded(10),
        Scheme::Quantum(10),
        Scheme::Lookahead(10),
    ];
    for w in suite() {
        let c = cfg(w.n_threads);
        for scheme in schemes {
            let bound = scheme.slack_bound().expect("every scheme in this list is bounded");
            for seed in SEEDS {
                let r = sk_core::run_det(&w.program, scheme, &c, seed);
                assert_output(&r, &w, &format!("det {scheme} seed {seed}"));
                assert!(
                    r.violations.max_inversion_cycles <= bound,
                    "{} under {scheme} seed {seed}: inversion {} exceeds bound {bound}",
                    w.name,
                    r.violations.max_inversion_cycles
                );
            }
            // One live threaded run per scheme: values must hold there too.
            let r = run_parallel(&w.program, scheme, &c);
            assert_output(&r, &w, &format!("threads {scheme}"));
            assert!(
                r.violations.max_inversion_cycles <= bound,
                "{} under threaded {scheme}: inversion {} exceeds bound {bound}",
                w.name,
                r.violations.max_inversion_cycles
            );
        }
    }
}

/// Even unbounded slack cannot corrupt a DRF kernel's values — the whole
/// point of the family: violations stay observable as timestamp skew
/// while the printed output remains host-verifiable.
#[test]
fn unbounded_slack_preserves_values_on_drf_kernels() {
    for w in suite() {
        let c = cfg(w.n_threads);
        for seed in SEEDS {
            let r = sk_core::run_det(&w.program, Scheme::Unbounded, &c, seed);
            assert_output(&r, &w, &format!("det SU seed {seed}"));
        }
        let r = run_parallel(&w.program, Scheme::Unbounded, &c);
        assert_output(&r, &w, "threads SU");
    }
}
