//! Scheme-conformance matrix: every slack scheme × representative
//! kernels, under both execution backends.
//!
//! What each scheme class *guarantees* — established empirically against
//! this engine and asserted here (DESIGN.md "Deterministic execution",
//! paper §3):
//!
//! * **CC** is fully schedule-independent: the deterministic backend
//!   reproduces the threaded run *byte for byte* (whole report
//!   fingerprint) for every seed, and never records a violation even on
//!   data-racy workloads.
//! * **Q** runs whole quanta between barriers, so its simulated outcome
//!   is seed-independent on the deterministic backend (identical
//!   fingerprints across seeds), though the threaded backend's timeout
//!   path may take different — equally legal — barrier rounds.
//! * **Ordered conservative schemes** (L, S*) drain the event queue in
//!   timestamp order: their *exec time* is schedule-independent (equal
//!   across every seed, and equal to CC when the parameter is at the
//!   critical latency), but micro-counters such as stall/idle cycles
//!   legitimately vary with the schedule.
//! * **Any bounded window `w`** (Q*w*, L*w*, S*w*, S*w**)
//!   caps the damage on racy workloads: no recorded access-order
//!   inversion may exceed `w` simulated cycles. SU is the unbounded
//!   control — its inversions routinely blow far past any window.
//! * The **functional result** (what the program prints, instructions
//!   committed) is identical under every scheme, every backend, and
//!   every schedule — slack perturbs timing, never architectural state.
//!
//! The deterministic backend doubles as the fuzz oracle: eight fixed
//! seeds per scheme here, `--det-schedules` sweeps in CI. A deliberately
//! broken window computation (`Engine::inject_window_bug`) must be
//! caught within the same seed budget. The committed violating seeds
//! replay in the workspace root's `tests/seed_corpus.rs`.

use sk_core::{run_det, run_parallel, DetEngine, Scheme, SimReport, TargetConfig};
use sk_kernels::{micro, paper_suite, Scale, Workload};

/// Fixed seed budget per scheme — small enough for debug-mode CI, wide
/// enough that the injected-bug test reliably trips.
const SEEDS: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];

/// The conformance matrix: every scheme shape, parameters at test scale
/// (critical latency of `TargetConfig::small` targets is 10).
fn scheme_matrix() -> Vec<Scheme> {
    vec![
        Scheme::CycleByCycle,
        Scheme::Quantum(100),
        Scheme::BoundedSlack(10),
        Scheme::OldestFirstBounded(10),
        Scheme::Unbounded,
    ]
}

/// Schemes with a finite window, paired with the bound the violation
/// tracker must respect on racy workloads.
fn bounded_schemes() -> Vec<(Scheme, u64)> {
    vec![
        (Scheme::Quantum(10), 10),
        (Scheme::Quantum(100), 100),
        (Scheme::BoundedSlack(10), 10),
        (Scheme::OldestFirstBounded(10), 10),
    ]
}

fn cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.max_cycles = 5_000_000;
    cfg
}

/// Same, with the violation oracle armed.
fn tracking_cfg(n: usize) -> TargetConfig {
    let mut cfg = cfg(n);
    cfg.track_workload_violations = true;
    cfg
}

fn printed_values(r: &SimReport) -> Vec<i64> {
    r.printed().into_iter().map(|(_, v)| v).collect()
}

/// Per-run sanity every conforming report must satisfy, regardless of
/// scheme or backend.
fn assert_sane(w: &Workload, r: &SimReport, what: &str) {
    assert_eq!(printed_values(r), w.expected, "{what}: wrong output");
    assert!(r.exec_cycles > 0, "{what}: no simulated progress");
    assert!(r.total_committed() > 0, "{what}: nothing committed");
    if r.violations.total() == 0 {
        assert_eq!(
            r.violations.max_inversion_cycles, 0,
            "{what}: inversion recorded without a violation"
        );
    } else {
        assert!(
            r.violations.max_inversion_cycles > 0,
            "{what}: violation recorded without an inversion timestamp"
        );
    }
}

// ---------------------------------------------------------------------
// Functional determinism: output and commit counts across the matrix.
// ---------------------------------------------------------------------

/// Every scheme × both backends × four seeds computes the right answer,
/// and the instructions-committed total is schedule-independent.
#[test]
fn output_and_commit_counts_are_schedule_independent() {
    let w = micro::lock_sweep(3, 8);
    let c = cfg(3);
    for scheme in scheme_matrix() {
        let threaded = run_parallel(&w.program, scheme, &c);
        assert_sane(&w, &threaded, &format!("{scheme} threaded"));
        let mut committed = None;
        for seed in &SEEDS[..4] {
            let r = run_det(&w.program, scheme, &c, *seed);
            assert_sane(&w, &r, &format!("{scheme} det seed {seed}"));
            let got = r.total_committed();
            match committed {
                None => committed = Some(got),
                Some(want) => assert_eq!(
                    got, want,
                    "{scheme}: committed-instruction count depends on the schedule"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Schedule-independence ladder: what each conservative class guarantees.
// ---------------------------------------------------------------------

/// CC on the deterministic backend reproduces the threaded run byte for
/// byte — whole-report fingerprint, any seed.
#[test]
fn cc_det_is_bit_identical_to_cc_threaded() {
    let w = micro::lock_sweep(4, 6);
    let c = cfg(4);
    let threaded = run_parallel(&w.program, Scheme::CycleByCycle, &c).fingerprint();
    for seed in SEEDS {
        let det = run_det(&w.program, Scheme::CycleByCycle, &c, seed).fingerprint();
        assert_eq!(det, threaded, "CC must be schedule-independent (seed {seed})");
    }
}

/// The quantum scheme's whole simulated outcome is seed-independent on
/// the deterministic backend: barriers serialize the run into quanta, so
/// the interleaving within a quantum cannot show.
#[test]
fn quantum_det_outcome_is_seed_independent() {
    let w = micro::lock_sweep(3, 8);
    let c = cfg(3);
    let baseline = run_det(&w.program, Scheme::Quantum(100), &c, SEEDS[0]).fingerprint();
    for seed in &SEEDS[1..] {
        let fp = run_det(&w.program, Scheme::Quantum(100), &c, *seed).fingerprint();
        assert_eq!(fp, baseline, "Q100 outcome depends on the schedule (seed {seed})");
    }
}

/// Timestamp-ordered conservative schemes (CC, L, S*) have
/// schedule-independent *exec time*; at the critical latency their exec
/// time equals CC's exactly. (Micro-counters such as stall cycles vary
/// with the schedule, so the assertion is scoped to exec time — the
/// quantity the paper's Table 3 reports.)
#[test]
fn ordered_schemes_exec_time_is_seed_independent() {
    for w in [micro::lock_sweep(3, 8), micro::racy_increment(3, 30)] {
        let c = cfg(3);
        let cc = run_det(&w.program, Scheme::CycleByCycle, &c, 0).exec_cycles;
        for scheme in [Scheme::CycleByCycle, Scheme::OldestFirstBounded(10)] {
            for seed in SEEDS {
                let r = run_det(&w.program, scheme, &c, seed);
                assert_eq!(
                    r.exec_cycles, cc,
                    "{}: {scheme} exec time must match CC on every schedule (seed {seed})",
                    w.name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The violation oracle: slack windows bound inversion timestamps.
// ---------------------------------------------------------------------

/// CC never records a violation, even on workloads with real data races.
#[test]
fn cc_never_violates_even_on_racy_workloads() {
    for w in [micro::racy_increment(3, 30), micro::false_sharing(3, 30)] {
        let c = tracking_cfg(3);
        let threaded = run_parallel(&w.program, Scheme::CycleByCycle, &c);
        assert_eq!(threaded.violations.total(), 0, "{} threaded CC violated", w.name);
        for seed in &SEEDS[..4] {
            let r = run_det(&w.program, Scheme::CycleByCycle, &c, *seed);
            assert_eq!(r.violations.total(), 0, "{} det CC violated (seed {seed})", w.name);
        }
    }
}

/// On a racy workload, every bounded-window scheme keeps recorded
/// access-order inversions within its window: a scheme with window `w`
/// can never let an access land more than `w` cycles after its
/// timestamp has passed. (SU is exempt by construction — and reliably
/// exceeds these bounds, which is what makes this a real oracle.)
#[test]
fn slack_bound_caps_inversion_timestamps() {
    let w = micro::racy_increment(3, 30);
    let c = tracking_cfg(3);
    for (scheme, bound) in bounded_schemes() {
        // The table above is what `Scheme::slack_bound` promises the
        // fuzzing CLI — keep the oracle and this suite in lockstep.
        assert_eq!(scheme.slack_bound(), Some(bound), "{scheme}: oracle bound drifted");
        let threaded = run_parallel(&w.program, scheme, &c);
        assert!(
            threaded.violations.max_inversion_cycles <= bound,
            "{scheme} threaded: inversion {} exceeds window {bound}",
            threaded.violations.max_inversion_cycles
        );
        for seed in SEEDS {
            let r = run_det(&w.program, scheme, &c, seed);
            assert!(
                r.violations.max_inversion_cycles <= bound,
                "{scheme} det seed {seed}: inversion {} exceeds window {bound}",
                r.violations.max_inversion_cycles
            );
        }
    }
}

/// The fuzz oracle must actually catch bugs: a window computation that
/// over-extends the slack window by 50 cycles (injected via
/// `Engine::inject_window_bug`) must push at least one seed's inversions
/// past the S10 bound within the CI seed budget.
#[test]
fn injected_window_bug_is_caught_within_the_seed_budget() {
    let w = micro::racy_increment(3, 30);
    let c = tracking_cfg(3);
    let mut worst = 0u64;
    for seed in SEEDS {
        let mut det = DetEngine::new(&w.program, Scheme::BoundedSlack(10), &c, seed);
        det.engine_mut().inject_window_bug(50);
        det.run();
        let r = det.into_report();
        worst = worst.max(r.violations.max_inversion_cycles);
    }
    assert!(
        worst > 10,
        "an engine that hands out 50 extra cycles of slack must trip the \
         S10 inversion bound within {} seeds (worst seen: {worst})",
        SEEDS.len()
    );
}

// ---------------------------------------------------------------------
// Sharded clock domains (cfg.mem_shards > 0): the conformance ladder
// must survive partitioning the manager.
// ---------------------------------------------------------------------

fn sharded_cfg(n: usize, shards: usize) -> TargetConfig {
    let mut c = cfg(n);
    c.mem_shards = shards;
    c
}

/// CC is bit-identical across shard counts AND backends: the per-bank
/// interconnect channels make bank partitioning invisible to timing, so
/// the sharded engine reproduces the single-manager CC run byte for byte,
/// and the deterministic backend reproduces the threaded run at every
/// shard count across the full seed budget.
#[test]
fn cc_det_matches_threaded_at_every_shard_count() {
    let w = micro::lock_sweep(4, 6);
    let baseline = run_parallel(&w.program, Scheme::CycleByCycle, &cfg(4)).fingerprint();
    for shards in [0usize, 2, 4] {
        let c = sharded_cfg(4, shards);
        let threaded = run_parallel(&w.program, Scheme::CycleByCycle, &c).fingerprint();
        assert_eq!(threaded, baseline, "CC with {shards} shards diverged from single-manager CC");
        for seed in SEEDS {
            let det = run_det(&w.program, Scheme::CycleByCycle, &c, seed).fingerprint();
            assert_eq!(det, baseline, "CC det diverged (shards={shards}, seed={seed})");
        }
    }
}

/// Every bounded scheme keeps its slack bound at every shard count: the
/// deterministic fuzzer's inversion oracle never sees an access land more
/// than `slack_bound()` cycles late, no matter how the manager is split.
#[test]
fn slack_bounds_hold_across_shard_counts() {
    let w = micro::racy_increment(3, 30);
    for shards in [2usize, 4] {
        let mut c = tracking_cfg(3);
        c.mem_shards = shards;
        for (scheme, bound) in bounded_schemes() {
            for seed in &SEEDS[..3] {
                let r = run_det(&w.program, scheme, &c, *seed);
                assert_sane(&w, &r, &format!("{scheme} shards={shards} seed={seed}"));
                assert!(
                    r.violations.max_inversion_cycles <= bound,
                    "{scheme} shards={shards} seed={seed}: inversion {} exceeds window {bound}",
                    r.violations.max_inversion_cycles
                );
            }
        }
    }
}

/// 64-core scale-out: sharded CC is bit-identical to single-manager CC
/// on a `many_core` target (printed output and the whole report
/// fingerprint, which pins exec cycles), for shards ∈ {2, 4, 8}.
#[test]
fn many_core_cc_sharded_is_bit_identical_to_single_manager() {
    let w = micro::lock_sweep(64, 2);
    let mut base = TargetConfig::many_core(64);
    base.max_cycles = 20_000_000;
    let baseline = run_parallel(&w.program, Scheme::CycleByCycle, &base);
    assert_eq!(printed_values(&baseline), w.expected, "64-core CC: wrong output");
    for shards in [2usize, 4, 8] {
        let mut c = base;
        c.mem_shards = shards;
        let r = run_parallel(&w.program, Scheme::CycleByCycle, &c);
        assert_eq!(
            r.fingerprint(),
            baseline.fingerprint(),
            "64-core CC with {shards} shards diverged from single-manager CC"
        );
    }
}

/// 64-core functional coverage of the non-CC scheme classes across shard
/// counts: bounded and unbounded schemes both complete with the right
/// output under shards ∈ {0, 4, 8}.
#[test]
fn many_core_schemes_complete_across_shard_counts() {
    let w = micro::lock_sweep(64, 1);
    let mut base = TargetConfig::many_core(64);
    base.max_cycles = 20_000_000;
    for scheme in [Scheme::BoundedSlack(10), Scheme::Unbounded] {
        for shards in [0usize, 4, 8] {
            let mut c = base;
            c.mem_shards = shards;
            let r = run_parallel(&w.program, scheme, &c);
            assert_sane(&w, &r, &format!("64-core {scheme} shards={shards}"));
        }
    }
}

// ---------------------------------------------------------------------
// Heavy matrix (CI `--ignored` pass only).
// ---------------------------------------------------------------------

/// The full matrix on the paper's kernels at test scale: correct output
/// everywhere, CC bit-identity, slack bounds with the oracle armed.
/// Minutes in debug mode — gated out of the default test pass.
#[test]
#[ignore = "heavy: full scheme × paper-kernel matrix; run in CI's --ignored pass"]
fn full_matrix_on_the_paper_kernels() {
    let n = 4;
    for w in paper_suite(n, Scale::Test) {
        let c = tracking_cfg(n);
        let cc = run_parallel(&w.program, Scheme::CycleByCycle, &c);
        assert_sane(&w, &cc, &format!("{} threaded CC", w.name));
        assert_eq!(cc.violations.total(), 0, "{} CC violated", w.name);
        for scheme in scheme_matrix() {
            let threaded = run_parallel(&w.program, scheme, &c);
            assert_sane(&w, &threaded, &format!("{} threaded {scheme}", w.name));
            for seed in &SEEDS[..2] {
                let r = run_det(&w.program, scheme, &c, *seed);
                assert_sane(&w, &r, &format!("{} det {scheme} seed {seed}", w.name));
                if scheme == Scheme::CycleByCycle {
                    assert_eq!(
                        r.fingerprint(),
                        cc.fingerprint(),
                        "{}: CC must be schedule-independent (seed {seed})",
                        w.name
                    );
                }
            }
        }
    }
}
