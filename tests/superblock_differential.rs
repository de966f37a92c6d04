//! Superblock dispatch must be invisible: every report a run produces
//! with superblocks enabled must be bit-identical to the same run with
//! per-instruction dispatch. Superblocks only change *how* the host
//! acquires decoded instructions (block-batched vs one lookup per
//! cycle); the simulated machine — timing, cache traffic, interleaving,
//! stats — is the same machine either way.
//!
//! Fingerprint equality is asserted wherever the backend itself is
//! bit-deterministic: the deterministic backend under every scheme, and
//! the threads backend under zero-slack schemes
//! (`Scheme::slack_bound() == Some(0)`). Any nonzero slack window makes
//! the threads backend host-timing dependent even between two
//! uninterrupted runs of the *same* configuration — stall-cycle counts
//! jitter by a cycle — so there the checks are the scheme's actual
//! guarantees: printed output, and for serialized workloads under
//! ordered bounded slack, the execution time and committed counts.

use slacksim_suite::prelude::*;

fn cfg_with(n: usize, superblocks: bool) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::InOrder;
    cfg.max_cycles = 50_000_000;
    cfg.superblocks = superblocks;
    cfg
}

fn kernel_suite(n: usize) -> Vec<Workload> {
    let mut v = sk_kernels::extended_suite(n, Scale::Test);
    v.push(kernels::micro::lock_sweep(n, 8));
    v.push(kernels::micro::private_compute(n, 40));
    v
}

/// Strip the config echo before comparing: the two runs *should* differ
/// in the `superblocks` flag itself, and `fingerprint()` deliberately
/// excludes it. This guards that exclusion too — if the flag ever leaks
/// into the fingerprint, the comparison fails loudly.
fn assert_same_fingerprint(on: &SimReport, off: &SimReport, what: &str) {
    assert!(on.superblocks && !off.superblocks, "{what}: runs mislabelled");
    assert_eq!(on.fingerprint(), off.fingerprint(), "{what}: fingerprints diverged");
}

#[test]
fn det_backend_is_bit_identical_on_vs_off_for_every_scheme() {
    let n = 4;
    for w in kernel_suite(n) {
        for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack(10), Scheme::Unbounded] {
            let on = sk_core::run_det(&w.program, scheme, &cfg_with(w.n_threads, true), 7);
            let off = sk_core::run_det(&w.program, scheme, &cfg_with(w.n_threads, false), 7);
            assert_same_fingerprint(&on, &off, &format!("det {} under {scheme}", w.name));
            let printed: Vec<i64> = on.printed().into_iter().map(|(_, v)| v).collect();
            assert_eq!(printed, w.expected, "det {} under {scheme}: wrong output", w.name);
        }
    }
    // The fused path is the one that ran: its exits reach the metrics hub,
    // window splits (a batch that ends mid-run under S10) among them.
    let w = kernels::fft::fft(n, 6);
    let mut det =
        sk_core::DetEngine::new(&w.program, Scheme::BoundedSlack(10), &cfg_with(n, true), 7);
    let m = det.engine_mut().attach_new_metrics(Default::default());
    det.run();
    let branch: u64 = m.cores.iter().map(|c| c.sb_exit_branch.get()).sum();
    let window: u64 = m.cores.iter().map(|c| c.sb_exit_window.get()).sum();
    assert!(branch > 0 && window > 0, "superblock exits: {branch} branch, {window} window");
}

#[test]
fn threads_backend_cc_is_bit_identical_on_vs_off() {
    let n = 4;
    for w in kernel_suite(n) {
        let on = run_parallel(&w.program, Scheme::CycleByCycle, &cfg_with(w.n_threads, true));
        let off = run_parallel(&w.program, Scheme::CycleByCycle, &cfg_with(w.n_threads, false));
        assert_same_fingerprint(&on, &off, &format!("threads CC {}", w.name));
    }
}

#[test]
fn threads_backend_ordered_s10_is_time_exact_on_serialized_workloads() {
    // Structurally serialized workload (only the token holder runs), so
    // the ordered bounded-slack scheme's *execution time* is exact on the
    // threads backend: exec_cycles, per-core committed counts, and output
    // must all be dispatch-invariant. Full fingerprints are NOT compared:
    // with a nonzero slack window the threads backend jitters stall-cycle
    // counts by a cycle even between two runs of the same configuration
    // (the det-backend test above covers bit-identity for S10; threaded
    // bit-identity is only a zero-slack guarantee).
    let w = kernels::micro::pingpong(60);
    let scheme = Scheme::OldestFirstBounded(10);
    let on = run_parallel(&w.program, scheme, &cfg_with(w.n_threads, true));
    let off = run_parallel(&w.program, scheme, &cfg_with(w.n_threads, false));
    assert!(on.superblocks && !off.superblocks, "threads S10* pingpong: runs mislabelled");
    assert_eq!(on.exec_cycles, off.exec_cycles, "threads S10* pingpong: exec time diverged");
    assert_eq!(on.printed(), off.printed(), "threads S10* pingpong: output diverged");
    let committed = |r: &SimReport| r.cores.iter().map(|c| c.committed).collect::<Vec<_>>();
    assert_eq!(committed(&on), committed(&off), "threads S10* pingpong: committed diverged");
}

#[test]
fn threads_backend_eager_schemes_preserve_output_on_vs_off() {
    let n = 4;
    for w in kernel_suite(n) {
        for scheme in [Scheme::BoundedSlack(10), Scheme::Unbounded] {
            for superblocks in [true, false] {
                let r = run_parallel(&w.program, scheme, &cfg_with(w.n_threads, superblocks));
                let printed: Vec<i64> = r.printed().into_iter().map(|(_, v)| v).collect();
                assert_eq!(
                    printed, w.expected,
                    "{} under {scheme} (superblocks={superblocks}): wrong output",
                    w.name
                );
            }
        }
    }
}

#[test]
fn sequential_engine_is_bit_identical_on_vs_off() {
    let n = 4;
    for w in kernel_suite(n) {
        let on = run_sequential(&w.program, &cfg_with(w.n_threads, true));
        let off = run_sequential(&w.program, &cfg_with(w.n_threads, false));
        assert_same_fingerprint(&on, &off, &format!("sequential {}", w.name));
    }
}

/// Snapshot taken mid-run with superblock dispatch active (cores can be
/// parked mid-block at the safe-point) must resume bit-deterministically:
/// the block-run cursor is derived state, rebuilt from the decoded text
/// on restore, so the resumed half must line up instruction-exactly.
#[test]
fn snapshot_mid_run_roundtrips_superblock_state() {
    use sk_core::engine::RunOutcome;

    let w = kernels::fft::fft(4, 6);
    let cfg = cfg_with(4, true);
    let full = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
    let per_instr = run_parallel(&w.program, Scheme::CycleByCycle, &cfg_with(4, false));
    assert_same_fingerprint(&full, &per_instr, "fft CC baseline");

    let mid = full.cores.iter().map(|c| c.cycles).max().unwrap_or(0) / 2;
    assert!(mid > 0, "degenerate run");
    let mut e = sk_core::Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(mid)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot at safe-point");
    drop(e);

    let mut r = sk_core::Engine::resume(&bytes, None).expect("resume");
    // The restored engine must serialize back to the identical image:
    // nothing about the derived superblock state leaks into the bytes.
    assert_eq!(bytes, r.snapshot().expect("re-snapshot"), "snapshot round-trip drifted");
    assert_eq!(r.run_until(None), RunOutcome::Finished);
    let resumed = r.into_report();
    assert_eq!(full.fingerprint(), resumed.fingerprint(), "resumed half diverged");
}
