//! What the OutQ / InQ / shard-link transport owes the engine, whatever
//! it is built from: every event a core emits reaches its consumer, every
//! reply reaches its core, in per-queue FIFO order, and a safe-point finds
//! nothing in flight outside a serializable structure. None of these cells
//! depends on a queue size; they pin the behaviour a transport change has
//! to keep.

use sk_core::{run_det, Engine, RunOutcome};
use slacksim_suite::prelude::*;
use std::time::Duration;

fn ooo_cfg(n: usize, shards: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::OutOfOrder;
    cfg.max_cycles = 5_000_000;
    cfg.mem_shards = shards;
    cfg
}

/// An out-of-order core emits several events in one cycle, eager schemes
/// let it run far ahead of its consumers, frontier-clamped ones hold it to
/// the slowest shard: the threaded backend must finish every combination
/// with the kernel's host-computed output.
#[test]
fn threaded_ooo_fft_finishes_on_every_scheme_class_and_shard_count() {
    let w = kernels::fft::fft(4, 6);
    let schemes = [
        Scheme::Unbounded,
        Scheme::BoundedSlack(64),
        Scheme::CycleByCycle,
        Scheme::OldestFirstBounded(10),
    ];
    for shards in [0usize, 2] {
        for scheme in schemes {
            let cfg = ooo_cfg(4, shards);
            let program = w.program.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            // Detached on purpose: a hung run must fail the test, not the
            // join that waits for it.
            std::thread::spawn(move || {
                let _ = tx.send(run_parallel(&program, scheme, &cfg).printed());
            });
            let printed = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{scheme} shards={shards} hung"));
            let values: Vec<i64> = printed.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, w.expected, "{scheme} shards={shards}");
        }
    }
}

/// The deepest InQs of the performance ledger: 64 threads on one lock,
/// four memory shards. CC is bit-deterministic, so the threaded backend
/// and the deterministic one must agree on every counter of the report.
#[test]
fn cc_det_equals_cc_threaded_on_the_64_core_sharded_lock_sweep() {
    let w = kernels::micro::lock_sweep(64, 6);
    let mut cfg = TargetConfig::many_core(64);
    cfg.mem_shards = 4;
    let det = run_det(&w.program, Scheme::CycleByCycle, &cfg, 1);
    let values: Vec<i64> = det.printed().iter().map(|&(_, v)| v).collect();
    assert_eq!(values, w.expected, "det CC output");
    let threaded = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
    assert_eq!(det.fingerprint(), threaded.fingerprint(), "det CC vs threaded CC");
}

/// A sharded out-of-order CC run cut at an odd cycle, with misses in
/// flight between cores, shards and coordinator: whatever the transport
/// holds at the cut must land in the snapshot, or the resumed run loses it.
#[test]
fn sharded_ooo_cc_snapshot_mid_pipeline_resumes_bit_identically() {
    let w = kernels::fft::fft(4, 6);
    let cfg = ooo_cfg(4, 2);
    let full = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
    let end = full.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    let at = (end / 2) | 1;
    let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(at)), RunOutcome::CheckpointReady, "safe-point at {at}");
    let busy = e.core_debug_states().iter().any(|l| !l.contains("mshr=[]"));
    assert!(busy, "cycle {at} caught no miss in flight");
    let bytes = e.snapshot().expect("snapshot");
    drop(e);
    let mut r = Engine::resume(&bytes, None).expect("resume");
    assert_eq!(bytes, r.snapshot().expect("re-snapshot"), "round-trip drifted at {at}");
    assert_eq!(r.run_until(None), RunOutcome::Finished);
    assert_eq!(full.fingerprint(), r.into_report().fingerprint(), "resume from {at} diverged");
}
