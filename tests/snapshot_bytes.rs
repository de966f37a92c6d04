//! The bytes of a snapshot, pinned.
//!
//! The other goldens pin what a run reports; none pins what
//! [`Engine::snapshot`] writes. A change to how a core's state is laid out
//! in memory (a field moved into a shared struct, a save split into parts)
//! must leave the stream alone unless it bumps `FORMAT_VERSION`. This test
//! digests the snapshot at three det safe-points of FFT and of a lock
//! kernel, on four in-order cores with superblocks and on four
//! out-of-order cores under CC, then of FFT on two memory shards under
//! S10\* (shard frontiers and shard directories) and under S10 with the
//! conflict tracker, fast-forward compensation and an ROI stop (the
//! tracker, a non-CC scheme tag and the stop tag), and compares the
//! digests with `tests/golden/snapshot_bytes.txt`.
//!
//! An *intended* format change regenerates the file with
//! `SK_REGEN_GOLDEN=1 cargo test --test snapshot_bytes` and says so in its
//! commit.

mod common;

use common::{check_golden, fnv1a64, printed};
use sk_core::{DetEngine, RunOutcome};
use slacksim_suite::prelude::*;

const N: usize = 4;
const SAFE_POINTS: [u64; 3] = [250, 1_000, 2_000];

#[test]
fn snapshot_bytes_match_the_pinned_digests() {
    let kernels = [kernels::fft::fft(N, 5), kernels::micro::lock_sweep(N, 20)];
    let mut actual = String::new();
    for model in [CoreModel::InOrder, CoreModel::OutOfOrder] {
        let mut cfg = TargetConfig::small(N);
        cfg.core.model = model;
        cfg.superblocks = true;
        cfg.max_cycles = 5_000_000;
        for w in &kernels {
            let mut det = DetEngine::new(&w.program, Scheme::CycleByCycle, &cfg, 0);
            for at in SAFE_POINTS {
                let label = format!("{}/{model:?}/{at}", w.name);
                assert_eq!(det.run_until(Some(at)), RunOutcome::CheckpointReady, "{label}");
                let bytes = det.engine_mut().snapshot().expect("snapshot at a safe-point");
                actual += &format!("{label} len={} fnv={:016x}\n", bytes.len(), fnv1a64(&bytes));
            }
            // Snapshotting left the run alone.
            assert_eq!(det.run(), RunOutcome::Finished);
            assert_eq!(printed(&det.into_report()), w.expected, "{}/{model:?}", w.name);
        }
    }
    // Sections the CC cells leave empty or at their defaults.
    let fft = kernels::fft::fft(N, 5);
    let mut sharded = TargetConfig::small(N);
    sharded.core.model = CoreModel::InOrder;
    sharded.superblocks = true;
    sharded.max_cycles = 5_000_000;
    sharded.mem_shards = 2;
    let mut tracked = sharded;
    tracked.mem_shards = 0;
    tracked.track_workload_violations = true;
    tracked.fast_forward_compensation = true;
    tracked.stop = StopCondition::RoiInstructions(1_000_000);
    for (name, scheme, cfg) in [
        ("S10* 2-shard", Scheme::OldestFirstBounded(10), sharded),
        ("S10 tracked", Scheme::BoundedSlack(10), tracked),
    ] {
        let mut det = DetEngine::new(&fft.program, scheme, &cfg, 0);
        for at in SAFE_POINTS {
            let label = format!("{name} {at}");
            assert_eq!(det.run_until(Some(at)), RunOutcome::CheckpointReady, "{label}");
            let bytes = det.engine_mut().snapshot().expect("snapshot at a safe-point");
            actual += &format!("{label} len={} fnv={:016x}\n", bytes.len(), fnv1a64(&bytes));
        }
    }
    check_golden(
        "snapshot_bytes.txt",
        &actual,
        "the snapshot stream moved (label = kernel/model/cycle). Regenerate with \
         SK_REGEN_GOLDEN=1 only for an intended format change",
    );
}
