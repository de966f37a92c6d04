//! Concurrent `Engine::resume` from shared snapshot bytes is bit-exact.
//!
//! N threads share one CC safe-point snapshot (one `Arc<Vec<u8>>`, probed
//! the way the server's worker probes it) and fork it onto different
//! schemes at the same time, each on the det scheduler as the server runs
//! them. Every concurrent fork must produce a fingerprint identical to a
//! sequential reference of the same (snapshot, scheme) — slack schemes
//! included — and the CC fork must additionally match a from-scratch CC
//! run on the worker pool, closing the loop to an unforked simulation.
//! Gridfork-style forking, one warmup forked onto many schemes from one
//! buffer with no locking around the engine itself, relies on this.

use sk_core::engine::{Engine, RunOutcome};
use sk_core::{run_parallel, DetEngine, Scheme, SimReport, TargetConfig};
use sk_obs::json;
use sk_serve::job::JobSpec;
use sk_serve::worker::DET_SEED;
use std::sync::Arc;

/// Build the shared snapshot exactly the way the server's worker does:
/// det CC probe to doubling safe-point targets until ROI has begun.
fn probe_snapshot(spec: &JobSpec) -> (Vec<u8>, TargetConfig, Vec<i64>) {
    let w = spec.workload().expect("known bench");
    let cfg = spec.config();
    let mut det = DetEngine::new(&w.program, Scheme::CycleByCycle, &cfg, DET_SEED);
    let mut target = 1 << 10;
    loop {
        match det.run_until(Some(target)) {
            RunOutcome::CheckpointReady => {
                let e = det.engine_mut();
                if e.roi_started() {
                    return (e.snapshot().expect("safe-point snapshot"), cfg, w.expected);
                }
                target *= 2;
            }
            other => panic!("workload ended during warmup probe: {other:?}"),
        }
    }
}

fn fork(bytes: &[u8], scheme: Scheme) -> SimReport {
    let e = Engine::resume(bytes, Some(scheme)).expect("fork from snapshot");
    let mut det = DetEngine::from_engine(e, DET_SEED);
    assert_eq!(det.run_until(None), RunOutcome::Finished);
    det.into_report()
}

#[test]
fn concurrent_forks_match_cold_references() {
    let spec =
        JobSpec::from_json(&json::parse(r#"{"bench":"lock_sweep","cores":2}"#).unwrap(), "t")
            .unwrap();
    let (snapshot, cfg, expected) = probe_snapshot(&spec);
    let w = spec.workload().unwrap();

    // Every thread holds the same Arc'd buffer.
    let bytes = Arc::new(snapshot);

    // Several concurrent CC forks interleaved with slack schemes. On the
    // det scheduler every one repeats its sequential reference bit for
    // bit, and its output on a race-free workload is right.
    let schemes = [
        Scheme::CycleByCycle,
        Scheme::CycleByCycle,
        Scheme::CycleByCycle,
        Scheme::CycleByCycle,
        "Q100".parse::<Scheme>().unwrap(),
        "Q50".parse::<Scheme>().unwrap(),
        "S9*".parse::<Scheme>().unwrap(),
        "SU".parse::<Scheme>().unwrap(),
        "S200*".parse::<Scheme>().unwrap(),
    ];

    // Sequential references, one per scheme.
    let references: Vec<SimReport> = schemes.iter().map(|&s| fork(&bytes, s)).collect();
    let cc_reference = &references[0];

    // Two full rounds of concurrent forks sharing the one buffer.
    for round in 0..2 {
        let forks: Vec<_> = schemes
            .iter()
            .map(|s| {
                let bytes = bytes.clone();
                let s = *s;
                std::thread::spawn(move || (s, fork(&bytes, s)))
            })
            .collect();
        for (t, reference) in forks.into_iter().zip(&references) {
            let (scheme, got) = t.join().expect("fork thread");
            assert_eq!(
                got.fingerprint(),
                reference.fingerprint(),
                "round {round}: concurrent {scheme:?} fork diverged from its reference"
            );
            let printed: Vec<i64> = got.printed().into_iter().map(|(_, v)| v).collect();
            assert_eq!(
                printed, expected,
                "round {round}: {} fork produced wrong workload output",
                got.scheme
            );
        }
    }

    // Close the loop: the CC fork equals a from-scratch CC run.
    let scratch = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
    assert_eq!(
        cc_reference.fingerprint(),
        scratch.fingerprint(),
        "CC forked from the warmup snapshot must equal a from-scratch CC run"
    );
    assert_eq!(cc_reference.printed(), scratch.printed());
}
