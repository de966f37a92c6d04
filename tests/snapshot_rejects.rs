//! A damaged, truncated, foreign-version or unknown-scheme snapshot is
//! refused by [`Engine::resume`] with a typed [`SnapError`], never a panic.
//! The byte-for-byte round trips in `transport_contract` and
//! `superblock_differential` pin what a good snapshot restores; this pins
//! what a bad one does not.

use sk_core::snap::{self, Persist, SnapError, Writer};
use sk_core::{Engine, RunOutcome};
use slacksim_suite::prelude::*;

/// Envelope header: magic, version word, payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

fn small_cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::InOrder;
    cfg.max_cycles = 5_000_000;
    cfg.track_workload_violations = true;
    cfg
}

/// `bytes` resealed with the scheme tag (the first byte after the
/// payload's `TargetConfig`) replaced by `tag`: a well-framed snapshot
/// that names a scheme this build does not have.
fn with_scheme_tag(bytes: &[u8], cfg: &TargetConfig, tag: u8) -> Vec<u8> {
    let mut payload = snap::open(bytes).expect("pristine snapshot").to_vec();
    let mut w = Writer::new();
    cfg.save(&mut w);
    payload[w.len()] = tag;
    snap::seal(&payload)
}

/// `bytes` resealed with its `TargetConfig` replaced by `cfg`'s encoding,
/// which differs from the original in fixed-width fields only: a
/// well-framed snapshot of a configuration validation refuses.
fn with_config(bytes: &[u8], cfg: &TargetConfig) -> Vec<u8> {
    let mut payload = snap::open(bytes).expect("pristine snapshot").to_vec();
    let mut w = Writer::new();
    cfg.save(&mut w);
    let encoded = w.into_bytes();
    payload[..encoded.len()].copy_from_slice(&encoded);
    snap::seal(&payload)
}

#[test]
fn corrupted_and_truncated_snapshots_fail_cleanly() {
    let w = kernels::micro::lock_sweep(2, 3);
    let cfg = small_cfg(2);
    let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(50)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");

    // Flip one byte at a spread of positions: the checksum (or a layer
    // validation) must reject every damaged image without panicking.
    for pos in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(Engine::resume(&bad, None).is_err(), "byte flip at {pos} accepted");
    }
    // Truncations at every prefix length of the envelope and a sweep of
    // payload cuts.
    for len in 0..HEADER_LEN.min(bytes.len()) {
        assert!(Engine::resume(&bytes[..len], None).is_err(), "truncation to {len} accepted");
    }
    for len in (HEADER_LEN..bytes.len()).step_by(131) {
        assert!(Engine::resume(&bytes[..len], None).is_err(), "truncation to {len} accepted");
    }
    // Damaged magic and wrong version field.
    let mut wrong = bytes.clone();
    wrong[7] ^= 0xFF;
    match Engine::resume(&wrong, None).map(|_| ()) {
        Err(SnapError::BadMagic) => {}
        other => panic!("damaged magic must be rejected, got {other:?}"),
    }
    let mut wrong = bytes.clone();
    wrong[8] ^= 0xFF; // low byte of the little-endian version word
    match Engine::resume(&wrong, None).map(|_| ()) {
        Err(SnapError::BadVersion { .. }) => {}
        other => panic!("wrong-version snapshot must be rejected, got {other:?}"),
    }
    // The previous format, whose stream still carried the spin interval
    // and the per-core retry words, is refused by its version before any
    // payload is read.
    let mut v10 = bytes.clone();
    v10[8..12].copy_from_slice(&10u32.to_le_bytes());
    match Engine::resume(&v10, None).map(|_| ()) {
        Err(SnapError::BadVersion { found: 10, expected }) if expected == snap::FORMAT_VERSION => {}
        other => panic!("a v10 snapshot must be rejected by version, got {other:?}"),
    }
    // Scheme tags 6 and 7 named schemes this format no longer has.
    for tag in [6u8, 7] {
        match Engine::resume(&with_scheme_tag(&bytes, &cfg, tag), None).map(|_| ()) {
            Err(SnapError::Corrupt(m)) if m == format!("scheme tag {tag}") => {}
            other => panic!("scheme tag {tag} must be rejected as corrupt, got {other:?}"),
        }
    }
    // A core that could never commit: validation refuses its config.
    let mut stuck = cfg;
    stuck.core.commit_width = 0;
    match Engine::resume(&with_config(&bytes, &stuck), None).map(|_| ()) {
        Err(SnapError::Corrupt(_)) => {}
        other => panic!("commit_width 0 must be rejected as corrupt, got {other:?}"),
    }
    assert!(Engine::resume(&with_config(&bytes, &cfg), None).is_ok());
    // Garbage and empty inputs.
    assert!(Engine::resume(&[], None).is_err());
    assert!(Engine::resume(b"not a snapshot at all", None).is_err());

    // The pristine bytes (and the same frame carrying the real tag) still
    // restore fine after all that.
    assert!(Engine::resume(&bytes, None).is_ok());
    assert!(Engine::resume(&with_scheme_tag(&bytes, &cfg, 0), None).is_ok());
}

/// Tag 2 was the lookahead scheme `L<n>`, one behaviour with `S<n>*` and
/// written only by format 10 and older: an `S<n>*` frame carrying it is
/// refused as corrupt, while the same frame with its own tag resumes.
#[test]
fn scheme_tag_2_is_rejected_as_corrupt() {
    let w = kernels::micro::lock_sweep(2, 3);
    let cfg = small_cfg(2);
    let mut e = Engine::new(&w.program, Scheme::OldestFirstBounded(10), &cfg);
    assert_eq!(e.run_until(Some(50)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");
    match Engine::resume(&with_scheme_tag(&bytes, &cfg, 2), None).map(|_| ()) {
        Err(SnapError::Corrupt(m)) if m == "scheme tag 2" => {}
        other => panic!("scheme tag 2 must be rejected as corrupt, got {other:?}"),
    }
    let new = Engine::resume(&bytes, None).expect("pristine snapshot");
    assert_eq!(new.scheme(), Scheme::OldestFirstBounded(10));
}
