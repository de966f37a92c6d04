//! Checkpoint / restore / fork-from-snapshot tests.
//!
//! The determinism claims mirror the repo's slack-scheme guarantees:
//! conservative schemes (CC) are bit-deterministic on every workload;
//! BoundedSlack is bit-deterministic on structurally serialized workloads
//! (token-ring relay, lock-serialized counter), which is exactly what the
//! checkpointed Fig. 6 grid workflow relies on. For those pairs a run that
//! is checkpointed at its midpoint, serialized, restored and finished must
//! be bit-identical to an uninterrupted run.

use sk_core::engine::{Engine, RunOutcome};
use sk_core::{run_parallel, CoreModel, Scheme, SimReport, TargetConfig};
use sk_isa::{Program, ProgramBuilder, Reg, Syscall};
use sk_obs::{Metrics, ObsConfig};
use sk_snap::{Persist, SnapError, Writer};

/// Lock-serialized shared counter: `n` threads each add `tid+1` to a
/// lock-protected counter `iters` times, meet at a barrier, thread 0
/// prints the total (same shape as the engine tests' canonical workload).
fn counter_workload(n: usize, iters: i64) -> Program {
    let a0 = Reg::arg(0);
    let a1 = Reg::arg(1);
    let mut b = ProgramBuilder::new();
    let counter = b.zeros("counter", 1);

    let worker = b.new_label("worker");
    let main = b.here("main");
    b.li(a0, 0);
    b.sys(Syscall::InitLock);
    b.li(a0, 1);
    b.li(a1, n as i64);
    b.sys(Syscall::InitBarrier);
    for _ in 1..n {
        b.la_text(a0, worker);
        b.li(a1, 0);
        b.sys(Syscall::Spawn);
    }
    b.sys(Syscall::RoiBegin);
    b.j(worker);

    b.bind(worker);
    let t_iter = Reg::saved(0);
    let t_addr = Reg::saved(1);
    let t_val = Reg::tmp(1);
    let t_inc = Reg::saved(2);
    b.li(t_iter, iters);
    b.li(t_addr, counter as i64);
    b.sys(Syscall::GetTid);
    b.addi(t_inc, a0, 1);
    let loop_top = b.here("loop");
    b.li(a0, 0);
    b.sys(Syscall::Lock);
    b.ld(t_val, t_addr, 0);
    b.add(t_val, t_val, t_inc);
    b.st(t_val, t_addr, 0);
    b.li(a0, 0);
    b.sys(Syscall::Unlock);
    b.addi(t_iter, t_iter, -1);
    b.bne(t_iter, Reg::ZERO, loop_top);
    b.li(a0, 1);
    b.sys(Syscall::Barrier);
    let done = b.new_label("done");
    b.sys(Syscall::GetTid);
    b.bne(a0, Reg::ZERO, done);
    b.ld(a0, t_addr, 0);
    b.sys(Syscall::PrintInt);
    b.bind(done);
    b.sys(Syscall::Exit);

    b.entry(main);
    b.build().unwrap()
}

/// Semaphore token ring: thread `t` waits on semaphore `t`, adds `t+1` to
/// a shared counter (safe without a lock — only the token holder runs),
/// signals semaphore `(t+1) % n`, `rounds` times. The last thread's last
/// wait is globally last, so it prints the completed total. Execution is
/// fully serialized by the token, making every scheme deterministic.
fn token_ring_workload(n: usize, rounds: i64) -> Program {
    let a0 = Reg::arg(0);
    let a1 = Reg::arg(1);
    let mut b = ProgramBuilder::new();
    let counter = b.zeros("counter", 1);

    let worker = b.new_label("worker");
    let main = b.here("main");
    for i in 0..n {
        b.li(a0, i as i64);
        b.li(a1, i64::from(i == 0)); // thread 0 starts with the token
        b.sys(Syscall::InitSema);
    }
    for _ in 1..n {
        b.la_text(a0, worker);
        b.li(a1, 0);
        b.sys(Syscall::Spawn);
    }
    b.sys(Syscall::RoiBegin);
    b.j(worker);

    b.bind(worker);
    let my_sema = Reg::saved(0);
    let next_sema = Reg::saved(1);
    let iter = Reg::saved(2);
    let inc = Reg::saved(3);
    let addr = Reg::saved(4);
    let val = Reg::tmp(1);
    b.sys(Syscall::GetTid);
    b.mv(my_sema, a0);
    b.addi(inc, a0, 1);
    b.addi(next_sema, a0, 1);
    b.li(Reg::tmp(0), n as i64);
    let wrap_done = b.new_label("wrap_done");
    b.bne(next_sema, Reg::tmp(0), wrap_done);
    b.li(next_sema, 0);
    b.bind(wrap_done);
    b.li(iter, rounds);
    b.li(addr, counter as i64);
    let loop_top = b.here("loop");
    b.mv(a0, my_sema);
    b.sys(Syscall::SemaWait);
    b.ld(val, addr, 0);
    b.add(val, val, inc);
    b.st(val, addr, 0);
    b.mv(a0, next_sema);
    b.sys(Syscall::SemaSignal);
    b.addi(iter, iter, -1);
    b.bne(iter, Reg::ZERO, loop_top);
    // The last thread's final token grab is the globally last increment.
    let done = b.new_label("done");
    b.li(Reg::tmp(0), n as i64 - 1);
    b.bne(my_sema, Reg::tmp(0), done);
    b.ld(a0, addr, 0);
    b.sys(Syscall::PrintInt);
    b.bind(done);
    b.sys(Syscall::Exit);

    b.entry(main);
    b.build().unwrap()
}

/// Two-thread semaphore ping-pong with private compute between handoffs.
/// Strictly alternating (only the token holder ever runs), so every
/// scheme — bounded slack included — is bit-deterministic on it.
fn pingpong_workload(rounds: i64) -> Program {
    let a0 = Reg::arg(0);
    let a1 = Reg::arg(1);
    let mut b = ProgramBuilder::new();
    let slot = b.zeros("slot", 1);
    let scratch = b.zeros("scratch", 8);
    let peer = b.new_label("peer");
    let main = b.here("main");
    b.li(a0, 0);
    b.li(a1, 1); // thread 0 serves first
    b.sys(Syscall::InitSema);
    b.li(a0, 1);
    b.li(a1, 0);
    b.sys(Syscall::InitSema);
    b.la_text(a0, peer);
    b.li(a1, 0);
    b.sys(Syscall::Spawn);
    b.sys(Syscall::RoiBegin);
    b.j(peer);
    b.bind(peer);
    let my = Reg::saved(0);
    let other = Reg::saved(1);
    let iter = Reg::saved(2);
    let addr = Reg::saved(3);
    let scr = Reg::saved(4);
    let val = Reg::tmp(1);
    b.sys(Syscall::GetTid);
    b.mv(my, a0);
    b.li(other, 1);
    b.sub(other, other, my);
    b.li(iter, rounds);
    b.li(addr, slot as i64);
    b.li(scr, scratch as i64);
    let loop_top = b.here("loop");
    b.mv(a0, my);
    b.sys(Syscall::SemaWait);
    for k in 0..6 {
        b.ld(val, scr, k * 8);
        b.addi(val, val, 3);
        b.st(val, scr, k * 8);
    }
    b.ld(val, addr, 0);
    b.addi(val, val, 1);
    b.st(val, addr, 0);
    b.mv(a0, other);
    b.sys(Syscall::SemaSignal);
    b.addi(iter, iter, -1);
    b.bne(iter, Reg::ZERO, loop_top);
    let done = b.new_label("done");
    b.li(Reg::tmp(0), 1);
    b.bne(my, Reg::tmp(0), done);
    b.ld(a0, addr, 0);
    b.sys(Syscall::PrintInt);
    b.bind(done);
    b.sys(Syscall::Exit);
    b.entry(main);
    b.build().unwrap()
}

fn small_cfg(n: usize) -> TargetConfig {
    let mut cfg = TargetConfig::small(n);
    cfg.core.model = CoreModel::InOrder;
    cfg.max_cycles = 5_000_000;
    cfg.track_workload_violations = true;
    cfg
}

/// The bit-determinism contract: committed instructions, cycle counts,
/// printed output and violation counters all agree. Directory counters are
/// additionally exact for conservative schemes; under bounded slack the
/// coherence-traffic mix (an L1 refetch more or less) is host-timing
/// dependent even between two uninterrupted runs, while simulated time and
/// committed work are not.
fn assert_bit_identical(a: &SimReport, b: &SimReport, conservative: bool, what: &str) {
    assert_eq!(a.printed(), b.printed(), "{what}: printed output");
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec cycles");
    assert_eq!(a.violations, b.violations, "{what}: violation counters");
    if conservative {
        assert_eq!(a.dir, b.dir, "{what}: directory counters");
    }
    for (c, (ca, cb)) in a.cores.iter().zip(&b.cores).enumerate() {
        assert_eq!(ca.committed, cb.committed, "{what}: core {c} committed");
        assert_eq!(ca.roi_committed, cb.roi_committed, "{what}: core {c} roi committed");
        assert_eq!(ca.cycles, cb.cycles, "{what}: core {c} cycles");
        assert_eq!(ca.loads, cb.loads, "{what}: core {c} loads");
        assert_eq!(ca.stores, cb.stores, "{what}: core {c} stores");
    }
}

/// Run to the safe-point at `at`, snapshot, restore from the bytes in a
/// fresh engine, finish, and return (snapshot bytes, final report).
fn checkpointed_run(
    p: &Program,
    scheme: Scheme,
    cfg: &TargetConfig,
    at: u64,
) -> (Vec<u8>, SimReport) {
    let mut e = Engine::new(p, scheme, cfg);
    let outcome = e.run_until(Some(at));
    assert_eq!(outcome, RunOutcome::CheckpointReady, "safe-point at cycle {at} not reached");
    assert_eq!(e.global(), at, "global time parked off the safe-point");
    let bytes = e.snapshot().expect("snapshot at safe-point");
    drop(e);
    let mut r = Engine::resume(&bytes, None).expect("resume");
    assert_eq!(r.run_until(None), RunOutcome::Finished);
    (bytes, r.into_report())
}

fn full_cycles(r: &SimReport) -> u64 {
    r.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
}

#[test]
fn checkpoint_restore_is_bit_deterministic_cc_and_s10() {
    let s10 = [Scheme::CycleByCycle, Scheme::BoundedSlack(10)];
    // The counter workload is lock-serialized, not structurally
    // serialized: under bounded slack the spin-retry timing is
    // slack-dependent, so even two uninterrupted S10 runs differ by a few
    // cycles. It stays in the matrix as CC-only coverage of the
    // lock/barrier restore paths.
    let cc_only = [Scheme::CycleByCycle];
    let cases: [(&str, Program, usize, &[Scheme]); 3] = [
        ("token_ring", token_ring_workload(4, 6), 4, &s10),
        ("pingpong", pingpong_workload(8), 2, &s10),
        ("counter", counter_workload(4, 5), 4, &cc_only),
    ];
    for (name, p, n, schemes) in &cases {
        let cfg = small_cfg(*n);
        for &scheme in *schemes {
            let full = run_parallel(p, scheme, &cfg);
            let mid = full_cycles(&full) / 2;
            assert!(mid > 0, "{name}: degenerate run");
            let (_, resumed) = checkpointed_run(p, scheme, &cfg, mid);
            assert_bit_identical(
                &full,
                &resumed,
                scheme.is_conservative(),
                &format!("{name}/{scheme}"),
            );
        }
    }
}

#[test]
fn early_and_late_checkpoints_work() {
    let p = counter_workload(4, 5);
    let cfg = small_cfg(4);
    let full = run_parallel(&p, Scheme::CycleByCycle, &cfg);
    let end = full_cycles(&full);
    // Cycle 1: before any thread has done real work. Late: deep into the
    // barrier epilogue.
    for at in [1, end.saturating_sub(20)] {
        let (_, resumed) = checkpointed_run(&p, Scheme::CycleByCycle, &cfg, at);
        assert_bit_identical(&full, &resumed, true, &format!("checkpoint at {at}"));
    }
}

#[test]
fn engine_continues_in_process_after_snapshot() {
    // The --checkpoint-at flow: snapshot mid-run, then keep driving the
    // SAME engine to completion. Must equal the uninterrupted run.
    let p = token_ring_workload(4, 6);
    let cfg = small_cfg(4);
    let full = run_parallel(&p, Scheme::BoundedSlack(10), &cfg);
    let mid = full_cycles(&full) / 2;

    let mut e = Engine::new(&p, Scheme::BoundedSlack(10), &cfg);
    assert_eq!(e.run_until(Some(mid)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");
    assert_eq!(e.run_until(None), RunOutcome::Finished);
    let cont = e.into_report();
    assert_bit_identical(&full, &cont, false, "continue-after-snapshot");

    // And the serialized sibling agrees with both.
    let mut r = Engine::resume(&bytes, None).expect("resume");
    assert_eq!(r.run_until(None), RunOutcome::Finished);
    assert_bit_identical(&full, &r.into_report(), false, "resumed sibling");
}

#[test]
fn snapshot_roundtrips_byte_identically() {
    // resume(snapshot(e)) reconstructs the exact state: snapshotting the
    // restored engine reproduces the same bytes.
    let p = counter_workload(4, 5);
    let cfg = small_cfg(4);
    let full = run_parallel(&p, Scheme::CycleByCycle, &cfg);
    let mid = full_cycles(&full) / 2;
    let mut e = Engine::new(&p, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(mid)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");
    let mut r = Engine::resume(&bytes, None).expect("resume");
    let bytes2 = r.snapshot().expect("re-snapshot");
    assert_eq!(bytes, bytes2, "snapshot/resume round-trip drifted");
}

#[test]
fn sharded_snapshot_at_64_cores_roundtrips_byte_identically() {
    // The v6 format carries per-shard state (frontier, applied grant,
    // directory shard). At a safe-point with mem_shards=4 on a 64-core
    // target: save → restore → re-snapshot must be byte-identical, and
    // the restored run must finish bit-identically to an uninterrupted
    // sharded run (which itself matches single-manager CC).
    let p = counter_workload(64, 1);
    let mut cfg = TargetConfig::many_core(64);
    cfg.core.model = CoreModel::InOrder;
    cfg.max_cycles = 20_000_000;
    cfg.track_workload_violations = true;
    cfg.mem_shards = 4;
    let full = run_parallel(&p, Scheme::CycleByCycle, &cfg);
    let mid = full_cycles(&full) / 2;
    assert!(mid > 0, "degenerate 64-core run");

    let mut e = Engine::new(&p, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(mid)), RunOutcome::CheckpointReady, "sharded safe-point");
    let bytes = e.snapshot().expect("sharded snapshot");
    let mut r = Engine::resume(&bytes, None).expect("sharded resume");
    let bytes2 = r.snapshot().expect("sharded re-snapshot");
    assert_eq!(bytes, bytes2, "sharded snapshot/resume round-trip drifted");
    assert_eq!(r.run_until(None), RunOutcome::Finished);
    assert_bit_identical(&full, &r.into_report(), true, "sharded 64-core CC resume");
}

#[test]
fn fork_from_snapshot_onto_other_schemes() {
    // gridfork's core operation: one snapshot, forked onto every scheme.
    // Conservative forks must agree bit-for-bit with from-scratch runs of
    // the same scheme only when the prefix scheme matches — so fork from a
    // CC snapshot back onto CC as the exactness check, and onto the rest
    // as a liveness + functional-correctness check.
    let p = token_ring_workload(4, 5);
    let cfg = small_cfg(4);
    let full = run_parallel(&p, Scheme::CycleByCycle, &cfg);
    let mid = full_cycles(&full) / 2;
    let mut e = Engine::new(&p, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(mid)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");

    for scheme in Scheme::paper_suite(cfg.critical_latency()) {
        let mut f = Engine::resume(&bytes, Some(scheme)).expect("fork");
        assert_eq!(f.scheme(), scheme);
        assert_eq!(f.run_until(None), RunOutcome::Finished);
        let r = f.into_report();
        assert_eq!(r.printed(), full.printed(), "fork onto {scheme} corrupted the workload");
        if scheme == Scheme::CycleByCycle {
            assert_bit_identical(&full, &r, true, "CC fork");
        }
    }
}

fn ooo_cfg(n: usize) -> TargetConfig {
    let mut cfg = small_cfg(n);
    cfg.core.model = CoreModel::OutOfOrder;
    cfg
}

/// The out-of-order core at a safe-point is mid-flight: instructions in
/// the ROB in every state, committed stores still in the store buffer,
/// misses outstanding in the MSHRs. Its scheduling indices (ready set,
/// wakeup matrix, completion schedule, LSQ view) are derived and rebuilt
/// on restore, so a checkpoint anywhere must re-snapshot byte for byte,
/// and under CC `run(0→T)` must equal `run(0→k)` + resume`(k→T)`.
#[test]
fn ooo_checkpoints_mid_pipeline_roundtrip_and_resume_bit_identically() {
    let w = sk_kernels::fft::fft(4, 6);
    let cfg = ooo_cfg(4);
    let full = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
    let end = full_cycles(&full);
    let (mut rob, mut sb, mut mshr) = (false, false, false);
    for k in 1..=8 {
        let at = end * k / 9;
        let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
        assert_eq!(e.run_until(Some(at)), RunOutcome::CheckpointReady, "safe-point at {at}");
        for line in e.core_debug_states() {
            rob |= !line.contains("rob[0]");
            sb |= !line.contains("sb=[]");
            mshr |= !line.contains("mshr=[]");
        }
        let bytes = e.snapshot().expect("snapshot");
        drop(e);
        let mut r = Engine::resume(&bytes, None).expect("resume");
        assert_eq!(bytes, r.snapshot().expect("re-snapshot"), "OoO round-trip drifted at {at}");
        assert_eq!(r.run_until(None), RunOutcome::Finished);
        let resumed = r.into_report();
        assert_eq!(full.fingerprint(), resumed.fingerprint(), "OoO resume from {at} diverged");
    }
    assert!(rob && sb && mshr, "no checkpoint caught the pipeline busy: {rob} {sb} {mshr}");
}

#[test]
fn ooo_snapshot_forks_onto_bounded_slack() {
    let w = sk_kernels::fft::fft(4, 6);
    let cfg = ooo_cfg(4);
    let full = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
    let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
    assert_eq!(e.run_until(Some(full_cycles(&full) / 2)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");
    let scheme = Scheme::BoundedSlack(10);
    let mut f = Engine::resume(&bytes, Some(scheme)).expect("fork");
    assert_eq!(f.run_until(None), RunOutcome::Finished);
    let r = f.into_report();
    assert_eq!(r.printed(), full.printed(), "OoO fork onto {scheme} corrupted the workload");
    assert!(r.violations.max_inversion_cycles <= 10, "fork onto {scheme} broke its bound");
}

#[test]
fn unsupported_configurations_are_rejected() {
    let p = counter_workload(2, 3);
    let mut cfg = small_cfg(2);
    cfg.record_trace = true;
    let mut e = Engine::new(&p, Scheme::CycleByCycle, &cfg);
    match e.snapshot() {
        Err(SnapError::Unsupported(_)) => {}
        other => panic!("a slack-profile snapshot must be unsupported, got {other:?}"),
    }
}

/// Mid-run snapshot → resume → re-snapshot byte-identity on the irregular
/// kernel family. These kernels park cores inside manager-ordered waits
/// (semaphore queues, mailbox blocks, contended deque locks, in-flight
/// CAS replies), so the round-trip covers sync-manager state — including
/// the `SyncOp::Cas` persist path — that the data-parallel workloads
/// never exercise at a safe-point.
#[test]
fn irregular_kernels_snapshot_roundtrip_byte_identically() {
    for w in sk_kernels::irregular_suite(4, sk_kernels::Scale::Test) {
        let cfg = small_cfg(w.n_threads);
        let full = run_parallel(&w.program, Scheme::CycleByCycle, &cfg);
        let mid = full_cycles(&full) / 2;
        assert!(mid > 0, "{}: degenerate run", w.name);

        let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
        assert_eq!(
            e.run_until(Some(mid)),
            RunOutcome::CheckpointReady,
            "{}: no safe-point at cycle {mid}",
            w.name
        );
        let bytes = e.snapshot().unwrap_or_else(|e| panic!("{}: snapshot: {e}", w.name));
        drop(e);

        let mut r = Engine::resume(&bytes, None).expect("resume");
        let bytes2 = r.snapshot().expect("re-snapshot");
        assert_eq!(bytes, bytes2, "{}: snapshot/resume round-trip drifted", w.name);

        // The resumed half must finish the run bit-identically to the
        // uninterrupted one.
        assert_eq!(r.run_until(None), RunOutcome::Finished);
        let resumed = r.into_report();
        assert_eq!(
            resumed.fingerprint(),
            full.fingerprint(),
            "{}: resumed half diverged from the uninterrupted run",
            w.name
        );
    }
}

/// A well-framed snapshot whose telemetry hub is shaped for another
/// target (fewer reply-queue counters than cores, fewer shard blocks than
/// shards) is corrupt: the engine indexes the hub by both, so accepting
/// it panics on attach or at the next publish.
#[test]
fn a_hub_shaped_for_another_target_is_rejected() {
    let mut cfg = small_cfg(2);
    cfg.mem_shards = 2;
    let mut e = Engine::new(&counter_workload(2, 50), Scheme::CycleByCycle, &cfg);
    e.attach_new_metrics(ObsConfig::default());
    assert_eq!(e.run_until(Some(200)), RunOutcome::CheckpointReady);
    let bytes = e.snapshot().expect("snapshot");
    // The hub is the payload's last section.
    let mut w = Writer::new();
    e.metrics().expect("hub attached").save(&mut w);
    let hub = w.into_bytes();
    let payload = sk_snap::open(&bytes).expect("pristine");
    assert!(payload.ends_with(&hub), "the hub closes the payload");
    let body = &payload[..payload.len() - hub.len()];
    for what in ["reply-queue counters", "shard blocks"] {
        let mut m = Metrics::new_sharded(2, 2, ObsConfig::default());
        if what == "shard blocks" {
            m.shards.pop();
        } else {
            m.manager.inq_high_water.pop();
        }
        let mut w = Writer::new();
        w.put_bytes(body);
        m.save(&mut w);
        match Engine::resume(&sk_snap::seal(&w.into_bytes()), None) {
            Err(SnapError::Corrupt(_)) => {}
            other => {
                panic!("a hub with too few {what} must be corrupt, got {:?}", other.map(|_| ()))
            }
        }
    }
}
