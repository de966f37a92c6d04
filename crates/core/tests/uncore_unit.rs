//! Direct unit tests of the manager state machine (Uncore), driven
//! without any threads or CPUs.

use sk_core::clock::ClockBoard;
use sk_core::msg::{GlobalEvent, InKind, InMsg, OutEvent, OutKind, SyncOp};
use sk_core::shard::MemShard;
use sk_core::snap::{Persist, Reader, SnapError, Writer};
use sk_core::spsc::{self, Consumer};
use sk_core::sync::SyncTable;
use sk_core::uncore::Uncore;
use sk_core::{Scheme, TargetConfig};
use sk_mem::l1::ReqKind;
use sk_mem::{Directory, LineState};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn mk(scheme: Scheme, n: usize) -> (Uncore, Vec<Consumer<InMsg>>) {
    let mut cfg = TargetConfig::small(n);
    cfg.n_cores = n;
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..n {
        let (p, c) = spsc::channel();
        producers.push(p);
        consumers.push(c);
    }
    (Uncore::new(&cfg, scheme, producers, None, sk_mem::FuncMemory::new()), consumers)
}

fn ev(ts: u64, seq: u64, kind: OutKind) -> OutEvent {
    OutEvent { ts, seq, kind }
}

fn drain(c: &mut Consumer<InMsg>) -> Vec<InMsg> {
    let mut v = vec![];
    c.drain_into(&mut v);
    v
}

#[test]
fn ordered_scheme_withholds_future_events() {
    let (mut u, mut rings) = mk(Scheme::CycleByCycle, 2);
    u.ingest_batch(0, &[ev(50, 0, OutKind::DMem { req: ReqKind::GetS, block: 8 })]);
    u.process_ready(49);
    assert_eq!(u.pending_events(), 1, "ts 50 must wait for horizon 50");
    assert!(drain(&mut rings[0]).is_empty());
    u.process_ready(50);
    assert_eq!(u.pending_events(), 0);
    let msgs = drain(&mut rings[0]);
    assert_eq!(msgs.len(), 1);
    assert!(matches!(msgs[0].kind, InKind::DMemReply { block: 8, .. }));
    assert!(msgs[0].ts > 50);
}

#[test]
fn ordered_scheme_processes_in_timestamp_core_order() {
    // Two same-ts events from different cores plus an older one: the
    // reply timestamps must reflect (ts, core) processing order through
    // the shared-bus occupancy.
    let (mut u, mut rings) = mk(Scheme::OldestFirstBounded(10), 3);
    u.ingest_batch(2, &[ev(10, 0, OutKind::DMem { req: ReqKind::GetS, block: 0 })]);
    u.ingest_batch(1, &[ev(10, 0, OutKind::DMem { req: ReqKind::GetS, block: 8 })]);
    u.ingest_batch(0, &[ev(9, 0, OutKind::DMem { req: ReqKind::GetS, block: 16 })]);
    u.process_ready(10);
    let t0 = drain(&mut rings[0])[0].ts;
    let t1 = drain(&mut rings[1])[0].ts;
    let t2 = drain(&mut rings[2])[0].ts;
    assert!(t0 <= t1 && t1 <= t2, "bus order follows (ts, core): {t0} {t1} {t2}");
}

#[test]
fn eager_scheme_processes_immediately() {
    let (mut u, mut rings) = mk(Scheme::Unbounded, 1);
    u.ingest_batch(0, &[ev(1_000_000, 0, OutKind::DMem { req: ReqKind::GetM, block: 4 })]);
    // no process_ready call needed
    let msgs = drain(&mut rings[0]);
    assert_eq!(msgs.len(), 1);
    assert!(matches!(msgs[0].kind, InKind::DMemReply { block: 4, granted: LineState::Modified }));
    // A burst the core does not drain in between (its InQ has no bound):
    // every reply is delivered, in request order.
    for i in 0..100u64 {
        u.ingest_batch(0, &[ev(i + 1, i + 1, OutKind::IMem { block: i * 64 })]);
    }
    let blocks: Vec<u64> = drain(&mut rings[0])
        .iter()
        .map(|m| match m.kind {
            InKind::IMemReply { block } => block,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(blocks, (0..100).map(|i| i * 64).collect::<Vec<u64>>());
}

#[test]
fn quantum_scheme_holds_events_until_the_barrier() {
    let (mut u, mut rings) = mk(Scheme::Quantum(10), 1);
    u.ingest_batch(0, &[ev(3, 0, OutKind::IMem { block: 2 })]);
    u.process_ready(7); // mid-quantum: horizon is 0
    assert_eq!(u.pending_events(), 1);
    assert!(drain(&mut rings[0]).is_empty());
    u.process_ready(10); // the barrier
    assert_eq!(drain(&mut rings[0]).len(), 1);
}

#[test]
fn spawn_places_threads_and_reports_exhaustion() {
    let (mut u, mut rings) = mk(Scheme::CycleByCycle, 3);
    assert_eq!(u.n_started(), 1); // core 0 runs the initial thread
    u.ingest_batch(0, &[ev(1, 0, OutKind::Sync(SyncOp::Spawn { entry: 0x1000, arg: 7 }))]);
    u.ingest_batch(0, &[ev(2, 1, OutKind::Sync(SyncOp::Spawn { entry: 0x1000, arg: 8 }))]);
    u.ingest_batch(0, &[ev(3, 2, OutKind::Sync(SyncOp::Spawn { entry: 0x1000, arg: 9 }))]);
    u.process_ready(3);
    assert_eq!(u.n_started(), 3);
    // Replies to the spawner: tids 1, 2, then -1 (no core free).
    let replies: Vec<i64> = drain(&mut rings[0])
        .into_iter()
        .filter_map(|m| match m.kind {
            InKind::SyncReply { value } => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(replies, vec![1, 2, -1]);
    // Start messages landed on cores 1 and 2 with the right args.
    for (c, ring) in rings.iter_mut().enumerate().skip(1) {
        let starts: Vec<_> =
            drain(ring).into_iter().filter(|m| matches!(m.kind, InKind::Start { .. })).collect();
        assert_eq!(starts.len(), 1, "core {c}");
        if let InKind::Start { entry, arg, tid } = starts[0].kind {
            assert_eq!(entry, 0x1000);
            assert_eq!(arg, 6 + tid as u64);
            assert_eq!(tid as usize, c);
        }
    }
}

#[test]
fn exit_events_mark_workloads_done() {
    let (mut u, _rings) = mk(Scheme::CycleByCycle, 2);
    assert!(!u.all_workloads_done());
    u.ingest_batch(0, &[ev(5, 0, OutKind::Exit { code: 0 })]);
    u.process_ready(5);
    assert!(u.all_workloads_done(), "only core 0 ever started");
}

#[test]
fn roi_begin_resets_uncore_statistics() {
    let (mut u, mut rings) = mk(Scheme::CycleByCycle, 1);
    u.ingest_batch(0, &[ev(1, 0, OutKind::DMem { req: ReqKind::GetS, block: 1 })]);
    u.process_ready(1);
    assert_eq!(u.dir.stats.gets, 1);
    u.ingest_batch(0, &[ev(2, 1, OutKind::RoiBegin)]);
    u.process_ready(2);
    assert_eq!(u.dir.stats.gets, 0, "ROI begin resets directory stats");
    assert_eq!(u.roi_start, Some(2));
    let _ = drain(&mut rings[0]);
}

#[test]
fn min_pending_reports_earliest_timestamp() {
    let (mut u, _rings) = mk(Scheme::CycleByCycle, 1);
    assert_eq!(u.min_pending_ts(), None);
    u.ingest_batch(0, &[ev(42, 0, OutKind::IMem { block: 1 })]);
    u.ingest_batch(0, &[ev(17, 1, OutKind::IMem { block: 2 })]);
    assert_eq!(u.min_pending_ts(), Some(17));
    u.process_all_upto(41);
    assert_eq!(u.min_pending_ts(), Some(42));
}

/// A 2-core manager's `save_state` stream around `sync` and `dir`: core 0
/// started, nothing exited, nothing queued.
fn two_core_stream(sync: &SyncTable, dir: &Directory) -> Vec<u8> {
    let mut w = Writer::new();
    vec![true, false].save(&mut w);
    vec![false, false].save(&mut w);
    Vec::<GlobalEvent>::new().save(&mut w);
    sync.save(&mut w);
    dir.save(&mut w);
    0_u64.save(&mut w);
    None::<u64>.save(&mut w);
    w.into_bytes()
}

fn restore_two_core(bytes: &[u8]) -> Result<(), SnapError> {
    let (mut u, _rings) = mk(Scheme::Unbounded, 2);
    u.restore_state(&mut Reader::new(bytes))
}

/// The sync table of an 8-core manager after `ops`, each `(core, op)`
/// processed in order under an eager scheme.
fn sync_after(ops: &[(usize, SyncOp)]) -> SyncTable {
    let (mut u, _rings) = mk(Scheme::Unbounded, 8);
    for (i, &(core, op)) in ops.iter().enumerate() {
        u.ingest_batch(core, &[ev(i as u64 + 1, i as u64, OutKind::Sync(op))]);
    }
    u.sync.clone()
}

/// `dir`'s encoding with its core count overwritten by `n_cores`.
fn dir_claiming(dir: &Directory, n_cores: usize) -> Vec<u8> {
    let mut w = Writer::new();
    TargetConfig::small(2).mem.save(&mut w);
    let at = w.len();
    let mut w = Writer::new();
    dir.save(&mut w);
    let mut bytes = w.into_bytes();
    bytes[at..at + 8].copy_from_slice(&(n_cores as u64).to_le_bytes());
    bytes
}

#[test]
fn restored_sync_state_names_only_existing_cores() {
    let dir = Directory::new(2, TargetConfig::small(2).mem, false);
    // Cores 0 and 1 only: restores.
    let ok = sync_after(&[(0, SyncOp::Lock { id: 0 }), (1, SyncOp::Lock { id: 0 })]);
    restore_two_core(&two_core_stream(&ok, &dir)).expect("a 2-core table restores");
    for (what, ops) in [
        ("lock waiter", vec![(0, SyncOp::Lock { id: 0 }), (7, SyncOp::Lock { id: 0 })]),
        ("lock holder", vec![(7, SyncOp::Lock { id: 0 })]),
        ("semaphore waiter", vec![(7, SyncOp::SemaWait { id: 0 })]),
        (
            "barrier arrival",
            vec![
                (0, SyncOp::InitBarrier { id: 0, count: 8 }),
                (7, SyncOp::BarrierArrive { id: 0 }),
            ],
        ),
    ] {
        let bytes = two_core_stream(&sync_after(&ops), &dir);
        match restore_two_core(&bytes) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("a {what} on core 7 of 2 must be corrupt, got {other:?}"),
        }
    }
}

#[test]
fn restored_directories_are_for_the_target_core_count() {
    let mem = TargetConfig::small(2).mem;
    let sync = SyncTable::new();
    match restore_two_core(&two_core_stream(&sync, &Directory::new(8, mem, false))) {
        Err(SnapError::Corrupt(_)) => {}
        other => panic!("an 8-core directory in a 2-core manager must be corrupt, got {other:?}"),
    }
    // A directory that says 2 cores but tracks core 7, as owner or sharer.
    let mut owned = Directory::new(8, mem, false);
    owned.handle(7, ReqKind::GetM, 8, 10);
    let mut shared = Directory::new(8, mem, false);
    shared.handle(0, ReqKind::GetS, 8, 10);
    shared.handle(7, ReqKind::GetS, 8, 20);
    for dir in [&owned, &shared] {
        let bytes = dir_claiming(dir, 2);
        match Directory::load(&mut Reader::new(&bytes)).map(|_| ()) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("a 2-core directory naming core 7 must be corrupt, got {other:?}"),
        }
    }
    // The same directories restore when they claim the cores they track.
    assert!(Directory::load(&mut Reader::new(&dir_claiming(&shared, 8))).is_ok());

    // A memory shard of a 2-core target refuses an 8-core directory too.
    let cfg = TargetConfig::small(2);
    let (to_cores, _rings): (Vec<_>, Vec<_>) = (0..2).map(|_| spsc::channel()).unzip();
    let dirty = Arc::new(vec![AtomicU64::new(0)]);
    let board = Arc::new(ClockBoard::new(2, 0));
    let mut shard = MemShard::new(0, &cfg, Scheme::Unbounded, Vec::new(), to_cores, board, dirty);
    let mut w = Writer::new();
    0_u64.save(&mut w);
    0_u64.save(&mut w);
    Directory::new(8, cfg.mem, false).save(&mut w);
    match shard.restore_state(&mut Reader::new(&w.into_bytes())) {
        Err(SnapError::Corrupt(_)) => {}
        other => {
            panic!("an 8-core shard directory in a 2-core target must be corrupt, got {other:?}")
        }
    }
}
