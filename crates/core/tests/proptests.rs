//! Property tests for the engine's core data structures.

use proptest::prelude::*;
use sk_core::clock::{ClockBoard, CoreState, GlobalCache};
use sk_core::engine::{Engine, RunOutcome};
use sk_core::spsc;
use sk_core::violation::ConflictTracker;
use sk_core::Scheme;
use sk_snap::{Reader, SnapError, Writer};
use std::collections::VecDeque;

/// One primitive snapshot field, for round-trip sequences.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Usize(usize),
    Str(String),
    Bytes(Vec<u8>),
}

fn arb_field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u16>().prop_map(Field::U16),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        any::<i64>().prop_map(Field::I64),
        // Finite floats only: NaN never compares equal, and the engine
        // never snapshots non-finite values.
        any::<i64>().prop_map(|v| Field::F64(v as f64 / 3.0)),
        any::<bool>().prop_map(Field::Bool),
        any::<usize>().prop_map(Field::Usize),
        proptest::collection::vec(32u8..127, 0..24)
            .prop_map(|v| Field::Str(String::from_utf8(v).unwrap())),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Field::Bytes),
    ]
}

fn write_field(w: &mut Writer, f: &Field) {
    match f {
        Field::U8(v) => w.put_u8(*v),
        Field::U16(v) => w.put_u16(*v),
        Field::U32(v) => w.put_u32(*v),
        Field::U64(v) => w.put_u64(*v),
        Field::I64(v) => w.put_i64(*v),
        Field::F64(v) => w.put_f64(*v),
        Field::Bool(v) => w.put_bool(*v),
        Field::Usize(v) => w.put_usize(*v),
        Field::Str(v) => w.put_str(v),
        Field::Bytes(v) => {
            w.put_usize(v.len());
            w.put_bytes(v);
        }
    }
}

fn read_field(r: &mut Reader, like: &Field) -> Result<Field, SnapError> {
    Ok(match like {
        Field::U8(_) => Field::U8(r.get_u8()?),
        Field::U16(_) => Field::U16(r.get_u16()?),
        Field::U32(_) => Field::U32(r.get_u32()?),
        Field::U64(_) => Field::U64(r.get_u64()?),
        Field::I64(_) => Field::I64(r.get_i64()?),
        Field::F64(_) => Field::F64(r.get_f64()?),
        Field::Bool(_) => Field::Bool(r.get_bool()?),
        Field::Usize(_) => Field::Usize(r.get_usize()?),
        Field::Str(_) => Field::Str(r.get_str()?),
        Field::Bytes(_) => {
            let n = r.get_usize()?;
            Field::Bytes(r.take(n)?.to_vec())
        }
    })
}

/// What [`ClockBoard::recompute_global_cached`] must answer, by brute
/// force over the board's public state: the least local time of a core
/// that holds global time back (running, blocked, mem-waiting), never
/// below `prev` (the global time published before the call), and whether
/// every core is finished or parked.
fn full_scan(board: &ClockBoard, n: usize, prev: u64) -> (u64, bool) {
    use CoreState::*;
    if (0..n).all(|c| matches!(board.state(c), Finished | Parked)) {
        return (prev, true);
    }
    let timed = |c: &usize| matches!(board.state(*c), Running | Blocked | MemWait);
    let min = (0..n).filter(timed).map(|c| board.local(c)).min();
    (min.map_or(prev, |m| m.max(prev)), false)
}

/// What [`GlobalCache::observed_slack`] must answer, by brute force: the
/// largest `local − global` over cores that hold global time back.
fn scan_slack(board: &ClockBoard, n: usize) -> u64 {
    use CoreState::*;
    let timed = |c: &usize| matches!(board.state(*c), Running | Blocked | MemWait);
    (0..n).filter(timed).map(|c| board.local(c).saturating_sub(board.global())).max().unwrap_or(0)
}

/// What [`GlobalCache::active_count`] must answer, by brute force: the
/// cores driving global time (running or blocked at their window).
fn scan_active(board: &ClockBoard, n: usize) -> usize {
    (0..n).filter(|&c| matches!(board.state(c), CoreState::Running | CoreState::Blocked)).count()
}

/// Shared body of the batched-clock properties (default and deep
/// variants): drives one random op sequence against a [`ClockBoard`] and
/// checks monotonicity, window containment and agreement of the
/// memoized reduction with a brute-force one after every op.
fn check_batched_clock_ops(ops: Vec<(u8, usize, u64)>) -> Result<(), TestCaseError> {
    const N: usize = 4;
    const W0: u64 = 10;
    let board = ClockBoard::new(N, W0);
    let mut cache = GlobalCache::new(N);
    let mut prev_global = board.global();
    let mut prev_local = [0u64; N];
    let mut prev_max = [W0; N];
    for (op, core, amount) in ops {
        match op {
            0 => {
                // Batched run-ahead: publish up to `amount` cycles at
                // once, clamped to the window (only running cores
                // simulate).
                if board.state(core) == CoreState::Running {
                    let l = board.local(core);
                    let target = (l + amount).min(board.max_local(core));
                    if target > l {
                        board.advance_local(core, target);
                    }
                }
            }
            1 => {
                // Manager raises this core's window off fresh global.
                let (g, _) = board.recompute_global_cached(&mut cache);
                board.raise_max_local(core, g + amount);
            }
            2 => {
                // Core leaves the schedule (sync or no thread).
                if board.state(core) == CoreState::Running {
                    if amount.is_multiple_of(2) {
                        board.park(core);
                    } else {
                        board.sync_park(core);
                    }
                }
            }
            3 => {
                // Core resumes: its clock jumps forward, inside its
                // window, so it cannot drag the (already published)
                // global minimum backwards.
                if board.state(core) != CoreState::Running {
                    board.unpark(core);
                    board.jump_local(core, board.global().min(board.max_local(core)));
                }
            }
            _ => {
                board.recompute_global_cached(&mut cache);
            }
        }
        // Monotonicity and window containment after every op.
        let g = board.global();
        prop_assert!(g >= prev_global, "global regressed {prev_global} -> {g}");
        prev_global = g;
        for c in 0..N {
            let l = board.local(c);
            let m = board.max_local(c);
            prop_assert!(l >= prev_local[c], "core {c} local regressed");
            prop_assert!(m >= prev_max[c], "core {c} window regressed");
            prop_assert!(l <= m, "core {c} local {l} passed its window {m}");
            prev_local[c] = l;
            prev_max[c] = m;
        }
        // The memoized reduction agrees with a brute-force scan from
        // the global time published before it.
        let cached = board.recompute_global_cached(&mut cache);
        let scan = full_scan(&board, N, g);
        prop_assert_eq!(cached, scan, "memoized reduction diverged");
        // So do everything else the manager derives from its view.
        prop_assert_eq!(cache.observed_slack(cached.0), scan_slack(&board, N));
        prop_assert_eq!(cache.active_count(), scan_active(&board, N));
        // And a second cached call with nothing moved must hit the
        // cache and still agree.
        prop_assert_eq!(board.recompute_global_cached(&mut cache), scan);
    }
    Ok(())
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::CycleByCycle),
        (1u64..200).prop_map(Scheme::Quantum),
        (1u64..200).prop_map(Scheme::BoundedSlack),
        (1u64..200).prop_map(Scheme::OldestFirstBounded),
        Just(Scheme::Unbounded),
    ]
}

proptest! {
    /// Window algebra: monotone in g, always allows progress, and the
    /// short-name round-trips through the parser.
    #[test]
    fn scheme_window_algebra(scheme in arb_scheme(), g0 in 0u64..1_000_000, steps in 1u64..200) {
        let mut prev = scheme.window(g0);
        prop_assert!(prev > g0 || prev == u64::MAX);
        for g in g0 + 1..g0 + steps {
            let w = scheme.window(g);
            prop_assert!(w >= prev, "{scheme} window regressed at g={g}");
            prop_assert!(w > g || w == u64::MAX, "{scheme} denies progress at g={g}");
            prev = w;
        }
        prop_assert_eq!(scheme.short_name().parse::<Scheme>().unwrap(), scheme);
    }

    /// The clock board's paper invariant `global <= local_i <= max_local_i`
    /// holds under arbitrary interleavings of advances, window raises and
    /// global recomputations.
    #[test]
    fn clock_invariant_under_random_ops(
        ops in proptest::collection::vec((0u8..3, 0usize..4, 1u64..50), 1..300)
    ) {
        let board = ClockBoard::new(4, 10);
        let mut cache = GlobalCache::new(4);
        for (op, core, amount) in ops {
            match op {
                0 => {
                    // advance the core within its window
                    for _ in 0..amount {
                        let l = board.local(core);
                        if board.may_advance(core, l) {
                            board.advance_local(core, l + 1);
                        } else {
                            break;
                        }
                    }
                }
                1 => {
                    let (g, _) = board.recompute_global_cached(&mut cache);
                    // raise this core's window per a CC-ish rule
                    board.raise_max_local(core, g + amount);
                }
                _ => {
                    board.recompute_global_cached(&mut cache);
                }
            }
            let g = board.global();
            for c in 0..4 {
                let l = board.local(c);
                prop_assert!(g <= l, "global {g} > local {l} of core {c}");
                prop_assert!(l <= board.max_local(c), "core {c} past its window");
            }
        }
    }

    /// The batched publication path under adversarial interleavings:
    /// random mixes of `advance_local`, window raises,
    /// park/resume transitions and global recomputations through BOTH
    /// reduction paths. Clocks (global, locals, windows) are monotone,
    /// no local ever passes its window, and the memoized
    /// [`GlobalCache`] reduction agrees with the uncached one at every
    /// single step — including steps where nothing moved (the cache-hit
    /// fast path) and steps straddling park/unpark state flips.
    #[test]
    fn batched_clock_ops_stay_monotone_and_cache_agrees(
        ops in proptest::collection::vec((0u8..5, 0usize..4, 1u64..80), 1..300)
    ) {
        check_batched_clock_ops(ops)?;
    }

    /// Inter-shard frontier backpressure (sharded clock domains): with
    /// windows computed as `min(global, slowest shard frontier) + bound`
    /// — the sharded manager's rule for ordered schemes — no published
    /// `max_local` ever exceeds `global + bound` *or* the slowest
    /// frontier plus the bound, under random core advances, random
    /// (monotone) frontier publishes, and random manager iterations over
    /// random core/shard counts. Frontiers only rise to global times that
    /// were already computed, exactly like `MemShard::iterate`.
    #[test]
    fn sharded_frontier_backpressure_bounds_published_windows(
        n_cores in 1usize..9,
        n_shards in 1usize..6,
        bound in 1u64..50,
        ops in proptest::collection::vec((0u8..4, 0usize..16, 1u64..40), 1..300)
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let board = ClockBoard::new(n_cores, bound);
        let mut cache = GlobalCache::new(n_cores);
        let frontiers: Vec<AtomicU64> = (0..n_shards).map(|_| AtomicU64::new(0)).collect();
        let mut last_window = bound;
        for (op, idx, amount) in ops {
            match op {
                0 => {
                    // A core simulates a batch forward within its window.
                    let core = idx % n_cores;
                    if board.state(core) == CoreState::Running {
                        let l = board.local(core);
                        let target = (l + amount).min(board.max_local(core));
                        if target > l {
                            board.advance_local(core, target);
                        }
                    }
                }
                1 => {
                    // A shard finishes an iteration: its frontier rises to
                    // the global time it processed through (fetch_max, so
                    // replays of a stale global are monotone no-ops).
                    let s = idx % n_shards;
                    let (g, _) = board.recompute_global_cached(&mut cache);
                    frontiers[s].fetch_max(g, Ordering::Release);
                }
                _ => {
                    // A manager iteration: the ordered-scheme window rule.
                    let (g, _) = board.recompute_global_cached(&mut cache);
                    let fmin =
                        frontiers.iter().map(|f| f.load(Ordering::Acquire)).min().unwrap();
                    let w = g.min(fmin) + bound;
                    if w > last_window {
                        for c in 0..n_cores {
                            board.raise_max_local(c, w);
                        }
                        last_window = w;
                    }
                }
            }
            // The backpressure invariant, after every op: published
            // windows trail both true global time and the slowest shard.
            let g = board.global();
            let fmin = frontiers.iter().map(|f| f.load(Ordering::Relaxed)).min().unwrap();
            for c in 0..n_cores {
                let m = board.max_local(c);
                prop_assert!(
                    m <= g + bound,
                    "core {c}: window {m} outruns global {g} + bound {bound}"
                );
                prop_assert!(
                    m <= fmin + bound,
                    "core {c}: window {m} outruns slowest frontier {fmin} + bound {bound}"
                );
            }
        }
    }

    /// Parked cores never hold the global minimum back, and unparking
    /// restores them.
    #[test]
    fn parking_excludes_from_global(advances in 1u64..100) {
        let board = ClockBoard::new(2, u64::MAX);
        let mut cache = GlobalCache::new(2);
        board.park(1);
        for i in 1..=advances {
            board.advance_local(0, i);
        }
        let (g, done) = board.recompute_global_cached(&mut cache);
        prop_assert_eq!(g, advances, "parked core held global back");
        prop_assert!(!done || advances == 0);
        board.unpark(1);
        prop_assert_eq!(board.state(1), CoreState::Running);
        let (g2, _) = board.recompute_global_cached(&mut cache);
        // Global is monotone even though core 1 is behind.
        prop_assert_eq!(g2, g);
    }

    /// The conflict tracker flags an inversion exactly when a reference
    /// per-word model does.
    #[test]
    fn tracker_matches_reference(
        ops in proptest::collection::vec(
            (any::<bool>(), 0usize..3, 0u64..4, 0u64..100), 1..300)
    ) {
        let tracker = ConflictTracker::new(false);
        #[derive(Default, Clone, Copy)]
        struct Ref { st: u64, sc: usize, lt: u64, lc: usize }
        let mut model = [Ref::default(); 4];
        let mut expected_total = 0u64;
        for (is_store, core, word, ts) in ops {
            let addr = 0x1000 + word * 8;
            let m = &mut model[word as usize];
            if is_store {
                let v = tracker.record_store(core, addr, ts);
                let expect = m.lt > ts && m.lc != core;
                prop_assert_eq!(v.violated, expect);
                if expect { expected_total += 1; }
                if ts >= m.st { m.st = ts; m.sc = core; }
            } else {
                let v = tracker.record_load(core, addr, ts);
                let expect = m.st > ts && m.sc != core;
                prop_assert_eq!(v.violated, expect);
                if expect { expected_total += 1; }
                if ts >= m.lt { m.lt = ts; m.lc = core; }
            }
        }
        prop_assert_eq!(tracker.stats.total(), expected_total);
    }

    /// Fast-forward compensation never moves a timestamp backwards, and
    /// the reported stall is exactly the bump.
    #[test]
    fn compensation_is_forward_only(
        ops in proptest::collection::vec((any::<bool>(), 0usize..3, 0u64..100), 1..200)
    ) {
        let tracker = ConflictTracker::new(true);
        for (is_store, core, ts) in ops {
            let r = if is_store {
                tracker.record_store(core, 0x2000, ts)
            } else {
                tracker.record_load(core, 0x2000, ts)
            };
            prop_assert!(r.effective_ts >= ts);
            prop_assert_eq!(r.stall, r.effective_ts - ts);
        }
    }

    /// Single-threaded conformance of the SPSC queue against an uncapped
    /// `VecDeque`: an arbitrary interleaving of `push` / `push_batch`
    /// against `drain_into`, in bursts of up to several blocks, loses,
    /// duplicates and reorders nothing; a batch is visible at once, and
    /// `is_empty` agrees with the model after every step.
    #[test]
    fn spsc_matches_an_unbounded_fifo_model(
        burst in 1usize..200,
        ops in proptest::collection::vec((0u8..3, 0usize..200), 1..120)
    ) {
        let (mut p, mut c) = spsc::channel::<u64>();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64; // next value to push
        let mut out = Vec::new();
        for (op, amount) in ops {
            let amount = 1 + amount % burst;
            match op {
                0 => {
                    p.push(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    let batch: Vec<u64> = (next..next + amount as u64).collect();
                    p.push_batch(&batch);
                    model.extend(&batch);
                    next += amount as u64;
                }
                _ => {
                    out.clear();
                    let n = c.drain_into(&mut out);
                    prop_assert_eq!(n, out.len());
                    let want: Vec<u64> = model.drain(..).collect();
                    prop_assert_eq!(&out, &want, "drain_into must take all, in FIFO order");
                }
            }
            prop_assert_eq!(c.is_empty(), model.is_empty());
        }
        // Drain the remainder: nothing lost.
        out.clear();
        c.drain_into(&mut out);
        prop_assert_eq!(out, Vec::from(model), "items lost in the queue");
        prop_assert!(c.is_empty());
    }

    /// Cross-thread stream integrity: a producer thread mixing batch and
    /// single pushes in bursts of up to several blocks, a draining
    /// consumer — the consumer sees exactly 0..n in order, and never a
    /// batch in part.
    #[test]
    fn spsc_batched_cross_thread(
        total in 1u64..6000,
        chunk in 1usize..200
    ) {
        let (mut p, mut c) = spsc::channel::<u64>();
        let producer = std::thread::spawn(move || {
            let mut nextv = 0u64;
            while nextv < total {
                let hi = (nextv + chunk as u64).min(total);
                // Alternate transport flavours by chunk parity.
                if (nextv / chunk as u64).is_multiple_of(2) {
                    p.push_batch(&(nextv..hi).collect::<Vec<u64>>());
                } else {
                    (nextv..hi).for_each(|v| p.push(v));
                }
                nextv = hi;
            }
        });
        let mut expect = 0u64;
        let mut out = Vec::new();
        while expect < total {
            out.clear();
            if c.drain_into(&mut out) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &out {
                prop_assert_eq!(v, expect, "cross-thread FIFO violated");
                expect += 1;
            }
            // Even chunks are batches, published by one store: a drain
            // that reached into one took all of it.
            let k = (expect - 1) / chunk as u64;
            let batch_end = ((k + 1) * chunk as u64).min(total);
            prop_assert!(!k.is_multiple_of(2) || expect == batch_end,
                "a batch was published in part");
        }
        producer.join().unwrap();
        prop_assert!(c.is_empty());
    }

    /// Any sequence of primitive fields round-trips through a sealed
    /// snapshot container bit-exactly, with every byte accounted for.
    #[test]
    fn snap_fields_roundtrip_through_sealed_container(
        fields in proptest::collection::vec(arb_field(), 0..40)
    ) {
        let mut w = Writer::new();
        for f in &fields {
            write_field(&mut w, f);
        }
        let sealed = sk_snap::seal(&w.into_bytes());
        let payload = sk_snap::open(&sealed).unwrap();
        let mut r = Reader::new(payload);
        for f in &fields {
            prop_assert_eq!(read_field(&mut r, f).unwrap(), f.clone());
        }
        r.finish().unwrap();
        // Sealing is deterministic: the same payload seals identically.
        let mut w2 = Writer::new();
        for f in &fields {
            write_field(&mut w2, f);
        }
        prop_assert_eq!(sk_snap::seal(&w2.into_bytes()), sealed);
    }

    /// A single flipped byte anywhere in a sealed snapshot is always
    /// rejected with a clean error — never a panic, never silent
    /// acceptance of damaged state.
    #[test]
    fn snap_open_rejects_any_single_byte_flip(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        pos in any::<usize>(),
        flip in 1u8..=255
    ) {
        let sealed = sk_snap::seal(&payload);
        let mut bad = sealed.clone();
        let i = pos % bad.len(); // sealed containers are never empty

        bad[i] ^= flip;
        prop_assert!(sk_snap::open(&bad).is_err(), "flip at byte {i} accepted");
        // The pristine container still opens to the exact payload.
        prop_assert_eq!(sk_snap::open(&sealed).unwrap(), &payload[..]);
    }

    /// Truncating a sealed snapshot at any point is rejected cleanly, and
    /// a reader over arbitrary garbage errors (no panic) once the bytes
    /// run out.
    #[test]
    fn snap_truncation_and_garbage_fail_cleanly(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        cut in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let sealed = sk_snap::seal(&payload);
        let short = &sealed[..cut % sealed.len()];
        prop_assert!(sk_snap::open(short).is_err(), "truncation to {} accepted", short.len());

        let mut r = Reader::new(&garbage);
        let mut bounded = 0u32;
        while r.get_str().is_ok() {
            bounded += 1;
            prop_assert!(bounded <= 64, "reader failed to terminate on garbage");
        }
        // Over-draining past the end is an EOF error, not a panic.
        let eof = matches!(
            Reader::new(&garbage).take(garbage.len() + 1),
            Err(SnapError::UnexpectedEof { .. })
        );
        prop_assert!(eof, "take past the end must report EOF");
    }
}

/// A sealed engine snapshot taken mid-run with out-of-order cores: ROB
/// entries in every state, sequence-number references between them, MSHR
/// waiters naming ROB slots. The out-of-order core indexes its ROB
/// directly by those numbers, so this is the image whose damage matters.
fn ooo_image() -> &'static [u8] {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE.get_or_init(|| {
        let w = sk_kernels::fft::fft(2, 5);
        let mut cfg = sk_core::TargetConfig::small(2);
        cfg.core.model = sk_core::CoreModel::OutOfOrder;
        let mut e = Engine::new(&w.program, Scheme::CycleByCycle, &cfg);
        assert_eq!(e.run_until(Some(1500)), RunOutcome::CheckpointReady);
        assert!(e.core_debug_states().iter().any(|l| !l.contains("rob[0]")), "ROB empty");
        e.snapshot().expect("snapshot")
    })
}

proptest! {
    /// Damage to a sealed out-of-order image — any byte, any truncation —
    /// is a typed error from `Engine::resume`.
    #[test]
    fn ooo_image_flip_or_truncation_is_a_typed_error(
        pos in any::<usize>(),
        flip in 1u8..=255,
        cut in any::<usize>()
    ) {
        let image = ooo_image();
        let mut bad = image.to_vec();
        bad[pos % image.len()] ^= flip;
        prop_assert!(Engine::resume(&bad, None).is_err(), "flip at {} accepted", pos % image.len());
        let cut = cut % image.len();
        prop_assert!(Engine::resume(&image[..cut], None).is_err(), "truncation to {cut} accepted");
    }

    /// The same damage behind a *valid* checksum (payload re-sealed), so it
    /// reaches every `restore_state`: the decode may accept or reject, but
    /// it returns — no panic, no out-of-bounds slot. The leading 512 bytes
    /// are left alone: they hold the scheme and the `TargetConfig`, whose
    /// fields size allocations (cache geometry, ROB, ring capacities) and
    /// are validated for structure, not magnitude; the checksum is what
    /// stands between a damaged file and those.
    #[test]
    fn ooo_image_resealed_damage_never_panics(pos in any::<usize>(), flip in 1u8..=255) {
        let mut payload = sk_snap::open(ooo_image()).unwrap().to_vec();
        let skip = 512;
        let pos = skip + pos % (payload.len() - skip);
        payload[pos] ^= flip;
        if let Ok(mut e) = Engine::resume(&sk_snap::seal(&payload), None) {
            // Accepted damage (a register value, a counter) must still
            // serialize: the derived indices were rebuilt, not trusted.
            prop_assert!(e.snapshot().is_ok(), "accepted image at {pos} cannot re-snapshot");
        }
    }
}

// Deep-fuzz variants: the same properties under a much larger case and
// sequence budget. Too slow for the default debug-mode test pass; CI
// runs them in its dedicated `--ignored` job.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Deep version of `batched_clock_ops_stay_monotone_and_cache_agrees`:
    /// 2000 cases of up to 2000 ops each.
    #[test]
    #[ignore = "deep fuzz; run in CI's --ignored pass"]
    fn deep_batched_clock_ops_stay_monotone_and_cache_agrees(
        ops in proptest::collection::vec((0u8..5, 0usize..4, 1u64..80), 1..2000)
    ) {
        check_batched_clock_ops(ops)?;
    }
}
