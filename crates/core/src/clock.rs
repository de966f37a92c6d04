//! The three-clock time discipline (paper §2.1) and thread parking.
//!
//! Each core thread owns a **local time** it increments every simulated
//! cycle; the manager owns the **global time** (the minimum local time over
//! unfinished cores) and each core's **max local time**, set per the active
//! scheme. The invariant enforced here is the paper's:
//!
//! > `Global Time ≤ Local Time ≤ Max Local Time`
//!
//! Communication is through shared atomics — the whole point of SlackSim
//! versus the message-passing simulators it compares against ("our
//! simulator uses R/W accesses to shared variables to synchronize threads",
//! §5). A core blocked at its window parks on a per-core condvar; the
//! manager parks on its own condvar and is signalled whenever a core
//! produces an event, blocks, or finishes.

use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use sk_obs::Metrics;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Core run states, as observed by the manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CoreState {
    /// Simulating cycles.
    Running = 0,
    /// Parked at `local == max_local`.
    Blocked = 1,
    /// Workload thread exited; excluded from the global minimum.
    Finished = 2,
    /// No workload thread yet (awaiting Spawn); excluded from the global
    /// minimum so an idle core cannot hold the simulation back.
    Parked = 3,
    /// Blocked inside a sync API call (barrier/lock) awaiting the
    /// manager's release: the clock is suspended and fast-forwarded on
    /// release, so waiting never burns simulated cycles (the paper's
    /// "idle time must be undetectable by the program"). Safe to exclude
    /// from the global minimum because a sync-blocked core performs no
    /// memory activity.
    SyncWait = 4,
    /// Pipeline provably inert, waiting for an InQ message: the thread
    /// sleeps (saving host CPU) but the clock stays visible — the core
    /// REMAINS part of the global minimum, freezing global time exactly
    /// as if it were still ticking inert cycles. This keeps cycle-by-cycle
    /// lockstep (and thus determinism) intact.
    MemWait = 5,
}

impl CoreState {
    /// Does a core in this state hold global time back (and count toward
    /// the observed slack)?
    #[inline]
    fn timed(self) -> bool {
        matches!(self, CoreState::Running | CoreState::Blocked | CoreState::MemWait)
    }

    /// Is a core in this state driving global time forward?
    #[inline]
    fn active(self) -> bool {
        matches!(self, CoreState::Running | CoreState::Blocked)
    }

    fn from_u8(v: u8) -> CoreState {
        match v {
            0 => CoreState::Running,
            1 => CoreState::Blocked,
            2 => CoreState::Finished,
            3 => CoreState::Parked,
            4 => CoreState::SyncWait,
            _ => CoreState::MemWait,
        }
    }
}

struct CoreClock {
    local: CachePadded<AtomicU64>,
    max_local: CachePadded<AtomicU64>,
    state: AtomicU8,
    /// `true` while this core's thread is inside a `cond` wait. Wakers
    /// notify only then: with no waiter (always, on the deterministic
    /// backend) a notify is a futex syscall that wakes nobody.
    park: Mutex<bool>,
    cond: Condvar,
    /// Set when [`ClockBoard::wait_parked`]'s liveness timeout resumed the
    /// core; the next `park_as` consumes it and skips the manager signal
    /// (a re-park after a no-op re-check is not news to the manager).
    timeout_resume: AtomicBool,
    /// Telemetry only: µs (trace-sink epoch) when this core last left a
    /// wait, closing the current "run" span at the next wait entry. Owned
    /// by the core thread; atomic only because the board is shared.
    resume_us: AtomicU64,
}

impl CoreClock {
    /// Sleep on `cond` for up to `timeout`, registered as a waiter so that
    /// wakers know to notify. Returns whether the wait timed out.
    fn wait(&self, guard: &mut parking_lot::MutexGuard<'_, bool>, timeout: Duration) -> bool {
        **guard = true;
        let timed_out = self.cond.wait_for(guard, timeout).timed_out();
        **guard = false;
        timed_out
    }

    /// Wake the core's thread if it is inside [`CoreClock::wait`]. The
    /// waiter re-checks its condition under `park` before it sleeps, so a
    /// change stored before this call is seen either way.
    fn notify_if_waiting(&self) {
        if *self.park.lock() {
            self.cond.notify_one();
        }
    }
}

fn new_core_clock(local: u64, max_local: u64) -> CoreClock {
    CoreClock {
        local: CachePadded::new(AtomicU64::new(local)),
        max_local: CachePadded::new(AtomicU64::new(max_local)),
        state: AtomicU8::new(CoreState::Running as u8),
        park: Mutex::new(false),
        cond: Condvar::new(),
        timeout_resume: AtomicBool::new(false),
        resume_us: AtomicU64::new(0),
    }
}

/// Manager-private view of the board for
/// [`ClockBoard::recompute_global_cached`]: each core's last-seen
/// `(state, local)` pair plus everything the manager derives from the
/// pairs — the global minimum, how many clocks sit on it, the driving-core
/// count and the furthest clock. A refresh re-reads only the cores whose
/// change flag is up (see [`ClockBoard::mark_dirty`]); the rest of the
/// view is private memory, never shared, so keeping it costs no coherence
/// traffic.
#[derive(Debug)]
pub struct GlobalCache {
    seen: Vec<(u8, u64)>,
    /// Cores whose flag the last refresh consumed, ascending: the queues
    /// the manager has to drain this iteration.
    flagged: Vec<usize>,
    result: (u64, bool),
    /// Minimum local over timed cores (`u64::MAX` when there are none)
    /// and how many timed cores sit exactly on it: global time can only
    /// move once the last of them leaves.
    min: u64,
    at_min: usize,
    /// Cores Running or Blocked.
    active: usize,
    /// The furthest clock among timed cores (Running, Blocked or MemWait:
    /// the set in the minimum, which observed slack ranges over).
    max_local: u64,
    valid: bool,
}

impl GlobalCache {
    /// An empty cache for `n` cores (first use reads every core).
    pub fn new(n: usize) -> Self {
        GlobalCache {
            seen: vec![(0, 0); n],
            flagged: Vec::with_capacity(n),
            result: (0, false),
            min: u64::MAX,
            at_min: 0,
            active: 0,
            max_local: 0,
            valid: false,
        }
    }

    /// Cores that flagged a change since the previous refresh, ascending.
    pub fn flagged(&self) -> &[usize] {
        &self.flagged
    }

    /// Cores Running or Blocked as of the last refresh
    /// ([`ClockBoard::active_count`] without re-reading the board).
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Largest `local − g` over unfinished cores as of the last refresh
    /// ([`ClockBoard::observed_slack`] without re-reading the board).
    pub fn observed_slack(&self, g: u64) -> u64 {
        if self.min == u64::MAX {
            0
        } else {
            self.max_local.saturating_sub(g)
        }
    }
}

/// The manager's wakeup channel, under one mutex.
#[derive(Default)]
struct MgrPark {
    /// A signal arrived since the last [`ClockBoard::manager_wait`].
    pending: bool,
    /// The manager thread is inside the condvar wait (notify only then).
    waiting: bool,
}

/// Shared clock state for all cores plus the manager.
pub struct ClockBoard {
    cores: Vec<CoreClock>,
    global: CachePadded<AtomicU64>,
    /// Change flags, one bit per core (word `c >> 6`, bit `c & 63`): set
    /// after core `c`'s state or local time moved or an event landed in
    /// its OutQ, swap-consumed by the manager, which then re-reads and
    /// drains only flagged cores ([`ClockBoard::recompute_global_cached`]).
    /// Every core thread writes these words: they get lines of their own.
    dirty: Box<[CachePadded<AtomicU64>]>,
    stop: AtomicBool,
    mgr_park: Mutex<MgrPark>,
    mgr_cond: Condvar,
    /// Checkpoint limit: while a checkpoint is converging, no core-side
    /// clock movement (sync-release jump, idle skip) may pass this cycle,
    /// so every clock lands exactly on the safe-point. `u64::MAX` when no
    /// checkpoint is pending. Windows are clamped by the manager, not here.
    limit: AtomicU64,
    /// Number of times any core blocked at its window.
    pub blocks: AtomicU64,
    /// Number of times the manager woke a blocked core.
    pub wakeups: AtomicU64,
    /// Optional telemetry hub; every hot-path instrumentation point below
    /// is guarded by this single `OnceLock` load.
    obs: OnceLock<Arc<Metrics>>,
}

impl ClockBoard {
    /// A board for `n` cores, all clocks at zero and windows at
    /// `initial_window`.
    pub fn new(n: usize, initial_window: u64) -> Self {
        Self::with_clocks((0..n).map(|_| new_core_clock(0, initial_window)).collect(), 0)
    }

    fn with_clocks(cores: Vec<CoreClock>, global: u64) -> Self {
        ClockBoard {
            dirty: (0..cores.len().div_ceil(64))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            cores,
            global: CachePadded::new(AtomicU64::new(global)),
            stop: AtomicBool::new(false),
            mgr_park: Mutex::new(MgrPark::default()),
            mgr_cond: Condvar::new(),
            limit: AtomicU64::new(u64::MAX),
            blocks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// A board resuming from a snapshot: each core's local time is its
    /// saved value, its window is closed (`max_local == local`, so nothing
    /// moves until the manager republishes windows), and the global time is
    /// the saved global. All cores start Running and re-derive their parked
    /// states dynamically (a restored core with no work re-parks on its
    /// first iteration).
    pub fn restored(locals: &[u64], global: u64) -> Self {
        Self::with_clocks(locals.iter().map(|&l| new_core_clock(l, l)).collect(), global)
    }

    /// Number of cores on the board.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Attach a telemetry hub. Only the first attach takes effect; the hub
    /// must cover exactly this board's cores.
    pub fn set_obs(&self, obs: Arc<Metrics>) {
        assert_eq!(obs.n_cores(), self.cores.len(), "metrics hub sized for a different board");
        let _ = self.obs.set(obs);
    }

    /// The attached telemetry hub, if any.
    #[inline]
    pub fn obs(&self) -> Option<&Arc<Metrics>> {
        self.obs.get()
    }

    /// Telemetry at a wait entry: close the core's open "run" span and
    /// return the wait's start in trace-epoch µs. `None` when no hub is
    /// attached — the disabled cost is the single `OnceLock` load.
    #[inline]
    fn obs_wait_begin(&self, core: usize) -> Option<u64> {
        let o = self.obs.get()?;
        let now = o.trace.now_us();
        let resumed = self.cores[core].resume_us.load(Ordering::Relaxed);
        o.trace.span_at(core, "run", resumed, now.saturating_sub(resumed));
        Some(now)
    }

    /// Telemetry at a wait exit: emit the wait span, feed the matching
    /// park-duration histogram, and restart the "run" span.
    fn obs_wait_end(&self, core: usize, name: &'static str, t0_us: u64) {
        let Some(o) = self.obs.get() else { return };
        let now = o.trace.now_us();
        let dur_us = now.saturating_sub(t0_us);
        o.trace.span_at(core, name, t0_us, dur_us);
        let c = &o.cores[core];
        let dur_ns = dur_us.saturating_mul(1_000);
        match name {
            "sync_wait" => c.sync_park_ns.record(dur_ns),
            "mem_wait" => c.mem_park_ns.record(dur_ns),
            _ => c.park_ns.record(dur_ns),
        }
        self.cores[core].resume_us.store(now, Ordering::Relaxed);
    }

    /// Forbid core-side clock movement past `cycle` (checkpoint pending).
    pub fn set_checkpoint_limit(&self, cycle: u64) {
        self.limit.store(cycle, Ordering::Release);
    }

    /// Lift the checkpoint limit.
    pub fn clear_checkpoint_limit(&self) {
        self.limit.store(u64::MAX, Ordering::Release);
    }

    /// The current checkpoint limit (`u64::MAX` when none is pending).
    #[inline]
    pub fn checkpoint_limit(&self) -> u64 {
        self.limit.load(Ordering::Acquire)
    }

    /// Lower the stop flag so a board torn down at a checkpoint can host a
    /// fresh set of threads for the next segment.
    pub fn reset_stop(&self) {
        self.stop.store(false, Ordering::Release);
        // Consume any stale manager signal from the teardown.
        self.mgr_park.lock().pending = false;
    }

    /// Flag core `core` as changed for the manager. MUST follow the store
    /// (state, local time, OutQ tail) it reports: the release pairs with
    /// the manager's flag-consuming acquire, so a consumed bit proves the
    /// change is visible. Unconditional on purpose — skipping the
    /// read-modify-write when the bit already looks set would let the
    /// store sit in this thread's store buffer while the manager consumes
    /// the bit and reads the old value, losing the update for good.
    #[inline]
    pub(crate) fn mark_dirty(&self, core: usize) {
        self.dirty[core >> 6].fetch_or(1 << (core & 63), Ordering::Release);
    }

    /// Has any core flagged a change the manager has not consumed yet?
    /// A relaxed peek for the deterministic scheduler, whose tasks all run
    /// on the asking thread; it publishes nothing (the manager's consuming
    /// swap is the acquire).
    #[inline]
    pub(crate) fn any_dirty(&self) -> bool {
        self.dirty.iter().any(|w| w.load(Ordering::Relaxed) != 0)
    }

    // ---- core-thread side ----

    /// This core's local time.
    #[inline]
    pub fn local(&self, core: usize) -> u64 {
        self.cores[core].local.load(Ordering::Relaxed)
    }

    /// Publish a new local time (must be exactly old + 1).
    #[inline]
    pub fn advance_local(&self, core: usize, new_local: u64) {
        debug_assert_eq!(new_local, self.local(core) + 1);
        debug_assert!(
            new_local <= self.max_local(core),
            "core {core} would pass its window: {new_local} > {}",
            self.max_local(core)
        );
        self.cores[core].local.store(new_local, Ordering::Release);
        self.mark_dirty(core);
    }

    /// Publish a batched local-time advance: `new_local` may be any
    /// number of cycles past the last published value (run-ahead
    /// batching amortizes the publication, never the simulation — the
    /// core still simulated every intervening cycle). The advance must
    /// stay monotone and inside the window.
    #[inline]
    pub fn advance_local_batched(&self, core: usize, new_local: u64) {
        debug_assert!(
            new_local > self.local(core),
            "core {core} batched advance not monotone: {new_local} <= {}",
            self.local(core)
        );
        debug_assert!(
            new_local <= self.max_local(core),
            "core {core} would pass its window: {new_local} > {}",
            self.max_local(core)
        );
        self.cores[core].local.store(new_local, Ordering::Release);
        self.mark_dirty(core);
    }

    /// This core's window bound.
    #[inline]
    pub fn max_local(&self, core: usize) -> u64 {
        self.cores[core].max_local.load(Ordering::Acquire)
    }

    /// May this core simulate the cycle after `local`?
    #[inline]
    pub fn may_advance(&self, core: usize, local: u64) -> bool {
        local < self.max_local(core).min(self.checkpoint_limit())
    }

    /// Park until the window opens past `local`, the stop flag rises, or a
    /// periodic timeout elapses (the caller re-checks and re-parks).
    ///
    /// Returns `false` if the simulation is stopping.
    pub fn wait_for_window(&self, core: usize, local: u64) -> bool {
        let cc = &self.cores[core];
        cc.state.store(CoreState::Blocked as u8, Ordering::Release);
        self.mark_dirty(core);
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.signal_manager();
        let obs_t0 = self.obs_wait_begin(core);
        let running = {
            let mut guard = cc.park.lock();
            // Blocked → Running is not flagged: the manager treats the two
            // alike (both drive global time), so a view that still says
            // Blocked derives the same minimum, counts and slack.
            loop {
                if self.stop.load(Ordering::Acquire) {
                    cc.state.store(CoreState::Running as u8, Ordering::Release);
                    break false;
                }
                if local < cc.max_local.load(Ordering::Acquire).min(self.checkpoint_limit()) {
                    cc.state.store(CoreState::Running as u8, Ordering::Release);
                    break true;
                }
                // The timeout is a liveness backstop only; wakeups normally
                // arrive from the manager's notify.
                cc.wait(&mut guard, Duration::from_millis(10));
            }
        };
        if let Some(t0) = obs_t0 {
            self.obs_wait_end(core, "block", t0);
        }
        running
    }

    /// Set local time forward without cycling (idle skip for cores with no
    /// workload thread). Clamped to the window; monotone.
    pub fn jump_local(&self, core: usize, target: u64) {
        let cc = &self.cores[core];
        let cur = cc.local.load(Ordering::Relaxed);
        let bounded = target.min(cc.max_local.load(Ordering::Acquire)).min(self.checkpoint_limit());
        if bounded > cur {
            cc.local.store(bounded, Ordering::Release);
            self.mark_dirty(core);
        }
    }

    /// Mark this core as having no workload thread (excluded from the
    /// global minimum until unparked).
    pub fn park(&self, core: usize) {
        self.park_as(core, CoreState::Parked);
    }

    /// Mark this core as blocked in a sync API call (clock suspended).
    pub fn sync_park(&self, core: usize) {
        self.park_as(core, CoreState::SyncWait);
    }

    /// Mark this core as inert-waiting for an InQ message (clock visible).
    pub fn mem_park(&self, core: usize) {
        self.park_as(core, CoreState::MemWait);
    }

    fn park_as(&self, core: usize, state: CoreState) {
        // A *fresh* park is news: the global minimum may rise and the
        // manager may need to run quiescence processing (e.g. release a
        // lock grant this core is now waiting on), so signal it — after
        // publishing the state, so the wakeup observes it. A re-park
        // straight after `wait_parked`'s 10 ms liveness resume is not news
        // (the re-check changed nothing), and signalling those would keep
        // an otherwise quiescent manager hot — every parked core re-parks
        // forever at 100 Hz — defeating the idle backoff entirely.
        let cc = &self.cores[core];
        let resumed_by_timeout = cc.timeout_resume.swap(false, Ordering::AcqRel);
        cc.state.store(state as u8, Ordering::Release);
        self.mark_dirty(core);
        if !resumed_by_timeout {
            self.signal_manager();
        }
    }

    /// Wake a parked or sync-waiting core (a message is on its way).
    /// No-op in other states; returns whether the core was resumed.
    pub fn unpark(&self, core: usize) -> bool {
        let cc = &self.cores[core];
        let parked = matches!(
            self.state(core),
            CoreState::Parked | CoreState::SyncWait | CoreState::MemWait
        );
        if parked {
            // An unparked core is back in business: its next park is a
            // fresh one and must signal the manager again (see `park_as`).
            cc.timeout_resume.store(false, Ordering::Release);
            cc.state.store(CoreState::Running as u8, Ordering::Release);
            self.mark_dirty(core);
            cc.notify_if_waiting();
        }
        parked
    }

    /// Flip every `Parked`/`SyncWait`/`MemWait` core back to `Running`,
    /// marking each as a timeout resume (its next re-park stays silent,
    /// exactly like [`ClockBoard::wait_parked`]'s 10 ms liveness backstop).
    /// Returns how many cores were resumed.
    ///
    /// This is the deterministic backend's virtual timeout: where a
    /// threaded core would periodically wake, re-check its queues and
    /// re-tick, the single-threaded scheduler performs the same resume at
    /// a deterministic point instead of on a wall-clock timer. No condvar
    /// is notified — no thread is ever blocked in the deterministic mode.
    pub fn unpark_all_waiting(&self) -> usize {
        let mut resumed = 0;
        for (i, cc) in self.cores.iter().enumerate() {
            if matches!(self.state(i), CoreState::Parked | CoreState::SyncWait | CoreState::MemWait)
            {
                cc.timeout_resume.store(true, Ordering::Release);
                cc.state.store(CoreState::Running as u8, Ordering::Release);
                self.mark_dirty(i);
                resumed += 1;
            }
        }
        resumed
    }

    /// Park until unparked, stopped, or a liveness timeout. Returns
    /// `false` if the simulation is stopping.
    ///
    /// The timeout flips the core back to Running so the caller re-checks
    /// its queues *and re-ticks*: under barrier schemes a reply is only
    /// released once every included clock reaches the quantum boundary,
    /// and a core model may hold self-scheduled work (a compensation
    /// stall, a deferred request) that surfaces only by cycling — so the
    /// periodic resume is a progress mechanism, not just liveness.
    pub fn wait_parked(&self, core: usize) -> bool {
        let cc = &self.cores[core];
        let span_name = match self.state(core) {
            CoreState::SyncWait => "sync_wait",
            CoreState::MemWait => "mem_wait",
            _ => "park",
        };
        let obs_t0 = self.obs_wait_begin(core);
        let running = {
            let mut guard = cc.park.lock();
            loop {
                if self.stop.load(Ordering::Acquire) {
                    cc.state.store(CoreState::Running as u8, Ordering::Release);
                    break false;
                }
                if !matches!(
                    self.state(core),
                    CoreState::Parked | CoreState::SyncWait | CoreState::MemWait
                ) {
                    break true;
                }
                if cc.wait(&mut guard, Duration::from_millis(10)) {
                    // Liveness backstop: let the caller re-check its queues.
                    // Mark the resume so a straight re-park stays silent (see
                    // `park_as`); any real progress on the way back signals the
                    // manager through the event path anyway.
                    cc.timeout_resume.store(true, Ordering::Release);
                    cc.state.store(CoreState::Running as u8, Ordering::Release);
                    self.mark_dirty(core);
                    break true;
                }
            }
        };
        if let Some(t0) = obs_t0 {
            self.obs_wait_end(core, span_name, t0);
        }
        running
    }

    /// Jump a sync-parked core's clock forward to `target` (the release
    /// timestamp): waiting inside a sync call consumes no simulated work,
    /// so the clock teleports. Unlike [`ClockBoard::jump_local`] this is
    /// not clamped to the window — the manager raises windows after the
    /// global minimum catches up.
    pub fn jump_local_unclamped(&self, core: usize, target: u64) {
        let cc = &self.cores[core];
        let cur = cc.local.load(Ordering::Relaxed);
        // Even an unclamped jump respects a pending checkpoint limit: no
        // clock may pass the safe-point cycle.
        let target = target.min(self.checkpoint_limit());
        if target > cur {
            cc.local.store(target, Ordering::Release);
            self.mark_dirty(core);
        }
    }

    /// Number of cores currently Running or Blocked (driving global time).
    pub fn active_count(&self) -> usize {
        (0..self.cores.len()).filter(|&i| self.state(i).active()).count()
    }

    /// Is any core suspended waiting for a memory reply? (Such a core's
    /// work is pending at a memory manager, so the simulation is not
    /// deadlocked even if nothing else is runnable.)
    pub fn any_mem_waiting(&self) -> bool {
        (0..self.cores.len()).any(|i| self.state(i) == CoreState::MemWait)
    }

    /// Mark this core's workload as finished and wake the manager.
    pub fn finish(&self, core: usize) {
        self.cores[core].state.store(CoreState::Finished as u8, Ordering::Release);
        self.mark_dirty(core);
        if let Some(o) = self.obs.get() {
            // Close the core's final "run" span.
            let resumed = self.cores[core].resume_us.load(Ordering::Relaxed);
            o.trace.span(core, "run", resumed);
        }
        self.signal_manager();
    }

    /// Wake the manager thread (new OutQ entry, block, finish).
    #[inline]
    pub fn signal_manager(&self) {
        let mut park = self.mgr_park.lock();
        park.pending = true;
        if park.waiting {
            self.mgr_cond.notify_one();
        }
    }

    // ---- manager side ----

    /// Park the manager until a core signals or `timeout` elapses.
    /// Returns `true` if a signal was pending or arrived (as opposed to a
    /// plain timeout) — the manager's pacing loop uses this to distinguish
    /// "a core wants me" from "I woke on my own backstop".
    pub fn manager_wait(&self, timeout: Duration) -> bool {
        let mut park = self.mgr_park.lock();
        if !park.pending {
            park.waiting = true;
            self.mgr_cond.wait_for(&mut park, timeout);
            park.waiting = false;
        }
        std::mem::take(&mut park.pending)
    }

    /// A core's run state.
    pub fn state(&self, core: usize) -> CoreState {
        CoreState::from_u8(self.cores[core].state.load(Ordering::Acquire))
    }

    /// Raise a core's window. Monotone: lowering is ignored. Wakes the core
    /// if it was blocked below the new bound.
    pub fn raise_max_local(&self, core: usize, new_max: u64) {
        let cc = &self.cores[core];
        let cur = cc.max_local.load(Ordering::Relaxed);
        if new_max <= cur {
            return;
        }
        cc.max_local.store(new_max, Ordering::Release);
        if self.state(core) == CoreState::Blocked {
            // Lock/notify pairs with the blocked core's re-check under the
            // same mutex, so the wakeup cannot be lost.
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            cc.notify_if_waiting();
        }
    }

    /// Recompute and publish the global time: the minimum local time over
    /// unfinished cores. Returns `(global, all_finished)`.
    pub fn recompute_global(&self) -> (u64, bool) {
        let mut min = u64::MAX;
        let mut all_finished = true;
        for (i, cc) in self.cores.iter().enumerate() {
            match self.state(i) {
                // Finished cores are done; parked cores have no thread and
                // must not hold the global time back. Both count as "done"
                // for termination (a parked core with a Start in flight is
                // flipped to Running by `unpark` before the message lands).
                CoreState::Finished | CoreState::Parked => continue,
                // Sync-waiting cores have suspended clocks: excluded from
                // the minimum, but they are NOT done.
                CoreState::SyncWait => {
                    all_finished = false;
                    continue;
                }
                // Mem-waiting cores stay in the minimum: their frozen
                // clock freezes global time, preserving lockstep.
                _ => {}
            }
            all_finished = false;
            min = min.min(cc.local.load(Ordering::Acquire));
        }
        let prev = self.global.load(Ordering::Relaxed);
        if all_finished {
            return (prev, true);
        }
        if min == u64::MAX {
            // No core is actively driving time (all sync-parked): the
            // global clock holds until someone resumes.
            return (prev, false);
        }
        // Global time never decreases (isochrones never cross, §3.2).
        let g = min.max(prev);
        if g != prev {
            // Write-avoiding: an unchanged global is not re-stored, so the
            // cache line holding it stays Shared in every core's cache
            // instead of bouncing to Modified each manager iteration.
            self.global.store(g, Ordering::Release);
        }
        (g, false)
    }

    /// Like [`ClockBoard::recompute_global`], but change-driven: consume
    /// the change flags, re-read only the flagged cores into the
    /// manager-private [`GlobalCache`], and redo the reduction only when
    /// one of them left the minimum, changed class (timed, suspended,
    /// done) or went backwards. An iteration in which nothing moved costs
    /// one load per flag word; one in which `k` cores ticked costs `k`
    /// re-reads; the full pass over the (private) view runs once per
    /// global-time step. `global` is stored only when it changes.
    ///
    /// A core's pair is read *after* its flag was consumed, so the view
    /// holds values at least as new as the change the flag reported; an
    /// unflagged core's pair is whatever was last read, which for a clock
    /// errs low (a smaller minimum is always safe).
    pub fn recompute_global_cached(&self, cache: &mut GlobalCache) -> (u64, bool) {
        debug_assert_eq!(cache.seen.len(), self.cores.len());
        cache.flagged.clear();
        // A fresh cache has seen nothing: treat every core as flagged.
        let mut reduce = !cache.valid;
        for (wi, word) in self.dirty.iter().enumerate() {
            // The peek keeps a quiet word's line shared. A flag it misses
            // is consumed by the next refresh, which the core's signal (or
            // the scheduler's own `any_dirty`) brings about.
            let mut m =
                if word.load(Ordering::Relaxed) != 0 { word.swap(0, Ordering::Acquire) } else { 0 };
            if !cache.valid {
                let cores_here = (self.cores.len() - (wi << 6)).min(64);
                m = if cores_here == 64 { u64::MAX } else { (1 << cores_here) - 1 };
            }
            while m != 0 {
                let i = (wi << 6) | m.trailing_zeros() as usize;
                m &= m - 1;
                cache.flagged.push(i);
                // State before local: a core publishes its local time first
                // and its state transitions after, so a torn pair errs
                // toward an older state with a newer clock, never toward a
                // missed update (the later store raises the flag again).
                let cc = &self.cores[i];
                let s = cc.state.load(Ordering::Acquire);
                let l = cc.local.load(Ordering::Acquire);
                let (s0, l0) = std::mem::replace(&mut cache.seen[i], (s, l));
                if reduce || (s, l) == (s0, l0) {
                    continue;
                }
                let (s0, s) = (CoreState::from_u8(s0), CoreState::from_u8(s));
                if s0.timed() && s.timed() && l >= l0 {
                    // The common step: a timed core ticked (or changed
                    // between timed states). It cannot be a new minimum;
                    // it may have been one of the clocks on the old one.
                    cache.active = cache.active + s.active() as usize - s0.active() as usize;
                    cache.max_local = cache.max_local.max(l);
                    if l0 == cache.min && l > l0 {
                        cache.at_min -= 1;
                        reduce = cache.at_min == 0;
                    }
                } else {
                    reduce = true;
                }
            }
        }
        if !reduce {
            return cache.result;
        }
        let mut all_finished = true;
        cache.min = u64::MAX;
        cache.at_min = 0;
        cache.active = 0;
        cache.max_local = 0;
        for &(s, l) in &cache.seen {
            let s = CoreState::from_u8(s);
            // Finished and parked cores are done for termination; a
            // sync-waiting one is suspended, not done.
            all_finished &= matches!(s, CoreState::Finished | CoreState::Parked);
            if !s.timed() {
                continue;
            }
            cache.active += s.active() as usize;
            cache.max_local = cache.max_local.max(l);
            if l < cache.min {
                cache.min = l;
                cache.at_min = 1;
            } else if l == cache.min {
                cache.at_min += 1;
            }
        }
        let prev = self.global.load(Ordering::Relaxed);
        let result = if all_finished {
            (prev, true)
        } else if cache.min == u64::MAX {
            (prev, false)
        } else {
            let g = cache.min.max(prev);
            if g != prev {
                self.global.store(g, Ordering::Release);
            }
            (g, false)
        };
        cache.valid = true;
        cache.result = result;
        result
    }

    /// The current global time.
    #[inline]
    pub fn global(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }

    /// Largest `local - global` over unfinished cores (observed slack).
    pub fn observed_slack(&self) -> u64 {
        let g = self.global();
        (0..self.cores.len())
            .filter(|&i| self.state(i).timed())
            .map(|i| self.local(i).saturating_sub(g))
            .max()
            .unwrap_or(0)
    }

    /// Raise the stop flag and wake every thread.
    pub fn stop_all(&self) {
        self.stop.store(true, Ordering::Release);
        for cc in &self.cores {
            cc.notify_if_waiting();
        }
        self.signal_manager();
    }

    /// Has the stop flag been raised?
    #[inline]
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn invariant_global_le_local_le_max() {
        let b = ClockBoard::new(2, 5);
        b.advance_local(0, 1);
        b.advance_local(1, 1);
        b.advance_local(1, 2);
        let (g, done) = b.recompute_global();
        assert_eq!(g, 1);
        assert!(!done);
        assert!(g <= b.local(0) && b.local(0) <= b.max_local(0));
        assert!(g <= b.local(1) && b.local(1) <= b.max_local(1));
    }

    #[test]
    fn global_ignores_finished_cores() {
        let b = ClockBoard::new(2, 100);
        b.advance_local(0, 1);
        b.finish(0);
        for c in 1..=7 {
            b.advance_local(1, c);
        }
        let (g, done) = b.recompute_global();
        assert_eq!(g, 7);
        assert!(!done);
        b.finish(1);
        let (_, done) = b.recompute_global();
        assert!(done);
    }

    #[test]
    fn global_is_monotone() {
        let b = ClockBoard::new(1, 100);
        for c in 1..=5 {
            b.advance_local(0, c);
        }
        b.recompute_global();
        assert_eq!(b.global(), 5);
        // A finished core can no longer lower the minimum.
        b.finish(0);
        let (g, _) = b.recompute_global();
        assert_eq!(g, 5);
    }

    #[test]
    fn raise_max_local_is_monotone() {
        let b = ClockBoard::new(1, 10);
        b.raise_max_local(0, 5); // lowering ignored
        assert_eq!(b.max_local(0), 10);
        b.raise_max_local(0, 12);
        assert_eq!(b.max_local(0), 12);
    }

    #[test]
    fn blocked_core_wakes_on_window_raise() {
        let b = Arc::new(ClockBoard::new(1, 1));
        b.advance_local(0, 1); // local == max_local
        let b2 = b.clone();
        let t = thread::spawn(move || b2.wait_for_window(0, 1));
        // Wait until the core registers as blocked.
        while b.state(0) != CoreState::Blocked {
            thread::yield_now();
        }
        b.raise_max_local(0, 2);
        assert!(t.join().unwrap(), "core should resume, not stop");
        assert!(b.wakeups.load(Ordering::Relaxed) >= 1);
        assert_eq!(b.blocks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stop_unblocks_parked_core() {
        let b = Arc::new(ClockBoard::new(1, 1));
        b.advance_local(0, 1);
        let b2 = b.clone();
        let t = thread::spawn(move || b2.wait_for_window(0, 1));
        while b.state(0) != CoreState::Blocked {
            thread::yield_now();
        }
        b.stop_all();
        assert!(!t.join().unwrap(), "stop returns false");
    }

    #[test]
    fn observed_slack() {
        let b = ClockBoard::new(3, 100);
        for c in 1..=4 {
            b.advance_local(0, c);
        }
        b.advance_local(1, 1);
        // core 2 stays at 0
        b.recompute_global();
        assert_eq!(b.global(), 0);
        assert_eq!(b.observed_slack(), 4);
    }

    #[test]
    fn manager_wait_consumes_signal() {
        let b = ClockBoard::new(1, 1);
        b.signal_manager();
        // Signal pending: returns immediately and reports it.
        assert!(b.manager_wait(Duration::from_secs(10)));
        // No signal: the short timeout path.
        let t0 = std::time::Instant::now();
        assert!(!b.manager_wait(Duration::from_millis(1)));
        assert!(t0.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn cached_recompute_matches_plain() {
        let b = ClockBoard::new(3, 100);
        let mut cache = GlobalCache::new(3);
        assert_eq!(b.recompute_global_cached(&mut cache), (0, false));
        for c in 1..=4 {
            b.advance_local(0, c);
        }
        b.advance_local(1, 1);
        assert_eq!(b.recompute_global_cached(&mut cache), (0, false));
        // Nothing moved: the cached path must return the same answer.
        assert_eq!(b.recompute_global_cached(&mut cache), (0, false));
        b.advance_local(2, 1);
        assert_eq!(b.recompute_global_cached(&mut cache), (1, false));
        assert_eq!(b.global(), 1);
        // State changes invalidate the snapshot too.
        b.finish(1);
        b.finish(2);
        for c in 5..=7 {
            b.advance_local(0, c);
        }
        assert_eq!(b.recompute_global_cached(&mut cache), (7, false));
        b.finish(0);
        let (_, done) = b.recompute_global_cached(&mut cache);
        assert!(done);
        // Quiescent repeat of the all-finished answer stays cached.
        let (_, done) = b.recompute_global_cached(&mut cache);
        assert!(done);
    }

    #[test]
    fn refresh_reads_flagged_cores_only() {
        let b = ClockBoard::new(4, 100);
        let mut cache = GlobalCache::new(4);
        // A fresh cache reads every core whatever the flags say.
        b.recompute_global_cached(&mut cache);
        assert_eq!(cache.flagged(), [0, 1, 2, 3]);
        assert!(!b.any_dirty());
        b.recompute_global_cached(&mut cache);
        assert!(cache.flagged().is_empty(), "nothing moved, nothing to re-read");

        // One core ticks: one flag, and the minimum (three clocks still on
        // it) stands without a reduction.
        b.advance_local(2, 1);
        assert!(b.any_dirty());
        assert_eq!(b.recompute_global_cached(&mut cache), (0, false));
        assert_eq!(cache.flagged(), [2]);
        assert_eq!(cache.observed_slack(0), 1);
        assert_eq!(cache.active_count(), 4);

        // A park, a no-op unpark and a real one.
        b.sync_park(1);
        assert!(!b.unpark(0), "core 0 is not parked");
        b.recompute_global_cached(&mut cache);
        assert_eq!(cache.flagged(), [1]);
        assert_eq!(cache.active_count(), 3);
        assert!(b.unpark(1));
        b.recompute_global_cached(&mut cache);
        assert_eq!(cache.flagged(), [1]);
        assert_eq!(cache.active_count(), 4);

        // The last clocks leave the minimum: global time moves.
        for c in [0, 1, 3] {
            b.advance_local(c, 1);
        }
        assert_eq!(b.recompute_global_cached(&mut cache), (1, false));
        assert_eq!(cache.flagged(), [0, 1, 3]);
        assert_eq!(cache.observed_slack(1), 0);
    }

    #[test]
    fn views_agree_with_the_board_across_state_changes() {
        let b = ClockBoard::new(3, 100);
        let mut cache = GlobalCache::new(3);
        let check = |cache: &mut GlobalCache| {
            let cached = b.recompute_global_cached(cache);
            assert_eq!(cached, b.recompute_global());
            assert_eq!(cache.observed_slack(cached.0), b.observed_slack());
            assert_eq!(cache.active_count(), b.active_count());
        };
        check(&mut cache);
        for c in 1..=5 {
            b.advance_local(0, c);
        }
        check(&mut cache);
        b.mem_park(0); // still timed, no longer active
        check(&mut cache);
        b.sync_park(1); // suspended: out of the minimum
        b.park(2);
        check(&mut cache);
        assert_eq!(b.unpark_all_waiting(), 3);
        check(&mut cache);
        b.jump_local_unclamped(1, 9);
        b.finish(2);
        check(&mut cache);
        b.finish(0);
        b.finish(1);
        check(&mut cache);
    }

    #[test]
    fn unchanged_global_is_not_restored() {
        // recompute_global with no movement must still report the same
        // global (the skip-store path returns the previous value).
        let b = ClockBoard::new(2, 100);
        for c in 1..=3 {
            b.advance_local(0, c);
            b.advance_local(1, c);
        }
        assert_eq!(b.recompute_global(), (3, false));
        assert_eq!(b.recompute_global(), (3, false));
        assert_eq!(b.global(), 3);
    }
}
