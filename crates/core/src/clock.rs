//! The three-clock time discipline (paper §2.1) and worker wake-ups.
//!
//! Each core owns a **local time** it increments every simulated cycle;
//! the manager owns the **global time** (the minimum local time over
//! unfinished cores) and each core's **max local time**, set per the active
//! scheme. The invariant enforced here is the paper's:
//!
//! > `Global Time ≤ Local Time ≤ Max Local Time`
//!
//! Communication is through shared atomics — the whole point of SlackSim
//! versus the message-passing simulators it compares against ("our
//! simulator uses R/W accesses to shared variables to synchronize threads",
//! §5). The manager learns of a change from a per-core change flag
//! (`ClockBoard::mark_dirty`). On the threaded backend a core whose
//! window is closed is marked `Blocked` (`ClockBoard::block`) and the
//! worker owning it may sleep (`ClockBoard::go_idle`); a raise or an
//! unpark that makes one of its cores runnable wakes that worker. Both
//! handshakes are store, full fence, load on each side, so a change made
//! after a worker's last look is seen by that look or sees its mark.

use crossbeam::utils::CachePadded;
use sk_obs::Metrics;
use std::sync::atomic::Ordering::{self, AcqRel, Acquire, Relaxed};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::Thread;

/// Core run states, as observed by the manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CoreState {
    /// Simulating cycles.
    Running = 0,
    /// Stopped at `local == max_local` until a window raise.
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
    /// Pipeline provably inert, waiting for an InQ message: the core is
    /// not stepped (saving host CPU) but the clock stays visible — the core
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

    /// Is a core in this state waiting for an unpark?
    fn parked(self) -> bool {
        matches!(self, CoreState::Parked | CoreState::SyncWait | CoreState::MemWait)
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

/// Set in a running core's state byte by [`ClockBoard::unpark`] during a
/// threaded segment: the core has mail.
const MAIL: u8 = 0x80;

/// One core's clocks. `local` and `max_local` have a line each; the rest
/// share a third. During a segment that line is written only where
/// `state` changes anyway (block, raise, park, unpark, finish) and by
/// telemetry.
struct CoreClock {
    local: CachePadded<AtomicU64>,
    max_local: CachePadded<AtomicU64>,
    state: AtomicU8,
    /// The pool worker stepping this core during a threaded segment.
    owner: AtomicUsize,
    /// Telemetry only: µs (trace-sink epoch) when this core last left a
    /// wait, closing the current "run" span at the next wait entry.
    resume_us: AtomicU64,
    /// Times this core blocked at its window, whether or not its worker
    /// then slept. Summed by [`ClockBoard::blocks`].
    blocks: AtomicU64,
    /// Window raises that ended a block of this core. Summed by
    /// [`ClockBoard::wakeups`].
    wakeups: AtomicU64,
}

fn new_core_clock(local: u64, max_local: u64) -> CoreClock {
    CoreClock {
        local: CachePadded::new(AtomicU64::new(local)),
        max_local: CachePadded::new(AtomicU64::new(max_local)),
        state: AtomicU8::new(CoreState::Running as u8),
        owner: AtomicUsize::new(0),
        resume_us: AtomicU64::new(0),
        blocks: AtomicU64::new(0),
        wakeups: AtomicU64::new(0),
    }
}

/// A pool worker's parking spot: `sleeping` is up from just before the
/// worker's last look at its cores until it wakes.
#[derive(Default)]
struct Parker {
    sleeping: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

/// Manager-private view of the board for
/// [`ClockBoard::recompute_global_cached`]: each core's last-seen
/// `(state, local)` pair plus everything the manager derives from the
/// pairs — the global minimum, how many clocks sit on it, the driving-core
/// count and the furthest clock. A refresh re-reads only the cores whose
/// change flag is up (see `ClockBoard::mark_dirty`); the rest of the
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

    /// Cores Running or Blocked (driving global time) as of the last
    /// refresh.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Largest `local − g` over timed cores (Running, Blocked, MemWait)
    /// as of the last refresh: the observed slack.
    pub fn observed_slack(&self, g: u64) -> u64 {
        if self.min == u64::MAX {
            0
        } else {
            self.max_local.saturating_sub(g)
        }
    }
}

/// Shared clock state for all cores plus the manager. Every field written
/// while a segment runs has a line of its own (a `CachePadded` cell, or a
/// core's `CoreClock` line); the unpadded ones change only between
/// segments or when the run stops.
pub struct ClockBoard {
    cores: Vec<CoreClock>,
    global: CachePadded<AtomicU64>,
    /// Change flags, one bit per core (word `c >> 6`, bit `c & 63`): set
    /// after core `c`'s state or local time moved or an event landed in
    /// its OutQ, swap-consumed by the manager, which then re-reads and
    /// drains only flagged cores ([`ClockBoard::recompute_global_cached`]).
    /// Every core writes these words: they get lines of their own.
    dirty: Box<[CachePadded<AtomicU64>]>,
    stop: AtomicBool,
    /// Workers of the pool running a threaded segment, 0 when none is: then
    /// wakers do not fence or look for sleeping owners, and the
    /// deterministic backend pays nothing for the handshakes.
    workers: AtomicUsize,
    /// Workers that found nothing to run and have not been woken since
    /// ([`ClockBoard::go_idle`]).
    idle: CachePadded<AtomicUsize>,
    /// One parking spot per possible worker (a pool has at most one worker
    /// per core).
    parkers: Box<[CachePadded<Parker>]>,
    /// Checkpoint limit: while a checkpoint is converging, no core-side
    /// clock movement (sync-release jump, idle skip) may pass this cycle,
    /// so every clock lands exactly on the safe-point. `u64::MAX` when no
    /// checkpoint is pending. Windows are clamped by the manager, not here.
    limit: AtomicU64,
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
            parkers: (0..cores.len()).map(|_| CachePadded::new(Parker::default())).collect(),
            cores,
            global: CachePadded::new(AtomicU64::new(global)),
            stop: AtomicBool::new(false),
            workers: AtomicUsize::new(0),
            idle: CachePadded::new(AtomicUsize::new(0)),
            limit: AtomicU64::new(u64::MAX),
            obs: OnceLock::new(),
        }
    }

    /// A board resuming from a snapshot: each core's local time is its
    /// saved value, its window is closed (`max_local == local`, so nothing
    /// moves until the manager republishes windows), and the global time is
    /// the saved global. All cores start Running and re-derive their parked
    /// states dynamically (a restored core with no work re-parks on its
    /// first iteration). The block and wake-up counts start at zero: the
    /// totals before the snapshot live in the engine's statistics.
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
    fn obs_wait_end(&self, core: usize, state: CoreState, t0_us: u64) {
        let Some(o) = self.obs.get() else { return };
        let now = o.trace.now_us();
        let dur_us = now.saturating_sub(t0_us);
        let c = &o.cores[core];
        let (name, hist) = match state {
            CoreState::SyncWait => ("sync_wait", &c.sync_park_ns),
            CoreState::MemWait => ("mem_wait", &c.mem_park_ns),
            _ => ("park", &c.park_ns),
        };
        o.trace.span_at(core, name, t0_us, dur_us);
        hist.record(dur_us.saturating_mul(1_000));
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

    /// Lower the stop flag so a board torn down at a checkpoint can host
    /// the next segment.
    pub fn reset_stop(&self) {
        self.stop.store(false, Ordering::Release);
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
    /// A relaxed peek for the schedulers deciding whether a manager body is
    /// due; it publishes nothing (the manager's consuming swap is the
    /// acquire).
    #[inline]
    pub(crate) fn any_dirty(&self) -> bool {
        self.dirty.iter().any(|w| w.load(Ordering::Relaxed) != 0)
    }

    // ---- core side ----

    /// This core's local time.
    #[inline]
    pub fn local(&self, core: usize) -> u64 {
        self.cores[core].local.load(Ordering::Relaxed)
    }

    /// Publish a new local time: `new_local` may be any number of cycles
    /// past the last published value (run-ahead batching amortizes the
    /// publication, never the simulation — the core still simulated every
    /// intervening cycle). The advance must stay monotone and inside the
    /// window.
    #[inline]
    pub fn advance_local(&self, core: usize, new_local: u64) {
        debug_assert!(
            new_local > self.local(core),
            "core {core} advance not monotone: {new_local} <= {}",
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

    /// Mark a core that found its window closed as `Blocked`, so that the
    /// raise opening it wakes its worker. Returns `false`, with the core
    /// `Running` again, if a raise landed between the core's look at its
    /// window and this store.
    pub(crate) fn block(&self, core: usize) -> bool {
        let cc = &self.cores[core];
        // Blocked ⇄ Running is not flagged: the manager treats the two
        // alike (both drive global time), so a view that still says
        // Running derives the same minimum, counts and slack.
        cc.state.store(CoreState::Blocked as u8, Ordering::SeqCst);
        cc.blocks.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if self.may_advance(core, cc.local.load(Ordering::Relaxed)) {
            let blocked = CoreState::Blocked as u8;
            let _ = cc.state.compare_exchange(
                blocked,
                CoreState::Running as u8,
                Ordering::SeqCst,
                Ordering::Relaxed,
            );
            return false;
        }
        true
    }

    /// Set local time forward without cycling: the idle skip of a core
    /// with no workload thread, the inert skip to its next message, and a
    /// sync-parked core's jump to its release timestamp (waiting inside a
    /// sync call consumes no simulated work, so the clock teleports).
    /// Monotone. Clamped only to a pending checkpoint limit, which no
    /// clock may pass; the callers clamp their targets to whatever window
    /// applies (a sync jump none: the manager raises windows after the
    /// global minimum catches up).
    pub fn jump_local(&self, core: usize, target: u64) {
        let cc = &self.cores[core];
        let cur = cc.local.load(Ordering::Relaxed);
        let target = target.min(self.checkpoint_limit());
        if target > cur {
            cc.local.store(target, Ordering::Release);
            self.mark_dirty(core);
        }
    }

    /// Mark this running core as having no workload thread (excluded from
    /// the global minimum until unparked). Returns `false`, parking
    /// nothing, if the core has mail (see [`ClockBoard::unpark`]).
    pub fn park(&self, core: usize) -> bool {
        self.park_as(core, CoreState::Parked)
    }

    /// [`ClockBoard::park`] for a core blocked in a sync API call (clock
    /// suspended).
    pub fn sync_park(&self, core: usize) -> bool {
        self.park_as(core, CoreState::SyncWait)
    }

    /// [`ClockBoard::park`] for a core inert-waiting for an InQ message
    /// (clock visible).
    pub fn mem_park(&self, core: usize) -> bool {
        self.park_as(core, CoreState::MemWait)
    }

    /// Fails on mail: a message came after the caller last looked at its
    /// queues, and it looks again instead.
    fn park_as(&self, core: usize, state: CoreState) -> bool {
        let cc = &self.cores[core];
        let running = CoreState::Running as u8;
        let parked = cc.state.compare_exchange(running, state as u8, AcqRel, Relaxed).is_ok();
        if parked {
            self.mark_dirty(core);
        } else {
            cc.state.fetch_and(!MAIL, Relaxed);
        }
        parked
    }

    /// Wake a parked core (a message is on its way); returns whether it was
    /// parked. During a threaded segment a running core is left *mail*
    /// instead, and its next park fails: a core is never parked with a
    /// message on its way, so no manager body on another worker can take
    /// it for quiescent — the park-then-recheck window of thread-per-core.
    pub fn unpark(&self, core: usize) -> bool {
        let cc = &self.cores[core];
        let pooled = self.pooled();
        let prev =
            cc.state.fetch_update(AcqRel, Acquire, |s| match CoreState::from_u8(s & !MAIL) {
                CoreState::Running if pooled => Some(s | MAIL),
                state if state.parked() => Some(CoreState::Running as u8),
                _ => None,
            });
        let parked = prev.is_ok_and(|s| CoreState::from_u8(s & !MAIL).parked());
        if parked {
            self.mark_dirty(core);
            if pooled {
                fence(Ordering::SeqCst);
                self.wake_worker(cc.owner.load(Ordering::Relaxed));
            }
        }
        parked
    }

    /// Flip every `Parked`/`SyncWait`/`MemWait` core back to `Running` and
    /// return how many there were: the quiescence rule's *virtual timeout*
    /// (`Engine::forced_round`). A resumed core re-checks
    /// its queues and re-ticks — a progress mechanism under barrier schemes
    /// and for self-scheduled core work (a compensation stall).
    pub fn unpark_all_waiting(&self) -> usize {
        let mut resumed = 0;
        for (i, cc) in self.cores.iter().enumerate() {
            if self.state(i).parked() {
                cc.state.store(CoreState::Running as u8, Ordering::Release);
                self.mark_dirty(i);
                resumed += 1;
            }
        }
        self.wake_all();
        resumed
    }

    /// Is any core suspended waiting for a memory reply? (Such a core's
    /// work is pending at a memory manager, so the simulation is not
    /// deadlocked even if nothing else is runnable.)
    pub fn any_mem_waiting(&self) -> bool {
        (0..self.cores.len()).any(|i| self.state(i) == CoreState::MemWait)
    }

    /// Mark this core's workload as finished.
    pub fn finish(&self, core: usize) {
        self.cores[core].state.store(CoreState::Finished as u8, Ordering::Release);
        self.mark_dirty(core);
        if let Some(o) = self.obs.get() {
            // Close the core's final "run" span.
            let resumed = self.cores[core].resume_us.load(Ordering::Relaxed);
            o.trace.span(core, "run", resumed);
        }
    }

    // ---- manager side ----

    /// A core's run state.
    pub fn state(&self, core: usize) -> CoreState {
        CoreState::from_u8(self.cores[core].state.load(Ordering::Acquire) & !MAIL)
    }

    /// Raise a core's window. Monotone: lowering is ignored. Wakes the
    /// core's worker if the raise ended its block.
    pub fn raise_max_local(&self, core: usize, new_max: u64) {
        self.raise(core..core + 1, new_max);
    }

    /// Raise every core's window, with one fence for the whole grant.
    pub(crate) fn raise_all(&self, new_max: u64) {
        self.raise(0..self.cores.len(), new_max);
    }

    /// Raise the windows of `cores`; a `Blocked` one whose window opened
    /// goes back to `Running` and its worker is woken.
    fn raise(&self, cores: std::ops::Range<usize>, new_max: u64) {
        for cc in &self.cores[cores.clone()] {
            if new_max > cc.max_local.load(Ordering::Relaxed) {
                cc.max_local.store(new_max, Ordering::Release);
            }
        }
        if !self.pooled() {
            return;
        }
        fence(Ordering::SeqCst);
        let (blocked, running) = (CoreState::Blocked as u8, CoreState::Running as u8);
        for cc in &self.cores[cores] {
            if cc.state.load(Ordering::SeqCst) == blocked
                && cc.local.load(Ordering::Relaxed) < new_max.min(self.checkpoint_limit())
                && cc
                    .state
                    .compare_exchange(blocked, running, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                cc.wakeups.fetch_add(1, Ordering::Relaxed);
                self.wake_worker(cc.owner.load(Ordering::Relaxed));
            }
        }
    }

    /// Recompute and publish the global time: the minimum local time over
    /// the cores that hold it back (running, blocked, mem-waiting), never
    /// below its last value. Returns `(global, all_finished)`; finished
    /// and parked cores count as done, a sync-waiting one does not.
    ///
    /// Change-driven: consume the change flags, re-read only the flagged
    /// cores into the manager-private [`GlobalCache`], and redo the
    /// reduction only when
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
                let s = cc.state.load(Ordering::Acquire) & !MAIL;
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
            // Every unfinished core is sync-waiting: global time holds
            // until one resumes.
            (prev, false)
        } else {
            // Global time never decreases (isochrones never cross, §3.2),
            // and an unchanged value is not re-stored, so its line stays
            // shared in every core's cache.
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

    /// Times any core blocked at its window on this board, whether or not
    /// its worker then slept.
    pub fn blocks(&self) -> u64 {
        self.cores.iter().map(|cc| cc.blocks.load(Ordering::Relaxed)).sum()
    }

    /// Window raises on this board that ended a core's block.
    pub fn wakeups(&self) -> u64 {
        self.cores.iter().map(|cc| cc.wakeups.load(Ordering::Relaxed)).sum()
    }

    /// Raise the stop flag and wake every sleeping worker.
    pub fn stop_all(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake_all();
    }

    // ---- worker pool side ----

    /// Start a threaded segment on `workers` workers: core `c` is stepped
    /// by worker `owner(c)`, and from now on every raise and unpark looks
    /// for a sleeping owner.
    pub(crate) fn attach_pool(&self, workers: usize, owner: impl Fn(usize) -> usize) {
        for (c, cc) in self.cores.iter().enumerate() {
            cc.owner.store(owner(c), Ordering::Relaxed);
        }
        self.idle.store(0, Ordering::Relaxed);
        self.workers.store(workers, Ordering::Release);
    }

    /// End a threaded segment (every worker has exited). A `Blocked` core
    /// goes back to `Running`: only a pool raise ends a block, and the next
    /// segment may run on the det scheduler, which never raises one.
    pub(crate) fn detach_pool(&self) {
        self.workers.store(0, Ordering::Release);
        let (blocked, running) = (CoreState::Blocked as u8, CoreState::Running as u8);
        for cc in &self.cores {
            let _ = cc.state.compare_exchange(blocked, running, AcqRel, Relaxed);
        }
    }

    #[inline]
    fn pooled(&self) -> bool {
        self.workers.load(Ordering::Relaxed) != 0
    }

    /// Called by worker `me` on its own thread before its first scan.
    pub(crate) fn register_worker(&self, me: usize) {
        let mut t = self.parkers[me].thread.lock().unwrap_or_else(PoisonError::into_inner);
        *t = Some(std::thread::current());
    }

    /// Is every worker but the caller idle?
    pub(crate) fn others_idle(&self) -> bool {
        self.idle.load(Ordering::SeqCst) + 1 == self.workers.load(Ordering::Relaxed)
    }

    /// Worker `me` found nothing to run. If every other worker is idle
    /// too it returns `true` at once (the caller runs the forced round);
    /// else it sleeps until a raise, an unpark or the stop flag wakes it —
    /// unless, once its mark is up, one of `cores` (its live cores) is
    /// `Running` or the run is stopping. A waker takes the worker off the
    /// idle count as it wakes it, so a woken worker that has not run yet is
    /// never counted idle. Time asleep is booked to each of `cores`:
    /// `sync_park_ns` if `SyncWait`, `mem_park_ns` if `MemWait`, else
    /// `park_ns`.
    pub(crate) fn go_idle(&self, me: usize, cores: &[usize]) -> bool {
        if self.idle.fetch_add(1, Ordering::SeqCst) + 1 == self.workers.load(Ordering::Relaxed) {
            self.idle.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        let p = &self.parkers[me];
        p.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let running = CoreState::Running as u8;
        if !self.stopping()
            && cores.iter().all(|&c| self.cores[c].state.load(Ordering::SeqCst) & !MAIL != running)
        {
            let spans: Vec<_> = cores
                .iter()
                .filter_map(|&c| Some((c, self.state(c), self.obs_wait_begin(c)?)))
                .collect();
            std::thread::park();
            for (c, state, t0) in spans {
                self.obs_wait_end(c, state, t0);
            }
        }
        // Still marked: no waker took it off the count (a spurious wake-up,
        // or work seen at the last look).
        if p.sleeping.swap(false, Ordering::SeqCst) {
            self.idle.fetch_sub(1, Ordering::SeqCst);
        }
        false
    }

    /// Wake worker `w` if it sleeps. Callers have fenced after the store
    /// that made its work.
    fn wake_worker(&self, w: usize) {
        let p = &self.parkers[w];
        if p.sleeping.load(Ordering::SeqCst) && p.sleeping.swap(false, Ordering::SeqCst) {
            self.idle.fetch_sub(1, Ordering::SeqCst);
            if let Some(t) = &*p.thread.lock().unwrap_or_else(PoisonError::into_inner) {
                t.unpark();
            }
        }
    }

    fn wake_all(&self) {
        if self.pooled() {
            fence(Ordering::SeqCst);
            for w in 0..self.parkers.len() {
                self.wake_worker(w);
            }
        }
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

    /// What [`ClockBoard::recompute_global_cached`] must answer, by brute
    /// force over the board: the least local time of a timed core, never
    /// below `prev` (the global time published before the call), and
    /// whether every core is finished or parked.
    fn full_scan(b: &ClockBoard, prev: u64) -> (u64, bool) {
        let n = b.cores.len();
        if (0..n).all(|i| matches!(b.state(i), CoreState::Finished | CoreState::Parked)) {
            return (prev, true);
        }
        let min = (0..n).filter(|&i| b.state(i).timed()).map(|i| b.local(i)).min();
        (min.map_or(prev, |m| m.max(prev)), false)
    }

    /// What [`GlobalCache::observed_slack`] must answer, by brute force:
    /// the largest `local − global` over timed cores.
    fn scan_slack(b: &ClockBoard) -> u64 {
        let n = b.cores.len();
        let timed = (0..n).filter(|&i| b.state(i).timed());
        timed.map(|i| b.local(i).saturating_sub(b.global())).max().unwrap_or(0)
    }

    /// What [`GlobalCache::active_count`] must answer, by brute force: the
    /// cores Running or Blocked.
    fn scan_active(b: &ClockBoard) -> usize {
        (0..b.cores.len()).filter(|&i| b.state(i).active()).count()
    }

    #[test]
    fn invariant_global_le_local_le_max() {
        let b = ClockBoard::new(2, 5);
        let mut cache = GlobalCache::new(2);
        b.advance_local(0, 1);
        b.advance_local(1, 1);
        b.advance_local(1, 2);
        let (g, done) = b.recompute_global_cached(&mut cache);
        assert_eq!(g, 1);
        assert!(!done);
        assert!(g <= b.local(0) && b.local(0) <= b.max_local(0));
        assert!(g <= b.local(1) && b.local(1) <= b.max_local(1));
    }

    #[test]
    fn global_ignores_finished_cores() {
        let b = ClockBoard::new(2, 100);
        let mut cache = GlobalCache::new(2);
        b.advance_local(0, 1);
        b.finish(0);
        for c in 1..=7 {
            b.advance_local(1, c);
        }
        let (g, done) = b.recompute_global_cached(&mut cache);
        assert_eq!(g, 7);
        assert!(!done);
        b.finish(1);
        let (_, done) = b.recompute_global_cached(&mut cache);
        assert!(done);
    }

    #[test]
    fn global_is_monotone() {
        let b = ClockBoard::new(1, 100);
        let mut cache = GlobalCache::new(1);
        for c in 1..=5 {
            b.advance_local(0, c);
        }
        b.recompute_global_cached(&mut cache);
        assert_eq!(b.global(), 5);
        // A finished core can no longer lower the minimum.
        b.finish(0);
        let (g, _) = b.recompute_global_cached(&mut cache);
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

    /// Run `body` as pool worker `me` on its own thread once `b` has a pool.
    fn worker(
        b: &Arc<ClockBoard>,
        me: usize,
        body: impl FnOnce(&ClockBoard) + Send + 'static,
    ) -> thread::JoinHandle<()> {
        let b = b.clone();
        thread::spawn(move || {
            b.register_worker(me);
            body(&b);
        })
    }

    fn wait_until_asleep(b: &ClockBoard, w: usize) {
        while !b.parkers[w].sleeping.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    }

    #[test]
    fn a_raise_wakes_the_sleeping_owner_of_a_blocked_core() {
        let b = Arc::new(ClockBoard::new(1, 1));
        let obs = Arc::new(Metrics::new(1, sk_obs::ObsConfig::default()));
        b.set_obs(obs.clone());
        b.advance_local(0, 1); // local == max_local
                               // A second worker that never idles: worker 0 is not the last.
        b.attach_pool(2, |_| 0);
        let (tx, rx) = std::sync::mpsc::channel();
        let t = worker(&b, 0, move |b| {
            assert!(b.block(0), "the window is closed");
            assert!(!b.go_idle(0, &[0]), "not the last idle worker");
            tx.send(b.idle.load(Ordering::SeqCst)).unwrap();
        });
        wait_until_asleep(&b, 0);
        b.raise_max_local(0, 2);
        t.join().unwrap();
        assert_eq!(b.state(0), CoreState::Running);
        assert_eq!(b.blocks(), 1);
        assert_eq!(b.wakeups(), 1);
        assert_eq!(rx.recv().unwrap(), 0, "the waker took the worker off the idle count");
        // Time asleep, if the raise did not beat the worker's last look, is
        // booked to the blocked core as window park time.
        let c = &obs.cores[0];
        assert!(c.park_ns.count() <= 1);
        assert_eq!(c.sync_park_ns.count() + c.mem_park_ns.count(), 0);
    }

    #[test]
    fn block_reopens_on_a_raise_that_beat_it() {
        let b = ClockBoard::new(1, 1);
        b.advance_local(0, 1);
        b.attach_pool(1, |_| 0);
        // The raise lands after the core saw its window closed but before
        // it marked itself blocked: the mark must not stick.
        b.raise_max_local(0, 2);
        assert!(!b.block(0));
        assert_eq!(b.state(0), CoreState::Running);
        assert_eq!(b.blocks(), 1);
        assert_eq!(b.wakeups(), 0, "no raise ended a block");
    }

    #[test]
    fn block_and_wake_counts_land_in_their_own_cores_line() {
        let b = ClockBoard::new(2, 1);
        b.advance_local(0, 1);
        b.advance_local(1, 1);
        b.attach_pool(2, |c| c);
        assert!(b.block(0));
        assert!(b.block(1));
        b.raise_max_local(1, 2);
        b.advance_local(1, 2);
        assert!(b.block(1), "core 1 blocks again at its new window");
        let per_core = |c: usize| {
            let cc = &b.cores[c];
            (cc.blocks.load(Ordering::Relaxed), cc.wakeups.load(Ordering::Relaxed))
        };
        assert_eq!(per_core(0), (1, 0));
        assert_eq!(per_core(1), (2, 1));
        assert_eq!((b.blocks(), b.wakeups()), (3, 1));
    }

    #[test]
    fn unpark_and_stop_wake_the_owning_workers() {
        let b = Arc::new(ClockBoard::new(2, 1));
        // Worker 2 never idles, so neither sleeper is the last.
        b.attach_pool(3, |c| c);
        let parked = worker(&b, 0, |b| {
            b.sync_park(0);
            assert!(!b.go_idle(0, &[0]));
        });
        let blocked = worker(&b, 1, |b| {
            b.advance_local(1, 1);
            assert!(b.block(1));
            assert!(!b.go_idle(1, &[1]));
        });
        wait_until_asleep(&b, 0);
        assert!(b.unpark(0));
        parked.join().unwrap();
        wait_until_asleep(&b, 1);
        b.stop_all();
        blocked.join().unwrap();
        assert_eq!(b.state(1), CoreState::Blocked, "stopping ends no block");
        assert_eq!(b.idle.load(Ordering::SeqCst), 0);
        b.detach_pool();
    }

    /// PR 13's park-then-recheck window: a message pushed and flushed
    /// after a core last looked at its queues, but before it parks. The
    /// park must fail — no refresh may ever see the core parked with mail.
    #[test]
    fn a_core_with_mail_cannot_park() {
        let b = ClockBoard::new(1, 10);
        let mut cache = GlobalCache::new(1);
        b.attach_pool(2, |_| 0);
        assert!(!b.unpark(0), "a running core is not resumed");
        assert_eq!(b.state(0), CoreState::Running, "mail is not a state");
        assert!(!b.sync_park(0), "the park fails on mail");
        b.recompute_global_cached(&mut cache);
        assert_eq!(cache.active_count(), 1, "never seen parked");
        assert!(b.sync_park(0), "the mail was read: the next park holds");
        assert!(b.unpark(0));
        b.detach_pool();
        // Outside a threaded segment nobody leaves mail.
        assert!(!b.unpark(0));
        assert!(b.sync_park(0));
    }

    #[test]
    fn the_last_worker_to_go_idle_does_not_sleep() {
        let b = ClockBoard::new(2, 1);
        b.attach_pool(1, |_| 0);
        b.sync_park(0);
        assert!(b.go_idle(0, &[0]), "a lone worker is always the last");
        assert_eq!(b.idle.load(Ordering::SeqCst), 0);
        b.detach_pool();
    }

    #[test]
    fn observed_slack() {
        let b = ClockBoard::new(3, 100);
        for c in 1..=4 {
            b.advance_local(0, c);
        }
        b.advance_local(1, 1);
        // core 2 stays at 0
        let mut cache = GlobalCache::new(3);
        b.recompute_global_cached(&mut cache);
        assert_eq!(b.global(), 0);
        assert_eq!(cache.observed_slack(b.global()), 4);
        assert_eq!(scan_slack(&b), 4);
    }

    #[test]
    fn cached_recompute_follows_ticks_and_finishes() {
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
            let prev = b.global();
            let cached = b.recompute_global_cached(cache);
            assert_eq!(cached, full_scan(&b, prev));
            assert_eq!(cache.observed_slack(cached.0), scan_slack(&b));
            assert_eq!(cache.active_count(), scan_active(&b));
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
        b.jump_local(1, 9);
        b.finish(2);
        check(&mut cache);
        b.finish(0);
        b.finish(1);
        check(&mut cache);
    }

    #[test]
    fn unchanged_global_is_not_restored() {
        // A reduction with no movement must still report the same global
        // (the skip-store path returns the previous value).
        let b = ClockBoard::new(2, 100);
        for c in 1..=3 {
            b.advance_local(0, c);
            b.advance_local(1, c);
        }
        for _ in 0..2 {
            assert_eq!(b.recompute_global_cached(&mut GlobalCache::new(2)), (3, false));
        }
        assert_eq!(b.global(), 3);
    }
}
